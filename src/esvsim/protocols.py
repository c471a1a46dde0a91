"""Heralded protocols: entanglement swapping, teleportation, and two
ancilla-assisted generation schemes for entangled squeezed vacua.

Every protocol is a sum of two-mode amplitude arrays, with E and O the
squeezed vacuum on |4k> and on |4k + 2> (`states._parity_split`), so
|s±> = E ± O.  No protocol forms a state of more than two oscillator modes
or carries a qubit ancilla as a mode.  The beam splitter acts on two-mode
arrays stacked on a trailing axis, each mode zero-padded to hold the full
total-photon-number range of the pair (`_split_padded`), through the ideal
balanced splitter blocks of `fock._balanced_splitter_blocks` on every total
the padded input can reach, so it is exact; outputs are truncated back to
the caller's cutoff at the end.

The generation schemes keep one two-mode branch per ancilla basis state;
measuring the ancilla in the |±> basis leaves (b0 ± b1)/sqrt(2)
(`_conditional`).  Swapping and teleportation write their resources as
finite sums of product terms: |Psi(pi)> ∝ O⊗E - E⊗O and the aligned state
|Phi(pi)> ∝ E⊗O + O⊗E.  Each term's two-mode vector that meets the splitter
goes through the padded splitter and the odd-odd projection, and the
heralding probability, the fidelity and the splitter's tail mass are Gram
sums over the terms (`_herald`).  Fidelities are taken against the target
at the caller's cutoff; no reduced density matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, ModeLayout, _apply_blocks, _balanced_splitter_blocks, _band_mask, _warn_tail
from .states import (_DEGENERATE, _ZERO_NORM, EsvSpec, _pair, _parity_split, _superpose, esv_aligned,
                     two_mode_squeezed_vacuum)

__all__ = [
    "QubitAmplitudes",
    "KerrSpec",
    "entanglement_swap",
    "teleport",
    "generate_scheme_a",
    "generate_scheme_b",
]


@dataclass(frozen=True)
class QubitAmplitudes:
    """Normalized pair of coefficients for an ancilla or input qubit."""

    a0: complex
    a1: complex

    def __post_init__(self):
        if not (np.isfinite(self.a0) and np.isfinite(self.a1)):
            raise ValueError("qubit amplitudes must be finite")
        # hypot neither overflows nor underflows where the sum of squares would
        norm = math.hypot(abs(self.a0), abs(self.a1))
        norm *= norm      # a float product saturates at inf where ** 2 raises
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|a0|^2 + |a1|^2 = {norm:.14f} is not 1")


@dataclass(frozen=True)
class KerrSpec:
    """Cross-Kerr phase gamma of the controlled interaction e^{i gamma n q}."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


def _split_padded(pairs: np.ndarray) -> np.ndarray:
    """Balanced splitter on every (d_a, d_b) slice of a (d_a, d_b, k) array; exact.

    Both modes are zero-padded to d_a + d_b - 1 levels, so the largest input
    total, d_a + d_b - 2, is below the padded cutoff and the builder's blocks
    cover every total the input reaches.  Returns the (big, big, k) output.
    No tail check here: the caller checks the state it owns.
    """
    d_a, d_b, k = pairs.shape
    big = d_a + d_b - 1
    padded = np.zeros((big, big, k), dtype=complex)
    padded[:d_a, :d_b] = pairs
    return _apply_blocks(padded, [0, 1], _balanced_splitter_blocks(big))


def _herald(coefs: np.ndarray, kept: np.ndarray, kept_layout: ModeLayout,
            pairs: list[tuple[np.ndarray, np.ndarray]], target: np.ndarray) -> tuple[float, float]:
    """Heralding probability and fidelity for the resource sum_T c_T kept_T ⊗ pair_T.

    Each two-mode pair_T = a_T ⊗ b_T, given as `pairs[T] = (a_T, b_T)`, meets
    the padded balanced splitter B (a_T on its first port) and the odd-odd
    projection P, giving chi_T = P B pair_T; all terms go through one stacked
    `_split_padded` call.  `kept` holds the other modes' vector of each term
    (one row per term, over `kept_layout`).  Writing [x, y] for
    c† (G_x ∘ G_y) c, with G_x the Gram matrix of the terms' x vectors,
    p = [kept, chi] / [kept, pair] and
    F = |sum_T c_T <target|kept_T> chi_T|² / [kept, chi].

    The splitter's tail check decides on the band mass of the padded joint
    output, [kept, B pair] - [Q kept, Q B pair], where Q zeroes every level
    in a mode's top band: the no-band part of a state is a product projection,
    so the joint state is never formed.
    """
    def weight(x, y):
        return float((coefs.conj() @ ((x.conj() @ x.T) * (y.conj() @ y.T)) @ coefs).real)

    def rows(t):     # (..., T) -> one flat row per term
        return t.reshape(-1, len(pairs)).T

    stacked = np.stack([np.outer(a, b) for a, b in pairs], axis=-1)
    out = _split_padded(stacked)
    chi = out.copy()
    chi[::2] = chi[:, ::2] = 0      # odd photon number in both modes
    norm2 = weight(kept, rows(stacked))
    q_kept, q_out = ~_band_mask(kept_layout), ~_band_mask(ModeLayout(out.shape[:2]))
    band = weight(kept, rows(out)) - weight(kept[:, q_kept], rows(out)[:, q_out])
    _warn_tail(band / norm2, "beam splitter", stacklevel=2)
    heralded = weight(kept, rows(chi))
    amp = (coefs * (kept @ target.conj())) @ rows(chi)
    return heralded / norm2, float(np.vdot(amp, amp).real) / heralded


def entanglement_swap(s: float, cutoff: int) -> tuple[float, float]:
    """Swap entanglement onto modes (1, 4) of a doubled squeezed resource.

    Resource: |Psi(pi)>_{12} (x) |Phi(pi)>_{34}; modes 2 and 3 interfere on
    a balanced splitter and are projected onto odd photon numbers.  Returns
    the heralding probability (1/4, independent of squeezing) and the
    fidelity of the conditional state of modes (1, 4) with |Phi(pi)>.

    The resource is (O⊗E - E⊗O) ⊗ (E⊗O + O⊗E) up to its norm: four terms,
    each a product of a vector of modes (1, 4) and one of modes (2, 3).
    """
    if s <= 0:
        raise ValueError("swap requires s > 0")
    even, odd = _parity_split(s, cutoff)
    target = esv_aligned(EsvSpec(s, np.pi, cutoff))
    kept = np.array([np.kron(odd, odd), np.kron(odd, even), np.kron(even, odd), np.kron(even, even)])
    pairs = [(even, even), (even, odd), (odd, even), (odd, odd)]
    return _herald(np.array([1.0, 1.0, -1.0, -1.0]), kept, ModeLayout((cutoff, cutoff)), pairs,
                   target.amps)


def teleport(inp: QubitAmplitudes, s: float, cutoff: int) -> tuple[float, float]:
    """Teleport (a0|s+> + a1|s->) through the |Phi(pi)> resource.

    The input mode and resource mode 1 interfere on a balanced splitter and
    are projected onto odd photon numbers; a pi/2 phase-space rotation on
    mode 2 then restores the input.  That rotation is moved onto the target
    as R(-pi/2), which maps |s+-> to |s-+> (the two differ by (-1)^n on
    |2n>), so the target is a0|s-> + a1|s+>.  Returns (probability, output
    fidelity).

    The joint state is input ⊗ (E⊗O + O⊗E) up to its norm: two terms, each
    meeting the splitter as input ⊗ E or input ⊗ O.
    """
    if s <= 0:
        raise ValueError("teleportation requires s > 0")
    even, odd = _parity_split(s, cutoff)
    plus, minus = even + odd, even - odd
    message = "input superposition is the zero vector"
    input_state = _superpose(inp.a0 * plus, inp.a1 * minus, (cutoff,), message)
    # |s+>|s+> - |s->|s-> = 2 (E⊗O + O⊗E) is the zero vector where `esv_aligned` says so
    if 2.0 * np.sqrt(2.0) * np.linalg.norm(even) * np.linalg.norm(odd) < _ZERO_NORM:
        raise ValueError(_DEGENERATE)
    target = _superpose(inp.a0 * minus, inp.a1 * plus, (cutoff,), message)
    pairs = [(input_state.amps, even), (input_state.amps, odd)]
    return _herald(np.ones(2), np.array([odd, even]), ModeLayout((cutoff,)), pairs, target.amps)


def _joint_norm2(branches: np.ndarray) -> float:
    """Squared norm of sum_q branches[..., q] ⊗ |q>, q the ancilla's basis state."""
    norm2 = float(np.vdot(branches, branches).real)
    if norm2 == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return norm2


def _conditional(branches: np.ndarray, norm2: float, outcome: str) -> tuple[np.ndarray, float]:
    """Measure the ancilla of sum_q branches[..., q] ⊗ |q> in the |+-> basis.

    Returns the unnormalized conditional state (b0 +- b1)/sqrt(2) and its
    probability, given the joint state's squared norm.
    """
    if outcome not in ("+", "-"):
        raise ValueError("outcome must be '+' or '-'")
    sign = 1.0 if outcome == "+" else -1.0
    vec = (branches[..., 0] + sign * branches[..., 1]) / np.sqrt(2.0)
    prob = float(np.vdot(vec, vec).real) / norm2
    if prob < 1e-14:
        raise ValueError("conditional state is null for this outcome")
    return vec, prob


def generate_scheme_a(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int) -> tuple[FockVector, float]:
    """Two controlled phase-flips on a pair of identical squeezed vacua.

    The ancilla toggles a pi/2 phase rotation (cross-Kerr with gamma = pi/2)
    on mode b when it reads 0 and on mode a when it reads 1; measuring it in
    the |+->-basis leaves a0 |s+,s-> +- a1 |s-,s+> on the modes.  The
    rotation maps |s+> to |s->, so the branches are a0 |s+,s-> and
    a1 |s-,s+>, taken from the parity split.
    """
    plus, minus = _pair(s, cutoff)
    branches = np.stack([ancilla.a0 * np.outer(plus, minus), ancilla.a1 * np.outer(minus, plus)], axis=-1)
    vec, prob = _conditional(branches, _joint_norm2(branches), outcome)
    return FockVector(ModeLayout((cutoff, cutoff)), vec).normalized(), prob


def generate_scheme_b(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int, kerr: KerrSpec = KerrSpec(np.pi)) -> tuple[FockVector, float]:
    """Single cross-Kerr gate on a two-mode squeezed vacuum, then a splitter.

    With gamma = pi the ancilla's |1> branch flips the sign of the two-mode
    squeezing; the balanced splitter then factors each branch into opposite
    single-mode squeezed vacua, reproducing scheme a's conditional states.
    The branches a0 TMSV and a1 e^{i gamma n_b} TMSV meet the padded
    splitter in one stacked call, and its tail check reads both.
    """
    tmsv = two_mode_squeezed_vacuum(s, cutoff).as_tensor()
    kerr_phase = np.exp(1j * kerr.gamma * np.arange(cutoff))
    branches = np.stack([ancilla.a0 * tmsv, ancilla.a1 * tmsv * kerr_phase], axis=-1)
    norm2 = _joint_norm2(branches)
    out = _split_padded(branches)
    band = out[_band_mask(ModeLayout(out.shape[:2])).reshape(out.shape[:2])]
    _warn_tail(float(np.vdot(band, band).real) / norm2, "beam splitter", stacklevel=2)
    vec, prob = _conditional(out, norm2, outcome)
    return FockVector(ModeLayout((cutoff, cutoff)), vec[:cutoff, :cutoff]).normalized(), prob
