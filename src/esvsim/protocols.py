"""Heralded protocols: entanglement swapping, teleportation, and two
ancilla-assisted generation schemes for entangled squeezed vacua.

All protocols are simulated as circuits: beam splitters, diagonal
controlled-phase gates, projective measurements.  A beam splitter inside a
protocol acts on a zero-padded mode pair (each mode enlarged to hold the
full total-photon-number range of the pair), through the ideal balanced
splitter blocks of `fock._balanced_splitter_blocks` on every total the
padded input can reach, so it is exact; outputs are truncated back to the
caller's cutoff at the end.

Swapping and teleportation never form their joint state.  With E and O the
squeezed vacuum on |4k> and on |4k + 2>, |s±> = E ± O, so the resources are
finite sums of product terms: |Psi(pi)> ∝ O⊗E - E⊗O and the aligned state
|Phi(pi)> ∝ E⊗O + O⊗E.  Each term's two-mode vector that meets the splitter
goes through the padded splitter and the odd-odd projection on its own, and
the heralding probability, the fidelity and the splitter's tail mass are
Gram sums over the terms (`_herald`).  Fidelities are taken against the
target at the caller's cutoff; no reduced density matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FockVector,
    ModeLayout,
    _apply_unitary,
    _balanced_splitter_blocks,
    _band_mask,
    _warn_tail,
    check_tail,
    resize_mode,
    tensor,
)
from .states import (_DEGENERATE, _ZERO_NORM, EsvSpec, SqueezeSpec, _superpose, esv_aligned,
                     squeezed_vacuum, two_mode_squeezed_vacuum)

__all__ = [
    "QubitAmplitudes",
    "KerrSpec",
    "odd_odd_projector",
    "controlled_phase",
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
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|a0|^2 + |a1|^2 = {norm:.14f} is not 1")


@dataclass(frozen=True)
class KerrSpec:
    """Cross-Kerr phase gamma of the controlled interaction e^{i gamma n q}."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


def odd_odd_projector(state: FockVector, modes: tuple[int, int]) -> tuple[FockVector, float]:
    """Project onto odd photon number in both selected modes.

    Returns the unnormalized projected vector and the outcome probability
    (its squared norm).
    """
    i, j = (state.layout.check_mode(m) for m in modes)
    if i == j:
        raise ValueError("projector needs two distinct modes")
    t = state.as_tensor().copy()
    for mode in (i, j):
        np.moveaxis(t, mode, 0)[::2] = 0     # a view: zeroes the even levels of t in place
    proj = FockVector(state.layout, t.reshape(-1))
    return proj, float(proj.norm() ** 2)


def controlled_phase(state, mode: int, control: int, gamma: float, control_value: int = 1):
    """Diagonal gate e^{i gamma n_mode} applied when the control qubit is set.

    The control must be a two-level mode; control_value selects which of its
    basis states triggers the phase.
    """
    mode = state.layout.check_mode(mode)
    control = state.layout.check_mode(control)
    if state.layout.dims[control] != 2:
        raise ValueError("control mode must have dimension 2")
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    d = state.layout.dims[mode]
    phase = np.exp(1j * gamma * np.arange(d))
    diag = np.ones((d, 2), dtype=complex)
    diag[:, control_value] = phase
    u = np.diag(diag.reshape(-1))
    return _apply_unitary(state, [mode, control], [(slice(None), u)])


def _project_qubit(state: FockVector, mode: int, coeffs: np.ndarray) -> tuple[FockVector, float]:
    """Contract a two-level mode against <coeffs| and drop it."""
    mode = state.layout.check_mode(mode)
    t = np.moveaxis(state.as_tensor(), mode, -1)
    out = t @ coeffs.conj()
    dims = tuple(d for k, d in enumerate(state.layout.dims) if k != mode)
    vec = FockVector(ModeLayout(dims), out.reshape(-1))
    return vec, float(vec.norm() ** 2)


def _padded_balanced_bs(state: FockVector, mode_a: int, mode_b: int) -> FockVector:
    """Balanced splitter on modes zero-padded to d_a + d_b - 1 levels; exact.

    The largest input total, d_a + d_b - 2, is below the padded cutoff, so
    the builder's blocks cover every total the input reaches.  No tail
    check here: the caller checks the state it owns.
    """
    big = state.layout.dims[mode_a] + state.layout.dims[mode_b] - 1
    state = resize_mode(resize_mode(state, mode_a, big), mode_b, big)
    return _apply_unitary(state, [mode_a, mode_b], _balanced_splitter_blocks(big))


def _parity_split(s: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(E, O): the squeezed vacuum at (s, cutoff) on |4k> and on |4k + 2>.

    |s+> = E + O and |s-> = E - O, bit for bit.
    """
    u = squeezed_vacuum(SqueezeSpec(s, cutoff)).amps
    even = np.where(np.arange(cutoff) % 4 == 0, u, 0)
    return even, u - even


def _herald(coefs: np.ndarray, kept: np.ndarray, kept_layout: ModeLayout,
            pairs: list[tuple[np.ndarray, np.ndarray]], target: np.ndarray) -> tuple[float, float]:
    """Heralding probability and fidelity for the resource sum_T c_T kept_T ⊗ pair_T.

    Each two-mode pair_T = a_T ⊗ b_T, given as `pairs[T] = (a_T, b_T)`, meets
    the padded balanced splitter B (a_T on its first port) and the odd-odd
    projection P on its own, giving chi_T = P B pair_T; `kept` holds the
    other modes' vector of each term (one row per term, over `kept_layout`).
    Writing [x, y] for c† (G_x ∘ G_y) c, with G_x the Gram matrix of the
    terms' x vectors, p = [kept, chi] / [kept, pair] and
    F = |sum_T c_T <target|kept_T> chi_T|² / [kept, chi].

    The splitter's tail check decides on the band mass of the padded joint
    output, [kept, B pair] - [Q kept, Q B pair], where Q zeroes every level
    in a mode's top band: the no-band part of a state is a product projection,
    so the joint state is never formed.
    """
    def weight(x, y):
        return float((coefs.conj() @ ((x.conj() @ x.T) * (y.conj() @ y.T)) @ coefs).real)

    inputs = [FockVector(ModeLayout((a.size, b.size)), np.kron(a, b)) for a, b in pairs]
    outs = [_padded_balanced_bs(vec, 0, 1) for vec in inputs]
    out = np.array([o.amps for o in outs])
    chi = np.array([odd_odd_projector(o, (0, 1))[0].amps for o in outs])
    norm2 = weight(kept, np.array([vec.amps for vec in inputs]))
    q_kept, q_out = ~_band_mask(kept_layout), ~_band_mask(outs[0].layout)
    band = weight(kept, out) - weight(kept[:, q_kept], out[:, q_out])
    _warn_tail(band / norm2, "beam splitter", stacklevel=2)
    heralded = weight(kept, chi)
    amp = (coefs * (kept @ target.conj())) @ chi
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


def _ancilla_vector(ancilla: QubitAmplitudes) -> FockVector:
    amps = np.array([ancilla.a0, ancilla.a1], dtype=complex)
    return FockVector(ModeLayout((2,)), amps)


_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def _measure_pm(state: FockVector, mode: int, outcome: str) -> tuple[FockVector, float]:
    if outcome not in ("+", "-"):
        raise ValueError("outcome must be '+' or '-'")
    coeffs = _PLUS if outcome == "+" else _MINUS
    vec, prob = _project_qubit(state, mode, coeffs)
    if prob < 1e-14:
        raise ValueError("conditional state is null for this outcome")
    return vec, prob


def generate_scheme_a(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int) -> tuple[FockVector, float]:
    """Two controlled phase-flips on a pair of identical squeezed vacua.

    The ancilla toggles a pi/2 phase rotation (cross-Kerr with gamma = pi/2)
    on mode b when it reads 0 and on mode a when it reads 1; measuring it in
    the |+->-basis leaves a0 |s+,s-> +- a1 |s-,s+> on the modes.
    """
    plus = squeezed_vacuum(SqueezeSpec(s, cutoff))
    state = tensor(tensor(plus, plus), _ancilla_vector(ancilla)).normalized()
    state = controlled_phase(state, 1, 2, np.pi / 2, control_value=0)
    state = controlled_phase(state, 0, 2, np.pi / 2, control_value=1)
    vec, prob = _measure_pm(state, 2, outcome)
    return vec.normalized(), prob


def generate_scheme_b(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int, kerr: KerrSpec = KerrSpec(np.pi)) -> tuple[FockVector, float]:
    """Single cross-Kerr gate on a two-mode squeezed vacuum, then a splitter.

    With gamma = pi the ancilla's |1> branch flips the sign of the two-mode
    squeezing; the balanced splitter then factors each branch into opposite
    single-mode squeezed vacua, reproducing scheme a's conditional states.
    """
    resource = two_mode_squeezed_vacuum(s, cutoff)
    state = tensor(resource, _ancilla_vector(ancilla)).normalized()
    state = controlled_phase(state, 1, 2, kerr.gamma, control_value=1)
    state = _padded_balanced_bs(state, 0, 1)
    check_tail(state, context="beam splitter")
    vec, prob = _measure_pm(state, 2, outcome)
    vec = resize_mode(resize_mode(vec, 0, cutoff), 1, cutoff)
    return vec.normalized(), prob
