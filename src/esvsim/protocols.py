"""Heralded protocols: entanglement swapping, teleportation, and two
ancilla-assisted generation schemes for entangled squeezed vacua.

Every protocol is built from E and O, the squeezed vacuum on |4k> and on
|4k + 2> (`states._parity_split`), so |s±> = E ± O.  No protocol forms a
state of more than two oscillator modes or carries a qubit ancilla as a
mode.

Swapping and teleportation need no Fock array and no cutoff.  Their
resources are finite sums of product terms over E and O: |Psi(pi)> ∝
O⊗E - E⊗O and the aligned state |Phi(pi)> ∝ E⊗O + O⊗E.  Every term meets
the balanced splitter with even photon numbers in both modes, where the
odd-odd herald is an antisymmetrizer (Hong-Ou-Mandel), so each term's
heralded vector is a 2×2 determinant of its (E, O) coefficients times one
fixed vector, and the heralding probability and the fidelity are Gram sums
over the terms with the exact norms |E|² and |O|² (`_herald`).

The balanced splitter on modes (a, b) realizes a -> (a + b)/sqrt(2),
b -> (b - a)/sqrt(2).

The generation schemes keep one two-mode branch per ancilla basis state;
measuring the ancilla in the |±> basis leaves (b0 ± b1)/sqrt(2)
(`_conditional`).  Both schemes' branches are products of |s+> and |s->.
The splitter turns the two-mode squeezed vacuum into |s+, s-> (Kim, Son,
Bužek & Knight, PRA 65, 032323 (2002)), and scheme b's Kerr phase
e^{i gamma n_b} equals e^{i gamma N/2} on it, N = n_a + n_b, which commutes
with the splitter; so scheme b needs no splitter either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, ModeLayout
from .states import _DEGENERATE, _ZERO_NORM, _pair, _sech_2s

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


def _parity_weights(s: float, protocol: str) -> np.ndarray:
    """(|E|², |O|²) = ((1 + c)/2, (1 - c)/2) untruncated, c = <s+|s-> = sech(2s)^1/2.

    1 - c = (1 - sech 2s)/(1 + c) with 1 - sech 2s = (1 - x)²/(1 + x²) and
    x = e^{-2s}, 1 - x from expm1: no cancellation at small s, no overflow.
    """
    if s <= 0:
        raise ValueError(f"{protocol} requires s > 0")
    if not math.isfinite(s):
        raise ValueError("squeezing parameter must be finite")
    x = math.exp(-2.0 * s)
    c = math.sqrt(_sech_2s(s))
    return np.array([(1.0 + c) / 2.0, math.expm1(-2.0 * s) ** 2 / (1.0 + x * x) / (1.0 + c) / 2.0])


def _herald(coefs: np.ndarray, kept_norm2: np.ndarray, pairs: np.ndarray, weights: np.ndarray,
            target: np.ndarray) -> tuple[float, float]:
    """Heralding probability and fidelity for the resource sum_T c_T kept_T ⊗ a_T ⊗ b_T.

    The kept_T are orthogonal, with squared norms `kept_norm2`, and `target`
    holds the target's coefficients on them.  `pairs[T] = (a_T, b_T)` holds the
    coefficients over (E, O), squared norms `weights` = (e, o), of the modes
    that meet the balanced splitter B (a_T on its first port) and the
    odd-odd projection P.  On even photon numbers in both modes B† P B is the
    antisymmetrizer, <B(a⊗b)| P |B(a'⊗b')> = (<a|a'><b|b'> - <a|b'><b|a'>)/2,
    so P B (a_T ⊗ b_T) = det(pairs[T]) chi with |chi|² = e o / 2, and the
    heralded state is h ⊗ chi with h = sum_T c_T det(pairs[T]) kept_T.  Then
    p = |h|² e o / 2 over the resource's squared norm and
    F = |<target|h>|² / (|h|² |target|²).
    """
    # |s+,s+> - |s-,s-> = 2 (E⊗O + O⊗E), of norm 2 sqrt(2eo), is degenerate where `_superpose` says so
    if 2.0 * math.sqrt(2.0 * weights[0] * weights[1]) < _ZERO_NORM:
        raise ValueError(_DEGENERATE)
    a, b = pairs[:, 0], pairs[:, 1]
    norm2 = kept_norm2 @ (np.abs(coefs) ** 2 * (np.abs(a) ** 2 @ weights) * (np.abs(b) ** 2 @ weights))
    h = coefs * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    h2 = kept_norm2 @ np.abs(h) ** 2
    fidelity = abs(np.vdot(target, kept_norm2 * h)) ** 2 / (h2 * (kept_norm2 @ np.abs(target) ** 2))
    return float(h2 * weights[0] * weights[1] / 2.0 / norm2), float(fidelity)


_E, _O = np.eye(2)


def entanglement_swap(s: float) -> tuple[float, float]:
    """Swap entanglement onto modes (1, 4) of a doubled squeezed resource.

    Resource: |Psi(pi)>_{12} (x) |Phi(pi)>_{34}; modes 2 and 3 interfere on
    a balanced splitter and are projected onto odd photon numbers.  Returns
    the heralding probability (1/4, independent of squeezing) and the
    fidelity of the conditional state of modes (1, 4) with |Phi(pi)>.

    The resource is (O⊗E - E⊗O) ⊗ (E⊗O + O⊗E) up to its norm: four terms,
    O⊗O, O⊗E, E⊗O and E⊗E on modes (1, 4) times one pair on modes (2, 3).
    """
    weights = _parity_weights(s, "swap")
    pairs = np.array([(_E, _E), (_E, _O), (_O, _E), (_O, _O)])
    return _herald(np.array([1.0, 1.0, -1.0, -1.0]), np.kron(weights, weights)[::-1], pairs, weights,
                   np.array([0.0, 1.0, 1.0, 0.0]))


def teleport(inp: QubitAmplitudes, s: float) -> tuple[float, float]:
    """Teleport (a0|s+> + a1|s->) = (a0 + a1) E + (a0 - a1) O through |Phi(pi)>.

    The input mode and resource mode 1 interfere on a balanced splitter and
    are projected onto odd photon numbers; a pi/2 phase-space rotation on
    mode 2 then restores the input.  That rotation is moved onto the target
    as R(-pi/2), which maps |s+-> to |s-+>, so the target is
    a0|s-> + a1|s+>.  Returns (probability, output fidelity).

    The joint state is input ⊗ (E⊗O + O⊗E) up to its norm: two terms, input
    ⊗ E meeting the splitter with O kept, and input ⊗ O with E kept.
    """
    weights = _parity_weights(s, "teleportation")
    source = np.array([inp.a0 + inp.a1, inp.a0 - inp.a1])
    if math.sqrt(weights @ np.abs(source) ** 2) < _ZERO_NORM:
        raise ValueError("input superposition is the zero vector")
    return _herald(np.ones(2), weights[::-1], np.array([(source, _E), (source, _O)]), weights,
                   np.array([inp.a1 - inp.a0, inp.a0 + inp.a1]))


def _conditional(branches: np.ndarray, outcome: str) -> tuple[np.ndarray, float]:
    """Measure the ancilla of sum_q branches[..., q] ⊗ |q> in the |+-> basis.

    Returns the unnormalized conditional state (b0 +- b1)/sqrt(2) and its
    probability, relative to the joint state's squared norm.
    """
    norm2 = float(np.vdot(branches, branches).real)
    if norm2 == 0.0:
        raise ValueError("cannot normalize the zero vector")
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
    vec, prob = _conditional(branches, outcome)
    return FockVector(ModeLayout((cutoff, cutoff)), vec).normalized(), prob


def generate_scheme_b(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int, kerr: KerrSpec = KerrSpec(np.pi)) -> tuple[FockVector, float]:
    """Single cross-Kerr gate on a two-mode squeezed vacuum, then a splitter.

    The ancilla's |q> branch is a_q e^{i gamma_q n_b} TMSV(s), gamma_0 = 0 and
    gamma_1 = gamma.  On the TMSV n_a = n_b, so that phase is e^{i gamma_q N/2},
    which commutes with the splitter, and the splitter maps TMSV(s) to
    |s+, s->: the branches leave it as a_q e^{i gamma_q N/2} |s+, s->, built
    here at the cutoff with the squeezed vacua's tail check.  With gamma = pi
    they are scheme a's.  The splitter preserves norms, so the probability is
    read before it, from the truncated TMSV's populations tanh(s)^{2n}.
    """
    plus, minus = _pair(s, cutoff)
    levels = np.arange(cutoff)
    diag = np.tanh(s) ** levels * _sech_2s(abs(s) / 2)      # the TMSV on |n, n>
    tmsv = np.stack([ancilla.a0 * diag, ancilla.a1 * np.exp(1j * kerr.gamma * levels) * diag], axis=-1)
    _, prob = _conditional(tmsv, outcome)
    half = np.exp(0.5j * kerr.gamma * levels)     # e^{i gamma N/2} = e^{i gamma n_a/2} e^{i gamma n_b/2}
    branches = np.stack([ancilla.a0 * np.outer(plus, minus), ancilla.a1 * np.outer(half * plus, half * minus)],
                        axis=-1)
    vec, _ = _conditional(branches, outcome)
    return FockVector(ModeLayout((cutoff, cutoff)), vec).normalized(), prob
