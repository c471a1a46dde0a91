"""Heralded protocols: entanglement swapping, teleportation, and two
ancilla-assisted generation schemes for entangled squeezed vacua.

The algebra below is written in E and O, the squeezed vacuum on |4k> and
on |4k + 2>, so |s±> = E ± O.  Only the generation schemes build Fock
arrays: |s+> and |s-> at the caller's cutoff (`states._pair`).  No
protocol forms a state of more than two oscillator modes or carries a
qubit ancilla as a mode.

Swapping and teleportation build nothing and need no cutoff.  Their
resources are sums of product terms over E and O, (e, o) = (|E|², |O|²):
|Psi(pi)> ∝ O⊗E - E⊗O and the aligned state |Phi(pi)> ∝ E⊗O + O⊗E.  Every
term meets the splitter B with even photon numbers in both modes, where
the odd-odd herald P is an antisymmetrizer (Hong-Ou-Mandel),
<B(a⊗b)| P |B(a'⊗b')> = (<a|a'><b|b'> - <a|b'><b|a'>)/2, so
P B (a ⊗ b) = det(a, b) chi over the (E, O) coefficients, |chi|² = eo/2.
The heralded state is exactly the target and p = 1/4: both protocols
return (1/4, 1) at every finite s > 0, where e = (1 + c)/2 and
o = (1 - c)/2 are positive (c = sech^{1/2} 2s < 1), and check nothing else.

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

from .fock import FockVector, ModeLayout, _check_complex, _check_real
from .states import _pair, _tmsv_diagonal

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
    """Normalized pair of coefficients for an ancilla or input qubit, stored as complex."""

    a0: complex
    a1: complex

    def __post_init__(self):
        object.__setattr__(self, "a0", _check_complex(self.a0, "a0"))
        object.__setattr__(self, "a1", _check_complex(self.a1, "a1"))
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
        object.__setattr__(self, "gamma", _check_real(self.gamma, "gamma"))


def _check_qubit(value, name: str) -> None:
    """Raise TypeError naming the argument unless `value` is `QubitAmplitudes`."""
    if not isinstance(value, QubitAmplitudes):
        raise TypeError(f"{name} must be QubitAmplitudes, got {value!r}")


def _check_squeezing(s: float, protocol: str) -> None:
    """Raise unless s is finite and positive, the domain of the closed form."""
    if _check_real(s, "s") <= 0:
        raise ValueError(f"{protocol} requires s > 0")


def entanglement_swap(s: float) -> tuple[float, float]:
    """Swap entanglement onto modes (1, 4) of a doubled squeezed resource.

    Resource: |Psi(pi)>_{12} (x) |Phi(pi)>_{34}; modes 2 and 3 interfere on
    a balanced splitter and are projected onto odd photon numbers.  Returns
    the heralding probability and the fidelity of the conditional state of
    modes (1, 4) with |Phi(pi)>: exactly (1/4, 1) at every finite s > 0.

    The resource (O⊗E - E⊗O) ⊗ (E⊗O + O⊗E), of squared norm 4e²o², meets the
    splitter in the pairs (E, E), (E, O), (O, E) and (O, O), of determinants
    0, 1, -1 and 0, times O⊗O, O⊗E, -E⊗O and -E⊗E kept.  So the heralded state
    is (O⊗E + E⊗O) ⊗ chi, |Phi(pi)> itself with h² = 2eo, and p = h² eo/2 / (4e²o²).
    """
    _check_squeezing(s, "swap")
    return 0.25, 1.0


def teleport(inp: QubitAmplitudes, s: float) -> tuple[float, float]:
    """Teleport x = a0|s+> + a1|s-> = x0 E + x1 O, (x0, x1) = (a0 + a1, a0 - a1), through |Phi(pi)>.

    The input mode and resource mode 1 interfere on a balanced splitter and
    are projected onto odd photon numbers; a pi/2 phase-space rotation on
    mode 2 then restores the input.  That rotation is moved onto the target
    as R(-pi/2), which maps |s+-> to |s-+>, so the target is
    a0|s-> + a1|s+> = x0 E - x1 O.  Returns (probability, output fidelity):
    exactly (1/4, 1) at every finite s > 0, for every normalized input.
    The joint state x ⊗ (E⊗O + O⊗E), of squared norm 2eo h² with
    h² = e|x0|² + o|x1|² > 0 (e, o > 0 and (x0, x1) != 0), meets the splitter
    in the pairs (x, E) and (x, O), of determinants -x1 and x0, times O and E
    kept.  So mode 2 holds the target x0 E - x1 O, of squared norm h², and
    p = h² eo/2 / (2eo h²).
    """
    _check_qubit(inp, "inp")
    _check_squeezing(s, "teleportation")
    return 0.25, 1.0


def _conditional(branches: np.ndarray, outcome: str) -> tuple[np.ndarray, float]:
    """Measure the ancilla of sum_q branches[..., q] ⊗ |q> in the |+-> basis.

    Returns the unnormalized conditional state (b0 +- b1)/sqrt(2) and its
    probability n± / (n+ + n-), n± the squared norms of both outcomes' states:
    rounding keeps fl(n+ + n-) >= n±, so it is at most 1 by construction.
    """
    b0, b1 = branches[..., 0], branches[..., 1]
    vecs = {"+": (b0 + b1) / np.sqrt(2.0), "-": (b0 - b1) / np.sqrt(2.0)}
    norms = {sign: float(np.vdot(vec, vec).real) for sign, vec in vecs.items()}
    total = norms["+"] + norms["-"]
    if total == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if outcome not in ("+", "-"):
        raise ValueError("outcome must be '+' or '-'")
    prob = norms[outcome] / total
    if prob < 1e-14:
        raise ValueError("conditional state is null for this outcome")
    return vecs[outcome], prob


def generate_scheme_a(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int) -> tuple[FockVector, float]:
    """Two controlled phase-flips on a pair of identical squeezed vacua.

    The ancilla toggles a pi/2 phase rotation (cross-Kerr with gamma = pi/2)
    on mode b when it reads 0 and on mode a when it reads 1; measuring it in
    the |+->-basis leaves a0 |s+,s-> +- a1 |s-,s+> on the modes.  The
    rotation maps |s+> to |s->, so the branches are a0 |s+,s-> and
    a1 |s-,s+>, both from one squeezed vacuum (`states._pair`).
    """
    _check_qubit(ancilla, "ancilla")
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
    _check_qubit(ancilla, "ancilla")
    plus, minus = _pair(s, cutoff)
    levels = np.arange(cutoff)
    diag = _tmsv_diagonal(s, cutoff)
    tmsv = np.stack([ancilla.a0 * diag, ancilla.a1 * np.exp(1j * kerr.gamma * levels) * diag], axis=-1)
    _, prob = _conditional(tmsv, outcome)
    half = np.exp(0.5j * kerr.gamma * levels)     # e^{i gamma N/2} = e^{i gamma n_a/2} e^{i gamma n_b/2}
    branches = np.stack([ancilla.a0 * np.outer(plus, minus), ancilla.a1 * np.outer(half * plus, half * minus)],
                        axis=-1)
    vec, _ = _conditional(branches, outcome)
    return FockVector(ModeLayout((cutoff, cutoff)), vec).normalized(), prob
