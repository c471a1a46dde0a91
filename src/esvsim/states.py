"""Constructors for squeezed-vacuum states and their entangled superpositions.

The central family is the two-mode state

    |Psi(phi)> = N (|s+>|s-> + e^{i phi} |s->|s+>),
    N = 1/sqrt(2 [1 + sech(2s) cos(phi)]),

built from single-mode vacua squeezed along opposite quadratures,
|s+-> = S(+-s)|0>.  The mixed-state version applies the conditional map

    T = 1 (x) R(pi/2) + e^{i phi} R(pi/2) (x) 1

to a product of single-mode inputs and renormalizes; R(pi/2) flips
|s+> <-> |s-> because squeezed vacua live on even photon numbers.

Constructors that build superpositions return unit-norm vectors with the
global phase fixed so the largest-magnitude amplitude is real positive.
The closed-form squeezed vacuum and two-mode squeezed vacuum keep their
natural amplitudes; their norm is 1 minus the truncation tail.  The overlap
of oppositely squeezed displaced states is given in closed form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    _I_POW,
    DensityMatrix,
    FockVector,
    ModeLayout,
    check_tail,
)

__all__ = [
    "SqueezeSpec",
    "EsvSpec",
    "squeezed_vacuum",
    "esv_pure",
    "esv_mixed",
    "displaced_overlap",
    "two_mode_squeezed_vacuum",
]

TWO_PI = 2.0 * np.pi
_ZERO_NORM = 1e-12      # a superposition with a smaller norm is the zero vector
_DEGENERATE = "degenerate superposition is the zero vector"


@dataclass(frozen=True)
class SqueezeSpec:
    """Single-mode squeezing amount and Fock cutoff."""

    s: float
    cutoff: int

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError("squeezing parameter must be finite")
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")


@dataclass(frozen=True)
class EsvSpec:
    """Parameters of |Psi(phi)>; phi is wrapped into [0, 2*pi)."""

    s: float
    phi: float
    cutoff: int

    def __post_init__(self):
        if self.s < 0 or not math.isfinite(self.s):
            raise ValueError("squeezing parameter must be finite and >= 0")
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        object.__setattr__(self, "phi", _wrap_phi(self.phi, _sech_2s(self.s)))


def _sech_2s(s: float) -> float:
    """sech(2s) from e^{-2s}, which underflows to 0 where cosh(2s) would overflow."""
    x = math.exp(-2.0 * s)
    return 2.0 * x / (1.0 + x * x)


def _sech_s(s: float) -> float:
    """sech s from e^{-|s|}; ValueError where it underflows to 0, and every truncated amplitude with it."""
    sech = _sech_2s(abs(s) / 2)
    if not sech:
        raise ValueError(f"sech s underflows to 0 at s = {s:g}: every truncated amplitude is 0")
    return sech


def _wrap_phi(phi: float, sech_2s: float) -> float:
    """phi wrapped into [0, 2*pi), checked as `EsvSpec` checks it.

    Raises ValueError for a non-finite phi, and where the norm
    N = 1/sqrt(2 [1 + sech(2s) cos(phi)]) of |Psi(phi)> would not be finite.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    phi = float(phi % TWO_PI)
    if 1.0 + math.cos(phi) * sech_2s < 1e-12:
        raise ValueError("degenerate superposition: s = 0 with phi = pi is the zero vector")
    return phi


def _phase_fixed(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest amplitude is real positive.

    `amps` is normalized, so that amplitude has modulus at least 1/sqrt(n).
    """
    z = amps[int(np.argmax(np.abs(amps)))]
    return amps * (np.conj(z) / abs(z))


def _superpose(first: np.ndarray, second: np.ndarray, dims: tuple[int, ...]) -> FockVector:
    """first + second, normalized, with the global phase fixed.

    A sum whose norm is below `_ZERO_NORM` is a degenerate superposition and
    raises ValueError(_DEGENERATE).
    """
    amps = first + second
    norm = np.linalg.norm(amps)
    if norm < _ZERO_NORM:
        raise ValueError(_DEGENERATE)
    return FockVector(ModeLayout(dims), _phase_fixed(amps / norm))


def squeezed_vacuum(spec: SqueezeSpec) -> FockVector:
    """|psi_s> with amplitudes sech(s)^1/2 sqrt((2n)!)/n! (-tanh(s)/2)^n on |2n>.

    Amplitudes come from the stable two-step recurrence
    c_{2n+2} = -tanh(s) sqrt((2n+1)/(2n+2)) c_{2n}; odd levels are exact zeros.
    """
    d = spec.cutoff
    amps = np.zeros(d, dtype=complex)
    t = np.tanh(spec.s)
    n = np.arange(1, (d + 1) // 2)
    ratios = -t * np.sqrt((2.0 * n - 1.0) / (2.0 * n))
    evens = np.concatenate([[1.0], np.cumprod(ratios)]) * math.sqrt(_sech_s(spec.s))
    amps[0::2] = evens
    out = FockVector(ModeLayout((d,)), amps)
    check_tail(out, context="squeezed_vacuum")
    return out


def _pair(s: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(|s+>, |s->), the squeezed vacua at +s and -s, from one squeezed vacuum:
    |s-> is |s+> with the sign of every |4k + 2> amplitude flipped."""
    plus = squeezed_vacuum(SqueezeSpec(s, cutoff)).amps
    minus = plus.copy()
    minus[2::4] = -plus[2::4]
    return plus, minus


def esv_pure(spec: EsvSpec) -> FockVector:
    """|Psi(phi)> = N (|s+>|s-> + e^{i phi} |s->|s+>), normalized."""
    plus, minus = _pair(spec.s, spec.cutoff)
    return _superpose(np.kron(plus, minus), np.exp(1j * spec.phi) * np.kron(minus, plus),
                      (spec.cutoff, spec.cutoff))


def _check_esv_input(rho: DensityMatrix, name: str) -> int:
    """The cutoff of a physical unit-trace single-mode input; ValueError for anything else.

    `esv_mixed` checks each of its two inputs, `measures.esv_mixed_ln_curve`
    its one input once.
    """
    if rho.layout.nmodes != 1:
        raise ValueError("esv_mixed needs two single-mode density matrices")
    if float(np.linalg.eigvalsh(rho.mat).min()) < -1e-9 or abs(rho.trace() - 1.0) > 1e-6:
        raise ValueError(f"{name} is not a physical unit-trace state")
    return rho.layout.dims[0]


def _check_esv_trace(tr: float) -> float:
    """The trace of T (rho_a (x) rho_b) T†, unless T annihilated the input."""
    if tr < 1e-12:
        raise ValueError("conditional map annihilated the input state")
    return tr


def _conditional_map(d: int, phi: float) -> np.ndarray:
    """The diagonal of T on |n_a, n_b>: t[n_a, n_b] = i^{n_b} + e^{i phi} i^{n_a}, i^n from `_I_POW`."""
    i_pow = _I_POW[np.arange(d) % 4]
    return i_pow[None, :] + np.exp(1j * phi) * i_pow[:, None]


def esv_mixed(rho_a: DensityMatrix, rho_b: DensityMatrix, phi: float) -> DensityMatrix:
    """Entangle two single-mode inputs with the conditional map T.

    T = 1 (x) R(pi/2) + e^{i phi} R(pi/2) (x) 1 is diagonal in the Fock
    basis; the output T (rho_a (x) rho_b) T† is renormalized to unit trace.
    On pure squeezed-vacuum inputs this reproduces |Psi(phi)><Psi(phi)|.

    For the log-negativity of this state with rho_a = rho_b real and free of
    coherence between opposite photon-number parities, as in both noisy
    sweeps, `measures.esv_mixed_ln_curve` gives the same value from the d x d
    input without building the d^2 x d^2 joint state; this function is its
    reference, and `log_negativity(esv_mixed(...), [1])` serves every other
    input.
    """
    d = _check_esv_input(rho_a, "rho_a")
    if _check_esv_input(rho_b, "rho_b") != d:
        raise ValueError("input cutoffs must match")
    t_diag = _conditional_map(d, phi).reshape(-1)
    joint = np.kron(rho_a.mat, rho_b.mat)
    out = t_diag[:, None] * joint * t_diag.conj()[None, :]
    tr = _check_esv_trace(float(np.trace(out).real))
    return DensityMatrix(ModeLayout((d, d)), out / tr)


def displaced_overlap(alpha: complex, beta: complex, r: float) -> float:
    """|<alpha,+r | beta,-r>|^2 for oppositely squeezed displaced states.

    Closed form exp(-|beta-alpha|^2 / cosh 2r) / cosh 2r; it decreases
    monotonically in |beta - alpha| and, at fixed separation d > 1, is
    maximized over r at r = arccosh(d^2)/2.  A nan or infinite argument
    raises ValueError naming it.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("r", r)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    sech = _sech_2s(abs(r))
    delta = complex(beta) - complex(alpha)
    # a float sum of squares saturates at inf, where the abs() of a complex
    # and ** 2 raise OverflowError; with sech 2r = 0 the overlap is 0, also
    # where inf * 0 would give nan
    dist2 = delta.real * delta.real + delta.imag * delta.imag
    return float(np.exp(-dist2 * sech) * sech) if sech else 0.0


def two_mode_squeezed_vacuum(s: float, cutoff: int) -> FockVector:
    """sech(s) sum_n tanh(s)^n |n, n>."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    d = cutoff
    diag = (np.tanh(s) ** np.arange(d)) * _sech_s(s)
    amps = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(amps, diag)
    out = FockVector(ModeLayout((d, d)), amps.reshape(-1))
    check_tail(out, context="two_mode_squeezed_vacuum")
    return out
