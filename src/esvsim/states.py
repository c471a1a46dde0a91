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

The entangled squeezed vacuum lies in span{e, o} (x) span{e, o}, e and o the
|4k> and |4k + 2> parts of the squeezed vacuum u, so that |s+> = e + o and
|s-> = e - o.  With X = [e, o] and w = e^{i phi},

    |s+>|s-> + w |s->|s+> = 2 e^{i phi/2} X C Xᵀ,
    C = [[cos(phi/2), i sin(phi/2)], [-i sin(phi/2), -cos(phi/2)]],

C formed by `_coefficients`.  X has the Gram matrix diag(E, O), the weights of
u on |4k> and |4k + 2>, so the squared norm of X C Xᵀ is
cos²(phi/2) (E² + O²) + 2 sin²(phi/2) E O, a sum of non-negative terms; the
basis (|s+>, |s->) would subtract nearly equal numbers near phi = pi at small s.
`_parity_basis` gives X, (E, O) and that norm to `esv_pure` and to the
phi-curves of `measures` and `separability`, and is the one place that tests
the norm against the floor `_ZERO_NORM`.  For s > 0 with the squeezed vacuum's
tail resolved the norm is positive, as is the untruncated state's norm
2 sqrt((sinh² s + cos²(phi/2)) / cosh 2s).  So the floor applies only at s = 0,
where the state is (1 + e^{i phi}) |0, 0>, and where the tail check fails, where
truncation can leave no amplitude at all.

Every squeezed vacuum here is a row of one real table (`_squeezed_table`),
built for a whole s axis at once: `squeezed_vacuum` and `_pair` read one row,
and `_parity_basis` gives the rows of every point of s with the coefficients of
every phi, in one call on the whole grid.  One judge (`_judge`) raises and warns
for all of them in the order of a loop over the points of s.
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
    _as_real,
    _check_complex,
    _check_cutoff,
    _check_modes,
    _check_real,
    _in_bounds,
    _tail_fails,
    _top_band,
    _warn_tail,
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

_ZERO_NORM = 1e-12      # a superposition with a smaller norm is the zero vector
_DEGENERATE = "degenerate superposition is the zero vector"


@dataclass(frozen=True)
class SqueezeSpec:
    """Single-mode squeezing amount and Fock cutoff."""

    s: float
    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "s", _check_real(self.s, "s"))
        object.__setattr__(self, "cutoff", _check_cutoff(self.cutoff, 2))


@dataclass(frozen=True)
class EsvSpec:
    """Parameters of |Psi(phi)>; phi is wrapped into [0, 2*pi)."""

    s: float
    phi: float
    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "s", _check_real(self.s, "s", 0.0))
        object.__setattr__(self, "cutoff", _check_cutoff(self.cutoff, 2))
        object.__setattr__(self, "phi", _wrap_phi(self.phi))


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


def _wrap_phi(phi: float) -> float:
    """phi wrapped into [0, 2*pi); ValueError for a non-finite phi."""
    return _check_real(phi, "phi") % math.tau


def _phase_fixed(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest amplitude is real positive.

    `amps` is normalized, so that amplitude has modulus at least 1/sqrt(n).
    """
    z = amps[int(np.argmax(np.abs(amps)))]
    return amps * (np.conj(z) / abs(z))


def squeezed_vacuum(spec: SqueezeSpec) -> FockVector:
    """|psi_s> with amplitudes sech(s)^1/2 sqrt((2n)!)/n! (-tanh(s)/2)^n on |2n>.

    Amplitudes come from the stable two-step recurrence
    c_{2n+2} = -tanh(s) sqrt((2n+1)/(2n+2)) c_{2n}; odd levels are exact zeros
    (`_squeezed_table`).
    """
    return FockVector(ModeLayout((spec.cutoff,)), _squeezed_row(spec))


def _squeezed_table(s: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The real amplitudes of `squeezed_vacuum` at every point of the float array s, as
    rows of shape ``s.shape + (cutoff,)``, and per point whether its row fails
    `check_tail`'s test.

    Every row comes from the one recurrence, scaled by sqrt(sech s) from `_sech_s`'s
    formula per value, so it is bit for bit the row of s alone.  Where sech s
    underflows the row is zero, and its test fails.  Nothing is raised or warned
    here: `_judge` does that.
    """
    sech = np.array([_sech_2s(abs(v) / 2) for v in s.ravel().tolist()]).reshape(s.shape)
    n = np.arange(1, (cutoff + 1) // 2)
    ratios = -np.tanh(s)[..., None] * np.sqrt((2.0 * n - 1.0) / (2.0 * n))
    table = np.zeros(s.shape + (cutoff,))
    table[..., 0] = 1.0
    np.cumprod(ratios, axis=-1, out=table[..., 2::2])
    table[..., 0::2] *= np.sqrt(sech)[..., None]
    squares = table * table
    return table, _tail_fails(squares[..., cutoff - _top_band(cutoff):].sum(axis=-1), squares.sum(axis=-1))


def _judge(points: np.ndarray, failed: np.ndarray, tails: np.ndarray, minimum: float,
           degenerate: np.ndarray | None = None, moment: np.ndarray | None = None) -> None:
    """Raise and warn as a loop over the points of s would check them.

    At each point of the float array `points`, in row-major order: where `failed`,
    the ValueError of s (`_check_real` with `minimum`) or of its sech underflow
    (`_sech_s`); where `tails`, one "squeezed_vacuum" `TruncationWarning`; then, over
    the phi of the point, the degenerate-superposition ValueError if any is
    `degenerate`, else one "moment" warning per phi where `moment`.  `failed` and
    `tails` have the shape of `points`, `degenerate` and `moment` that of the (s, phi)
    grid it broadcasts to.
    """
    failed, tails = failed.ravel(), tails.ravel()
    degenerate, moment = _per_point(points, degenerate), _per_point(points, moment)
    for i in (failed | tails | degenerate | moment).nonzero()[0].tolist():
        if failed[i]:
            _sech_s(_check_real(float(points.flat[i]), "s", minimum))    # one of them raises
        _warn_tail("squeezed_vacuum", int(tails[i]), stacklevel=3)
        if degenerate[i]:
            raise ValueError(_DEGENERATE)
        _warn_tail("moment", int(moment[i]), stacklevel=3)


def _per_point(points: np.ndarray, flags: np.ndarray | None) -> np.ndarray:
    """How many of the grid's `flags` are set at each point of s, in row-major order."""
    if flags is None or not flags.any():
        return np.zeros(points.size, dtype=int)
    owner = np.broadcast_to(np.arange(points.size).reshape(points.shape), flags.shape)
    return np.bincount(owner[flags], minlength=points.size)


def _squeezed_row(spec: SqueezeSpec) -> np.ndarray:
    """The real amplitudes of `squeezed_vacuum` at `spec`, its row of `_squeezed_table`;
    ValueError where sech s underflows, and its tail judged."""
    s = np.asarray(spec.s)
    row, tail = _squeezed_table(s, spec.cutoff)
    _judge(s, row[0] == 0.0, tail, -math.inf)
    return row


def _parity_split(u: np.ndarray) -> np.ndarray:
    """X = [e, o], the |4k> and |4k + 2> parts of squeezed-vacuum amplitudes u (one row
    or a table of them, `_squeezed_table`), along a new last axis: shape ``u.shape + (2,)``."""
    x = np.zeros(u.shape + (2,))
    x[..., 0::4, 0], x[..., 2::4, 1] = u[..., 0::4], u[..., 2::4]
    return x


def _pair(s: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(|s+>, |s->) = (e + o, e - o), the squeezed vacua at +s and -s, from the one
    squeezed vacuum at s (`_parity_split`), checked as `squeezed_vacuum` checks it."""
    x = _parity_split(_squeezed_row(SqueezeSpec(s, cutoff)))
    e, o = x[:, 0], x[:, 1]
    return e + o, e - o


def _parity_basis(s, phi, cutoff: int, moment: bool = False):
    """X = [e, o], its Gram diagonal (E, O), and (cos(phi/2), sin(phi/2), norm2), norm2
    the squared norm of X C Xᵀ (module docstring), for |Psi(phi)> on the (s, phi) grid.

    s and phi are floats or arrays that broadcast together.  X has shape
    ``s.shape + (cutoff, 2)``, E and O its shape: every point of s is one row of
    `_squeezed_table`.  cos and sin have the shape of phi, norm2 that of the grid.

    The cutoff is checked first, then phi is checked and wrapped as `EsvSpec` wraps
    it.  Then each point of s, in row-major order and each with all of phi, is judged
    as when it was its own curve (`_judge`): s as `EsvSpec` checks it, its sech
    underflow, its tail, then the degenerate-superposition ValueError where the norm
    2 sqrt(norm2) is below `_ZERO_NORM` at s = 0 or with the tail failed (module
    docstring).  With `moment`, the moment words' joint Fock tail is judged
    last at each grid point, as `check_tail` judges it: its mass, on the basis states
    with a mode in the top band, is ||X_b C Xᵀ||² + ||X_l C X_bᵀ||², X_b and X_l the
    rows of X in the band and below it, a sum of non-negative terms over |C|² and the
    Gram diagonals.
    """
    cutoff = _check_cutoff(cutoff, 2)
    half = 0.5 * _wrap_phi(phi)
    points = np.asarray(_as_real(s, "s"))
    valid = _in_bounds(points, 0.0)
    table, tails = _squeezed_table(np.where(valid, points, 0.0), cutoff)
    failed = ~valid | (table[..., 0] == 0.0)        # s out of range, or sech s underflows
    x = _parity_split(table)
    even, odd = (x[..., 0::4, 0] ** 2).sum(axis=-1), (x[..., 2::4, 1] ** 2).sum(axis=-1)
    c, sn = np.cos(half), np.sin(half)
    norm2 = c * c * (even * even + odd * odd) + sn * sn * (2.0 * even * odd)
    moment_fails = None
    if moment:
        squares, below = x * x, cutoff - _top_band(cutoff)
        top, low = squares[..., below:, :].sum(axis=-2), squares[..., :below, :].sum(axis=-2)
        weight = np.abs(_coefficients(c, sn)) ** 2      # |C|² before the norm
        gram, quadratic = np.stack((even, odd), axis=-1), "...k,...kl,...l->..."
        mass = np.einsum(quadratic, top, weight, gram) + np.einsum(quadratic, low, weight, top)
        moment_fails = _tail_fails(mass, norm2)
    degenerate = ((points == 0.0) | tails) & (2.0 * np.sqrt(norm2) < _ZERO_NORM)
    _judge(points, failed, tails, 0.0, degenerate, moment_fails)
    return x, (even, odd), (c, sn, norm2)


def _coefficients(c, sn) -> np.ndarray:
    """C = [[c, i sn], [-i sn, -c]] (module docstring) for every (c, sn) of two floats or
    arrays of one shape: shape ``c.shape + (2, 2)``."""
    return np.stack([c, 1j * sn, -1j * sn, -c], axis=-1).reshape(np.shape(c) + (2, 2))


def esv_pure(spec: EsvSpec) -> FockVector:
    """|Psi(phi)> = N (|s+>|s-> + e^{i phi} |s->|s+>), normalized: X C Xᵀ / sqrt(norm2)
    from `_parity_basis`, which judges it, with the global phase fixed."""
    x, _, (c, sn, norm2) = _parity_basis(spec.s, spec.phi, spec.cutoff)
    coeffs = _coefficients(c, sn)
    # X C Xᵀ as the sum of C_kl x_k x_lᵀ: each x_k x_lᵀ is formed before it is scaled, so
    # the mode swap's mirror amplitudes have exactly equal moduli, and `_phase_fixed`
    # picks the first of them in row-major order whatever the rounding
    amps = sum(coeffs[k, l] * np.outer(x[:, k], x[:, l]) for k, l in np.ndindex(2, 2))
    return FockVector(ModeLayout((spec.cutoff, spec.cutoff)), _phase_fixed(amps.reshape(-1) / np.sqrt(norm2)))


def _check_esv_input(rho: DensityMatrix, name: str) -> int:
    """The cutoff of a physical unit-trace single-mode input; ValueError for anything else.

    `esv_mixed` checks each of its two inputs, `measures.esv_mixed_ln_curve`
    its one input once.
    """
    (d,) = _check_modes(rho.layout, 1, name)
    if float(np.linalg.eigvalsh(rho.mat).min()) < -1e-9 or abs(rho.trace() - 1.0) > 1e-6:
        raise ValueError(f"{name} is not a physical unit-trace state")
    return d


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
    t_diag = _conditional_map(d, _check_real(phi, "phi")).reshape(-1)
    joint = np.kron(rho_a.mat, rho_b.mat)
    out = t_diag[:, None] * joint * t_diag.conj()[None, :]
    tr = _check_esv_trace(float(np.trace(out).real))
    return DensityMatrix(ModeLayout((d, d)), out / tr)


def displaced_overlap(alpha: complex, beta: complex, r):
    """|<alpha,+r | beta,-r>|^2 for oppositely squeezed displaced states.

    Closed form exp(-|beta-alpha|^2 / cosh 2r) / cosh 2r; it decreases
    monotonically in |beta - alpha| and, at fixed separation d > 1, is
    maximized over r at r = arccosh(d^2)/2.  r is a float or an array, and the
    overlap has its shape.  A nan or infinite argument raises ValueError naming it,
    and alpha or beta that is not a number TypeError (`fock._check_complex`).
    """
    alpha, beta = _check_complex(alpha, "alpha"), _check_complex(beta, "beta")
    x = np.exp(-2.0 * np.abs(_check_real(r, "r")))
    sech = 2.0 * x / (1.0 + x * x)      # `_sech_2s` of |r|, on an array
    delta = beta - alpha
    # a float sum of squares saturates at inf, where the abs() of a complex
    # and ** 2 raise OverflowError; with sech 2r = 0 the overlap is 0, also
    # where inf * 0 would give nan
    dist2 = delta.real * delta.real + delta.imag * delta.imag
    exponent = np.multiply(dist2, sech, out=np.full_like(sech, np.inf), where=sech > 0)
    return (np.exp(-exponent) * sech)[()]


def two_mode_squeezed_vacuum(s: float, cutoff: int) -> FockVector:
    """sech(s) sum_n tanh(s)^n |n, n>."""
    s, d = _check_real(s, "s"), _check_cutoff(cutoff, 2)
    amps = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(amps, _tmsv_diagonal(s, d))
    out = FockVector(ModeLayout((d, d)), amps.reshape(-1))
    check_tail(out, context="two_mode_squeezed_vacuum")
    return out


def _tmsv_diagonal(s: float, cutoff: int) -> np.ndarray:
    """The amplitudes sech(s) tanh(s)^n of the two-mode squeezed vacuum on |n, n>, n < cutoff;
    ValueError where sech s underflows (`_sech_s`)."""
    return (np.tanh(s) ** np.arange(cutoff)) * _sech_s(s)
