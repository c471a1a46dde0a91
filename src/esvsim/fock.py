"""Truncated-Fock-space tensor algebra for multi-mode bosonic states.

Each mode is truncated to a finite photon-number basis |0>, ..., |cutoff-1>.
Multi-mode objects are stored flat (row-major over the per-mode dimensions),
with mode 0 the slowest index.  All operations are pure functions: inputs are
never mutated, so values can be shared freely across threads.  States and
spectra are freshly allocated; `_ladder_word` returns shared, cached,
read-only arrays.  `_product_expectations` is the one contraction of a state
with operators: `moment` and the moment-matrix minors of `separability` call
it.  (`separability.esv_criteria_curve` contracts no state: it contracts a
stack of 2 x 2 coefficient matrices with operators projected onto a two-ket
basis.)

Each kind of argument has one validator here, which every module calls where
the argument enters: `_check_cutoff` for integers (cutoffs, mode dimensions,
operator powers), `_check_real` for real parameters (finite, with an optional
minimum; an array of them too, such as the inner axis of a sweep) and
`_check_modes` for the number of modes a state must have.  A
`DensityMatrix` is stored finite and exactly Hermitian, so no caller
re-symmetrizes one.

The vacuum quadrature variance is 1/2, with x = (a + a^dag)/sqrt(2); every
other module relies on this convention.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ModeLayout",
    "FockVector",
    "DensityMatrix",
    "TruncationWarning",
    "partial_transpose",
    "moment",
    "hermitian_blocks",
    "fidelity",
    "tail_mass",
    "check_tail",
]

TAIL_THRESHOLD = 1e-8     # tolerated share of a state's norm or trace in the top Fock band
TAIL_FRACTION = 0.1       # the "top band" is the highest 10% of levels
HERMITICITY_TOL = 1e-10
EIG_ZERO_BAND = 1e-11     # eigenvalues below this are treated as exact zeros
_ENTRY_BOUND = np.finfo(float).max / 4   # density-matrix entries up to it: m ± m† and |m - m†| stay finite

_I_POW = np.array([1, 1j, -1, -1j])     # i^n by n mod 4: exact, where numpy's complex power errs from n = 100


def _check_cutoff(cutoff, minimum: int, name: str = "cutoff") -> int:
    """`cutoff` as an int: TypeError unless it is an integer, ValueError below
    `minimum`; the messages call it `name`."""
    try:
        cutoff = operator.index(cutoff)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {cutoff!r}") from None
    if cutoff < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return cutoff


def _check_real(value, name: str, minimum: float = -math.inf):
    """`value` as a float, or a real array as a float64 array: TypeError unless it is
    real (`_as_real`), ValueError unless every entry is finite and at least `minimum`
    (nan, ±inf and an int beyond the float range fail).  The messages call it `name`;
    an array's names its first failing entry in row-major order."""
    bound = "" if minimum == -math.inf else f" and >= {minimum:g}"
    x = _as_real(value, name)
    if isinstance(x, float):
        if not (math.isfinite(x) and x >= minimum):
            raise ValueError(f"{name} must be finite{bound}, got {value!r}")
        return x
    bad = ~_in_bounds(x, minimum)
    if bad.any():
        raise ValueError(f"{name} must be finite{bound}, got {float(x[bad][0])!r}")
    return x if x.ndim else float(x)


def _as_real(value, name: str):
    """A Python int or float (bool and numpy.float64 too) as a float, an int beyond
    the float range as inf; anything else as a float64 array, TypeError naming `name`
    unless it is a numpy number or array of bool, integer or float kind."""
    if isinstance(value, (int, float)):     # no ABC lookup
        try:
            return float(value)
        except OverflowError:
            return math.inf
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be a real number or array, got {value!r}")
    return arr.astype(float, copy=False)


def _in_bounds(arr: np.ndarray, minimum: float) -> np.ndarray:
    """Where the entries of a float array pass `_check_real`: finite and at least `minimum`."""
    return np.isfinite(arr) & (arr >= minimum)


class TruncationWarning(UserWarning):
    """Emitted when the Fock tail carries too much weight.

    ``warnings.simplefilter("error", TruncationWarning)`` makes every tail
    check raise it as an exception instead.
    """


@dataclass(frozen=True)
class ModeLayout:
    """Ordered per-mode Fock cutoffs; dimension of mode m is dims[m]."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_check_cutoff(d, 1, "mode dimension") for d in self.dims)
        if not dims:
            raise ValueError("a layout needs at least one mode")
        object.__setattr__(self, "dims", dims)

    @property
    def nmodes(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def check_mode(self, mode: int) -> int:
        if not 0 <= mode < self.nmodes:
            raise ValueError(f"mode {mode} out of range for {self.nmodes} modes")
        return mode


def _check_modes(layout: ModeLayout, nmodes: int, what: str) -> tuple[int, ...]:
    """The layout's dims; ValueError naming `what` unless it has `nmodes` modes."""
    if layout.nmodes != nmodes:
        raise ValueError(f"{what} must have {nmodes} mode{'s' * (nmodes != 1)}, got {layout.nmodes}")
    return layout.dims


@dataclass(frozen=True)
class FockVector:
    """Pure multi-mode state: complex amplitudes over the tensor basis."""

    layout: ModeLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != self.layout.total_dim:
            raise ValueError(
                f"amplitude length {amps.size} != layout dimension {self.layout.total_dim}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("non-finite amplitude")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.layout, self.amps / n)

    def as_tensor(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed multi-mode state: Hermitian matrix over the same tensor basis.

    A matrix is accepted if its entries are finite, at most `_ENTRY_BOUND` in
    modulus so that no arithmetic below overflows, and it is Hermitian to
    `HERMITICITY_TOL` relative to its largest entry.  It is stored as its
    Hermitian part 0.5 (m + m†), finite and exactly Hermitian; an exactly
    Hermitian input is kept bit for bit, since m_ij + conj(m_ji) = 2 m_ij exactly.
    Positivity is not enforced (partial transposes are legitimately
    non-positive); physical inputs are expected to have eigenvalues >= -1e-9.
    """

    layout: ModeLayout
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        peak = float(np.abs(mat).max())     # nan propagates through the max
        if not peak <= _ENTRY_BOUND:
            raise ValueError(f"non-finite matrix entry, or one above {_ENTRY_BOUND:.1e} in modulus")
        adj = mat.conj().T
        dev = float(np.abs(mat - adj).max())
        if dev > HERMITICITY_TOL * max(1.0, peak):
            raise ValueError(f"matrix not Hermitian: max deviation {dev:.3e}")
        object.__setattr__(self, "mat", 0.5 * (mat + adj))

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


# ---------------------------------------------------------------------------
# tail-mass diagnostic
# ---------------------------------------------------------------------------

def _top_band(d: int) -> int:
    """The number of levels in the top Fock band of a d-level mode.

    The band is the top 10% of levels, at least two of them so that both
    photon-number parities are covered.  Every mode is a truncated
    oscillator, however few its levels: at d <= 2 all of them are in the band.
    """
    return max(2, int(round(TAIL_FRACTION * d)))


def _band_mask(layout: ModeLayout) -> np.ndarray:
    """Boolean mask of basis states with any mode in its top Fock band (`_top_band`)."""
    mask = np.zeros(layout.dims, dtype=bool)
    for m, d in enumerate(layout.dims):
        idx = [slice(None)] * layout.nmodes
        idx[m] = slice(max(0, d - _top_band(d)), d)
        mask[tuple(idx)] = True
    return mask.reshape(-1)


def tail_mass(state: FockVector | DensityMatrix) -> float:
    """Population in the top 10% of Fock levels of any mode."""
    mask = _band_mask(state.layout)
    if isinstance(state, FockVector):
        return float(np.abs(state.amps[mask]) ** 2 @ np.ones(mask.sum()))
    return float(np.real(np.diag(state.mat))[mask].sum())


def check_tail(state, context: str = "operation") -> None:
    """Warn `TruncationWarning` unless the tail mass is at most TAIL_THRESHOLD
    times the state's total, its squared norm or its trace; a zero total warns.

    Judging the share, not the absolute mass, flags a state whose truncation
    kept almost none of its norm.  The message does not carry the mass, so
    Python's per-location de-duplication still prints a repeated warning once.
    """
    total = float(np.vdot(state.amps, state.amps).real) if isinstance(state, FockVector) else state.trace()
    _warn_tail(context, int(_tail_fails(tail_mass(state), total)), stacklevel=3)


def _tail_fails(mass, total):
    """Whether `check_tail`'s test fails on a tail mass and total computed elsewhere,
    floats or arrays of one shape (elementwise)."""
    return np.logical_not((total > 0) & (mass <= TAIL_THRESHOLD * total))


def _warn_tail(context: str, count: int, stacklevel: int) -> None:
    """`check_tail`'s warning, `count` times; `stacklevel` counts from the caller, as it
    does for `warnings.warn`."""
    for _ in range(count):
        warnings.warn(
            f"{context}: Fock-tail mass above {TAIL_THRESHOLD:.0e}; results may be truncation-limited",
            TruncationWarning,
            stacklevel=stacklevel + 1,
        )


# ---------------------------------------------------------------------------
# tensor structure
# ---------------------------------------------------------------------------

def _parse_modes(layout: ModeLayout, modes: Iterable[int]) -> list[int]:
    return sorted({layout.check_mode(int(m)) for m in modes})


def _amplitude_matrix(state: FockVector, rows: Sequence[int]) -> np.ndarray:
    """A pure state's amplitudes as a matrix: the `rows` modes (in that order)
    index its rows and the other modes its columns."""
    t = np.moveaxis(state.as_tensor(), list(rows), range(len(rows)))
    return t.reshape(int(np.prod([state.layout.dims[m] for m in rows])), -1)


def partial_transpose(state: DensityMatrix, modes: Iterable[int]) -> DensityMatrix:
    """Transpose the bra/ket indices of the selected modes (exact, involutive)."""
    modes = _parse_modes(state.layout, modes)
    dims = state.layout.dims
    n = len(dims)
    t = state.mat.reshape(dims + dims)
    perm = list(range(2 * n))
    for m in modes:
        perm[m], perm[m + n] = perm[m + n], perm[m]
    d = state.layout.total_dim
    return DensityMatrix(state.layout, np.transpose(t, perm).reshape(d, d))


# ---------------------------------------------------------------------------
# moments, spectra, fidelity
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256, typed=True)   # typed: a float power must not hit an int entry
def _ladder_word(dim: int, ndag: int, nlow: int) -> np.ndarray:
    """a†^ndag a^nlow on `dim` levels, a|n> = sqrt(n)|n-1>, built once per
    (dim, ndag, nlow); read-only."""
    ndag = _check_cutoff(ndag, 0, "operator power")
    nlow = _check_cutoff(nlow, 0, "operator power")
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    f = np.linalg.matrix_power(a.conj().T, ndag) @ np.linalg.matrix_power(a, nlow)
    f.flags.writeable = False
    return f


def _word_operators(layout: ModeLayout, word) -> dict[int, np.ndarray]:
    """Collapse an operator word into one matrix per touched mode.

    `word` is a sequence of (mode, dagger_power, lower_power) factors read
    left to right; factors on different modes commute, factors on the same
    mode are multiplied in word order.
    """
    ops: dict[int, np.ndarray] = {}
    for mode, ndag, nlow in word:
        mode = layout.check_mode(int(mode))
        f = _ladder_word(layout.dims[mode], ndag, nlow)
        ops[mode] = f if mode not in ops else ops[mode] @ f
    return ops


def _product_expectations(state, pairs) -> list[complex]:
    """<A ⊗ B> for each (A, B) of `pairs`: A acts on mode 0, B on the other
    modes, flattened as the state is.

    On a pure state with amplitude matrix Psi (mode 0 by the rest) each value
    is one contraction, vdot(Psi, A Psi Bᵀ); on a density matrix it is
    Tr[rho (A ⊗ B)].
    """
    d0 = state.layout.dims[0]
    if isinstance(state, FockVector):
        psi = state.amps.reshape(d0, -1)
        return [complex(np.vdot(psi, a @ psi @ b.T)) for a, b in pairs]
    d1 = state.layout.total_dim // d0
    # Tr[rho (A ⊗ B)] = sum rho[i, j, k, l] A[k, i] B[l, j], with rho regrouped as (i k) x (j l)
    r = state.mat.reshape(d0, d1, d0, d1).transpose(0, 2, 1, 3).reshape(d0 * d0, d1 * d1)
    return [complex(a.T.ravel() @ r @ b.T.ravel()) for a, b in pairs]


def moment(state, word) -> complex:
    """Expectation of an ordered ladder-operator word, <a†^k a^l ...>.

    Example: ``moment(psi, [(0, 1, 1)])`` is <a†a> on mode 0, and
    ``moment(psi, [(0, 1, 0), (1, 0, 1)])`` is <a† b>.  A word with a
    raising operator reads the top Fock levels, so it checks the tail.
    `_product_expectations` evaluates it as <A ⊗ B>: A is the word's
    operator on mode 0 and B the kron of its operators on the other modes,
    the identity on a mode it does not touch; on one or two modes no kron
    is formed.
    """
    ops = _word_operators(state.layout, word)
    if any(ndag for _, ndag, _ in word):
        check_tail(state, context="moment")
    first, *rest = [ops.get(m, np.eye(d)) for m, d in enumerate(state.layout.dims)]
    return _product_expectations(state, [(first, reduce(np.kron, rest or [np.eye(1)]))])[0]


def hermitian_blocks(mat: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Connected components of the exact nonzero pattern of a square matrix.

    Indices i and j share a component when a chain of nonzero entries
    (``mat != 0``, no tolerance, either orientation) links them, so the
    matrix taken on one component's indices is one diagonal block of a
    permuted block-diagonal form, and a Hermitian matrix's spectrum is the
    union of its blocks' spectra.  Returns the components of more than one
    index (ascending index arrays, ordered by smallest index) and, apart,
    the ascending array of isolated indices, whose only possible nonzero
    entry is on the diagonal.
    """
    adj = np.asarray(mat) != 0
    adj |= adj.T
    seen = adj.sum(axis=1) == adj.diagonal()    # no off-diagonal link
    isolated = np.flatnonzero(seen)
    blocks = []
    for seed in np.flatnonzero(~seen):
        if seen[seed]:
            continue
        members = np.zeros(len(adj), dtype=bool)
        members[seed] = True
        frontier = members
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return blocks, isolated


def fidelity(x: FockVector, y: FockVector) -> float:
    """|<x|y>|^2 for two normalized pure states on the same layout.

    Rounding can put the result above 1, and it is not clipped.  For unit
    vectors as this package builds them, v / fl(||v||) times at most a unit
    phase, on a layout of dimension n, with u = 2^-53 and to first order in
    u (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    §3.1 and §3.6; sums in any order):
    - ||x||² is within (n + 15)u of 1: the sum of 2n squares (n + 1), the
      square root (2), the division (2) and the phase factor (10);
    - the real and imaginary parts of <x|y> are sums of 2n products, so
      |fl(<x|y>) - <x|y>| <= 2 sqrt(2) n u ||x|| ||y||;
    - abs and the square add 3u.
    So the result is at most 1 + (2(n + 15) + 4 sqrt(2) n + 3)u < 1 + (8n + 33)u.
    """
    if x.layout != y.layout:
        raise ValueError("fidelity requires matching layouts")
    return float(np.abs(np.vdot(x.amps, y.amps)) ** 2)
