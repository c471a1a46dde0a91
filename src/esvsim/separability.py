"""Moment-matrix separability tests for two-mode states.

The matrix M(rho^PT) collects moments of the partially transposed state,

    M_ij(rho^PT) = <a†^i1 a^i2 b†^i3 b^i4  a†^j2 a^j1 b†^j4 b^j3>_{rho^PT},

indexed by multi-indices i = (i1, i2, i3, i4).  Partial transposition on
mode b exchanges the b-entries of i and j, so every entry can be evaluated
directly on the original state:

    M_ij(rho^PT) = <a†^i1 a^i2  b†^j3 b^j4  a†^j2 a^j1  b†^i4 b^i3>_rho.

That is <A ⊗ B> with A = a†^i1 a^i2 a†^j2 a^j1 and B = b†^j3 b^j4 b†^i4 b^i3,
products of ladder words that `fock` builds once per cutoff, and `fock`
evaluates <A ⊗ B> on the state, pure or mixed.  A minor checks the Fock tail
once, and only if one of its words raises.  Its determinant is the product
of its eigenvalues, which stays finite where an LU pivot is subnormal.

A state is inseparable iff some principal minor of M(rho^PT) has negative
determinant.  The classic second-moment tests are the minors selected by
positions (1,2,3,4,5) and (1,2,4) of the canonical multi-index enumeration;
a dedicated fourth-order 5x5 minor certifies the entanglement of the
squeezed-vacuum superpositions for every squeezing and relative phase.

The entangled squeezed vacuum lies in span{e, o} (x) span{e, o}, e and o the
|4k> and |4k + 2> parts of the squeezed vacuum, so `esv_criteria_curve`, which
the `criteria` sweep uses, evaluates all three minors on its 2 x 2 coefficient
matrix over that parity basis: each word is projected onto the basis of every
squeezing of an s axis in one stack, and one `einsum` contracts the 2 x 2
matrices of the whole (s, phi) grid with the projections.  The minors on
`states.esv_pure` are its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fock import _check_modes, _ladder_word, _product_expectations, _top_band, check_tail
from .states import _parity_basis

__all__ = [
    "MomentIndex",
    "MinorSelector",
    "multiindex_compare",
    "canonical_indices",
    "minor_determinant",
    "simon_det",
    "duan_det",
    "esv_criterion_det",
    "esv_criteria_curve",
    "SIMON_SELECTOR",
    "DUAN_SELECTOR",
]

MAX_WEIGHT = 4          # the weight of the canonical multi-index table


@dataclass(frozen=True)
class MomentIndex:
    """Multi-index (i1, i2, i3, i4) labelling a†^i1 a^i2 b†^i3 b^i4."""

    i1: int
    i2: int
    i3: int
    i4: int

    def __post_init__(self):
        for v in self.astuple():
            if v < 0:
                raise ValueError(f"negative multi-index entry in {self.astuple()}")

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.i1, self.i2, self.i3, self.i4)

    @property
    def weight(self) -> int:
        return self.i1 + self.i2 + self.i3 + self.i4


@dataclass(frozen=True)
class MinorSelector:
    """Ascending, repeat-free 1-based row/column positions of a principal minor."""

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if not rows:
            raise ValueError("selector must be non-empty")
        if any(r < 1 for r in rows) or any(b <= a for a, b in zip(rows, rows[1:])):
            raise ValueError(f"selector must be ascending without repeats and >= 1: {rows}")
        object.__setattr__(self, "rows", rows)


SIMON_SELECTOR = MinorSelector((1, 2, 3, 4, 5))
DUAN_SELECTOR = MinorSelector((1, 2, 4))

# multi-indices of the dedicated fourth-order criterion, in display order
_ESV_CRITERION_INDICES = (
    MomentIndex(0, 0, 0, 0),
    MomentIndex(0, 1, 0, 1),
    MomentIndex(0, 1, 1, 0),
    MomentIndex(1, 0, 0, 1),
    MomentIndex(1, 0, 1, 0),
)


def _order_key(i: MomentIndex) -> tuple[int, int, int, int, int]:
    """The order of multi-indices: lower total weight first; at equal weight the
    highest position where the indices differ decides, larger entry meaning larger index."""
    return (i.weight, i.i4, i.i3, i.i2, i.i1)


def multiindex_compare(i: MomentIndex, j: MomentIndex) -> int:
    """Total order on multi-indices (`_order_key`): -1, 0 or +1 for i < j, i = j, i > j."""
    ki, kj = _order_key(i), _order_key(j)
    return (ki > kj) - (ki < kj)


@lru_cache(maxsize=None)
def canonical_indices(max_weight: int = MAX_WEIGHT) -> tuple[MomentIndex, ...]:
    """All multi-indices with weight <= max_weight, ascending in the order above:
    enumerated by weight, then i4, i3 and i2, with i1 the rest of the weight."""
    return tuple(MomentIndex(w - i4 - i3 - i2, i2, i3, i4)
                 for w in range(max_weight + 1)
                 for i4 in range(w + 1) for i3 in range(w - i4 + 1) for i2 in range(w - i4 - i3 + 1))


def minor_determinant(state, selector: MinorSelector) -> float:
    """Determinant of the selected principal minor of M(rho^PT)."""
    return _determinant(_moment_minor(state, _selected(selector)))


def _selected(selector: MinorSelector) -> list[MomentIndex]:
    """The multi-indices at the selector's positions of the canonical table."""
    order = canonical_indices()
    if selector.rows[-1] > len(order):
        raise ValueError(
            f"selector position {selector.rows[-1]} beyond the weight-{MAX_WEIGHT} table"
        )
    return [order[r - 1] for r in selector.rows]


def _determinant(minor: np.ndarray):
    """The determinant of a Hermitian minor, or of each of a stack of them, as the
    product of its eigenvalues.

    LU (`np.linalg.det`) can pivot on a subnormal entry and return nan; the
    eigenvalues of a Hermitian matrix are real and finite.
    """
    return np.prod(np.linalg.eigvalsh(minor), axis=-1)[()]


def _moment_minor(state, indices) -> np.ndarray:
    """The principal minor of M(rho^PT) on `indices`, evaluated on the state."""
    return _hermitian_minor(np.asarray(_moment_entries(state, _upper_pairs(indices))), len(indices))


def _upper_pairs(indices) -> list[tuple[MomentIndex, MomentIndex]]:
    """The (i, j) of the upper triangle of the minor on `indices`, row by row."""
    return [(indices[p], indices[q]) for p, q in zip(*_upper_triangle(len(indices)))]


@lru_cache(maxsize=None)
def _upper_triangle(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows and columns of the upper triangle of a k x k matrix, row by row, as
    ``np.triu_indices(k)`` lists them; built in Python, as that call is slow the
    first time in a process (about 0.2 ms on a 2-vCPU x86-64 machine)."""
    return tuple(zip(*((p, q) for p in range(k) for q in range(p, k))))


def _hermitian_minor(upper: np.ndarray, k: int) -> np.ndarray:
    """The k x k principal minor of M(rho^PT) whose entries M_ij at the `_upper_pairs`
    lie along the last axis of `upper`; any leading axes give a stack of minors.
    M_ji = conj(M_ij), so only the entries with i <= j are evaluated: the lower
    triangle mirrors them, the diagonal is real."""
    rows, cols = _upper_triangle(k)
    diagonal = np.arange(k)
    m = np.empty(upper.shape[:-1] + (k, k), dtype=complex)
    m[..., cols, rows] = upper.conj()
    m[..., rows, cols] = upper
    m[..., diagonal, diagonal] = m[..., diagonal, diagonal].real
    return m


def _moment_entries(state, pairs) -> list[complex]:
    """M_ij(rho^PT) = <A ⊗ B> (module docstring) for each (i, j) of `pairs`.

    The tail is checked once for all of them, as `fock.moment` does for one
    word: iff some word has a raising operator.
    """
    d0, d1 = _check_modes(state.layout, 2, "moment-matrix state")
    if any(i.i1 or i.i4 or j.i2 or j.i3 for i, j in pairs):
        check_tail(state, context="moment")
    return _product_expectations(state, [(_ladder_word(d0, i.i1, i.i2) @ _ladder_word(d0, j.i2, j.i1),
                                          _ladder_word(d1, j.i3, j.i4) @ _ladder_word(d1, i.i4, i.i3))
                                         for i, j in pairs])


def simon_det(state) -> float:
    """Second-moment determinant test; negative for every entangled Gaussian."""
    return minor_determinant(state, SIMON_SELECTOR)


def duan_det(state) -> float:
    """Three-row second-moment determinant test."""
    return minor_determinant(state, DUAN_SELECTOR)


def esv_criterion_det(state) -> float:
    """Fourth-order 5x5 minor tailored to squeezed-vacuum superpositions.

    Negative value certifies a negative partial transpose.  Unlike the
    second-moment tests it detects |Psi(phi)> for every s > 0 and phi.
    """
    return _determinant(_moment_minor(state, _ESV_CRITERION_INDICES))


def esv_criteria_curve(s, cutoff: int) -> Callable:
    """phi -> (`simon_det`, `duan_det`, `esv_criterion_det`) of ``esv_pure(EsvSpec(s, phi, cutoff))``,
    from the 2 x 2 parity coefficient matrix.

    s and phi are floats or arrays that broadcast together, and each of the three
    values has the shape of their grid: the curve evaluates every point in one array
    pass, and each minor is one stacked eigensolve.  Each value is bit for bit that
    of its s alone.

    The amplitude matrix of Psi(phi) is X C Xᵀ up to a global phase, C divided
    by its norm, over the parity basis X = [e, o] of `states._parity_basis`
    (whose module docstring derives it), which also checks s, the cutoff and
    the tail of each point of s, and checks and wraps phi and raises
    `esv_pure`'s ValueError for a degenerate superposition.

    Each minor entry <A ⊗ B> (module docstring) is then vdot(C, (XᴴAX) C (XᴴBX)ᵀ),
    contracted for every entry of the three minors at every grid point in one
    `einsum` (`_coefficient_expectations`).
    With L(p, q) = a†^p a^q, A = L(i1, i2) L(j2, j1) projects to
    (L(i2, i1) X)ᴴ (L(j2, j1) X), and B = L(j3, j4) L(i4, i3) to
    (L(j4, j3) X)ᴴ (L(i4, i3) X); each 2 x 2 projection is formed once per curve,
    for every point of s in one stack.

    At each grid point the joint tail of Psi is judged as `check_tail` judges it,
    in the context "moment" of the minors' check, one warning per failing point,
    in the order `states._parity_basis` gives its checks.  Its mass, on the
    basis states with a mode in the top band, is
    ||X_b C Xᵀ||² + ||X_l C X_bᵀ||², X_b and X_l the rows of X in the band and below
    it: sums of non-negative terms over the Gram diagonals.
    """
    minors_at = _esv_minors(s, cutoff)
    return lambda phi: tuple(_determinant(minor) for minor in minors_at(phi))


def _coefficient_expectations(coeffs: np.ndarray, proj_a: np.ndarray, proj_b: np.ndarray) -> np.ndarray:
    """vdot(C, A C Bᵀ) for every 2 x 2 coefficient matrix C of the stack `coeffs` and
    every pair (A, B) of the projection stacks, whose leading axes broadcast against
    those of `coeffs`: shape ``grid + (pairs,)``."""
    return np.einsum("...kl,...pkm,...mn,...pln->...p", coeffs.conj(), proj_a, coeffs, proj_b)


@lru_cache(maxsize=None)
def _esv_minor_layout() -> tuple[list[tuple[int, int]], np.ndarray, list[tuple[int, np.ndarray]]]:
    """The s-free layout of `_esv_minors`: the ladder words L(p, q) = a†^p a^q, as (p, q),
    that the projections need; per distinct upper-triangle pair (i, j) of the Simon, Duan
    and ESV-criterion minors, the positions in that list of L(i2, i1), L(j2, j1),
    L(j4, j3) and L(i4, i3); and per minor, its size k and the positions of its
    `_upper_pairs` among those pairs.  Multi-indices are plain tuples here, and
    positions are dict lookups."""
    minors = [[i.astuple() for i in idx]
              for idx in (_selected(SIMON_SELECTOR), _selected(DUAN_SELECTOR), _ESV_CRITERION_INDICES)]
    upper = [_upper_pairs(idx) for idx in minors]
    pairs = _positions(pair for minor in upper for pair in minor)
    factors = [((i2, i1), (j2, j1), (j4, j3), (i4, i3)) for (i1, i2, i3, i4), (j1, j2, j3, j4) in pairs]
    words = _positions(word for four in factors for word in four)
    return (list(words), np.array([[words[word] for word in four] for four in factors]).T,
            [(len(idx), np.array([pairs[pair] for pair in minor])) for idx, minor in zip(minors, upper)])


def _positions(keys) -> dict:
    """Each distinct key, in first-seen order, with its position in that order."""
    return {key: k for k, key in enumerate(dict.fromkeys(keys))}


def _esv_minors(s, cutoff: int) -> Callable[..., tuple[np.ndarray, ...]]:
    """phi -> the Simon, Duan and ESV-criterion minors of `esv_criteria_curve`, each
    of shape ``grid + (k, k)``."""
    x, diag, coefficients = _parity_basis(s, cutoff)
    squares, below = x * x, cutoff - _top_band(cutoff)
    gram, top, low = np.stack(diag, axis=-1), squares[..., below:, :].sum(axis=-2), squares[..., :below, :].sum(axis=-2)
    words, (a_left, a_right, b_left, b_right), minors = _esv_minor_layout()
    projected = np.stack([_ladder_word(cutoff, ndag, nlow) @ x for ndag, nlow in words], axis=-3)
    # every upper-triangle pair of the three minors once, with its two projections
    proj_a = projected[..., a_left, :, :].conj().swapaxes(-1, -2) @ projected[..., a_right, :, :]
    proj_b = projected[..., b_left, :, :].conj().swapaxes(-1, -2) @ projected[..., b_right, :, :]

    def tail_mass(c, sn):
        weight = np.stack([c * c, sn * sn, sn * sn, c * c], axis=-1).reshape(c.shape + (2, 2))  # |C|² before the norm
        quadratic = "...k,...kl,...l->..."
        return np.einsum(quadratic, top, weight, gram) + np.einsum(quadratic, low, weight, top)

    def minors_at(phi) -> tuple[np.ndarray, ...]:
        c, sn, norm2 = coefficients(phi, tail_mass)
        coeffs = np.stack([c, 1j * sn, -1j * sn, -c], axis=-1).reshape(c.shape + (2, 2))
        values = _coefficient_expectations(coeffs / np.sqrt(norm2)[..., None, None], proj_a, proj_b)
        return tuple(_hermitian_minor(values[..., upper], k) for k, upper in minors)

    return minors_at
