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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .fock import _ladder_word, _product_expectations, check_tail

__all__ = [
    "MomentIndex",
    "MinorSelector",
    "multiindex_compare",
    "canonical_indices",
    "minor_determinant",
    "simon_det",
    "duan_det",
    "esv_criterion_det",
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
    """All multi-indices with weight <= max_weight, ascending in the order above."""
    idx = [MomentIndex(*t) for t in product(range(max_weight + 1), repeat=4)
           if sum(t) <= max_weight]
    return tuple(sorted(idx, key=_order_key))


def minor_determinant(state, selector: MinorSelector) -> float:
    """Determinant of the selected principal minor of M(rho^PT)."""
    order = canonical_indices()
    if selector.rows[-1] > len(order):
        raise ValueError(
            f"selector position {selector.rows[-1]} beyond the weight-{MAX_WEIGHT} table"
        )
    return _determinant(_moment_minor(state, [order[r - 1] for r in selector.rows]))


def _determinant(minor: np.ndarray) -> float:
    """The determinant of a Hermitian minor, as the product of its eigenvalues.

    LU (`np.linalg.det`) can pivot on a subnormal entry and return nan; the
    eigenvalues of a Hermitian matrix are real and finite.
    """
    return float(np.prod(np.linalg.eigvalsh(minor)))


def _moment_minor(state, indices) -> np.ndarray:
    """The principal minor of M(rho^PT) on `indices`.  M_ji = conj(M_ij), so only the
    entries with i <= j are evaluated: the lower triangle mirrors them, the diagonal is real."""
    k = len(indices)
    rows, cols = np.triu_indices(k)
    m = np.zeros((k, k), dtype=complex)
    m[rows, cols] = _moment_entries(state, [(indices[p], indices[q]) for p, q in zip(rows, cols)])
    upper = np.triu(m, 1)
    return upper + upper.conj().T + np.diag(m.diagonal().real)


def _moment_entries(state, pairs) -> list[complex]:
    """M_ij(rho^PT) = <A ⊗ B> (module docstring) for each (i, j) of `pairs`.

    The tail is checked once for all of them, as `fock.moment` does for one
    word: iff some word has a raising operator.
    """
    _check_two_mode(state)
    if any(i.i1 or i.i4 or j.i2 or j.i3 for i, j in pairs):
        check_tail(state, context="moment")
    d0, d1 = state.layout.dims
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


def _check_two_mode(state) -> None:
    if state.layout.nmodes != 2:
        raise ValueError("moment-matrix tests are defined for two-mode states")
