"""Truncated-Fock-space tensor algebra for multi-mode bosonic states.

Each mode is truncated to a finite photon-number basis |0>, ..., |cutoff-1>.
Multi-mode objects are stored flat (row-major over the per-mode dimensions),
with mode 0 the slowest index.  All operations are pure functions: inputs are
never mutated and outputs are freshly allocated, so values can be shared
freely across threads.

Conventions fixed here and relied on everywhere else:

* vacuum quadrature variance is 1/2, with x = (a + a^dag)/sqrt(2);
* the balanced beam splitter on modes (a, b) realizes
  a -> (a + b)/sqrt(2), b -> (b - a)/sqrt(2).

On a total of N photons the ideal balanced splitter is the Wigner matrix
d^{N/2}(pi/2) (the SU(2) picture of Campos, Saleh & Teich, PRA 40, 1371
(1989)).  `_balanced_splitter_blocks` builds it one total from the last by
a four-term recursion in the style of Risbo's (J. Geodesy 70, 383 (1996)):
no eigensolve, and each block is orthogonal to rounding.  The blocks stop
below the cutoff, so they are exact on every state whose total photon
number stays below it; the protocols zero-pad their mode pairs to make it
so.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ModeLayout",
    "FockVector",
    "DensityMatrix",
    "TruncationWarning",
    "annihilator",
    "tensor",
    "partial_transpose",
    "moment",
    "hermitian_blocks",
    "fidelity",
    "tail_mass",
    "check_tail",
]

TAIL_THRESHOLD = 1e-8     # tolerated population in the top Fock band
TAIL_FRACTION = 0.1       # the "top band" is the highest 10% of levels
HERMITICITY_TOL = 1e-10
EIG_ZERO_BAND = 1e-11     # eigenvalues below this are treated as exact zeros

_I_POW = np.array([1, 1j, -1, -1j])     # i^n by n mod 4: exact, where numpy's complex power errs from n = 100


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
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"mode dimensions must be positive, got {self.dims}")
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

    Hermiticity is enforced at construction.  Positivity is not (partial
    transposes are legitimately non-positive); physical inputs are expected
    to have eigenvalues >= -1e-9.
    """

    layout: ModeLayout
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        scale = max(1.0, float(np.abs(mat).max())) if mat.size else 1.0
        dev = float(np.abs(mat - mat.conj().T).max())
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix not Hermitian: max deviation {dev:.3e}")
        object.__setattr__(self, "mat", mat)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


# ---------------------------------------------------------------------------
# elementary matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def annihilator(dim: int) -> np.ndarray:
    """Truncated annihilation operator a with a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _balanced_splitter_blocks(dim: int) -> tuple:
    """(rows, block) pairs of the balanced splitter, one per total N < dim.

    Block N maps the inputs |m, N-m> (columns, m = 0..N) to the outputs
    (rows), at flat indices m*dim + N - m of a (dim, dim) mode pair.  Since
    U a† U† = (a† + b†)/sqrt(2) and U b† U† = (b† - a†)/sqrt(2),
    N U|m,n> = sqrt(m) (a† + b†)/sqrt(2) U|m-1,n> + sqrt(n) (b† - a†)/sqrt(2) U|m,n-1>,
    four shifted, weighted copies of block N-1.  Totals N >= dim are not
    built; `_apply_blocks` writes zeros there.
    """
    blocks = []
    block = np.ones((1, 1))
    for total in range(dim):
        ms = np.arange(total + 1)
        if total:
            r = np.sqrt(ms[1:])       # sqrt(k), k = 1..N
            q = r[::-1]               # sqrt(N - k), k = 0..N-1
            nxt = np.zeros((total + 1, total + 1))
            nxt[1:, 1:] += r[:, None] * block * r
            nxt[:-1, 1:] += q[:, None] * block * r
            nxt[:-1, :-1] += q[:, None] * block * q
            nxt[1:, :-1] -= r[:, None] * block * q
            block = nxt / (np.sqrt(2.0) * total)
        blocks.append((ms * dim + total - ms, block))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# tail-mass diagnostic
# ---------------------------------------------------------------------------

def _band_mask(layout: ModeLayout) -> np.ndarray:
    """Boolean mask of basis states with any mode in its top Fock band.

    The band is the top 10% of levels, at least two of them so that both
    photon-number parities are covered.  Modes with fewer than 8 levels
    (qubit ancillas and the like) are not treated as truncated oscillators
    and carry no band.
    """
    mask = np.zeros(layout.dims, dtype=bool)
    for m, d in enumerate(layout.dims):
        if d < 8:
            continue
        band = max(2, int(round(TAIL_FRACTION * d)))
        idx = [slice(None)] * layout.nmodes
        idx[m] = slice(d - band, d)
        mask[tuple(idx)] = True
    return mask.reshape(-1)


def tail_mass(state: FockVector | DensityMatrix) -> float:
    """Population in the top 10% of Fock levels of any mode."""
    mask = _band_mask(state.layout)
    if isinstance(state, FockVector):
        return float(np.abs(state.amps[mask]) ** 2 @ np.ones(mask.sum()))
    return float(np.real(np.diag(state.mat))[mask].sum())


def check_tail(state, context: str = "operation") -> None:
    """Warn `TruncationWarning` when the tail mass exceeds TAIL_THRESHOLD."""
    _warn_tail(tail_mass(state), context, stacklevel=3)


def _warn_tail(mass: float, context: str, stacklevel: int = 2) -> None:
    """The tail decision of `check_tail` for a mass computed elsewhere.

    `stacklevel` counts from the caller, as in `warnings.warn`.  The message
    does not carry the mass, so Python's per-location de-duplication still
    prints a repeated warning once.
    """
    if mass <= TAIL_THRESHOLD:
        return
    warnings.warn(
        f"{context}: Fock-tail mass above {TAIL_THRESHOLD:.0e}; results may be truncation-limited",
        TruncationWarning,
        stacklevel=stacklevel + 1,
    )


# ---------------------------------------------------------------------------
# applying operators
# ---------------------------------------------------------------------------

def _apply_blocks(t: np.ndarray, axes: Sequence[int], blocks) -> np.ndarray:
    """Left action of a block-sparse operator on some axes of a tensor.

    `blocks` holds (rows, block) pairs with disjoint rows of the row-major
    flattened index of the target axes; each block maps its rows onto
    themselves.  Rows that no block names are written as zeros, so t must
    vanish there.  A dense operator u is the single pair (slice(None), u).
    The other axes are left alone, and t is not modified.
    """
    order = list(axes) + [ax for ax in range(t.ndim) if ax not in axes]
    moved = np.transpose(t, order)
    flat = moved.reshape(int(np.prod(moved.shape[:len(axes)])), -1)
    out = np.zeros_like(flat)
    for rows, block in blocks:
        out[rows] = block @ flat[rows]
    return np.transpose(out.reshape(moved.shape), np.argsort(order))


# ---------------------------------------------------------------------------
# tensor structure
# ---------------------------------------------------------------------------

def tensor(x, y):
    """Tensor product of two states of the same kind; layouts concatenate."""
    layout = ModeLayout(x.layout.dims + y.layout.dims)
    if isinstance(x, FockVector) and isinstance(y, FockVector):
        return FockVector(layout, np.kron(x.amps, y.amps))
    if isinstance(x, DensityMatrix) and isinstance(y, DensityMatrix):
        return DensityMatrix(layout, np.kron(x.mat, y.mat))
    raise TypeError("tensor requires two FockVectors or two DensityMatrices")


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
    """a†^ndag a^nlow on `dim` levels, built once per (dim, ndag, nlow); read-only."""
    if ndag < 0 or nlow < 0:
        raise ValueError("operator powers must be non-negative")
    a = annihilator(dim)
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


def moment(state, word) -> complex:
    """Expectation of an ordered ladder-operator word, <a†^k a^l ...>.

    Example: ``moment(psi, [(0, 1, 1)])`` is <a†a> on mode 0, and
    ``moment(psi, [(0, 1, 0), (1, 0, 1)])`` is <a† b>.  A word with a
    raising operator reads the top Fock levels, so it checks the tail.
    """
    ops = _word_operators(state.layout, word)
    if any(ndag for _, ndag, _ in word):
        check_tail(state, context="moment")
    dims = state.layout.dims
    pure = isinstance(state, FockVector)
    t = state.as_tensor() if pure else state.mat.reshape(dims + dims)
    for mode, op in ops.items():
        t = _apply_blocks(t, [mode], [(slice(None), op)])
    if pure:
        return complex(np.vdot(state.amps, t.reshape(-1)))
    return complex(np.trace(t.reshape(state.mat.shape)))


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
    """|<x|y>|^2 for two normalized pure states on the same layout."""
    if x.layout != y.layout:
        raise ValueError("fidelity requires matching layouts")
    return float(np.abs(np.vdot(x.amps, y.amps)) ** 2)
