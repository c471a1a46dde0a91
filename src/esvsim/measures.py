"""Entanglement quantifiers: logarithmic negativity and entanglement of formation.

Logarithmic negativity is log2 of the trace norm of the partial transpose;
it vanishes on PPT states and equals 1 for a maximally entangled qubit pair.
`esv_mixed_log_negativity` computes it for the output of `states.esv_mixed`
from the two single-mode inputs, without building the joint state.
Entanglement of formation is implemented for pure states only, as the
von Neumann entropy (base 2) of either reduced state.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .fock import (
    _I_POW,
    EIG_ZERO_BAND,
    DensityMatrix,
    FockVector,
    eigs_hermitian,
    hermitian_blocks,
    partial_transpose,
    reduced_density,
)
from .states import _check_esv_inputs, _check_esv_trace

__all__ = ["log_negativity", "esv_mixed_log_negativity", "eof_pure", "two_qubit_negativity"]


def _log2_trace_norm(ev: np.ndarray) -> float:
    """log2 of the sum of |eigenvalues| outside the zero band, clamped at zero.

    Exactly 0 when no eigenvalue lies below the zero band (a PPT spectrum),
    so rounding in the positive eigenvalues' sum is never printed as a value.
    """
    if not (ev < -EIG_ZERO_BAND).any():
        return 0.0
    tn = float(np.abs(ev[np.abs(ev) > EIG_ZERO_BAND]).sum())
    return max(0.0, float(np.log2(tn)))


def log_negativity(state: FockVector | DensityMatrix, split: Iterable[int]) -> float:
    """log2 || rho^PT ||_1 with the modes in `split` transposed.

    Clamped at zero from below; eigenvalues inside the numerical zero band
    do not contribute.  The partial transpose is eigensolved one connected
    block of its exact zero pattern at a time (parity sectors of squeezed
    inputs, zeros of the conditional map); an isolated index contributes
    its diagonal entry.  The spectrum is the same as that of one dense
    solve.
    """
    rho = state.density() if isinstance(state, FockVector) else state
    split = sorted({rho.layout.check_mode(int(m)) for m in split})
    if not split or len(split) == rho.layout.nmodes:
        raise ValueError("split must be a proper non-empty subset of the modes")
    if abs(rho.trace() - 1.0) > 1e-6:
        raise ValueError(f"state trace {rho.trace():.8f} is not 1")
    pt = partial_transpose(rho, split).mat
    blocks, isolated = hermitian_blocks(pt)
    return _log2_trace_norm(np.concatenate([pt[isolated, isolated].real]
                                           + [eigs_hermitian(pt[np.ix_(b, b)]) for b in blocks]))


def _factor_blocks(mat: np.ndarray) -> list[np.ndarray]:
    """`hermitian_blocks` of mat, isolated indices as 1 x 1 blocks, all-zero blocks dropped."""
    blocks, isolated = hermitian_blocks(mat)
    return [b for b in blocks + [isolated[k:k + 1] for k in range(isolated.size)]
            if mat[np.ix_(b, b)].any()]


def esv_mixed_log_negativity(rho_a: DensityMatrix, rho_b: DensityMatrix, phi: float) -> float:
    """``log_negativity(esv_mixed(rho_a, rho_b, phi), [1])`` from the d x d inputs.

    With D = diag(i^n), the partial transpose on mode 1 of T (rho_a (x) rho_b) T†
    is

        rho_a (x) D̄ rho_bᵀ D + D rho_a D̄ (x) rho_bᵀ
            + e^{-i phi} rho_a D̄ (x) rho_bᵀ D + e^{i phi} D rho_a (x) D̄ rho_bᵀ,

    divided by the trace of T (rho_a (x) rho_b) T†.  Every term has the zero
    pattern of rho_a (x) rho_bᵀ, so the product A x B of a connected block A
    of rho_a and one B of rho_bᵀ is an invariant block; it is built from the
    factor sub-blocks, and no d^2 x d^2 matrix is formed.  For real inputs
    and blocks A, B of one photon-number parity each, i^(n_a - n_b) takes
    two values of opposite sign on the rows of a block; entries between rows
    of equal value are real and the others purely imaginary, so the
    diagonal gauge u = 1 on the first row's class and u = i on the other
    makes the block real symmetric.  Raises the ValueErrors of `esv_mixed`.
    """
    d = _check_esv_inputs(rho_a, rho_b)
    a, bt = rho_a.mat, rho_b.mat.T
    i_pow = _I_POW[np.arange(d) % 4]
    e = np.exp(1j * phi)
    weight = np.abs(i_pow[None, :] + e * i_pow[:, None]) ** 2      # |t(n_a, n_b)|^2
    tr = _check_esv_trace(float(a.diagonal().real @ weight @ bt.diagonal().real))
    real = not (a.imag.any() or bt.imag.any())
    spectra = []
    for rows_a in _factor_blocks(a):
        # the four terms of the formula above, as (rho_a factor, rho_bᵀ factor) pairs
        xa, da = a[np.ix_(rows_a, rows_a)], i_pow[rows_a]
        xs = (xa, da[:, None] * xa * da.conj(), xa * (da.conj() * np.conj(e)), e * da[:, None] * xa)
        for rows_b in _factor_blocks(bt):
            yb, db = bt[np.ix_(rows_b, rows_b)], i_pow[rows_b]
            ys = (db.conj()[:, None] * yb * db, yb, yb * db, db.conj()[:, None] * yb)
            blk = sum(np.kron(x, y) for x, y in zip(xs, ys))
            if real and np.ptp(rows_a % 2) == 0 and np.ptp(rows_b % 2) == 0:
                k = (rows_a[:, None] - rows_b[None, :]).reshape(-1) % 4
                u = np.where(k == k[0], 1.0, 1j)
                blk = (u.conj()[:, None] * blk * u).real
            spectra.append(eigs_hermitian(blk))
    return _log2_trace_norm(np.concatenate(spectra) / tr)


def eof_pure(state: FockVector, split: Iterable[int]) -> float:
    """Entropy of entanglement of a normalized pure state across `split`."""
    if not isinstance(state, FockVector):
        raise TypeError("eof_pure is defined for pure states")
    if abs(state.norm() - 1.0) > 1e-6:
        raise ValueError(f"state norm {state.norm():.8f} is not 1")
    split = sorted({state.layout.check_mode(int(m)) for m in split})
    if not split or len(split) == state.layout.nmodes:
        raise ValueError("split must be a proper non-empty subset of the modes")
    ev = eigs_hermitian(reduced_density(state, split))
    ev = ev[ev > EIG_ZERO_BAND]
    return float(-(ev * np.log2(ev)).sum())


def two_qubit_negativity(rho: DensityMatrix) -> float:
    """Logarithmic negativity specialized to a two-qubit density matrix."""
    if rho.layout.dims != (2, 2):
        raise ValueError(f"expected a (2, 2) qubit layout, got {rho.layout.dims}")
    return log_negativity(rho, [1])
