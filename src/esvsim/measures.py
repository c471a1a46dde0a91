"""Entanglement quantifiers: logarithmic negativity and entanglement of formation.

Logarithmic negativity is log2 of the trace norm of the partial transpose;
it vanishes on PPT states and equals 1 for a maximally entangled qubit pair.
Entanglement of formation is implemented for pure states only, as the
von Neumann entropy (base 2) of either reduced state.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .fock import (
    EIG_ZERO_BAND,
    DensityMatrix,
    FockVector,
    eigs_hermitian,
    hermitian_blocks,
    partial_transpose,
    reduced_density,
)

__all__ = ["log_negativity", "eof_pure", "two_qubit_negativity"]


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
    ev = np.concatenate([pt[isolated, isolated].real]
                        + [eigs_hermitian(pt[np.ix_(b, b)]) for b in blocks])
    ev = ev[np.abs(ev) > EIG_ZERO_BAND]
    tn = float(np.abs(ev).sum())
    return max(0.0, float(np.log2(tn))) if tn > 0 else 0.0


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
