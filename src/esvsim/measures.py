"""Entanglement quantifiers: logarithmic negativity and entanglement of formation.

Logarithmic negativity is log2 of the trace norm of the partial transpose;
it vanishes on PPT states and equals 1 for a maximally entangled qubit pair.
`esv_mixed_ln_curve` computes it for the output of `states.esv_mixed` on
one real input with no coherence between photon numbers of opposite parity,
as the channel outputs of both noisy sweeps are: each block of the partial transpose is
(rho (x) rho) ∘ W on a pair of the input's parity sectors, W from the
conditional map.  A sweep calls it once per input, with its whole phi axis: it
forms the sectors and their krons once, and for each phi gathers each W from
one real 4 x 4 table over the signs of i^{n_a} and i^{n_b} and eigensolves.  A sector
paired with itself commutes with the mode swap |i, j> -> |j, i>; it is
eigensolved as its swap-symmetric and antisymmetric halves, whose spectra
together are exactly the block's.  Any other input takes the reference path,
`log_negativity(esv_mixed(rho_a, rho_b, phi), [1])`.
Entanglement of formation (pure states only) is the entropy, base 2, of the
Schmidt spectrum: the squared singular values of the amplitude matrix.  The
entangled squeezed vacuum N(|s+>|s-> + e^{i phi}|s->|s+>) has a rank-2
amplitude matrix, so `esv_pure_eof_curve`, which the `eof-surface` sweep
uses, reads its two Schmidt coefficients off the 2 x 2 parity Gram matrix
of the truncated squeezed vacuum (`states._parity_basis`) in closed form, for
the whole (s, phi) grid in one array pass; the cutoff still sets the
truncation and its warning, and `eof_pure` on `states.esv_pure` is its reference.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .fock import (
    _I_POW,
    EIG_ZERO_BAND,
    DensityMatrix,
    FockVector,
    ModeLayout,
    _amplitude_matrix,
    _check_real,
    _parse_modes,
    hermitian_blocks,
    partial_transpose,
)
from .states import _check_esv_input, _check_esv_trace, _conditional_map, _parity_basis

__all__ = ["log_negativity", "esv_mixed_ln_curve", "eof_pure", "esv_pure_eof_curve"]


def _log2_trace_norm(ev: np.ndarray) -> float:
    """log2 of the sum of |eigenvalues| outside the zero band, clamped at zero.

    Exactly 0 when no eigenvalue lies below the zero band (a PPT spectrum),
    so rounding in the positive eigenvalues' sum is never printed as a value.
    """
    if not (ev < -EIG_ZERO_BAND).any():
        return 0.0
    tn = float(np.abs(ev[np.abs(ev) > EIG_ZERO_BAND]).sum())
    return max(0.0, float(np.log2(tn)))


def _split(layout: ModeLayout, split: Iterable[int]) -> list[int]:
    """The sorted modes of `split`, which must be a proper non-empty subset of the layout's."""
    modes = _parse_modes(layout, split)
    if not modes or len(modes) == layout.nmodes:
        raise ValueError("split must be a proper non-empty subset of the modes")
    return modes


def log_negativity(state: FockVector | DensityMatrix, split: Iterable[int]) -> float:
    """log2 || rho^PT ||_1 with the modes in `split` transposed.

    Clamped at zero from below; eigenvalues inside the numerical zero band
    do not contribute.  The partial transpose is eigensolved one connected
    block of its exact zero pattern at a time (parity sectors of squeezed
    inputs, zeros of the conditional map); an isolated index contributes
    its diagonal entry.  The spectrum is the same as that of one dense
    solve.  A `DensityMatrix` is stored exactly Hermitian, and so is its
    partial transpose, so each block goes to `eigvalsh`, which reads one
    triangle, as it is.
    """
    rho = state.density() if isinstance(state, FockVector) else state
    split = _split(rho.layout, split)
    if abs(rho.trace() - 1.0) > 1e-6:
        raise ValueError(f"state trace {rho.trace():.8f} is not 1")
    pt = partial_transpose(rho, split).mat
    blocks, isolated = hermitian_blocks(pt)
    spectra = [pt[isolated, isolated].real]
    for b in blocks:
        spectra.append(np.linalg.eigvalsh(pt[np.ix_(b, b)])[::-1])
    return _log2_trace_norm(np.concatenate(spectra))


def _swap_halves(k: np.ndarray, rows: np.ndarray) -> tuple:
    """The parts of (K (x) K) ∘ W that its mode-swap halves are formed from.

    For an n x n K the block M is indexed by pairs (i, j), and commutes with
    F|i, j> = |j, i> when W does.  On the basis |i, i> and
    (|i, j> ± |j, i>)/sqrt(2), i < j, its symmetric half is
    (M[p, p'] + M[p, q']) / sqrt(m_p m_p') over pairs i <= j, with p = (i, j),
    q = (j, i) and m = 2 on i = j, 1 otherwise; its antisymmetric half is
    M[p, p'] - M[p, q'] over i < j, where the scale is 1.
    (K (x) K)[p, p'] = K[i, i'] K[j, j'] and (K (x) K)[p, q'] = K[i, j'] K[j, i'],
    so no kron is formed.  Returns the scaled direct factor and the table rows
    of p (taken from `rows`, those of the block), then the scaled crossed
    factor, the table rows of q and the positions of the pairs i < j among
    i <= j.
    """
    n = k.shape[0]
    i, j = np.triu_indices(n)
    mult = np.where(i == j, 2.0, 1.0)
    scale = 1.0 / np.sqrt(np.outer(mult, mult))
    direct = k[np.ix_(i, i)] * k[np.ix_(j, j)] * scale
    crossed = k[np.ix_(i, j)] * k[np.ix_(j, i)] * scale
    return direct, rows[i * n + j], (crossed, rows[j * n + i], np.flatnonzero(i != j))


def _half_spectra(direct: np.ndarray, crossed: np.ndarray, off: np.ndarray) -> list[np.ndarray]:
    """The spectra of the symmetric half direct + crossed and of the antisymmetric
    half direct - crossed on the pairs `off`, from the W-weighted `_swap_halves`
    factors.  Both halves are exactly symmetric, as `_sign_weight` is.  A function
    of its own, so that its temporaries are freed before the next block is formed."""
    symmetric, antisymmetric = direct + crossed, (direct - crossed).take(off, 0).take(off, 1)
    return [np.linalg.eigvalsh(symmetric)[::-1], np.linalg.eigvalsh(antisymmetric)[::-1]]


def _sign_weight(rot: complex) -> np.ndarray:
    """The gauged W of `esv_mixed_ln_curve` over sign classes, for e^{i theta} = `rot`."""
    x, y = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])     # sigma(n_a), sigma(n_b) per class
    z = x * y
    return np.outer(x, x) + np.outer(y, y) + rot.real * (z[:, None] + z) + rot.imag * (np.outer(z, z) - 1.0)


def esv_mixed_ln_curve(rho: DensityMatrix, phi):
    """``log_negativity(esv_mixed(rho, rho, phi), [1])`` from the d x d input.

    phi is a float or an array, checked whole after the input; each of its points
    is eigensolved in turn, in row-major order, and the values have its shape.

    The input must be real and have no coherence between photon numbers of
    opposite parity (no nonzero entry at an odd offset n - m), as the
    thermal and phase channel outputs of a squeezed vacuum have; any other
    input raises ValueError, and `log_negativity(esv_mixed(...), [1])`
    serves it.  The partial transpose on mode 1 of T (rho (x) rho) T† is
    (rho (x) rho) ∘ W, W[(n_a, n_b), (m_a, m_b)] = t(n_a, m_b) conj(t(m_a, n_b))
    with t = `states._conditional_map`; its spectrum is divided by the trace.
    A pair of nonzero parity sectors A, B of rho spans an invariant block,
    one kron of sector sub-blocks times W; no d^2 x d^2 matrix is formed.

    With sigma(n) = (-1)^floor(n/2), i^n = i^(n mod 2) sigma(n).  On sectors of
    parities (p_a, p_b), with x, y, z = sigma(n_a), sigma(n_b), xy on the row
    and x', y', z' on the column, W = x x' + y y' + e^{i theta} z + e^{-i theta} z',
    theta = phi + (p_a - p_b) pi/2.  The unitary gauge 1 on z = 1 and i on
    z = -1 makes it the real table x x' + y y' + cos theta (z + z') +
    sin theta (z z' - 1) over the sign classes 2 [x < 0] + [y < 0]
    (`_sign_weight`), exactly symmetric term by term.  Only that table and the
    trace depend on phi; the input checks, sectors, krons and sign classes are
    prepared once for every phi.

    A sector paired with itself gives K (x) K, whose table is invariant under
    the mode swap |i, j> -> |j, i> (x <-> y): its spectrum is exactly that of
    its symmetric half, on the n(n+1)/2 pairs i <= j, with that of its
    antisymmetric half, on the n(n-1)/2 pairs i < j (`_swap_halves`).  The two
    cross-parity blocks are eigensolved whole.  Every block and half is exactly
    symmetric and goes to `eigvalsh` unchecked.  Raises the ValueErrors of
    `esv_mixed`: the input's, then phi's, then the annihilated trace's at the
    first point of phi where it vanishes.
    """
    d = _check_esv_input(rho, "rho_a")
    a = rho.mat
    n = np.arange(d)
    if a.imag.any() or a[(n[:, None] - n) % 2 == 1].any():
        raise ValueError("esv_mixed_ln_curve needs a real input with no coherence between "
                         "photon numbers of opposite parity; use log_negativity(esv_mixed(...), [1])")
    a = a.real
    diag = a.diagonal()
    negative = n // 2 % 2       # [sigma(n) < 0]
    sectors = [rows for rows in (n[0::2], n[1::2]) if a[np.ix_(rows, rows)].any()]
    solves = []     # (kron or swap-direct factor, sign classes, i^(p_a - p_b), swap parts or None)
    for rows_a in sectors:
        for rows_b in sectors:
            rows = (2 * negative[rows_a, None] + negative[None, rows_b]).reshape(-1)
            shift = _I_POW[(rows_a[0] - rows_b[0]) % 4]
            if rows_b is rows_a:
                kron, rows, swap = _swap_halves(a[np.ix_(rows_a, rows_a)], rows)
            else:
                kron, swap = np.kron(a[np.ix_(rows_a, rows_a)], a[np.ix_(rows_b, rows_b)]), None
            solves.append((kron, rows, shift, swap))

    phi = np.asarray(_check_real(phi, "phi"))
    values = []
    for p in phi.ravel().tolist():
        tr = _check_esv_trace(float(diag @ np.abs(_conditional_map(d, p)) ** 2 @ diag))
        rot, spectra = np.exp(1j * p), []
        for kron, rows, shift, swap in solves:
            table = _sign_weight(rot * shift).take(rows, 0)
            if swap is None:
                spectra.append(np.linalg.eigvalsh(kron * table.take(rows, 1))[::-1])
            else:
                crossed, cols, off = swap
                spectra += _half_spectra(kron * table.take(rows, 1), crossed * table.take(cols, 1), off)
        values.append(_log2_trace_norm(np.concatenate(spectra) / tr))
    return np.array(values).reshape(phi.shape)[()]


def eof_pure(state: FockVector, split: Iterable[int]) -> float:
    """Entropy of entanglement of a normalized pure state across `split`, from
    the squared singular values of its amplitude matrix (the Schmidt spectrum)."""
    if not isinstance(state, FockVector):
        raise TypeError("eof_pure is defined for pure states")
    if abs(state.norm() - 1.0) > 1e-6:
        raise ValueError(f"state norm {state.norm():.8f} is not 1")
    ev = np.linalg.svd(_amplitude_matrix(state, _split(state.layout, split)), compute_uv=False) ** 2
    ev = ev[ev > EIG_ZERO_BAND]
    return float(-(ev * np.log2(ev)).sum())


def esv_pure_eof_curve(s, phi, cutoff: int):
    """``eof_pure(esv_pure(EsvSpec(s, phi, cutoff)), [0])`` from the 2 x 2 Gram matrix.

    s and phi are floats or arrays that broadcast together: every point of their grid
    is evaluated in one array pass, and the values have its shape, each bit for bit
    the value of its s alone.

    The amplitude matrix is X C Xᵀ up to norm and phase, X = [e, o] over the
    parity basis of `states._parity_basis`, which also checks the cutoff, phi and
    s, wraps phi, judges the tail of each point of s and raises `esv_pure`'s
    ValueError for a degenerate superposition.  With E and O the Gram diagonal
    of X, the rank-2 matrix has the squared singular values
    lambda± = (1 ± sqrt(1 - 4 Delta)) / 2, Delta = ((1 - o²) / (2 (1 + o² cos phi)))²,
    o = (E - O) / (E + O).  a = (E + O)² - (E - O)² = 4 E O and
    b = 2 (E - O)² cos²(phi/2) are sums of non-negative terms, with
    2 sqrt(Delta) = a / (a + b), sqrt(1 - 4 Delta) = sqrt(b (2a + b)) / (a + b) and
    lambda- = Delta / lambda+: no difference of nearly equal numbers is formed.
    The entropy sums lambda > `EIG_ZERO_BAND`, as `eof_pure` does.
    """
    _, (even, odd), (c, _, _) = _parity_basis(s, phi, cutoff)
    a, c2 = 4.0 * even * odd, (even - odd) ** 2
    b = 2.0 * c2 * c ** 2
    lam_plus = 0.5 + 0.5 * np.sqrt(b * (2.0 * a + b)) / (a + b)
    lam_minus = (0.5 * a / (a + b)) ** 2 / lam_plus
    kept = lam_minus > EIG_ZERO_BAND
    log_minus = np.log2(lam_minus, out=np.zeros_like(lam_minus), where=kept)
    return (0.0 - lam_plus * np.log2(lam_plus) - lam_minus * log_minus)[()]     # lambda+ >= 1/2
