"""Independent reference implementations used to pin expected values.

Everything here is deliberately built from first principles with plain
dense kron products, explicit factorials, Kraus sums, or covariance-matrix
algebra, so it shares no code path with the package under test.  The
exceptions come first: `tensor`, `esv_aligned`, `moment_matrix_entry` and
`parity_weights` are thin helpers over the package that only the tests
use.  The padded circuits at the end have their own block-sparse operator
kernel (`_apply_blocks`), because the padded sizes put a dense matrix
exponential of the whole grid out of reach.  Their one splitter is the
exponential of its truncated generator, one Jacobi eigensolve per total
photon number (`_beamsplitter_blocks`), which the tests hold to scipy's dense
`expm` of the whole grid (`beamsplitter_matrix`).  `apply_beamsplitter`
applies it to a state with the package's tail check, and `_split_padded`
applies the balanced one to stacked two-mode slices.  Scheme b's padded
branch sums, last, also use the package's tail-band mask and a copy of its
tail decision (`_check_band`).
"""

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from esvsim import (DensityMatrix, EsvSpec, FockVector, JcSpec, KerrSpec, ModeLayout, SqueezeSpec, TruncationWarning,
                    esv_pure, jc_unitary, log_negativity, squeezed_vacuum, two_mode_squeezed_vacuum)
from esvsim.fock import _I_POW, TAIL_THRESHOLD, _amplitude_matrix, _band_mask, check_tail
from esvsim.separability import MAX_WEIGHT, _moment_entries
from esvsim.states import _pair, _sech_2s, _superpose


def tensor(x, y):
    """Tensor product of two states of the same kind; layouts concatenate."""
    layout = ModeLayout(x.layout.dims + y.layout.dims)
    if isinstance(x, FockVector) and isinstance(y, FockVector):
        return FockVector(layout, np.kron(x.amps, y.amps))
    if isinstance(x, DensityMatrix) and isinstance(y, DensityMatrix):
        return DensityMatrix(layout, np.kron(x.mat, y.mat))
    raise TypeError("tensor requires two FockVectors or two DensityMatrices")


def esv_aligned(spec):
    """The companion state N (|s+>|s+> + e^{i phi} |s->|s->).

    For phi = pi this is the swap/teleportation resource; it differs from
    |Psi(pi)> by a local pi/2 phase rotation on one mode.
    """
    plus, minus = _pair(spec.s, spec.cutoff)
    return _superpose(np.kron(plus, plus), np.exp(1j * spec.phi) * np.kron(minus, minus),
                      (spec.cutoff, spec.cutoff))


def moment_matrix_entry(state, i, j):
    """M_ij(rho^PT) for multi-indices i and j, one entry of the package's minor evaluation.

    The package's minors take indices of weight at most `MAX_WEIGHT` only (the
    canonical table and the fourth-order criterion), so this entry point keeps that bound.
    """
    if max(i.weight, j.weight) > MAX_WEIGHT:
        raise ValueError(f"multi-index weight above {MAX_WEIGHT} not supported")
    return _moment_entries(state, [(i, j)])[0]


def parity_weights(s):
    """(|E|², |O|²) = ((1 + c)/2, (1 - c)/2) untruncated, c = <s+|s-> = sech(2s)^1/2, for s > 0.

    1 - c = (1 - sech 2s)/(1 + c) with 1 - sech 2s = (1 - x)²/(1 + x²) and
    x = e^{-2s}, 1 - x from expm1: no cancellation at small s, no overflow.
    """
    x = math.exp(-2.0 * s)
    c = math.sqrt(_sech_2s(s))
    return np.array([(1.0 + c) / 2.0, math.expm1(-2.0 * s) ** 2 / (1.0 + x * x) / (1.0 + c) / 2.0])


def ladder(dim):
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def full_operator(dims, word):
    """Dense operator for an ordered ladder word via explicit kron products.

    Factors on different modes commute, so each mode's factors are multiplied
    in word order and the per-mode products are kron-ed together once.
    """
    ops = [np.eye(d, dtype=complex) for d in dims]
    for mode, ndag, nlow in word:
        a = ladder(dims[mode])
        ops[mode] = ops[mode] @ np.linalg.matrix_power(a.conj().T, ndag) @ np.linalg.matrix_power(a, nlow)
    total = ops[0]
    for o in ops[1:]:
        total = np.kron(total, o)
    return total


def kron_moment(state_array, dims, word):
    """<word> evaluated with full dense operators; Tr(rho op) as sum rho_ij op_ji."""
    op = full_operator(dims, word)
    if state_array.ndim == 1:
        return complex(np.vdot(state_array, op @ state_array))
    return complex(np.sum(state_array * op.T))


def moment_matrix_entry_via_pt(state_array, dims, i, j):
    """M_ij(rho^PT) the long way: partially transpose mode 1, then a plain moment.

    The transpose is an explicit index permutation of the (dims + dims)
    tensor; i and j are (i1, i2, i3, i4) tuples, and the word is read off
    the definition <a†^i1 a^i2 b†^i3 b^i4 a†^j2 a^j1 b†^j4 b^j3>.
    """
    rho = np.asarray(state_array)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    d = int(np.prod(dims))
    pt = np.transpose(rho.reshape(tuple(dims) * 2), (0, 3, 2, 1)).reshape(d, d)
    word = [(0, i[0], i[1]), (1, i[2], i[3]), (0, j[1], j[0]), (1, j[3], j[2])]
    return kron_moment(pt, dims, word)


def beamsplitter_matrix(dims, mode_a, mode_b, theta):
    """Dense exp[theta (a b† - a† b)] on the whole grid, a and b on the given modes.

    The generator is built from kron-embedded ladder words and exponentiated
    in one piece, with no use of photon-number conservation.
    """
    gen = (full_operator(dims, [(mode_a, 0, 1), (mode_b, 1, 0)])
           - full_operator(dims, [(mode_a, 1, 0), (mode_b, 0, 1)]))
    return expm(theta * gen)


def _expm_tridiagonal(off: np.ndarray) -> np.ndarray:
    """exp(K) for the real antisymmetric tridiagonal K with K[k, k+1] = off[k].

    With D = diag(i^k), D K D^-1 = -iT for the real symmetric tridiagonal T
    with the same off-diagonal, so exp(K) = D^-1 W e^{-i lambda} Wᵀ D from
    the eigenpairs (lambda, W) of T.  The result is real.
    """
    lam, w = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    d = _I_POW[np.arange(off.size + 1) % 4]
    return ((d.conj()[:, None] * w) @ (np.exp(-1j * lam)[:, None] * w.T * d)).real


def _apply_blocks(t, axes, blocks):
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


@lru_cache(maxsize=16)
def _beamsplitter_blocks(dim_a: int, dim_b: int, theta: float) -> tuple:
    """(rows, block) pairs of exp[theta (a b† - a† b)], one per total photon number.

    The generator conserves n_a + n_b even on the truncated grid, so the
    exponential factorizes into one small unitary per total; this is exactly
    the full matrix exponential, applied by `_apply_blocks` without ever
    building the (dim_a*dim_b)^2 matrix.  Rows index the flattened pair
    (m, n) as m*dim_b + n.
    """
    blocks = []
    for total in range(dim_a + dim_b - 1):
        ms = np.arange(max(0, total - dim_b + 1), min(dim_a, total + 1))
        # a b† moves |m, total-m> to |m-1, total-m+1>
        m = ms[1:]
        block = _expm_tridiagonal(theta * np.sqrt(m * (total - m + 1)))
        blocks.append((ms * dim_b + total - ms, block))
    return tuple(blocks)


def _split_padded(pairs):
    """Balanced splitter on every (d_a, d_b) slice of a (d_a, d_b, k) array; exact.

    Both modes are zero-padded to d_a + d_b - 1 levels, so the largest input
    total, d_a + d_b - 2, is below the padded cutoff and no photon reaches a
    level the padding cut.  Returns the (big, big, k) output.  No tail check
    here: the caller checks the state it owns.
    """
    d_a, d_b, k = pairs.shape
    big = d_a + d_b - 1
    padded = np.zeros((big, big, k), dtype=complex)
    padded[:d_a, :d_b] = pairs
    return _apply_blocks(padded, [0, 1], _beamsplitter_blocks(big, big, np.pi / 4))


def _apply_unitary(state, modes, blocks):
    """Apply a unitary, given as `_apply_blocks` pairs, to modes: U|psi> or U rho U†.

    A density matrix takes U on its ket axes and conj(U) on its bra axes.
    """
    if isinstance(state, FockVector):
        return FockVector(state.layout, _apply_blocks(state.as_tensor(), modes, blocks).reshape(-1))
    dims = state.layout.dims
    n = len(dims)
    t = _apply_blocks(state.mat.reshape(dims + dims), modes, blocks)
    t = _apply_blocks(t, [m + n for m in modes], [(rows, b.conj()) for rows, b in blocks])
    return DensityMatrix(state.layout, t.reshape(state.mat.shape))


def apply_beamsplitter(state, mode_a: int, mode_b: int, theta: float = np.pi / 4):
    """Mix two modes on a beam splitter: a -> a cos(theta) + b sin(theta).

    theta = pi/4 (default) is the balanced splitter.  Total photon number in
    the pair is conserved exactly, including on the truncated grid.
    """
    state.layout.check_mode(mode_a)
    state.layout.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("beam splitter requires two distinct modes")
    dims = state.layout.dims
    blocks = _beamsplitter_blocks(dims[mode_a], dims[mode_b], theta)
    out = _apply_unitary(state, [mode_a, mode_b], blocks)
    check_tail(out, context="beam splitter")
    return out


def squeezed_amplitudes(s, cutoff):
    """Closed-form even amplitudes sech(s)^1/2 sqrt((2n)!)/n! (-tanh(s)/2)^n.

    Uses exact integer factorials, no recurrences.
    """
    amps = np.zeros(cutoff, dtype=complex)
    pref = 1.0 / math.sqrt(math.cosh(s))
    n = 0
    while 2 * n < cutoff:
        coeff = math.sqrt(math.factorial(2 * n)) / math.factorial(n)
        amps[2 * n] = pref * coeff * (-0.5 * math.tanh(s)) ** n
        n += 1
        if n > 80:   # factorials overflow floats past this point
            break
    return amps


def basis_vector(dims, occupations):
    """The Fock basis state |n_0, n_1, ...> as a flat row-major amplitude array."""
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[np.ravel_multi_index(tuple(occupations), tuple(dims))] = 1.0
    return amps


def partial_trace(rho, dims, keep):
    """Reduced density matrix on the `keep` modes (ascending), by one einsum over
    the traced modes' paired bra and ket axes."""
    n = len(dims)
    ket = list(range(n))
    bra = [m if m not in keep else n + m for m in range(n)]
    out = list(keep) + [n + m for m in keep]
    d = int(np.prod([dims[m] for m in keep]))
    return np.einsum(np.asarray(rho).reshape(tuple(dims) * 2), ket + bra, out).reshape(d, d)


def phase_rotation(dim, theta):
    """Dense R(theta) = diag(e^{i theta n})."""
    return np.diag(np.exp(1j * theta * np.arange(dim)))


def displaced_squeezed_amplitudes(alpha, s, cutoff):
    """D(alpha) S(s)|0>: scipy expm of the truncated displacement generator
    alpha a† - conj(alpha) a, applied to the closed-form squeezed amplitudes."""
    a = ladder(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a) @ squeezed_amplitudes(s, cutoff)


def squeezed_overlap_series(s, nmax):
    """<psi_s | psi_-s> = sum_n (-1)^n |c_2n|^2 via a long stable product."""
    t2 = math.tanh(s) ** 2
    n = np.arange(nmax)
    ratios = t2 * (2 * n[1:] - 1) / (2 * n[1:])
    c2 = np.concatenate([[1.0], np.cumprod(ratios)]) / math.cosh(s)
    return float(((-1.0) ** n * c2).sum())


def tmsv_logneg(s):
    """Logarithmic negativity of a two-mode squeezed vacuum from its
    covariance matrix: the partially transposed symplectic eigenvalue is
    e^{-2s}/2 (vacuum variance 1/2), so LN = 2s/ln 2."""
    cov = 0.5 * np.block([
        [np.cosh(2 * s) * np.eye(2), np.sinh(2 * s) * np.diag([1.0, -1.0])],
        [np.sinh(2 * s) * np.diag([1.0, -1.0]), np.cosh(2 * s) * np.eye(2)],
    ])
    cov_pt = cov.copy()
    cov_pt[3, :] *= -1
    cov_pt[:, 3] *= -1
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ev = np.linalg.eigvals(1j * omega @ cov_pt)
    nu_min = np.sort(np.abs(ev))[0]
    return float(max(0.0, -np.log2(2.0 * nu_min)))


def loss_kraus(rho, transmissivity, kmax=None):
    """Pure-loss channel as an explicit Kraus sum A_k rho A_k†."""
    d = rho.shape[0]
    if kmax is None:
        kmax = d
    eta = transmissivity
    out = np.zeros_like(rho)
    for k in range(kmax):
        A = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            A[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        out += A @ rho @ A.conj().T
    return out


def amplifier_kraus(rho, gain, kmax=None):
    """Quantum-limited amplifier as an explicit Kraus sum B_k rho B_k†.

    B_k |n> = sqrt(C(n+k, k) G^-(n+1) (1 - 1/G)^k) |n+k>; images above the
    cutoff are dropped, so the output trace falls short of the input's.
    """
    d = rho.shape[0]
    if kmax is None:
        kmax = d
    out = np.zeros_like(rho)
    for k in range(kmax):
        B = np.zeros((d, d), dtype=complex)
        for n in range(d - k):
            B[n + k, n] = math.sqrt(math.comb(n + k, k) * gain ** -(n + 1) * (1 - 1 / gain) ** k)
        out += B @ rho @ B.conj().T
    return out


def esv_reduced_spectrum(overlap, phi):
    """Eigenvalues of either reduced state of N(|s+,s-> + e^{i phi}|s-,s+>).

    Works in the two-dimensional span of the components: with o = <s+|s->
    and orthonormal u, v such that |s+-> = c+ u +- c- v, c+- = sqrt((1+-o)/2),
    the reduced state is a 2x2 matrix whose spectrum is returned.
    """
    o = float(overlap)
    cp, cm = math.sqrt((1 + o) / 2), math.sqrt((1 - o) / 2)
    plus = np.array([cp, cm])
    minus = np.array([cp, -cm])
    n2 = 2.0 * (1.0 + o * o * math.cos(phi))
    rho = (np.outer(plus, plus) + np.outer(minus, minus)
           + o * np.exp(-1j * phi) * np.outer(plus, minus)
           + o * np.exp(1j * phi) * np.outer(minus, plus)) / n2
    return np.sort(np.linalg.eigvalsh(rho))[::-1]


def entropy2(evals):
    ev = np.asarray(evals, dtype=float)
    ev = ev[ev > 1e-12]
    return float(-(ev * np.log2(ev)).sum())


def random_product_dm(dims, rng):
    """Random separable product of pure single-mode states."""
    mats = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        mats.append(np.outer(v, v.conj()))
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def log_negativity_dense(rho, dims, split, zero_band=1e-11):
    """log2 ||rho^PT||_1 from one dense eigensolve of the whole partial transpose.

    The transpose is an explicit index permutation of the (dims + dims)
    tensor; eigenvalues inside the zero band are dropped and the result is
    clamped at zero, as the library documents.
    """
    n = len(dims)
    perm = list(range(2 * n))
    for m in split:
        perm[m], perm[m + n] = perm[m + n], perm[m]
    d = int(np.prod(dims))
    pt = np.transpose(np.asarray(rho).reshape(tuple(dims) * 2), perm).reshape(d, d)
    ev = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    tn = float(np.abs(ev[np.abs(ev) > zero_band]).sum())
    return max(0.0, math.log2(tn)) if tn > 0 else 0.0


def jc_unitary_loop(tau, dim):
    """The closed-form JC unitary filled one excitation block at a time, as a Python loop.

    Each block {|g,n>, |e,n-1>} gets cos and -i sin of tau sqrt(n); the
    top level |e, dim-1>, whose partner lies beyond the cutoff, keeps 1.
    """
    u = np.eye(2 * dim, dtype=complex)
    for n in range(1, dim):
        c = np.cos(tau * np.sqrt(n))
        s = np.sin(tau * np.sqrt(n))
        ig = n              # |g, n>
        ie = dim + n - 1    # |e, n-1>
        u[ig, ig] = c
        u[ie, ie] = c
        u[ie, ig] = -1j * s
        u[ig, ie] = -1j * s
    return u


def jc_unitary_expm(tau, dim):
    """exp(-i tau (sigma_+ (x) a + sigma_- (x) a†)) on (qubit, mode), qubit first, |g> = 0."""
    sp = np.array([[0, 0], [1, 0]], dtype=complex)   # |e><g|
    a = ladder(dim)
    return expm(-1j * tau * (np.kron(sp, a) + np.kron(sp.conj().T, a.conj().T)))


def entangling_power_joint(state_array, dims, tau):
    """The two-qubit state of the entangling-power test, built the long way.

    A ground-state qubit is attached to each mode (order qubit 1, mode a,
    qubit 2, mode b), the joint vector or density matrix is evolved by the
    dense kron of the two JC unitaries, and the modes are traced out.
    Returns the 4 x 4 matrix, the qubit coupled to mode a first.
    """
    da, db = dims
    g = np.array([[1.0], [0.0]])
    attach = np.kron(np.kron(g, np.eye(da)), np.kron(g, np.eye(db)))
    evolve = np.kron(jc_unitary_expm(tau, da), jc_unitary_expm(tau, db)) @ attach
    state = np.asarray(state_array)
    if state.ndim == 1:
        out = evolve @ state
        joint = np.outer(out, out.conj())
    else:
        joint = evolve @ state @ evolve.conj().T
    return np.einsum("iajbkalb->ijkl", joint.reshape((2, da, 2, db) * 2)).reshape(4, 4)


def entangling_power_kraus(state, tau):
    """`dynamics.entangling_power` at one tau through the JC unitary's Kraus operators.

    K[q] = <q|U|g>, sliced from `jc_unitary`, and the qubit state (mode 0's qubit
    first) is rho[pq, rs] = Tr[(K_p (x) K_q) rho (K_r (x) K_s)†], or M M† with
    M = (K_p (x) K_q) psi for a vector psi; its log-negativity is
    `measures.log_negativity`'s.  The library forms no unitary.
    """
    da, db = state.layout.dims
    ka = jc_unitary(JcSpec(tau, da))[:, :da].reshape(2, da, da)
    kb = jc_unitary(JcSpec(tau, db))[:, :db].reshape(2, db, db)
    if isinstance(state, FockVector):
        m = ((ka @ state.as_tensor())[:, None] @ kb.transpose(0, 2, 1)).reshape(4, -1)  # K_p psi K_qᵀ
        qubits = m @ m.conj().T
    else:
        rho = state.mat.reshape(state.layout.dims * 2)
        qubits = np.einsum("pij,qkl,jlmn,rim,skn->pqrs", ka, kb, rho, ka.conj(), kb.conj(),
                           optimize=True).reshape(4, 4)
    return log_negativity(DensityMatrix(ModeLayout((2, 2)), qubits), [1])


# The padded circuits of swapping, teleportation and generation: the joint
# state is formed in full, a qubit ancilla is a two-level mode, the splitter
# modes are zero-padded to d_a + d_b - 1 levels, and `apply_beamsplitter`
# checks the tail of the whole padded output.  Their splitter is the
# truncated-generator exponential above, one Jacobi eigensolve per total
# photon number; their ancilla gates and measurements are the diagonal
# controlled phase and the projection of the ancilla mode.  They are the
# references of the package's swap and teleport closed forms and of both
# generation schemes, which never form the joint state.  The tail band of
# a two-level ancilla mode is both its levels, so the scheme-b circuit's
# tail check warns on every call: tests compare its values, not its warnings.

def resize_mode(state, mode, dim):
    """Zero-pad (or truncate) one mode of a pure state to a new cutoff.

    Padding is exact.  Truncation discards the amplitudes above the new
    cutoff, so the result may need renormalization; callers own that choice.
    """
    mode = state.layout.check_mode(mode)
    dims = list(state.layout.dims)
    if dim == dims[mode]:
        return state
    sel = [slice(None)] * len(dims)
    sel[mode] = slice(0, min(dims[mode], dim))
    dims[mode] = int(dim)
    t = np.zeros(dims, dtype=complex)
    t[tuple(sel)] = state.as_tensor()[tuple(sel)]
    return FockVector(ModeLayout(tuple(dims)), t.reshape(-1))


def odd_odd_projector(state, modes):
    """Project onto odd photon number in both selected modes.

    Returns the unnormalized projected vector and the outcome probability
    (its squared norm).
    """
    i, j = (state.layout.check_mode(m) for m in modes)
    if i == j:
        raise ValueError("projector needs two distinct modes")
    t = state.as_tensor().copy()
    for mode in (i, j):
        np.moveaxis(t, mode, 0)[::2] = 0     # a view: zeroes the even levels of t in place
    proj = FockVector(state.layout, t.reshape(-1))
    return proj, float(proj.norm() ** 2)


def controlled_phase(state, mode, control, gamma, control_value=1):
    """Diagonal gate e^{i gamma n_mode} applied when the control qubit is set.

    The control must be a two-level mode; control_value selects which of its
    basis states triggers the phase.
    """
    mode = state.layout.check_mode(mode)
    control = state.layout.check_mode(control)
    if state.layout.dims[control] != 2:
        raise ValueError("control mode must have dimension 2")
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    d = state.layout.dims[mode]
    phase = np.exp(1j * gamma * np.arange(d))
    diag = np.ones((d, 2), dtype=complex)
    diag[:, control_value] = phase
    u = np.diag(diag.reshape(-1))
    return _apply_unitary(state, [mode, control], [(slice(None), u)])


def padded_balanced_bs(state, mode_a, mode_b):
    """Balanced splitter on zero-padded modes, with the joint output's tail check."""
    big = state.layout.dims[mode_a] + state.layout.dims[mode_b] - 1
    state = resize_mode(resize_mode(state, mode_a, big), mode_b, big)
    return apply_beamsplitter(state, mode_a, mode_b, np.pi / 4)


def heralded_fidelity(projected, keep, prob, target):
    """<target| rho |target> for the state rho of the `keep` modes of `projected`: with M
    the amplitude matrix whose rows are the `keep` modes, rho = M M† / prob."""
    if target.layout.dims != tuple(projected.layout.dims[m] for m in keep):
        raise ValueError("layout mismatch")
    return float(np.linalg.norm(target.amps.conj() @ _amplitude_matrix(projected, keep)) ** 2) / prob


def entanglement_swap_padded(s, cutoff):
    """(probability, fidelity) of `entanglement_swap` on the padded 4-mode joint state."""
    target = esv_aligned(EsvSpec(s, np.pi, cutoff))
    resource = tensor(esv_pure(EsvSpec(s, np.pi, cutoff)), target)
    projected, prob = odd_odd_projector(padded_balanced_bs(resource, 1, 2), (1, 2))
    return prob, heralded_fidelity(projected, [0, 3], prob, target)


def teleport_padded(inp, s, cutoff):
    """(probability, fidelity) of `teleport` on the padded 3-mode joint state."""
    plus, minus = _pair(s, cutoff)
    input_state = _superpose(inp.a0 * plus, inp.a1 * minus, (cutoff,))
    joint = tensor(input_state, esv_aligned(EsvSpec(s, np.pi, cutoff)))
    projected, prob = odd_odd_projector(padded_balanced_bs(joint, 0, 1), (0, 1))
    target = _superpose(inp.a0 * minus, inp.a1 * plus, (cutoff,))
    return prob, heralded_fidelity(projected, [2], prob, target)


# The branch sums of generation scheme b, the reference for its product
# branches and for where it flags truncation: the two TMSV branches meet the
# zero-padded splitter (`_split_padded`, in one stacked call), and the
# splitter's tail mass is the band mass of the padded joint output.

def _check_band(mass, total):
    """`check_tail`'s decision and message, as "beam splitter", for a band mass
    and a total computed here; the warning names the oracle's caller."""
    if total > 0 and mass <= TAIL_THRESHOLD * total:
        return
    message = f"beam splitter: Fock-tail mass above {TAIL_THRESHOLD:.0e}; results may be truncation-limited"
    warnings.warn(message, TruncationWarning, stacklevel=3)


def _project_qubit(state, mode, coeffs):
    """Contract a two-level mode against <coeffs| and drop it."""
    mode = state.layout.check_mode(mode)
    t = np.moveaxis(state.as_tensor(), mode, -1)
    out = t @ coeffs.conj()
    dims = tuple(d for k, d in enumerate(state.layout.dims) if k != mode)
    vec = FockVector(ModeLayout(dims), out.reshape(-1))
    return vec, float(vec.norm() ** 2)


def _ancilla_vector(ancilla):
    amps = np.array([ancilla.a0, ancilla.a1], dtype=complex)
    return FockVector(ModeLayout((2,)), amps)


_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def _measure_pm(state, mode, outcome):
    if outcome not in ("+", "-"):
        raise ValueError("outcome must be '+' or '-'")
    coeffs = _PLUS if outcome == "+" else _MINUS
    vec, prob = _project_qubit(state, mode, coeffs)
    if prob < 1e-14:
        raise ValueError("conditional state is null for this outcome")
    return vec, prob


def generate_scheme_a_circuit(s, ancilla, outcome, cutoff):
    """`generate_scheme_a` on the 3-mode state of the two vacua and the ancilla."""
    plus = squeezed_vacuum(SqueezeSpec(s, cutoff))
    state = tensor(tensor(plus, plus), _ancilla_vector(ancilla)).normalized()
    state = controlled_phase(state, 1, 2, np.pi / 2, control_value=0)
    state = controlled_phase(state, 0, 2, np.pi / 2, control_value=1)
    vec, prob = _measure_pm(state, 2, outcome)
    return vec.normalized(), prob


def generate_scheme_b_circuit(s, ancilla, outcome, cutoff, kerr=KerrSpec(np.pi)):
    """`generate_scheme_b` on the padded 3-mode state of the resource and the ancilla."""
    resource = two_mode_squeezed_vacuum(s, cutoff)
    state = tensor(resource, _ancilla_vector(ancilla)).normalized()
    state = controlled_phase(state, 1, 2, kerr.gamma, control_value=1)
    state = padded_balanced_bs(state, 0, 1)
    vec, prob = _measure_pm(state, 2, outcome)
    vec = resize_mode(resize_mode(vec, 0, cutoff), 1, cutoff)
    return vec.normalized(), prob


def generate_scheme_b_branches(s, ancilla, outcome, cutoff, kerr=KerrSpec(np.pi)):
    """`generate_scheme_b` as padded Fock branch sums at a cutoff.

    The branches a0 TMSV and a1 e^{i gamma n_b} TMSV meet the padded
    splitter in one stacked call, with the band mass of the padded joint
    output tail-checked as "beam splitter"; the ancilla is measured on the
    splitter's output, which is then cropped back to the cutoff.
    """
    tmsv = two_mode_squeezed_vacuum(s, cutoff).as_tensor()
    branches = np.stack([ancilla.a0 * tmsv, ancilla.a1 * tmsv * np.exp(1j * kerr.gamma * np.arange(cutoff))],
                        axis=-1)
    out = _split_padded(branches / np.linalg.norm(branches))
    band = out[_band_mask(ModeLayout(out.shape[:2])).reshape(out.shape[:2])]
    _check_band(float(np.vdot(band, band).real), float(np.vdot(out, out).real))
    vec, prob = _measure_pm(FockVector(ModeLayout(out.shape), out.reshape(-1)), 2, outcome)
    vec = resize_mode(resize_mode(vec, 0, cutoff), 1, cutoff)
    return vec.normalized(), prob
