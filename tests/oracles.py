"""Independent reference implementations used to pin expected values.

Everything here is deliberately built from first principles with plain
dense kron products, explicit factorials, Kraus sums, or covariance-matrix
algebra, so it shares no code path with the package under test.
"""

import math

import numpy as np
from scipy.linalg import expm


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


def hermitian_2x2_eigs(mat):
    """Quadratic-formula eigenvalues of a 2x2 Hermitian matrix, descending."""
    a = mat[0, 0].real
    d = mat[1, 1].real
    b = mat[0, 1]
    disc = math.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    mid = (a + d) / 2
    return np.array([mid + disc, mid - disc])


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
