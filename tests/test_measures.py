import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esvsim import (
    EsvSpec,
    SqueezeSpec,
    TruncationWarning,
    eof_pure,
    esv_mixed,
    esv_pure,
    log_negativity,
    partial_transpose,
    phase_channel,
    squeezed_vacuum,
    thermal_channel,
    two_mode_squeezed_vacuum,
)
from esvsim.fock import _I_POW, HERMITICITY_TOL, DensityMatrix, FockVector, ModeLayout, hermitian_blocks
from esvsim.measures import _sign_weight, esv_mixed_ln_curve, esv_pure_eof_curve
from esvsim.states import _conditional_map

from oracles import (basis_vector, displaced_squeezed_amplitudes, entropy2, esv_reduced_spectrum,
                     log_negativity_dense, phase_rotation, tensor, tmsv_logneg)


def rotated(state, mode, theta):
    """R(theta) = diag(e^{i theta n}) on one mode of a state, as a dense kron-embedded matrix."""
    u = np.eye(1)
    for m, d in enumerate(state.layout.dims):
        u = np.kron(u, phase_rotation(d, theta) if m == mode else np.eye(d))
    if isinstance(state, FockVector):
        return FockVector(state.layout, u @ state.amps)
    return DensityMatrix(state.layout, u @ state.mat @ u.conj().T)


def displaced_sq_dm(alpha, s, cutoff):
    return FockVector(ModeLayout((cutoff,)),
                      displaced_squeezed_amplitudes(alpha, s, cutoff)).normalized().density()


def basis_dm(d, n):
    return FockVector(ModeLayout((d,)), basis_vector((d,), (n,))).density()


def bell_dm():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityMatrix(ModeLayout((2, 2)), np.outer(v, v.conj()))


def werner_dm(p):
    mat = p * bell_dm().mat + (1 - p) * np.eye(4) / 4
    return DensityMatrix(ModeLayout((2, 2)), mat)


def test_log_negativity_product_state_is_zero():
    prod = tensor(squeezed_vacuum(SqueezeSpec(0.7, 24)).normalized(),
                  squeezed_vacuum(SqueezeSpec(-0.4, 24)).normalized())
    assert log_negativity(prod, [1]) <= 1e-9


def test_log_negativity_tmsv_matches_covariance_oracle():
    for s in (0.25, 0.5, 1.0):
        state = two_mode_squeezed_vacuum(s, 40).normalized()
        assert log_negativity(state, [1]) == pytest.approx(tmsv_logneg(s), abs=1e-4)
        assert tmsv_logneg(s) == pytest.approx(2 * s / np.log(2), abs=1e-12)


def test_log_negativity_exact_ebit_at_phi_pi():
    state = esv_pure(EsvSpec(0.5, np.pi, 40))
    assert log_negativity(state, [1]) == pytest.approx(1.0, abs=1e-6)


def test_log_negativity_invariant_under_local_phase():
    state = esv_pure(EsvSpec(0.8, np.pi, 30))
    assert abs(log_negativity(rotated(state, 1, np.pi / 2), [1]) - log_negativity(state, [1])) < 1e-9


def test_log_negativity_validation():
    state = esv_pure(EsvSpec(0.5, 0.0, 12))
    with pytest.raises(ValueError):
        log_negativity(state, [])
    with pytest.raises(ValueError):
        log_negativity(state, [0, 1])
    unnorm = FockVector(state.layout, state.amps * 1.1)
    with pytest.raises(ValueError):
        log_negativity(unnorm, [1])


def test_eof_pure_exact_ebit_at_phi_pi():
    assert eof_pure(esv_pure(EsvSpec(0.3, np.pi, 40)), [0]) == pytest.approx(1.0, abs=1e-6)


def test_eof_pure_vanishes_on_product():
    assert eof_pure(esv_pure(EsvSpec(0.0, 0.0, 12)), [0]) == pytest.approx(0.0, abs=1e-12)


def test_eof_pure_matches_two_level_oracle():
    # the reduced spectrum lives in the span of the two squeezed components
    for s, phi in ((0.4, 0.0), (0.9, 1.3), (1.2, np.pi)):
        state = esv_pure(EsvSpec(s, phi, 80))
        got = eof_pure(state, [0])
        want = entropy2(esv_reduced_spectrum(1 / np.sqrt(np.cosh(2 * s)), phi))
        assert got == pytest.approx(want, abs=1e-7)


def test_eof_pure_approaches_full_ebit_at_large_squeezing():
    # overlap <s+|s-> ~ 1e-2 at s = 5, so E_F = 1 within 1e-2 there; verify
    # the trend at numerically comfortable squeezing and pin s = 5 via the
    # two-level reduced-state spectrum
    e1 = eof_pure(esv_pure(EsvSpec(1.0, 0.0, 120)), [0])
    e2 = eof_pure(esv_pure(EsvSpec(2.0, 0.0, 700)), [0])
    assert e1 < e2 < 1.0 + 1e-9
    oracle_s5 = entropy2(esv_reduced_spectrum(1 / np.sqrt(np.cosh(10.0)), 0.0))
    assert oracle_s5 == pytest.approx(1.0, abs=1e-2)
    assert e2 == pytest.approx(entropy2(esv_reduced_spectrum(1 / np.sqrt(np.cosh(4.0)), 0.0)),
                               abs=1e-6)


def _outcome(compute):
    """(the value or the ValueError raised, whether a TruncationWarning was warned)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        try:
            value = compute()
        except ValueError as exc:
            value = exc
    return value, any(issubclass(w.category, TruncationWarning) for w in caught)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=st.floats(0.0, 5.0), phi=st.floats(0.0, 2 * np.pi, exclude_max=True),
       cutoff=st.integers(2, 60))
@example(s=5.0, phi=1.0, cutoff=2)              # one Fock level: a product state
@example(s=5.0, phi=2.0, cutoff=3)
@example(s=4.0, phi=0.3, cutoff=8)
@example(s=5.0, phi=np.pi, cutoff=2)            # below esv_pure's norm floor
@example(s=0.0, phi=np.pi, cutoff=10)           # the degenerate EsvSpec point
def test_esv_pure_eof_curve_matches_eof_pure(s, phi, cutoff):
    want, want_warned = _outcome(lambda: eof_pure(esv_pure(EsvSpec(s, phi, cutoff)), [0]))
    got, got_warned = _outcome(lambda: esv_pure_eof_curve(s, phi, cutoff))
    assert got_warned == want_warned
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
    else:
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("s", [0.0, 0.7])
@pytest.mark.parametrize("phi", [-1e-20, -7.0, 20.0, 2 * np.pi, 3 * np.pi, -np.pi, np.float64(-3.3), 1e300,
                                 np.nan, np.inf, -np.inf])
def test_esv_pure_eof_curve_wraps_phi_as_esv_spec(s, phi):
    # the curve wraps and checks phi as EsvSpec does: the same value, bit for bit, or the same
    # error, EsvSpec's for a non-finite phi and esv_pure's where s = 0 and phi wraps to pi
    def curve(phi):
        return esv_pure_eof_curve(s, phi, 12)

    try:
        spec = EsvSpec(s, phi, 12)
        esv_pure(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            curve(phi)
        assert str(got.value) == str(exc)
        return
    assert curve(phi) == curve(spec.phi)


@pytest.mark.parametrize("s", [1e-7, 0.3])
def test_esv_pure_eof_curve_is_one_ebit_at_phi_pi(s):
    # s > 0 is not the zero vector at phi = pi: at s = 1e-7 the state is (|0,2> - |2,0>)/sqrt 2
    # in the limit, and its EoF is exactly 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        assert esv_pure_eof_curve(s, np.pi, 40) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dims=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
       seed=st.integers(0, 2**32 - 1))
def test_eof_pure_non_adjacent_splits_match_dense_partial_trace(dims, seed):
    # a random 3-mode state; [0, 2] keeps two modes that are not neighbours
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    t /= np.linalg.norm(t)
    state = FockVector(ModeLayout(dims), t.reshape(-1))
    rho_02 = np.einsum("abc,dbf->acdf", t, t.conj()).reshape(dims[0] * dims[2], -1)
    rho_1 = np.einsum("abc,adc->bd", t, t.conj())
    for split, rho in (([0, 2], rho_02), ([1], rho_1)):
        assert eof_pure(state, split) == pytest.approx(entropy2(np.linalg.eigvalsh(rho)), abs=1e-12)


def test_eof_requires_normalized_pure_state():
    state = esv_pure(EsvSpec(0.5, 0.0, 12))
    with pytest.raises(TypeError):
        eof_pure(state.density(), [0])
    with pytest.raises(ValueError):
        eof_pure(FockVector(state.layout, 2.0 * state.amps), [0])


def test_two_qubit_negativity_bell_and_product():
    assert log_negativity(bell_dm(), [1]) == pytest.approx(1.0, abs=1e-12)
    v = np.kron([1, 0], [1 / np.sqrt(2), 1j / np.sqrt(2)]).astype(complex)
    prod = DensityMatrix(ModeLayout((2, 2)), np.outer(v, v.conj()))
    assert log_negativity(prod, [1]) == 0.0


def test_two_qubit_negativity_werner_boundary():
    # partial-transpose eigenvalues (1+p)/4 (x3) and (1-3p)/4: PPT at p=1/3
    assert log_negativity(werner_dm(1 / 3), [1]) == pytest.approx(0.0, abs=1e-9)
    assert log_negativity(werner_dm(0.6), [1]) > 0.1


def test_ppt_states_have_zero_log_negativity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        # random separable mixture of products
        d = 5
        mat = np.zeros((d * d, d * d), dtype=complex)
        for _ in range(4):
            a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            mat += np.outer(v, v.conj())
        mat /= np.trace(mat).real
        rho = DensityMatrix(ModeLayout((d, d)), mat)
        assert log_negativity(rho, [0]) <= 1e-9


def test_ppt_noisy_esv_log_negativity_is_exactly_zero():
    # ln-phase at s = 1, sigma = 1: phi and 2 pi - phi give conjugate PPT
    # states; rounding in the sum of their positive eigenvalues is not a value
    rho = phase_channel(squeezed_vacuum(SqueezeSpec(1.0, 30)).normalized().density(), 1.0)
    for phi in np.linspace(0.0, 2 * np.pi, 8)[[1, 6]]:
        assert log_negativity(esv_mixed(rho, rho, phi), [1]) == 0.0
        assert esv_mixed_ln_curve(rho, phi) == 0.0


def test_eof_equals_log_negativity_on_maximally_entangled_pair():
    state = esv_pure(EsvSpec(0.6, np.pi, 40))
    assert eof_pure(state, [0]) == pytest.approx(log_negativity(state, [1]), abs=1e-6)


# --- block-wise eigensolve of the partial transpose --------------------------

def noisy_esv(kind, s, sigma, phi, cutoff):
    """The ln-thermal / ln-phase state: both inputs noised, then entangled by T."""
    rho = squeezed_vacuum(SqueezeSpec(s, cutoff)).normalized().density()
    if kind == "thermal":
        rho = thermal_channel(rho, sigma)
    else:
        rho = phase_channel(rho, sigma)
    return esv_mixed(rho, rho, phi)


def assert_matches_dense(rho, split=(1,)):
    got = log_negativity(rho, split)
    want = log_negativity_dense(rho.mat, rho.layout.dims, split)
    assert abs(got - want) <= 1e-12
    return got


@pytest.mark.parametrize("kind, sigma", [("thermal", 1.0), ("phase", 0.5)])
def test_block_log_negativity_matches_dense_on_noisy_sweeps(kind, sigma):
    # phi = 0 and pi add the mod-4 zeros of T to the parity sectors
    for phi in (0.0, 0.9, np.pi):
        rho = noisy_esv(kind, 1.0, sigma, phi, 30)
        blocks, _ = hermitian_blocks(partial_transpose(rho, [1]).mat)
        assert max(len(b) for b in blocks) <= 225     # one parity sector of 900
        assert assert_matches_dense(rho) > 0.0


def test_block_log_negativity_matches_dense_on_pure_states():
    assert_matches_dense(esv_pure(EsvSpec(0.7, 0.4, 24)).density())
    assert_matches_dense(two_mode_squeezed_vacuum(0.5, 24).normalized().density())


def test_block_log_negativity_single_block_and_isolated_rows():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    dense = g @ g.conj().T
    dense /= np.trace(dense).real
    rho = DensityMatrix(ModeLayout((6, 6)), dense)
    blocks, isolated = hermitian_blocks(rho.mat)
    assert len(blocks) == 1 and isolated.size == 0
    assert assert_matches_dense(rho) > 0.0
    # the same state embedded at cutoff 9: levels 6..8 give all-zero rows
    padded = np.zeros((9, 9, 9, 9), dtype=complex)
    padded[:6, :6, :6, :6] = dense.reshape(6, 6, 6, 6)
    rho9 = DensityMatrix(ModeLayout((9, 9)), padded.reshape(81, 81))
    blocks, isolated = hermitian_blocks(partial_transpose(rho9, [1]).mat)
    assert len(blocks) == 1 and isolated.size == 81 - 36
    assert assert_matches_dense(rho9) == pytest.approx(log_negativity(rho, [1]), abs=1e-12)


def test_log_negativity_matches_dense_under_tolerance_level_input_noise():
    # blocks go to eigvalsh with no Hermiticity re-check.  Anti-Hermitian input
    # noise N just under HERMITICITY_TOL, on the state's own zero pattern (block
    # path) or everywhere (one dense block), would move a one-triangle spectrum
    # by up to ||N||_1 <= sqrt(n) ||N||_F (Mirsky), and log2 of a trace norm >= 1
    # by that over ln 2; DensityMatrix stores the input's Hermitian part, so the
    # value is that of the Hermitian part to rounding
    rng = np.random.default_rng(23)
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    states = [werner_dm(0.8), esv_pure(EsvSpec(0.6, 0.4, 8)).density(),
              noisy_esv("thermal", 0.8, 0.5, 1.1, 6), noisy_esv("phase", 1.0, 0.3, np.pi, 8),
              DensityMatrix(ModeLayout((3, 4)), g @ g.conj().T / np.trace(g @ g.conj().T).real)]
    for rho in states:
        for support in (rho.mat != 0, np.ones(rho.mat.shape, dtype=bool)):
            x = (rng.standard_normal(rho.mat.shape) + 1j * rng.standard_normal(rho.mat.shape)) * support
            noise = x - x.conj().T
            scale = max(1.0, float(np.abs(rho.mat).max()))
            noise *= 0.49 * HERMITICITY_TOL * scale / np.abs(noise).max()
            raw = rho.mat + noise
            dev = np.abs(raw - raw.conj().T).max()
            assert 0.9 * HERMITICITY_TOL * scale < dev <= HERMITICITY_TOL * scale
            noisy = DensityMatrix(rho.layout, raw)
            herm = 0.5 * (raw + raw.conj().T)
            assert np.array_equal(noisy.mat, herm)
            want = log_negativity_dense(raw, rho.layout.dims, [1])
            bound = np.sqrt(len(noise)) * np.linalg.norm(noise) / np.log(2)
            assert abs(log_negativity(noisy, [1]) - want) <= bound
            assert want > 0.1
            assert abs(log_negativity(noisy, [1]) - log_negativity_dense(herm, rho.layout.dims, [1])) <= 1e-12


def test_hermitian_blocks_recovers_permuted_block_diagonal():
    rng = np.random.default_rng(5)
    sizes = [1, 3, 1, 4, 2, 5]
    n = sum(sizes)
    mat = np.zeros((n, n), dtype=complex)
    start = 0
    for k in sizes:
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        mat[start:start + k, start:start + k] = g + g.conj().T
        start += k
    perm = rng.permutation(n)
    shuffled = mat[np.ix_(perm, perm)]
    blocks, isolated = hermitian_blocks(shuffled)
    inverse = np.argsort(perm)        # position of original index i after shuffling
    edges = np.cumsum([0] + sizes)
    want = [np.sort(inverse[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    assert sorted(map(tuple, blocks)) == sorted(tuple(w) for w in want if len(w) > 1)
    assert sorted(isolated) == sorted(int(w[0]) for w in want if len(w) == 1)
    spectrum = np.concatenate([shuffled[isolated, isolated].real]
                              + [np.linalg.eigvalsh(shuffled[np.ix_(b, b)]) for b in blocks])
    assert np.allclose(np.sort(spectrum), np.linalg.eigvalsh(mat), atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["thermal", "phase"]),
    s=st.floats(0.1, 1.2),
    sigma=st.floats(0.0, 2.0),
    phi=st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, 2 * np.pi)),
    cutoff=st.integers(6, 14),
    theta=st.floats(-np.pi, np.pi),
)
def test_block_log_negativity_property(kind, s, sigma, phi, cutoff, theta):
    rho = noisy_esv(kind, s, sigma, phi, cutoff)
    value = assert_matches_dense(rho)
    assert abs(log_negativity(rotated(rho, 1, theta), [1]) - value) <= 1e-12


# --- esv_mixed_ln_curve: the noisy sweeps from the d x d factors --------------

def noised(kind, s, sigma, cutoff):
    """A squeezed vacuum through the ln-thermal or ln-phase channel."""
    rho = squeezed_vacuum(SqueezeSpec(s, cutoff)).normalized().density()
    return thermal_channel(rho, sigma) if kind == "thermal" else phase_channel(rho, sigma)


@pytest.fixture
def hermitian_blocks_solved(monkeypatch):
    """One (shape, flag) per block the per-phi loop of `esv_mixed_ln_curve` (whole
    blocks, and swap halves through `_half_spectra`) hands to `np.linalg.eigvalsh`;
    the flag says whether the block equals its conjugate transpose exactly."""
    solved = []
    solve = np.linalg.eigvalsh

    def spy(mat, *args, **kwargs):
        if sys._getframe(1).f_code.co_name in ("esv_mixed_ln_curve", "_half_spectra"):
            solved.append((mat.shape, bool(np.array_equal(mat, mat.conj().T))))
        return solve(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return solved


def all_exactly_hermitian(solved):
    return bool(solved) and all(exact for _, exact in solved)


def block_sizes(solved):
    """The sorted sizes of the blocks solved since the last call, which clears the
    record; every one of them must be exactly Hermitian."""
    assert all_exactly_hermitian(solved)
    sizes = sorted(shape[0] for shape, _ in solved)
    solved.clear()
    return sizes


def assert_matches_oracle(rho, phi):
    got = esv_mixed_ln_curve(rho, phi)
    want = log_negativity(esv_mixed(rho, rho, phi), [1])
    assert abs(got - want) <= 1e-12
    return got


@pytest.mark.parametrize("kind, sigmas", [("thermal", np.linspace(0.0, 2.0, 9)),
                                          ("phase", np.linspace(0.0, 1.0, 5))])
def test_esv_mixed_log_negativity_matches_oracle_on_noisy_ln_sweeps(kind, sigmas, hermitian_blocks_solved):
    # the 112 points of the benchmark's noisy-ln workload at seed 0
    for sigma in sigmas:
        rho = noised(kind, 1.0, sigma, 30)
        for phi in np.linspace(0.0, 2 * np.pi, 8):
            assert_matches_oracle(rho, phi)
    assert all_exactly_hermitian(hermitian_blocks_solved)


@pytest.mark.parametrize("kind, sizes", [("thermal", [105, 105, 120, 120, 225, 225]),
                                         ("phase", [105, 120])])
def test_esv_mixed_ln_curve_splits_equal_inputs_into_swap_halves(kind, sizes, hermitian_blocks_solved):
    # README inputs: each 15 x 15 parity sector pairs with itself into 120
    # symmetric and 105 antisymmetric pairs; the (even, odd) and (odd, even)
    # blocks of the thermal state stay whole, and the phase state's all-zero
    # odd sector is dropped
    rho = noised(kind, 1.0, 0.5, 30)
    for phi in (0.0, 1.1, np.pi / 2, 4.0):
        esv_mixed_ln_curve(rho, phi)
        assert block_sizes(hermitian_blocks_solved) == sizes


@pytest.mark.parametrize("phi", [0.0, 0.4, 1.1, np.pi / 2, 2.6928, np.pi, 4.0, 5.9])
def test_sign_weight_is_the_gauged_conditional_map_weight(phi):
    # W[(n_a, n_b), (m_a, m_b)] = t(n_a, m_b) conj(t(m_a, n_b)) on each sector pair, gauged by
    # 1 on sigma(n_a) sigma(n_b) = 1 and i on -1, against the 4 x 4 sign-class table, over all
    # 16 classes (n_a mod 4, n_b mod 4) and every column of the same parities
    t = _conditional_map(4, phi)
    sigma = (-1) ** (np.arange(4) // 2)
    gauge = np.where(np.outer(sigma, sigma) == 1, 1.0, 1j)
    sign_class = 2 * (sigma[:, None] < 0) + (sigma[None, :] < 0)
    for n_a in range(4):
        for n_b in range(4):
            table = _sign_weight(np.exp(1j * phi) * _I_POW[(n_a % 2 - n_b % 2) % 4])
            assert np.array_equal(table, table.T) and table.dtype == float
            for m_a in (n_a % 2, n_a % 2 + 2):
                for m_b in (n_b % 2, n_b % 2 + 2):
                    w = t[n_a, m_b] * np.conj(t[m_a, n_b])
                    gauged = np.conj(gauge[n_a, n_b]) * w * gauge[m_a, m_b]
                    assert abs(gauged - table[sign_class[n_a, n_b], sign_class[m_a, m_b]]) <= 1e-15


def test_esv_mixed_ln_curve_keeps_whole_blocks_without_the_swap_symmetry(hermitian_blocks_solved):
    # the cross-parity blocks stay whole; a cutoff of 11 has 6 even and 5 odd
    # levels, and at cutoffs 2 and 3 the odd sector is 1 x 1, with an empty
    # antisymmetric half
    cases = [
        (noised("thermal", 0.8, 0.5, 11), [10, 15, 15, 21, 30, 30]),
        (noised("thermal", 0.8, 0.5, 3), [0, 1, 1, 2, 2, 3]),
        (noised("thermal", 0.8, 0.5, 2), [0, 0, 1, 1, 1, 1]),
    ]
    for rho, sizes in cases:
        for phi in (0.0, 1.1, np.pi):
            got = esv_mixed_ln_curve(rho, phi)
            assert block_sizes(hermitian_blocks_solved) == sizes
            assert abs(got - log_negativity(esv_mixed(rho, rho, phi), [1])) <= 1e-12


def test_esv_mixed_log_negativity_complex_and_mixed_parity_inputs():
    # a local phase rotation makes the input complex; a displaced squeezed
    # state has coherences between both photon-number parities: the curve
    # rejects both, and the reference path serves them
    rho = noised("thermal", 0.8, 0.5, 16)
    turned = rotated(rho, 0, 0.7)
    assert turned.mat.imag.any()
    displaced = displaced_sq_dm(0.4, -0.6, 16)
    assert not displaced.mat.imag.any()
    for other in (turned, displaced):
        with pytest.raises(ValueError, match=r"log_negativity\(esv_mixed\(\.\.\.\), \[1\]\)"):
            esv_mixed_ln_curve(other, 0.0)
        for phi in (0.0, 1.1, np.pi):
            assert log_negativity(esv_mixed(other, other, phi), [1]) > 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["thermal", "phase", "random"]),
    s=st.one_of(st.floats(-1.2, -0.1), st.floats(0.1, 1.2)),
    sigma=st.floats(0.0, 2.0),
    phi=st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, 2 * np.pi)),
    cutoff=st.integers(2, 14),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_esv_mixed_log_negativity_property(kind, s, sigma, phi, cutoff, seed):
    # the noisy-sweep inputs, and random real states with one photon-number
    # parity per coherence, of any rank and with all-zero sectors
    if kind == "random":
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((cutoff, rng.integers(1, cutoff + 1)))
        g[rng.integers(0, 2)::2] *= rng.integers(0, 2)      # maybe empty one parity
        mat = g @ g.T
        n = np.arange(cutoff)
        mat[(n[:, None] - n) % 2 == 1] = 0.0
        rho = DensityMatrix(ModeLayout((cutoff,)), mat / np.trace(mat))
    else:
        rho = noised(kind, s, sigma, cutoff)
    try:
        want = log_negativity(esv_mixed(rho, rho, phi), [1])
    except ValueError as exc:       # T annihilated the input
        with pytest.raises(ValueError, match=str(exc)):
            esv_mixed_ln_curve(rho, phi)
        return
    assert abs(esv_mixed_ln_curve(rho, phi) - want) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["thermal", "phase"]),
    s=st.one_of(st.floats(-1.2, -0.1), st.floats(0.1, 1.2)),
    sigma=st.floats(0.0, 2.0),
    cutoff=st.integers(6, 14),
    shift=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)),
    steps=st.integers(2, 8),
    extra=st.lists(st.one_of(st.sampled_from([0.0, np.pi, -np.pi / 2]), st.floats(-7.0, 14.0)),
                   max_size=4),
    order=st.randoms(use_true_random=False),
)
def test_esv_mixed_ln_curve_matches_fresh_calls_in_any_order(kind, s, sigma, cutoff, shift,
                                                             steps, extra, order):
    # one call on a shifted (not symmetric about 0) grid plus stray phases, in a
    # random order
    rho = noised(kind, s, sigma, cutoff)
    phis = list(np.linspace(shift, shift + 2 * np.pi, steps)) + extra
    order.shuffle(phis)
    for phi, got in zip(phis, esv_mixed_ln_curve(rho, np.array(phis)).tolist()):
        assert abs(got - esv_mixed_ln_curve(rho, phi)) <= 1e-12
        assert abs(got - log_negativity(esv_mixed(rho, rho, phi), [1])) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["thermal", "phase"]),
    s=st.one_of(st.floats(-1.2, -0.1), st.floats(0.1, 1.2)),     # T annihilates vacua at pi
    sigma=st.floats(0.0, 2.0),
    phi=st.one_of(st.sampled_from([np.pi / 2, np.pi]), st.floats(0.0, 2 * np.pi)),
    cutoff=st.integers(6, 30),
)
def test_esv_mixed_log_negativity_even_in_phi_for_equal_inputs(kind, s, sigma, phi, cutoff):
    # for rho_a = rho_b the mode swap maps the phi state onto the -phi state;
    # two independent calls, nothing shared between them
    rho = noised(kind, s, sigma, cutoff)
    assert not rho.mat.imag.any()
    plus = esv_mixed_ln_curve(rho, phi)
    minus = esv_mixed_ln_curve(noised(kind, s, sigma, cutoff), -phi)
    assert abs(plus - minus) <= 1e-12


def test_esv_mixed_log_negativity_blocks_exactly_hermitian_under_input_noise(hermitian_blocks_solved):
    # inputs pass the DensityMatrix check with 1e-13 anti-Hermitian noise, real
    # or complex, and are stored as their Hermitian part; the Hermitian part of a
    # real input stays real, and stays zero at odd offsets
    rng = np.random.default_rng(5)

    def with_noise(rho, dtype):
        x = rng.standard_normal(rho.mat.shape).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal(rho.mat.shape)
        raw = rho.mat + 1e-13 * (x - x.conj().T)
        assert not np.array_equal(raw, raw.conj().T)
        noisy = DensityMatrix(rho.layout, raw)
        assert np.array_equal(noisy.mat, 0.5 * (raw + raw.conj().T))
        return noisy

    thermal = noised("thermal", 0.8, 0.5, 16)
    phase = noised("phase", -0.6, 0.4, 16)
    for rho in (with_noise(thermal, float), with_noise(thermal, complex), with_noise(phase, complex)):
        for phi in (0.0, 1.1, np.pi):
            assert assert_matches_oracle(rho, phi) > 0.0
    assert all_exactly_hermitian(hermitian_blocks_solved)


@pytest.mark.parametrize("d", [6, 12, 30, 47])
@pytest.mark.parametrize("s", [0.05, 0.3, 1.0, 2.0, 3.0])
def test_esv_mixed_ln_curve_at_zero_noise_matches_two_level_oracle(s, d):
    # noiseless inputs give the pure ESV of the truncated pair u, v = (-1)^k u on |2k>:
    # its LN is 2 log2(sqrt(lambda+) + sqrt(lambda-)), lambda from the 2 x 2 oracle
    psi = squeezed_vacuum(SqueezeSpec(s, d))
    u = psi.amps.real
    v = u * (-1.0) ** (np.arange(d) // 2)
    rho = psi.normalized().density()
    phis = (0.0, 0.5, 1.3, np.pi / 2, 2.6, np.pi, 4.4)
    for phi, ln in zip(phis, esv_mixed_ln_curve(rho, np.array(phis)).tolist()):
        lam = esv_reduced_spectrum(u @ v / (u @ u), phi)
        assert abs(ln - 2.0 * np.log2(np.sqrt(lam).sum())) <= 1e-12


def test_esv_mixed_ln_curve_checks_its_input_positivity_once(monkeypatch):
    # the curve's one input is checked once for its whole phi axis, not once per side
    # of esv_mixed nor once per phi
    rho = noised("thermal", 1.0, 1.0, 30)
    solve, shapes = np.linalg.eigvalsh, []

    def spy(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return solve(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    esv_mixed_ln_curve(rho, np.array([0.5, 1.5, 4.0]))
    assert shapes.count((30, 30)) == 1 and shapes[0] == (30, 30)
    shapes.clear()
    esv_mixed(rho, rho, 0.5)
    assert shapes == [(30, 30), (30, 30)]


def test_esv_mixed_log_negativity_raises_what_esv_mixed_raises():
    d = 6
    layout = ModeLayout((d,))
    one = basis_dm(d, 1)
    negative = DensityMatrix(layout, np.diag([1.2, -0.2, 0, 0, 0, 0]).astype(complex))
    cases = [
        (esv_pure(EsvSpec(0.5, 0.0, d)).density(), 0.0),      # two-mode input
        (negative, 0.0),                                      # not physical
        (one, np.pi),                                         # T annihilates |1,1>
    ]
    for rho, phi in cases:
        with pytest.raises(ValueError) as want:
            esv_mixed(rho, rho, phi)
        with pytest.raises(ValueError) as got:
            esv_mixed_ln_curve(rho, phi)
        assert str(got.value) == str(want.value)
    assert esv_mixed_ln_curve(one, 0.0) == 0.0
