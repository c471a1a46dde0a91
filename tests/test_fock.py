import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from esvsim import (
    DensityMatrix,
    FockVector,
    ModeLayout,
    TruncationWarning,
    apply_beamsplitter,
    apply_single_mode,
    basis_state,
    eigs_hermitian,
    fidelity,
    moment,
    partial_transpose,
    reduced_density,
    swap_modes,
    tail_mass,
    tensor,
    vacuum,
)
from esvsim.fock import _beamsplitter_blocks, displace_matrix, resize_mode, squeeze_matrix
from esvsim.states import EsvSpec, SqueezeSpec, esv_pure, squeezed_vacuum, two_mode_squeezed_vacuum

from oracles import beamsplitter_matrix, full_operator, hermitian_2x2_eigs, kron_moment, ladder


def test_vacuum_amplitudes():
    v = vacuum(ModeLayout((4,)))
    assert np.array_equal(v.amps, [1, 0, 0, 0])
    v2 = vacuum(ModeLayout((2, 2)))
    assert v2.amps[0] == 1.0 and np.abs(v2.amps[1:]).max() == 0.0
    assert v2.norm() == 1.0


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout((0, 3))
    with pytest.raises(ValueError):
        basis_state(ModeLayout((3,)), (5,))
    with pytest.raises(ValueError):
        FockVector(ModeLayout((3,)), np.ones(4))


def test_phase_gate_flips_squeezing_sign():
    # e^{i pi n/2} maps |2n> -> (-1)^n |2n>, i.e. tanh(s) -> -tanh(s)
    plus = squeezed_vacuum(SqueezeSpec(0.7, 40))
    minus = squeezed_vacuum(SqueezeSpec(-0.7, 40))
    rotated = apply_single_mode(plus, 0, "phase", np.pi / 2)
    assert fidelity(rotated.normalized(), minus.normalized()) == pytest.approx(1.0, abs=1e-12)


def test_displace_zero_is_identity():
    v = squeezed_vacuum(SqueezeSpec(0.5, 20))
    out = apply_single_mode(v, 0, "displace", 0.0)
    assert np.allclose(out.amps, v.amps, atol=1e-14)


def test_squeeze_gate_mean_photon_number():
    # <n> = sinh^2 s, cross-checked against a brute-force coefficient sum
    s = 0.8
    out = apply_single_mode(vacuum(ModeLayout((60,))), 0, "squeeze", s)
    n_gate = moment(out, [(0, 1, 1)]).real
    assert n_gate == pytest.approx(np.sinh(s) ** 2, abs=1e-8)
    coeffs = squeezed_vacuum(SqueezeSpec(s, 60)).amps
    n_brute = float(np.sum(np.arange(60) * np.abs(coeffs) ** 2))
    assert n_gate == pytest.approx(n_brute, abs=1e-8)


def test_gate_unitarity_preserves_norm():
    v = squeezed_vacuum(SqueezeSpec(0.6, 50))
    for gate, val in (("squeeze", 0.3), ("displace", 0.7 + 0.2j), ("phase", 1.1)):
        out = apply_single_mode(v, 0, gate, val)
        assert out.norm() == pytest.approx(v.norm(), abs=1e-10)


def test_gate_errors():
    v = vacuum(ModeLayout((8,)))
    with pytest.raises(ValueError):
        apply_single_mode(v, 1, "phase", 0.1)
    with pytest.raises(ValueError):
        apply_single_mode(v, 0, "hadamard", 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(TruncationWarning):
            apply_single_mode(v, 0, "squeeze", 2.0)


def test_beamsplitter_single_photon():
    # a2 -> (a2 + a3)/sqrt(2): |1,0> -> (|1,0> + |0,1>)/sqrt(2)
    v = basis_state(ModeLayout((3, 3)), (1, 0))
    out = apply_beamsplitter(v, 0, 1)
    t = out.as_tensor()
    assert t[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(t[0, 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(t[1, 0] - t[0, 1]) < 1e-12  # same sign under this convention


def test_beamsplitter_splits_tmsv_into_opposite_squeezers():
    s, d = 0.5, 40
    tmsv = two_mode_squeezed_vacuum(s, d)
    out = apply_beamsplitter(tmsv, 0, 1)
    target = tensor(squeezed_vacuum(SqueezeSpec(s, d)), squeezed_vacuum(SqueezeSpec(-s, d)))
    assert fidelity(out.normalized(), target.normalized()) >= 1 - 1e-8


def test_beamsplitter_reverse_roles_inverts():
    v = esv_pure(EsvSpec(0.8, 0.3, 16))
    back = apply_beamsplitter(apply_beamsplitter(v, 0, 1), 1, 0)
    assert fidelity(back, v) == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_conserves_photon_number_distribution():
    v = esv_pure(EsvSpec(0.9, 1.1, 18))
    out = apply_beamsplitter(v, 0, 1)
    def distribution(state):
        p = np.abs(state.as_tensor()) ** 2
        dist = np.zeros(2 * 18 - 1)
        for m in range(18):
            for n in range(18):
                dist[m + n] += p[m, n]
        return dist
    assert np.abs(distribution(v) - distribution(out)).max() < 1e-10


def test_operator_kernel_matches_dense_oracle():
    # block-wise splitter on non-adjacent modes in reversed order, and dense
    # single-mode gates, against whole-grid matrix exponentials
    dims = (3, 4, 5)
    rng = np.random.default_rng(17)
    v = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    psi = FockVector(ModeLayout(dims), v / np.linalg.norm(v))
    rho = psi.density()
    u = beamsplitter_matrix(dims, 2, 0, 0.3)
    assert np.abs(apply_beamsplitter(psi, 2, 0, 0.3).amps - u @ psi.amps).max() < 1e-12
    assert np.abs(apply_beamsplitter(rho, 2, 0, 0.3).mat - u @ rho.mat @ u.conj().T).max() < 1e-12
    sq = expm(0.5 * 0.4 * (full_operator(dims, [(1, 0, 2)]) - full_operator(dims, [(1, 2, 0)])))
    got = apply_single_mode(rho, 1, "squeeze", 0.4).mat
    assert np.abs(got - sq @ rho.mat @ sq.conj().T).max() < 1e-12
    # a complex gate, so the bra axes must take conj(U)
    alpha = 0.3 - 0.5j
    disp = expm(alpha * full_operator(dims, [(1, 1, 0)]) - np.conj(alpha) * full_operator(dims, [(1, 0, 1)]))
    got = apply_single_mode(rho, 1, "displace", alpha).mat
    assert np.abs(got - disp @ rho.mat @ disp.conj().T).max() < 1e-12


def squeeze_oracle(dim, s):
    a = ladder(dim)
    return expm(0.5 * s * (a @ a - a.conj().T @ a.conj().T))


def displace_oracle(dim, alpha):
    a = ladder(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def assert_gate_matches(u, want):
    assert np.abs(u - want).max() < 1e-11
    assert np.abs(u @ u.conj().T - np.eye(len(u))).max() < 1e-13


def assert_splitter_blocks_match(dim_a, dim_b, theta):
    # every block against the dense whole-grid exponential, and the blocks
    # partition the grid, so every entry outside them is a zero of the oracle
    want = beamsplitter_matrix((dim_a, dim_b), 0, 1, theta)
    covered = np.zeros(want.shape, dtype=bool)
    for rows, block in _beamsplitter_blocks(dim_a, dim_b, theta):
        assert_gate_matches(block, want[np.ix_(rows, rows)])
        covered[np.ix_(rows, rows)] = True
    assert np.abs(want[~covered]).max(initial=0.0) < 1e-11


@pytest.mark.parametrize("dim", [1, 2, 3, 40, 80])
def test_gates_match_dense_exponential_oracle(dim):
    for s in (-5.0, -1.3, 0.0, 0.4, 2.5, 5.0):
        assert_gate_matches(squeeze_matrix(dim, s), squeeze_oracle(dim, s))
    for alpha in (0.0, 1.2, -0.7, 0.3 - 0.5j, -2.0 + 1.5j, 3j):
        assert_gate_matches(displace_matrix(dim, alpha), displace_oracle(dim, alpha))


@pytest.mark.parametrize("dim_a, dim_b", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (40, 3), (3, 80)])
def test_beamsplitter_blocks_match_dense_exponential_oracle(dim_a, dim_b):
    for theta in (np.pi / 4, 0.3, -1.1):
        assert_splitter_blocks_match(dim_a, dim_b, theta)


def test_squeeze_matrix_has_exact_zeros_between_parities():
    for dim in (2, 3, 40, 81):
        u = squeeze_matrix(dim, -1.7)
        n = np.arange(dim)
        odd = (n[:, None] - n[None, :]) % 2 == 1
        assert np.all(u[odd] == 0)
        assert np.all(u[~odd] != 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 60), s=st.floats(-4, 4), re=st.floats(-3, 3), im=st.floats(-3, 3),
       theta=st.floats(-np.pi, np.pi), dim_b=st.integers(1, 12))
def test_gate_exponential_property(dim, s, re, im, theta, dim_b):
    alpha = complex(re, im)
    assert_gate_matches(squeeze_matrix(dim, s), squeeze_oracle(dim, s))
    assert_gate_matches(displace_matrix(dim, alpha), displace_oracle(dim, alpha))
    assert_splitter_blocks_match(min(dim, 12), dim_b, theta)


@st.composite
def _splitter_case(draw):
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=3)))
    mode_a, mode_b = draw(st.permutations(range(len(dims))))[:2]
    return dims, mode_a, mode_b


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_splitter_case(), theta=st.floats(-np.pi, np.pi), seed=st.integers(0, 2**16))
def test_beamsplitter_kernel_property(case, theta, seed):
    dims, mode_a, mode_b = case
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi = FockVector(ModeLayout(dims), v / np.linalg.norm(v))
    out = apply_beamsplitter(psi, mode_a, mode_b, theta)
    out_rho = apply_beamsplitter(psi.density(), mode_a, mode_b, theta)
    assert np.abs(out_rho.mat - out.density().mat).max() < 1e-12
    back = apply_beamsplitter(out, mode_a, mode_b, -theta)
    assert np.abs(back.amps - psi.amps).max() < 1e-12


def test_tensor_and_partial_trace_roundtrip():
    a = squeezed_vacuum(SqueezeSpec(0.4, 12)).normalized().density()
    b = squeezed_vacuum(SqueezeSpec(-0.7, 12)).normalized().density()
    joint = tensor(a, b)
    assert joint.trace() == pytest.approx(a.trace() * b.trace(), abs=1e-12)
    back = reduced_density(joint, keep=[0])
    assert np.abs(back.mat - a.mat).max() < 1e-12
    v = vacuum(ModeLayout((3,)))
    assert np.array_equal(tensor(v, v).amps, vacuum(ModeLayout((3, 3))).amps)


def test_partial_trace_of_product_state():
    plus = squeezed_vacuum(SqueezeSpec(0.6, 20)).normalized()
    minus = squeezed_vacuum(SqueezeSpec(-0.6, 20)).normalized()
    joint = tensor(plus, minus).density()
    assert np.abs(reduced_density(joint, [0]).mat - plus.density().mat).max() < 1e-12
    assert reduced_density(joint, [1]).trace() == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_spectrum_of_antisymmetric_esv():
    # the phi = pi state is a singlet of two orthogonal effective qubits
    rho = reduced_density(esv_pure(EsvSpec(0.8, np.pi, 30)), keep=[1])
    ev = eigs_hermitian(rho)
    assert ev[0] == pytest.approx(0.5, abs=1e-6)
    assert ev[1] == pytest.approx(0.5, abs=1e-6)
    assert abs(ev[2:]).max() < 1e-6


def test_partial_transpose_involution_and_positivity():
    rho = esv_pure(EsvSpec(0.5, 0.4, 10)).density()
    pt = partial_transpose(rho, [1])
    assert np.array_equal(partial_transpose(pt, [1]).mat, rho.mat)
    prod = tensor(squeezed_vacuum(SqueezeSpec(0.5, 10)).normalized(),
                  squeezed_vacuum(SqueezeSpec(0.2, 10)).normalized()).density()
    ev = eigs_hermitian(partial_transpose(prod, [0]))
    assert ev.min() >= -1e-10


def test_partial_transpose_detects_tmsv():
    rho = two_mode_squeezed_vacuum(0.5, 24).normalized().density()
    ev = eigs_hermitian(partial_transpose(rho, [1]))
    assert ev.min() < -1e-4  # entangled for any s > 0


def test_moment_vacuum_commutator():
    v = vacuum(ModeLayout((6,)))
    assert moment(v, [(0, 0, 1), (0, 1, 0)]) == pytest.approx(1.0)   # <a a†> = 1
    assert moment(v, [(0, 1, 1)]) == pytest.approx(0.0)


def test_moment_mean_photon_closed_form():
    # <a†a> on the entangled superposition, against the expression that
    # follows from the component overlaps
    for s in (0.2, 0.6, 1.0):
        for phi in (0.0, np.pi / 2, np.pi):
            d = 70
            state = esv_pure(EsvSpec(s, phi, d))
            got = moment(state, [(0, 1, 1)]).real
            nu = np.sinh(s)
            n2 = 1.0 / (2 * (1 + np.cos(phi) / np.cosh(2 * s)))
            closed = 2 * n2 * nu**2 * (1 - np.cos(phi) / np.cosh(2 * s) ** 2)
            assert got == pytest.approx(closed, abs=1e-7)
    # independent dense-kron evaluation of the same word
    state = esv_pure(EsvSpec(0.6, np.pi / 2, 22))
    got = moment(state, [(0, 1, 1)]).real
    brute = kron_moment(state.amps, (22, 22), [(0, 1, 1)]).real
    assert got == pytest.approx(brute, abs=1e-10)


def test_moment_first_and_second_orders_vanish_at_symmetric_phases():
    # at phi in {0, pi} every first/second moment except <n>, <n>+1 vanishes
    d = 40
    words = {
        "a": [(0, 0, 1)], "adag": [(0, 1, 0)], "b": [(1, 0, 1)],
        "a2": [(0, 0, 2)], "adag2": [(0, 2, 0)], "b2": [(1, 0, 2)],
        "ab": [(0, 0, 1), (1, 0, 1)], "adag_b": [(0, 1, 0), (1, 0, 1)],
        "adag_bdag": [(0, 1, 0), (1, 1, 0)],
    }
    for phi in (0.0, np.pi):
        state = esv_pure(EsvSpec(0.8, phi, d))
        for name, word in words.items():
            assert abs(moment(state, word)) < 1e-8, name


def test_moment_matches_dense_kron_on_mixed_state():
    rng = np.random.default_rng(3)
    d = 6
    m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    m = m @ m.conj().T
    m /= np.trace(m).real
    rho = DensityMatrix(ModeLayout((d, d)), m)
    word = [(0, 2, 1), (1, 0, 1), (0, 0, 1), (1, 1, 0)]
    assert moment(rho, word) == pytest.approx(kron_moment(m, (d, d), word), abs=1e-12)


def test_eigs_hermitian():
    rho = vacuum(ModeLayout((2,))).density()
    half = DensityMatrix(ModeLayout((2,)), np.eye(2) / 2)
    assert np.allclose(eigs_hermitian(half), [0.5, 0.5])
    assert np.allclose(eigs_hermitian(rho), [1.0, 0.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = m + m.conj().T
        assert np.abs(eigs_hermitian(m) - hermitian_2x2_eigs(m)).max() < 1e-12
    with pytest.raises(ValueError):
        eigs_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigs_hermitian_solves_real_input_as_real(monkeypatch):
    rng = np.random.default_rng(3)
    g = rng.standard_normal((40, 40))
    m = g + g.T
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        solved.append(a.dtype)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    ev = eigs_hermitian(m)
    assert np.abs(ev - eigs_hermitian(m.astype(complex))).max() < 1e-12
    assert solved == [np.float64, np.complex128]
    assert np.all(np.diff(ev) <= 0)
    with pytest.raises(ValueError):
        eigs_hermitian(g)


def test_eigs_sum_matches_trace():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = m + m.conj().T
    ev = eigs_hermitian(m)
    assert np.all(np.diff(ev) <= 1e-12)
    assert ev.sum() == pytest.approx(np.trace(m).real, abs=1e-9)


def test_fidelity_basics():
    v = squeezed_vacuum(SqueezeSpec(0.6, 30)).normalized()
    assert fidelity(v, v) == pytest.approx(1.0, abs=1e-14)
    zero = basis_state(ModeLayout((4,)), (0,))
    one = basis_state(ModeLayout((4,)), (1,))
    assert fidelity(zero, one) == 0.0
    with pytest.raises(ValueError):
        fidelity(zero, vacuum(ModeLayout((5,))))


def test_fidelity_of_opposite_squeezed_vacua():
    # |<s+|s->|^2 = 1/cosh(2s); at s = 5 the overlap is of order 1e-2
    for s, cutoff in ((0.5, 60), (1.0, 120), (2.0, 700)):
        plus = squeezed_vacuum(SqueezeSpec(s, cutoff)).normalized()
        minus = squeezed_vacuum(SqueezeSpec(-s, cutoff)).normalized()
        assert fidelity(plus, minus) == pytest.approx(1 / np.cosh(2 * s), abs=1e-8)
    plus = squeezed_vacuum(SqueezeSpec(5.0, 140000)).normalized()
    minus = squeezed_vacuum(SqueezeSpec(-5.0, 140000)).normalized()
    overlap = np.sqrt(fidelity(plus, minus))
    assert overlap == pytest.approx(1 / np.sqrt(np.cosh(10.0)), abs=1e-6)
    assert 0.005 < overlap < 0.02


def test_swap_modes_and_resize():
    # exchanging the modes of |Psi(phi)> gives e^{i phi} |Psi(-phi)>
    v = esv_pure(EsvSpec(0.7, 1.3, 12))
    swapped = swap_modes(v, 0, 1)
    assert fidelity(swapped, esv_pure(EsvSpec(0.7, -1.3, 12))) == pytest.approx(1.0, abs=1e-12)
    sym = esv_pure(EsvSpec(0.7, np.pi, 12))
    assert fidelity(swap_modes(sym, 0, 1), sym) == pytest.approx(1.0, abs=1e-12)
    padded = resize_mode(v, 0, 20)
    assert padded.layout.dims == (20, 12)
    assert padded.norm() == pytest.approx(v.norm(), abs=1e-14)
    back = resize_mode(padded, 0, 12)
    assert np.allclose(back.amps, v.amps)


def test_reduced_density_pure_and_mixed_paths_agree():
    v = esv_pure(EsvSpec(0.8, 0.9, 14))
    direct = reduced_density(v, keep=[0])
    via_dm = reduced_density(v.density(), keep=[0])
    assert np.abs(direct.mat - via_dm.mat).max() < 1e-12
    # keeping a non-contiguous subset of a three-mode state
    w = tensor(v, squeezed_vacuum(SqueezeSpec(0.4, 6)).normalized())
    pair = reduced_density(w, keep=[0, 2])
    assert pair.layout.dims == (14, 6)
    assert pair.trace() == pytest.approx(1.0, abs=1e-10)


def test_tail_mass_flags_undersized_cutoff():
    comfortable = squeezed_vacuum(SqueezeSpec(0.3, 40))
    assert tail_mass(comfortable) < 1e-12
    with pytest.warns(Warning):
        squeezed_vacuum(SqueezeSpec(1.5, 12))


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix(ModeLayout((2,)), np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_error_paths():
    v = esv_pure(EsvSpec(0.5, 0.0, 8))
    with pytest.raises(ValueError):
        reduced_density(v.density(), keep=[])
    with pytest.raises(TypeError):
        tensor(v, v.density())
    with pytest.raises(ValueError):
        apply_beamsplitter(v, 0, 0)
    heavy = squeezed_vacuum(SqueezeSpec(1.8, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(TruncationWarning):
            moment(heavy, [(0, 2, 2)])
    # outside strict a raising word warns; a lowering-only word reads no tail
    with pytest.warns(TruncationWarning, match="moment"):
        moment(heavy, [(0, 2, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        moment(heavy, [(0, 0, 2)])
