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
    fidelity,
    moment,
    partial_transpose,
    tail_mass,
)
from esvsim.fock import check_tail
from esvsim.states import EsvSpec, SqueezeSpec, esv_pure, squeezed_vacuum, two_mode_squeezed_vacuum

from oracles import (_beamsplitter_blocks, _expm_tridiagonal, apply_beamsplitter, basis_vector, beamsplitter_matrix,
                     controlled_phase, kron_moment, partial_trace, phase_rotation, resize_mode, squeezed_amplitudes,
                     tensor)


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout((0, 3))
    with pytest.raises(ValueError):
        ModeLayout(())
    with pytest.raises(ValueError):
        FockVector(ModeLayout((3,)), np.ones(4))


@pytest.mark.parametrize("build, name", [
    (lambda cutoff: ModeLayout((4, cutoff)), "mode dimension"),
    (lambda cutoff: SqueezeSpec(0.0, cutoff), "cutoff"),
    (lambda cutoff: EsvSpec(0.0, 0.0, cutoff), "cutoff"),
    (lambda cutoff: two_mode_squeezed_vacuum(0.0, cutoff), "cutoff"),
], ids=["ModeLayout", "SqueezeSpec", "EsvSpec", "two_mode_squeezed_vacuum"])
def test_every_cutoff_is_checked_as_an_integer(build, name):
    # one check, fock._check_cutoff: a cutoff that is not an integer is never truncated,
    # nor passed on to fail inside numpy (nan < 2 is false)
    for cutoff in (2.5, np.nan, "3"):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            build(cutoff)
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        build(0)
    build(np.int64(3))


def test_phase_gate_flips_squeezing_sign():
    # e^{i pi n/2} maps |2n> -> (-1)^n |2n>, i.e. tanh(s) -> -tanh(s)
    plus = squeezed_vacuum(SqueezeSpec(0.7, 40))
    minus = squeezed_vacuum(SqueezeSpec(-0.7, 40))
    rotated = FockVector(plus.layout, phase_rotation(40, np.pi / 2) @ plus.amps)
    assert fidelity(rotated.normalized(), minus.normalized()) == pytest.approx(1.0, abs=1e-12)


def test_squeeze_gate_mean_photon_number():
    # S(s)|0> (the closed-form squeezed vacuum) has <n> = sinh^2 s, cross-checked
    # against a brute-force sum over the exact-factorial amplitudes
    s = 0.8
    out = squeezed_vacuum(SqueezeSpec(s, 60))
    n_gate = moment(out, [(0, 1, 1)]).real
    assert n_gate == pytest.approx(np.sinh(s) ** 2, abs=1e-8)
    coeffs = squeezed_amplitudes(s, 60)
    n_brute = float(np.sum(np.arange(60) * np.abs(coeffs) ** 2))
    assert n_gate == pytest.approx(n_brute, abs=1e-8)


def test_gate_errors():
    v = squeezed_vacuum(SqueezeSpec(2.0, 8))
    pair = tensor(v, v)
    with pytest.raises(ValueError):
        apply_beamsplitter(pair, 0, 2)
    with pytest.raises(ValueError):
        apply_beamsplitter(pair, 1, 1)
    with pytest.raises(ValueError):
        controlled_phase(pair, 0, 1, 0.1)         # control must be a qubit
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(TruncationWarning, match="beam splitter"):
            apply_beamsplitter(pair, 0, 1)


def test_beamsplitter_single_photon():
    # a2 -> (a2 + a3)/sqrt(2): |1,0> -> (|1,0> + |0,1>)/sqrt(2)
    v = FockVector(ModeLayout((3, 3)), basis_vector((3, 3), (1, 0)))
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


def test_operator_kernel_matches_dense_oracle():
    # block-wise splitter on non-adjacent modes in reversed order against the
    # whole-grid matrix exponential, and a complex diagonal gate on a non-adjacent
    # mode pair against its dense kron embedding
    dims = (3, 4, 5)
    rng = np.random.default_rng(17)
    v = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    psi = FockVector(ModeLayout(dims), v / np.linalg.norm(v))
    rho = psi.density()
    u = beamsplitter_matrix(dims, 2, 0, 0.3)
    assert np.abs(apply_beamsplitter(psi, 2, 0, 0.3).amps - u @ psi.amps).max() < 1e-12
    assert np.abs(apply_beamsplitter(rho, 2, 0, 0.3).mat - u @ rho.mat @ u.conj().T).max() < 1e-12
    # a complex gate, so the bra axes must take conj(U)
    dims = (4, 3, 2)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    rho = FockVector(ModeLayout(dims), v / np.linalg.norm(v)).density()
    n0, _, q = np.indices(dims).reshape(3, -1)
    cz = np.diag(np.where(q == 0, np.exp(0.9j * n0), 1.0))
    got = controlled_phase(rho, 0, 2, 0.9, control_value=0).mat
    assert np.abs(got - cz @ rho.mat @ cz.conj().T).max() < 1e-12


def tridiagonal_oracle(off):
    """expm of the real antisymmetric tridiagonal matrix with K[k, k+1] = off[k]."""
    return expm(np.diag(off, 1) - np.diag(off, -1))


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
    # the Jacobi-eigensolve exponential at sizes far beyond the splitter oracles'
    # grids: the largest total-photon block of a dim x dim splitter, and the
    # steeper sqrt(n) and sqrt(n(n-1)) off-diagonals at large norm
    m = np.arange(1, dim)
    for theta in (np.pi / 4, 0.3, -1.1, 3.0):
        off = theta * np.sqrt(m * (dim - m))
        assert_gate_matches(_expm_tridiagonal(off), tridiagonal_oracle(off))
    for scale in (-5.0, -1.3, 0.4, 2.5):
        for off in (scale * np.sqrt(m), 0.5 * scale * np.sqrt(m * (m + 1))):
            assert_gate_matches(_expm_tridiagonal(off), tridiagonal_oracle(off))


@pytest.mark.parametrize("dim_a, dim_b", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (40, 3), (3, 80)])
def test_beamsplitter_blocks_match_dense_exponential_oracle(dim_a, dim_b):
    for theta in (np.pi / 4, 0.3, -1.1):
        assert_splitter_blocks_match(dim_a, dim_b, theta)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 60), seed=st.integers(0, 2**16), scale=st.floats(-4, 4),
       theta=st.floats(-np.pi, np.pi), dim_b=st.integers(1, 12))
def test_gate_exponential_property(dim, seed, scale, theta, dim_b):
    off = scale * np.random.default_rng(seed).standard_normal(dim - 1)
    assert_gate_matches(_expm_tridiagonal(off), tridiagonal_oracle(off))
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


def test_partial_trace_spectrum_of_antisymmetric_esv():
    # the phi = pi state is a singlet of two orthogonal effective qubits
    rho = partial_trace(esv_pure(EsvSpec(0.8, np.pi, 30)).density().mat, (30, 30), [1])
    ev = np.linalg.eigvalsh(rho)[::-1]
    assert ev[0] == pytest.approx(0.5, abs=1e-6)
    assert ev[1] == pytest.approx(0.5, abs=1e-6)
    assert abs(ev[2:]).max() < 1e-6


def test_partial_transpose_detects_tmsv():
    rho = two_mode_squeezed_vacuum(0.5, 24).normalized().density()
    ev = np.linalg.eigvalsh(partial_transpose(rho, [1]).mat)
    assert ev.min() < -1e-4  # entangled for any s > 0


def test_moment_vacuum_commutator():
    v = FockVector(ModeLayout((6,)), basis_vector((6,), (0,)))
    assert moment(v, [(0, 0, 1), (0, 1, 0)]) == pytest.approx(1.0)   # <a a†> = 1
    assert moment(v, [(0, 1, 1)]) == pytest.approx(0.0)


def test_moment_rejects_a_float_power_also_after_the_int_word_is_cached():
    v = FockVector(ModeLayout((7,)), basis_vector((7,), (2,)))
    assert moment(v, [(0, 1, 1)]) == pytest.approx(2.0)
    assert moment(v, [(0, np.int64(1), np.int64(1))]) == pytest.approx(2.0)
    with pytest.raises(TypeError):
        moment(v, [(0, 1.0, 1)])


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


@st.composite
def _moment_case(draw):
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    word = draw(st.lists(st.tuples(st.integers(0, len(dims) - 1), st.integers(0, 2), st.integers(0, 2)),
                         max_size=4))
    return dims, word


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_moment_case(), mixed=st.booleans(), seed=st.integers(0, 2**16))
def test_moment_matches_dense_kron_property(case, mixed, seed):
    # random words, with repeated and interleaved modes, on random 1- to 3-mode
    # vectors and density matrices of rank up to 3
    dims, word = case
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    v = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    if mixed:
        m = v @ v.conj().T
        state = DensityMatrix(ModeLayout(dims), m / np.trace(m).real)
        array = state.mat
    else:
        state = FockVector(ModeLayout(dims), v[:, 0] / np.linalg.norm(v[:, 0]))
        array = state.amps
    assert abs(moment(state, word) - kron_moment(array, dims, word)) <= 1e-12


def test_fidelity_basics():
    v = squeezed_vacuum(SqueezeSpec(0.6, 30)).normalized()
    assert fidelity(v, v) == pytest.approx(1.0, abs=1e-14)
    zero = FockVector(ModeLayout((4,)), basis_vector((4,), (0,)))
    one = FockVector(ModeLayout((4,)), basis_vector((4,), (1,)))
    assert fidelity(zero, one) == 0.0
    with pytest.raises(ValueError):
        fidelity(zero, FockVector(ModeLayout((5,)), basis_vector((5,), (0,))))


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
    swapped = FockVector(v.layout, v.as_tensor().T)
    assert fidelity(swapped, esv_pure(EsvSpec(0.7, -1.3, 12))) == pytest.approx(1.0, abs=1e-12)
    sym = esv_pure(EsvSpec(0.7, np.pi, 12))
    assert fidelity(FockVector(sym.layout, sym.as_tensor().T), sym) == pytest.approx(1.0, abs=1e-12)
    padded = resize_mode(v, 0, 20)
    assert padded.layout.dims == (20, 12)
    assert padded.norm() == pytest.approx(v.norm(), abs=1e-14)
    back = resize_mode(padded, 0, 12)
    assert np.allclose(back.amps, v.amps)


def test_tail_mass_flags_undersized_cutoff():
    comfortable = squeezed_vacuum(SqueezeSpec(0.3, 40))
    assert tail_mass(comfortable) < 1e-12
    with pytest.warns(Warning):
        squeezed_vacuum(SqueezeSpec(1.5, 12))


def test_tail_check_judges_the_band_share_of_the_state():
    # at s = 30 and cutoff 6 the truncated vacuum keeps |v|^2 = 3.5e-13, and its
    # band of 7e-14 is a fifth of that: the absolute mass alone would pass it
    with pytest.warns(TruncationWarning, match="squeezed_vacuum"):
        v = squeezed_vacuum(SqueezeSpec(30.0, 6))
    assert tail_mass(v) < 1e-8 < tail_mass(v) / v.norm() ** 2
    zeros = (FockVector(v.layout, np.zeros(6)), DensityMatrix(v.layout, np.zeros((6, 6))))
    for state in (v, v.density()) + zeros:
        with pytest.warns(TruncationWarning, match="probe"):
            check_tail(state, context="probe")
    # the share, not the scale, decides: a comfortable state passes at any norm
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        small = squeezed_vacuum(SqueezeSpec(0.3, 40))
        check_tail(FockVector(small.layout, 1e-9 * small.amps), context="probe")
        check_tail(DensityMatrix(small.layout, 1e-18 * small.density().mat), context="probe")


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix(ModeLayout((2,)), np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_error_paths():
    v = esv_pure(EsvSpec(0.5, 0.0, 8))
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
