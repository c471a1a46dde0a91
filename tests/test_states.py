import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esvsim import (
    EsvSpec,
    FockVector,
    SqueezeSpec,
    TruncationWarning,
    displaced_overlap,
    esv_mixed,
    esv_pure,
    fidelity,
    moment,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
from esvsim.fock import ModeLayout
from esvsim.measures import esv_pure_eof_curve
from esvsim.separability import esv_criteria_curve
from esvsim.states import _conditional_map

from oracles import (basis_vector, displaced_squeezed_amplitudes, esv_aligned, phase_rotation,
                     squeezed_amplitudes, squeezed_overlap_series)


def vacuum(dims):
    return FockVector(ModeLayout(dims), basis_vector(dims, (0,) * len(dims)))


def swapped(mat, d):
    """A two-mode density matrix with its modes exchanged."""
    return mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def test_squeezed_vacuum_matches_exact_factorial_formula():
    for s in (0.3, 1.0, -0.8):
        got = squeezed_vacuum(SqueezeSpec(s, 60)).amps
        want = squeezed_amplitudes(s, 60)
        assert np.abs(got - want).max() < 1e-13


def test_squeezed_vacuum_basics():
    assert np.array_equal(squeezed_vacuum(SqueezeSpec(0.0, 16)).amps, vacuum((16,)).amps)
    v = squeezed_vacuum(SqueezeSpec(1.0, 40))
    assert np.abs(v.amps[1::2]).max() == 0.0              # exactly even support
    ratio = (v.amps[2] / v.amps[0]).real
    assert ratio == pytest.approx(-np.sqrt(2) * np.tanh(1.0) / 2, abs=1e-12)
    assert ratio == pytest.approx(-0.5385, abs=1e-4)


def test_squeezed_vacuum_overlap_series():
    for s in (0.5, 1.0, 2.0):
        cutoff = 3000
        plus = squeezed_vacuum(SqueezeSpec(s, cutoff))
        minus = squeezed_vacuum(SqueezeSpec(-s, cutoff))
        got = float(np.vdot(plus.amps, minus.amps).real)
        assert got == pytest.approx(squeezed_overlap_series(s, 4000), abs=1e-10)
        assert got == pytest.approx(1 / np.sqrt(np.cosh(2 * s)), abs=1e-8)
    assert squeezed_overlap_series(1.0, 2000) == pytest.approx(0.5156, abs=1e-4)


def test_squeeze_strict_guard():
    # strict is the warnings filter: s = 3.5 at cutoff 400 fails on its tail
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(TruncationWarning, match="squeezed_vacuum"):
            squeezed_vacuum(SqueezeSpec(3.5, 400))


def test_esv_pure_limits_and_norm():
    assert fidelity(esv_pure(EsvSpec(0.0, 0.0, 8)), vacuum((8, 8))) == 1.0
    v = esv_pure(EsvSpec(1.1, 0.0, 50))
    assert v.norm() == pytest.approx(1.0, abs=1e-10)


def test_esv_pure_mode_swap_symmetry():
    v = esv_pure(EsvSpec(0.9, np.pi, 14))
    assert fidelity(FockVector(v.layout, v.as_tensor().T), v) == pytest.approx(1.0, abs=1e-12)


def test_esv_spec_validation():
    # s = 0 with phi = pi is the zero vector: a valid spec, which esv_pure's norm floor rejects
    with pytest.raises(ValueError, match="^degenerate superposition is the zero vector$"):
        esv_pure(EsvSpec(0.0, np.pi, 10))
    with pytest.raises(ValueError):
        EsvSpec(-0.2, 0.0, 10)
    for phi in (np.nan, np.inf, -np.inf):    # phi % 2 pi would be nan, taken silently
        with pytest.raises(ValueError, match="phi"):
            EsvSpec(0.5, phi, 10)
    spec = EsvSpec(0.5, 2 * np.pi + 0.3, 10)
    assert spec.phi == pytest.approx(0.3)


def test_esv_spec_checks_large_squeezing_without_overflow():
    # cosh(2s) overflows from s ~ 355; sech(2s) is formed so that it underflows to 0 instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = EsvSpec(400.0, 0.0, 10)
        assert EsvSpec(1e300, np.pi, 10).phi == np.pi
    assert spec.s == 400.0


@pytest.mark.parametrize("phi", [-1e-20, -7.0, 20.0, 2 * np.pi, np.float64(-3.3), 1e300])
def test_esv_spec_wraps_phi_as_np_mod(phi):
    got = EsvSpec(0.5, phi, 10).phi
    assert type(got) is float
    assert got == float(np.mod(phi, 2 * np.pi))


@pytest.mark.parametrize("curve", [esv_pure_eof_curve, esv_criteria_curve])
def test_esv_phi_curves_guard_as_esv_pure(curve):
    # both phi-curves take their checks from states._parity_basis: s and the cutoff as
    # EsvSpec checks them, the squeezed vacuum's tail once, and esv_pure's norm floor per phi
    with pytest.raises(ValueError, match=">= 0"):
        curve(-0.1, 10)
    with pytest.raises(ValueError, match="finite"):
        curve(np.inf, 10)
    with pytest.raises(ValueError, match="cutoff"):
        curve(0.5, 1)
    with pytest.raises(TypeError, match="^cutoff must be an integer"):
        curve(0.5, 2.5)
    with pytest.raises(ValueError, match="^degenerate superposition is the zero vector$"):
        curve(0.0, 10)(np.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(TruncationWarning, match="^squeezed_vacuum:"):
            curve(2.5, 12)


def _raised(compute):
    """The message of the ValueError that compute() raises, or None if it returns."""
    try:
        compute()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(s=st.just(0.0) | st.floats(5e-324, 1e-3), delta=st.floats(-1e-6, 1e-6), cutoff=st.integers(4, 16))
@example(s=0.0, delta=0.0, cutoff=10)
@example(s=1e-7, delta=0.0, cutoff=30)         # s > 0: the state is (|0,2> - |2,0>)/sqrt 2 in the limit
@example(s=5e-324, delta=1e-6, cutoff=4)
def test_esv_phi_curves_raise_where_esv_pure_raises(s, delta, cutoff):
    # the one degeneracy decision: near phi = pi at small s, each curve raises exactly where
    # esv_pure does, with its message, and no message claims s = 0 for s > 0.  Unmended:
    # below s ~ 5e-13 the truncated state's norm at phi = pi is under the 1e-12 floor
    # (2 sqrt(cos²(phi/2) + s²) to leading order), so all three still raise there
    phi = np.pi + delta
    want = _raised(lambda: esv_pure(EsvSpec(s, phi, cutoff)))
    for curve in (esv_pure_eof_curve, esv_criteria_curve):
        assert _raised(lambda: curve(s, cutoff)(phi)) == want
    assert want is None or (want == "degenerate superposition is the zero vector" and "s = 0" not in want)


def test_esv_aligned_is_local_rotation_of_esv_pure():
    # a pi/2 phase rotation on one mode maps |s+-> to |s-+>, turning the
    # opposite-squeezing superposition into the aligned one
    spec = EsvSpec(0.8, np.pi, 30)
    rotated = FockVector(ModeLayout((30, 30)),
                         np.kron(np.eye(30), phase_rotation(30, np.pi / 2)) @ esv_pure(spec).amps)
    assert fidelity(rotated, esv_aligned(spec)) == pytest.approx(1.0, abs=1e-12)


def test_esv_mixed_reproduces_pure_case():
    s, phi, d = 0.8, 0.7, 30
    rho_in = squeezed_vacuum(SqueezeSpec(s, d)).normalized().density()
    out = esv_mixed(rho_in, rho_in, phi)
    assert out.trace() == pytest.approx(1.0, abs=1e-10)
    target = esv_pure(EsvSpec(s, phi, d))
    overlap = np.real(np.vdot(target.amps, out.mat @ target.amps))
    assert overlap >= 1 - 1e-10


def test_esv_mixed_swap_symmetric_at_zero_phase():
    d = 16
    rho_in = squeezed_vacuum(SqueezeSpec(0.6, d)).normalized().density()
    out = esv_mixed(rho_in, rho_in, 0.0)
    assert np.abs(swapped(out.mat, d) - out.mat).max() < 1e-12


def test_esv_mixed_rejects_unphysical_input():
    d = 8
    bad = np.eye(d, dtype=complex) / d
    bad[0, 0] += 0.2
    bad[1, 1] -= 0.2 - 1e-3   # trace off by 1e-3
    from esvsim.fock import DensityMatrix
    with pytest.raises(ValueError):
        esv_mixed(DensityMatrix(ModeLayout((d,)), bad),
                  DensityMatrix(ModeLayout((d,)), np.eye(d, dtype=complex) / d), 0.0)


@pytest.mark.parametrize("phi", [0.0, np.pi / 2, np.pi])
def test_conditional_map_is_exact_beyond_n_100(phi):
    # every entry is i^{n_b} + e^{i phi} i^{n_a} with i^n from the exact table
    table = [1, 1j, -1, -1j]
    e = np.exp(1j * phi)
    expected = np.array([[table[nb % 4] + e * table[na % 4] for nb in range(128)]
                         for na in range(128)])
    assert np.array_equal(_conditional_map(128, phi), expected)


def displaced_squeezed(alpha, s, cutoff):
    return FockVector(ModeLayout((cutoff,)), displaced_squeezed_amplitudes(alpha, s, cutoff)).normalized()


def test_displaced_overlap_closed_form():
    assert displaced_overlap(0.7, 0.7, 0.0) == pytest.approx(1.0)
    # agreement with the truncated inner product
    num = fidelity(displaced_squeezed(1.0, 0.5, 60), displaced_squeezed(0.0, -0.5, 60))
    assert num == pytest.approx(displaced_overlap(1.0, 0.0, 0.5), abs=1e-6)
    # complex displacements only enter through |beta - alpha|
    num = fidelity(displaced_squeezed(0.5 + 0.5j, 0.3, 60), displaced_squeezed(-0.5, -0.3, 60))
    assert num == pytest.approx(displaced_overlap(0.5 + 0.5j, -0.5, 0.3), abs=1e-6)


def test_displaced_overlap_at_huge_squeezing_is_zero_without_overflow():
    # cosh(2r) overflows from |r| ~ 355; the pyproject filter makes a RuntimeWarning an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert displaced_overlap(0.0, 2.0, 400.0) == 0.0
        assert displaced_overlap(0.0, 2.0, -400.0) == 0.0
    # and it is even in r and equal to the cosh form where that is finite
    for r in np.linspace(-2.0, 2.0, 81):
        c = np.cosh(2.0 * r)
        assert displaced_overlap(0.0, 2.0, r) == pytest.approx(np.exp(-4.0 / c) / c, rel=1e-14)
        assert displaced_overlap(0.0, 2.0, r) == displaced_overlap(0.0, 2.0, -r)


def test_displaced_overlap_at_huge_separation_is_zero_without_overflow():
    # |beta - alpha|^2 exceeds the float range from ~1.3e154: a float product
    # saturates at inf, where ** 2 raised OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alpha, beta in ((0.0, 1e200), (-1e200, 0.0), (1e200j, -1e200), (3e160 + 4e160j, 0.0)):
            for r in (0.0, 0.7, -2.0, 400.0):       # at r = 400 sech 2r is 0: no inf * 0
                assert displaced_overlap(alpha, beta, r) == 0.0


def test_displaced_overlap_at_complex_separation_beyond_the_float_range_is_zero():
    # every part is finite, but the modulus overflows: the complex abs raised
    # OverflowError there, where a float sum of squares saturates at inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for alpha, beta in ((1.5e308 + 1.5e308j, 0.0), (0.0, -1e308 + 1e308j), (1.5e308j, -1.5e308j)):
            for r in (0.0, 1.0, 400.0):
                assert displaced_overlap(alpha, beta, r) == 0.0


@pytest.mark.parametrize("args, name", [((0.0, 1.0, np.nan), "r"), ((0.0, np.nan, 0.0), "beta"),
                                        ((np.inf, 0.0, 0.0), "alpha"), ((0.0, complex(1.0, -np.inf), 0.5), "beta"),
                                        ((0.0, 2.0, -np.inf), "r")])
def test_displaced_overlap_rejects_non_finite_input(args, name):
    # nan used to come back as the overlap, and an infinite separation as 0
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        displaced_overlap(*args)


def test_large_squeezing_states_build_without_cosh_overflow():
    # cosh s overflows from |s| ~ 710; sech s from e^{-|s|} underflows to 0 instead,
    # where every truncated amplitude would be 0: both constructors name the underflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in (800.0, -800.0):
            with pytest.raises(ValueError, match="sech s underflows to 0"):
                squeezed_vacuum(SqueezeSpec(s, 8))
            with pytest.raises(ValueError, match="sech s underflows to 0"):
                two_mode_squeezed_vacuum(s, 8)


def test_displaced_overlap_maximum_location():
    # at fixed separation, the overlap peaks at r = arccosh(|b-a|^2)/2
    rs = np.linspace(0.0, 2.0, 4001)
    vals = [displaced_overlap(0.0, 2.0, r) for r in rs]
    r_star = rs[int(np.argmax(vals))]
    assert r_star == pytest.approx(0.5 * np.arccosh(4.0), abs=1e-3)
    assert r_star == pytest.approx(1.0317, abs=2e-3)


def test_two_mode_squeezed_vacuum():
    d = 40
    assert fidelity(two_mode_squeezed_vacuum(0.0, 8), vacuum((8, 8))) == 1.0
    v = two_mode_squeezed_vacuum(0.7, d)
    t = v.as_tensor()
    off = t - np.diag(np.diag(t))
    assert np.abs(off).max() == 0.0                       # support only on |n,n>
    assert (t[1, 1] / t[0, 0]).real == pytest.approx(np.tanh(0.7), abs=1e-12)
    assert t[0, 0].real == pytest.approx(1 / np.cosh(0.7), rel=1e-15)
    n_mean = moment(v.normalized(), [(0, 1, 1)]).real
    assert n_mean == pytest.approx(np.sinh(0.7) ** 2, abs=1e-8)
    n_b = moment(v.normalized(), [(1, 1, 1)]).real
    assert n_b == pytest.approx(n_mean, abs=1e-10)
