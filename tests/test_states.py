import warnings

import numpy as np
import pytest

from esvsim import (
    DisplacedSqueezedSpec,
    EsvSpec,
    SqueezeSpec,
    TruncationWarning,
    displaced_overlap,
    displaced_squeezed,
    esv_aligned,
    esv_generalized,
    esv_mixed,
    esv_pure,
    fidelity,
    log_negativity,
    moment,
    phi_basis,
    squeezed_vacuum,
    swap_modes,
    two_mode_squeezed_vacuum,
    vacuum,
)
from esvsim.fock import ModeLayout
from esvsim.states import _conditional_map

from oracles import squeezed_amplitudes, squeezed_overlap_series


def test_squeezed_vacuum_matches_exact_factorial_formula():
    for s in (0.3, 1.0, -0.8):
        got = squeezed_vacuum(SqueezeSpec(s, 60)).amps
        want = squeezed_amplitudes(s, 60)
        assert np.abs(got - want).max() < 1e-13


def test_squeezed_vacuum_basics():
    assert np.array_equal(squeezed_vacuum(SqueezeSpec(0.0, 16)).amps,
                          vacuum(ModeLayout((16,))).amps)
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
    assert fidelity(esv_pure(EsvSpec(0.0, 0.0, 8)), vacuum(ModeLayout((8, 8)))) == 1.0
    v = esv_pure(EsvSpec(1.1, 0.0, 50))
    assert v.norm() == pytest.approx(1.0, abs=1e-10)


def test_esv_pure_mode_swap_symmetry():
    v = esv_pure(EsvSpec(0.9, np.pi, 14))
    assert fidelity(swap_modes(v, 0, 1), v) == pytest.approx(1.0, abs=1e-12)


def test_esv_spec_validation():
    with pytest.raises(ValueError):
        EsvSpec(0.0, np.pi, 10)           # the zero vector
    with pytest.raises(ValueError):
        EsvSpec(-0.2, 0.0, 10)
    spec = EsvSpec(0.5, 2 * np.pi + 0.3, 10)
    assert spec.phi == pytest.approx(0.3)
    assert EsvSpec(0.5, np.pi, 10).norm_factor == pytest.approx(
        1 / np.sqrt(2 * (1 - 1 / np.cosh(1.0))))


def test_esv_aligned_is_local_rotation_of_esv_pure():
    # a pi/2 phase rotation on one mode maps |s+-> to |s-+>, turning the
    # opposite-squeezing superposition into the aligned one
    from esvsim import apply_single_mode
    spec = EsvSpec(0.8, np.pi, 30)
    rotated = apply_single_mode(esv_pure(spec), 1, "phase", np.pi / 2)
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
    assert np.abs(swap_modes(out, 0, 1).mat - out.mat).max() < 1e-12


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


def test_phi_basis_supports_and_orthogonality():
    d = 41
    plus = phi_basis(0.9, +1, d)
    minus = phi_basis(0.9, -1, d)
    assert np.vdot(plus.amps, minus.amps) == 0.0          # exactly orthogonal
    n = np.arange(d)
    assert np.abs(plus.amps[n % 4 != 0]).max() == 0.0     # support on 4k
    assert np.abs(minus.amps[n % 4 != 2]).max() == 0.0    # support on 4k+2
    assert abs(plus.amps[4]) > 0
    assert plus.norm() == pytest.approx(1.0, abs=1e-12)
    assert fidelity(phi_basis(0.0, +1, d), vacuum(ModeLayout((d,)))) == 1.0
    with pytest.raises(ValueError):
        phi_basis(0.0, -1, d)


def test_displaced_squeezed_limits():
    d = 40
    assert fidelity(displaced_squeezed(0.0, 0.7, d).normalized(),
                    squeezed_vacuum(SqueezeSpec(0.7, d)).normalized()) == pytest.approx(1.0, abs=1e-12)
    coherent = displaced_squeezed(1.3, 0.0, d)
    assert moment(coherent, [(0, 1, 1)]).real == pytest.approx(1.3 ** 2, abs=1e-8)
    assert coherent.norm() == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        displaced_squeezed(9.0, 0.0, 20)


def test_displaced_overlap_closed_form():
    assert displaced_overlap(0.7, 0.7, 0.0) == pytest.approx(1.0)
    # agreement with the truncated inner product
    num = fidelity(displaced_squeezed(1.0, 0.5, 60).normalized(),
                   displaced_squeezed(0.0, -0.5, 60).normalized())
    assert num == pytest.approx(displaced_overlap(1.0, 0.0, 0.5), abs=1e-6)
    # complex displacements only enter through |beta - alpha|
    num = fidelity(displaced_squeezed(0.5 + 0.5j, 0.3, 60).normalized(),
                   displaced_squeezed(-0.5, -0.3, 60).normalized())
    assert num == pytest.approx(displaced_overlap(0.5 + 0.5j, -0.5, 0.3), abs=1e-6)


def test_displaced_overlap_maximum_location():
    # at fixed separation, the overlap peaks at r = arccosh(|b-a|^2)/2
    rs = np.linspace(0.0, 2.0, 4001)
    vals = [displaced_overlap(0.0, 2.0, r) for r in rs]
    r_star = rs[int(np.argmax(vals))]
    assert r_star == pytest.approx(0.5 * np.arccosh(4.0), abs=1e-3)
    assert r_star == pytest.approx(1.0317, abs=2e-3)


def test_two_mode_squeezed_vacuum():
    d = 40
    assert fidelity(two_mode_squeezed_vacuum(0.0, 8), vacuum(ModeLayout((8, 8)))) == 1.0
    v = two_mode_squeezed_vacuum(0.7, d)
    t = v.as_tensor()
    off = t - np.diag(np.diag(t))
    assert np.abs(off).max() == 0.0                       # support only on |n,n>
    assert (t[1, 1] / t[0, 0]).real == pytest.approx(np.tanh(0.7), abs=1e-12)
    n_mean = moment(v.normalized(), [(0, 1, 1)]).real
    assert n_mean == pytest.approx(np.sinh(0.7) ** 2, abs=1e-8)
    n_b = moment(v.normalized(), [(1, 1, 1)]).real
    assert n_b == pytest.approx(n_mean, abs=1e-10)


def test_esv_generalized_reduces_and_entangles():
    d = 36
    base = esv_generalized(DisplacedSqueezedSpec(0.0, 0.0, 0.9, d), 0.4)
    assert fidelity(base, esv_pure(EsvSpec(0.9, 0.4, d))) == pytest.approx(1.0, abs=1e-12)
    assert base.norm() == pytest.approx(1.0, abs=1e-12)
    # entanglement grows as the displaced components become distinguishable
    lns = [log_negativity(esv_generalized(DisplacedSqueezedSpec(0.0, b, 0.5, d), 0.0), [1])
           for b in (0.0, 1.5, 3.0)]
    assert lns[0] < lns[1] < lns[2]
