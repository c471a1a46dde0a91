import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esvsim import (
    EsvSpec,
    SqueezeSpec,
    bs_loss,
    displaced_squeezed,
    esv_mixed,
    esv_pure,
    log_negativity,
    moment,
    phase_channel,
    squeezed_vacuum,
    thermal_channel,
)
from esvsim.fock import DensityMatrix, ModeLayout, TruncationWarning, eigs_hermitian

from oracles import amplifier_kraus, loss_kraus


def sq_dm(s, d):
    return squeezed_vacuum(SqueezeSpec(s, d)).normalized().density()


def thermal_oracle(rho, sigma):
    """Loss at 1/(1+sigma), then gain 1+sigma, as explicit Kraus sums, rescaled to tr rho."""
    out = amplifier_kraus(loss_kraus(rho, 1 / (1 + sigma)), 1 + sigma)
    return out * (np.trace(rho).real / np.trace(out).real)


def test_noise_spec_validation():
    rho = sq_dm(0.5, 10)
    for channel in (thermal_channel, phase_channel):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                channel(rho, sigma)


def test_thermal_zero_width_is_identity():
    rho = sq_dm(0.8, 24)
    out = thermal_channel(rho, 0.0)
    assert np.abs(out.mat - rho.mat).max() == 0.0


def test_thermal_mean_photon_increase():
    rho = sq_dm(0.5, 50)
    out = thermal_channel(rho, 1.0)
    n0 = moment(rho, [(0, 1, 1)]).real
    n1 = moment(out, [(0, 1, 1)]).real
    assert n1 - n0 == pytest.approx(1.0, abs=1e-4)


def test_thermal_squeezed_quadrature_variance():
    # V_sq = e^{-2s}/2 + sigma with x = (a + a†)/sqrt(2)
    s, sigma = 0.5, 1.0
    out = thermal_channel(sq_dm(s, 50), sigma)
    m_a = moment(out, [(0, 0, 1)])
    m_aa = moment(out, [(0, 0, 2)])
    m_ad_a = moment(out, [(0, 1, 1)])
    x_mean = np.sqrt(2) * m_a.real
    x2 = 0.5 * (m_aa + np.conj(m_aa) + 2 * m_ad_a + 1).real
    assert x2 - x_mean**2 == pytest.approx(0.5 * np.exp(-2 * s) + sigma, abs=1e-4)


def odd_offsets(d):
    n = np.arange(d)
    return (n[:, None] - n[None, :]) % 2 == 1


def test_thermal_output_parity_exact_for_parity_definite_input():
    rho = sq_dm(1.0, 30)
    out = thermal_channel(rho, 1.0).mat
    odd = odd_offsets(30)
    assert np.all(out[odd] == 0.0)
    assert np.abs(out - thermal_oracle(rho.mat, 1.0)).max() <= 1e-14


def test_thermal_output_unmasked_for_odd_coherences():
    rho = displaced_squeezed(0.4 + 0.2j, 0.8, 14).normalized().density()
    out = thermal_channel(rho, 0.3).mat
    odd = odd_offsets(14)
    assert np.abs(out[odd]).max() > 1e-2
    assert np.abs(out - thermal_oracle(rho.mat, 0.3)).max() <= 1e-14


@pytest.mark.parametrize("sigma", [0.25, 1.0, 2.0])
def test_thermal_maps_vacuum_to_thermal_state(sigma):
    # p_n = sigma^n / (1+sigma)^(n+1), renormalized on the d kept levels
    d = 30
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    out = thermal_channel(DensityMatrix(ModeLayout((d,)), vac), sigma).mat
    n = np.arange(d)
    p = sigma**n / (1 + sigma) ** (n + 1)
    assert np.abs(out - np.diag(p / p.sum())).max() <= 1e-15


def test_thermal_trace_preserved():
    rho = sq_dm(1.0, 30)
    out = thermal_channel(rho, 2.0)
    assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)


def test_thermal_truncation_is_flagged_not_reflected():
    with pytest.warns(TruncationWarning, match="thermal channel"):
        thermal_channel(sq_dm(0.5, 12), 1.0)
    # amplified population leaves through the cutoff instead of piling up there
    p = np.diag(thermal_channel(sq_dm(1.0, 30), 2.0).mat).real
    assert p[29] < p[28]


def test_phase_zero_width_is_identity():
    rho = sq_dm(0.8, 24)
    out = phase_channel(rho, 0.0)
    assert np.abs(out.mat - rho.mat).max() == 0.0


def test_phase_preserves_populations():
    rho = sq_dm(1.0, 30)
    out = phase_channel(rho, 0.7)
    assert np.abs(np.diag(out.mat) - np.diag(rho.mat)).max() < 1e-14
    assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)


def test_phase_coherence_damping_factor():
    # every (n, m) coherence shrinks by exp(-sigma (n-m)^2/2)
    d = 24
    rho = displaced_squeezed(0.4 + 0.2j, 0.8, d).normalized().density()
    out = phase_channel(rho, 1.0)
    n = np.arange(d)
    damping = np.exp(-0.5 * (n[:, None] - n[None, :]) ** 2)
    assert np.abs(out.mat - damping * rho.mat).max() <= 1e-15
    assert out.mat[0, 2] / rho.mat[0, 2] == pytest.approx(np.exp(-2.0), abs=1e-15)


def test_bs_loss_limits():
    rho = sq_dm(1.1, 30)
    assert np.abs(bs_loss(rho, 1.0).mat - rho.mat).max() == 0.0
    out = bs_loss(rho, 0.0)
    assert out.mat[0, 0].real == pytest.approx(1.0, abs=1e-10)
    assert np.count_nonzero(out.mat) == 1                 # exactly vacuum
    with pytest.raises(ValueError):
        bs_loss(rho, 1.5)


def test_bs_loss_matches_kraus_oracle():
    s, t, d = 1.1, 0.8, 40
    rho = sq_dm(s, d)
    got = bs_loss(rho, t)
    want = loss_kraus(rho.mat, t)
    assert np.abs(got.mat - want).max() < 1e-14
    purity = float(np.trace(got.mat @ got.mat).real)
    assert purity < 1.0 - 1e-3
    assert got.trace() == pytest.approx(1.0, abs=1e-10)


def test_channels_preserve_positivity():
    rho = sq_dm(0.9, 30)
    for out in (
        thermal_channel(rho, 1.5),
        phase_channel(rho, 0.8),
        bs_loss(rho, 0.6),
    ):
        assert eigs_hermitian(out).min() >= -1e-8


def test_thermal_and_phase_commute_on_diagonal_inputs():
    d = 20
    diag = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(diag, np.exp(-0.4 * np.arange(d)))
    diag /= np.trace(diag).real
    rho = DensityMatrix(ModeLayout((d,)), diag)
    a = phase_channel(thermal_channel(rho, 0.5), 0.5)
    b = thermal_channel(phase_channel(rho, 0.5), 0.5)
    assert np.abs(a.mat - b.mat).max() < 1e-14


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    re=st.lists(st.floats(-1, 1), min_size=5, max_size=5),
    im=st.lists(st.floats(-1, 1), min_size=5, max_size=5),
    sigma1=st.floats(0.0, 0.5),
    sigma2=st.floats(0.0, 0.5),
)
def test_channels_are_semigroups(re, im, sigma1, sigma2):
    # a pure input on n <= 4 keeps its d = 40 tail far below the cutoff
    amps = np.zeros(40, dtype=complex)
    amps[:5] = np.array(re) + 1j * np.array(im)
    if np.linalg.norm(amps) < 1e-3:
        amps[0] = 1.0
    amps /= np.linalg.norm(amps)
    rho = DensityMatrix(ModeLayout((40,)), np.outer(amps, amps.conj()))
    for channel in (thermal_channel, phase_channel):
        twice = channel(channel(rho, sigma1), sigma2)
        once = channel(rho, sigma1 + sigma2)
        assert np.abs(twice.mat - once.mat).max() <= 1e-12


def test_noisy_entangled_state_loses_negativity_monotonically():
    d = 26
    lns = []
    for sigma in (0.0, 0.5, 1.0):
        rho = thermal_channel(sq_dm(1.0, d), sigma)
        lns.append(log_negativity(esv_mixed(rho, rho, 0.0), [1]))
    assert lns[0] > lns[1] > lns[2]
    lns = []
    for sigma in (0.0, 0.5, 1.0):
        rho = phase_channel(sq_dm(1.0, d), sigma)
        lns.append(log_negativity(esv_mixed(rho, rho, 0.0), [1]))
    assert lns[0] > lns[1] > lns[2]


def test_noisy_inputs_never_beat_pure_inputs():
    d = 26
    pure = esv_pure(EsvSpec(1.0, 0.0, d))
    top = log_negativity(pure, [1])
    for sigma in (0.4, 1.2):
        rho = thermal_channel(sq_dm(1.0, d), sigma)
        assert log_negativity(esv_mixed(rho, rho, 0.0), [1]) <= top + 1e-9
    lossy = bs_loss(sq_dm(1.0, d), 0.7)
    assert log_negativity(esv_mixed(lossy, lossy, 0.0), [1]) <= top + 1e-9
