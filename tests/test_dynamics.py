from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esvsim import (
    EsvSpec,
    JcSpec,
    SqueezeSpec,
    bs_loss,
    entangling_power,
    esv_mixed,
    esv_pure,
    jc_unitary,
    log_negativity,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
from esvsim import dynamics
from esvsim.fock import DensityMatrix, FockVector, ModeLayout

from oracles import basis_vector, entangling_power_joint, jc_unitary_expm, jc_unitary_loop, log_negativity_dense, tensor


def jc_evolve(q, n, d, tau):
    """JC evolution of the (qubit, mode) basis state |q, n>, as a (2, d) amplitude tensor."""
    return (jc_unitary(JcSpec(tau, d)) @ basis_vector((2, d), (q, n))).reshape(2, d)


def test_jc_tau_zero_is_identity():
    assert np.array_equal(jc_unitary(JcSpec(0.0, 8)), np.eye(16))


def test_jc_exchanges_one_excitation():
    # |g,1> at tau = pi/2 -> -i |e,0>
    t = jc_evolve(0, 1, 6, np.pi / 2)
    assert t[1, 0] == pytest.approx(-1j, abs=1e-12)
    assert np.abs(np.delete(t.reshape(-1), 6)).max() < 1e-12


def test_jc_ground_vacuum_invariant():
    for tau in (0.3, 2.0, 8.0):
        assert jc_evolve(0, 0, 6, tau)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_jc_unitarity_and_excitation_conservation():
    d = 12
    u = jc_unitary(JcSpec(1.7, d))
    assert np.abs(u @ u.conj().T - np.eye(2 * d)).max() < 1e-12
    # total excitation = qubit + photon number is conserved blockwise
    exc = np.concatenate([np.arange(d), np.arange(d) + 1]).astype(float)
    mixing = u * (exc[:, None] != exc[None, :])
    assert np.abs(mixing).max() < 1e-14


def test_jc_spec_validation():
    with pytest.raises(ValueError):
        JcSpec(-1.0, 8)
    with pytest.raises(ValueError):
        JcSpec(np.nan, 8)
    with pytest.raises(ValueError):
        JcSpec(1.0, 0)


@pytest.mark.parametrize("cutoff", [np.nan, 2.5])
def test_jc_spec_rejects_a_cutoff_that_is_not_an_integer(cutoff):
    # nan used to reach np.arange in jc_unitary, and 2.5 raised a TypeError naming nothing
    with pytest.raises(TypeError, match="^cutoff must be an integer"):
        JcSpec(5.0, cutoff)
    assert JcSpec(5.0, np.int64(3)).cutoff == 3


def test_entangling_power_zero_at_tau_zero():
    state = esv_pure(EsvSpec(1.1, 0.0, 24))
    assert entangling_power(state, 0.0) <= 1e-12


def test_entangling_power_zero_for_separable_inputs():
    prod = tensor(squeezed_vacuum(SqueezeSpec(0.8, 20)).normalized(),
                  squeezed_vacuum(SqueezeSpec(-0.8, 20)).normalized())
    for tau in (1.0, 4.0, 8.0):
        assert entangling_power(prod, tau) <= 1e-9


def test_entangling_power_vanishes_by_parity_for_even_states():
    """Squeezed-vacuum superpositions occupy only even photon numbers, so the
    single-quantum exchange correlates the qubit level with the photon-number
    parity: every two-qubit coherence traces to zero and the transferred
    entanglement is exactly zero, for any tau and phase."""
    for s, phi, tau in ((1.1, 0.0, 8.0), (0.6, np.pi, 3.7), (1.7, np.pi / 2, 10.0)):
        state = esv_pure(EsvSpec(s, phi, 30))
        assert entangling_power(state, tau) <= 1e-12


def test_entangling_power_detects_odd_even_mixtures():
    # sanity check that the machinery does report entanglement when the
    # input carries coherence between neighbouring photon numbers
    state = two_mode_squeezed_vacuum(1.1, 30).normalized()
    vals = [entangling_power(state, tau) for tau in (2.0, 4.6, 8.0)]
    assert max(vals) > 0.5
    assert all(v >= 0.0 for v in vals)


def test_entangling_power_lower_bounds_mode_entanglement():
    state = two_mode_squeezed_vacuum(0.9, 26).normalized()
    ln_modes = log_negativity(state, [1])
    for tau in (2.0, 4.0, 6.0, 8.0, 10.0):
        assert entangling_power(state, tau) <= ln_modes + 1e-6
    esv = esv_pure(EsvSpec(1.1, 0.0, 26))
    ln_esv = log_negativity(esv, [1])
    for tau in (2.0, 8.0):
        assert entangling_power(esv, tau) <= ln_esv + 1e-6


def test_jc_unitary_matches_brute_force_exponential():
    # independent oracle: expm(-i tau (sp (x) a + sm (x) a†))
    d, tau = 10, 1.37
    assert np.abs(jc_unitary(JcSpec(tau, d)) - jc_unitary_expm(tau, d)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(0.0, 1e3), d=st.integers(1, 40))
def test_jc_unitary_matches_the_loop_form_and_is_unitary(tau, d):
    u = jc_unitary(JcSpec(tau, d))
    assert np.abs(u - jc_unitary_loop(tau, d)).max() <= 1e-15
    assert np.abs(u @ u.conj().T - np.eye(2 * d)).max() <= 1e-15


@pytest.mark.parametrize("dims", [(6, 6), (6, 5)])
def test_entangling_power_builds_no_jc_unitary(dims):
    # the Kraus operators enter as their diagonals, at a whole array of times
    amps = np.random.default_rng(3).standard_normal(dims[0] * dims[1])
    state = FockVector(ModeLayout(dims), amps / np.linalg.norm(amps))
    with mock.patch.object(dynamics, "jc_unitary", wraps=jc_unitary) as spy:
        entangling_power(state, 1.3)
        entangling_power(state, np.linspace(0.0, 10.0, 21))
    assert spy.call_count == 0


def test_entangling_power_pure_and_mixed_paths_agree():
    state = two_mode_squeezed_vacuum(0.8, 16).normalized()
    for tau in (1.0, 4.6):
        pure = entangling_power(state, tau)
        mixed = entangling_power(state.density(), tau)
        assert pure == pytest.approx(mixed, abs=1e-10)


def test_entangling_power_mixed_input_runs_at_small_cutoff():
    d = 14
    lossy = bs_loss(squeezed_vacuum(SqueezeSpec(1.1, d)).normalized().density(), 0.8)
    rho = esv_mixed(lossy, lossy, 0.0)
    vals = [entangling_power(rho, tau) for tau in (0.0, 4.0, 8.0)]
    assert vals[0] <= 1e-12
    assert all(v <= 0.4 + 1e-3 for v in vals)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(2, 8), st.integers(2, 8)),
    tau=st.floats(0.0, 10.0),
    rank=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_entangling_power_matches_joint_state_oracle(dims, tau, rank, seed):
    # rank 0 is a pure state; the oracle attaches the qubits and evolves the joint state
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, max(rank, 1))) + 1j * rng.standard_normal((d, max(rank, 1)))
    if rank:
        array = g @ g.conj().T / np.linalg.norm(g) ** 2
        state = DensityMatrix(ModeLayout(dims), array)
    else:
        array = g[:, 0] / np.linalg.norm(g)
        state = FockVector(ModeLayout(dims), array)
    want = entangling_power_joint(array, dims, tau)
    seen = []
    qubit_states = dynamics._qubit_states

    def spy(state, tau):
        seen.append(qubit_states(state, tau))
        return seen[-1]

    with mock.patch.object(dynamics, "_qubit_states", spy):
        value = entangling_power(state, tau)
    assert np.abs(seen[0] - want).max() <= 1e-12     # the qubit state, not only its negativity
    assert abs(value - log_negativity_dense(want, (2, 2), [1])) <= 1e-12
