"""Structural property suite: invariants that must hold on random and on
squeezed-state inputs.

Runnable standalone (`pytest tests/test_properties.py`); every check uses
fixed seeds so failures reproduce exactly.
"""

import numpy as np
import pytest

from esvsim import (
    EsvSpec,
    MinorSelector,
    SqueezeSpec,
    bs_loss,
    canonical_indices,
    esv_pure,
    minor_determinant,
    partial_transpose,
    phase_channel,
    squeezed_vacuum,
    thermal_channel,
    two_mode_squeezed_vacuum,
)
from esvsim.fock import DensityMatrix, FockVector, ModeLayout

from oracles import (apply_beamsplitter, basis_vector, controlled_phase, multiindex_compare, partial_trace,
                     random_product_dm, tensor)


def random_state(dims, rng):
    v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    return FockVector(ModeLayout(dims), v / np.linalg.norm(v))


def random_dm(dims, rng, rank=4):
    d = int(np.prod(dims))
    mat = np.zeros((d, d), dtype=complex)
    for _ in range(rank):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        mat += np.outer(v, v.conj())
    mat /= np.trace(mat).real
    return DensityMatrix(ModeLayout(dims), mat)


def sq_dm(s, d):
    return squeezed_vacuum(SqueezeSpec(s, d)).normalized().density()


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(0)
    for rho, modes in ((random_dm((4, 5), rng), [0]), (random_dm((3, 3, 2), rng), [0]),
                       (esv_pure(EsvSpec(0.5, 0.4, 10)).density(), [1])):
        pt = partial_transpose(rho, modes)
        assert np.array_equal(partial_transpose(pt, modes).mat, rho.mat)
        assert np.abs(pt.mat - pt.mat.conj().T).max() < 1e-15  # Hermiticity preserved


def test_channels_trace_preserving_and_positive():
    rng = np.random.default_rng(2)
    for rho, channels in ((random_dm((16,), rng), ((thermal_channel, 0.8), (phase_channel, 0.6), (bs_loss, 0.75))),
                          (sq_dm(0.9, 30), ((thermal_channel, 1.5), (phase_channel, 0.8), (bs_loss, 0.6))),
                          (sq_dm(1.0, 30), ((thermal_channel, 2.0),))):
        for channel, param in channels:
            out = channel(rho, param)
            assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-8


def test_beamsplitter_conserves_total_photon_distribution():
    rng = np.random.default_rng(3)

    def total_dist(v):
        d = v.layout.dims[0]
        p = np.abs(v.as_tensor()) ** 2
        dist = np.zeros(2 * d - 1)
        for m in range(d):
            for n in range(d):
                dist[m + n] += p[m, n]
        return dist

    for state in (random_state((9, 9), rng), esv_pure(EsvSpec(0.9, 1.1, 18))):
        out = apply_beamsplitter(state, 0, 1)
        assert np.abs(total_dist(state) - total_dist(out)).max() < 1e-10
        assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_gates_unitary_on_random_states():
    rng = np.random.default_rng(4)
    # a squeezed product keeps its truncated norm, below 1
    product = tensor(tensor(squeezed_vacuum(SqueezeSpec(0.6, 20)), squeezed_vacuum(SqueezeSpec(-0.4, 20))),
                     FockVector(ModeLayout((2,)), [0.6, 0.8j]))
    # (state, splitter modes, angles, controlled-phase mode, phases)
    for state, modes, thetas, target, gammas in (
            (random_state((12, 9, 2), rng), (1, 0), (0.4, np.pi / 4, -2.2), 0, (0.4, np.pi, 2.2)),
            (product, (0, 1), (np.pi / 4, 0.3, -1.1), 1, (np.pi / 2, np.pi, 0.7))):
        for theta in thetas:
            assert apply_beamsplitter(state, *modes, theta).norm() == pytest.approx(state.norm(), abs=1e-10)
        for gamma in gammas:
            assert controlled_phase(state, target, 2, gamma).norm() == pytest.approx(state.norm(), abs=1e-14)


def test_constructor_normalization_contracts():
    assert esv_pure(EsvSpec(1.0, 0.7, 40)).norm() == pytest.approx(1.0, abs=1e-12)
    assert squeezed_vacuum(SqueezeSpec(0.5, 40)).norm() == pytest.approx(1.0, abs=1e-10)
    assert two_mode_squeezed_vacuum(0.5, 40).norm() == pytest.approx(1.0, abs=1e-10)


def test_multiindex_total_order_axioms():
    idx = canonical_indices(3)
    assert len(idx) == 35
    n = len(idx)
    cmp = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            cmp[a, b] = multiindex_compare(idx[a], idx[b])
    assert np.array_equal(cmp, -cmp.T)                      # antisymmetry
    assert all(cmp[a, a] == 0 for a in range(n))            # reflexivity of eq
    assert np.all(cmp[np.triu_indices(n, 1)] == -1)         # sorted ascending
    # transitivity: a < b and b < c imply a < c over the full enumeration
    for a in range(n):
        for b in range(a + 1, n):
            less = cmp[b, :] == -1
            assert np.all(cmp[a, less] == -1)


def test_separable_states_pass_every_sampled_minor():
    rng = np.random.default_rng(5)
    dims = (10, 10)
    # squeezed x squeezed, coherent-ish x thermal-ish, random pure products
    states = []
    sq = tensor(squeezed_vacuum(SqueezeSpec(0.5, 10)).normalized(),
                squeezed_vacuum(SqueezeSpec(-0.7, 10)).normalized()).density()
    states.append(sq)
    thermal_diag = np.diag((0.5 ** np.arange(10)) / np.sum(0.5 ** np.arange(10))).astype(complex)
    import math
    coherent = np.zeros(10, dtype=complex)
    coherent[:6] = [np.exp(-0.32) * 0.8**n / np.sqrt(math.factorial(n)) for n in range(6)]
    coherent /= np.linalg.norm(coherent)
    states.append(DensityMatrix(ModeLayout(dims),
                                np.kron(np.outer(coherent, coherent.conj()), thermal_diag)))
    for _ in range(3):
        states.append(DensityMatrix(ModeLayout(dims), random_product_dm(dims, rng)))
    selectors = [MinorSelector((1, 2, 3, 4, 5)), MinorSelector((1, 2, 4)),
                 MinorSelector((2, 3, 5)), MinorSelector((1, 3, 4, 5)),
                 MinorSelector((1, 6, 7)), MinorSelector((1, 2, 3, 4, 5, 6, 7))]
    for rho in states:
        for sel in selectors:
            assert minor_determinant(rho, sel) >= -1e-9


def test_pt_of_separable_state_stays_positive():
    rng = np.random.default_rng(6)
    for _ in range(5):
        rho = DensityMatrix(ModeLayout((6, 6)), random_product_dm((6, 6), rng))
        assert np.linalg.eigvalsh(partial_transpose(rho, [1]).mat).min() >= -1e-10
    prod = tensor(squeezed_vacuum(SqueezeSpec(0.5, 10)).normalized(),
                  squeezed_vacuum(SqueezeSpec(0.2, 10)).normalized()).density()
    assert np.linalg.eigvalsh(partial_transpose(prod, [0]).mat).min() >= -1e-10


def test_tensor_then_trace_roundtrip_random():
    rng = np.random.default_rng(7)
    for a, b in ((random_dm((5,), rng), random_dm((6,), rng)), (sq_dm(0.4, 12), sq_dm(-0.7, 12))):
        dims = a.layout.dims + b.layout.dims
        joint = tensor(a, b)
        assert joint.trace() == pytest.approx(a.trace() * b.trace(), abs=1e-12)
        assert np.abs(partial_trace(joint.mat, dims, [0]) - a.mat).max() < 1e-12
        assert np.abs(partial_trace(joint.mat, dims, [1]) - b.mat).max() < 1e-12
    v = FockVector(ModeLayout((3,)), basis_vector((3,), (0,)))
    assert np.array_equal(tensor(v, v).amps, basis_vector((3, 3), (0, 0)))
