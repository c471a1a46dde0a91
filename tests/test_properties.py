"""Structural property suite: invariants that must hold on random inputs.

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
    multiindex_compare,
    partial_transpose,
    phase_channel,
    squeezed_vacuum,
    thermal_channel,
    two_mode_squeezed_vacuum,
)
from esvsim.fock import DensityMatrix, FockVector, ModeLayout

from oracles import apply_beamsplitter, controlled_phase, partial_trace, random_product_dm, tensor


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


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(0)
    for dims in ((4, 5), (3, 3, 2)):
        rho = random_dm(dims, rng)
        pt = partial_transpose(rho, [0])
        assert np.array_equal(partial_transpose(pt, [0]).mat, rho.mat)
        assert np.abs(pt.mat - pt.mat.conj().T).max() < 1e-15  # Hermiticity preserved


def test_channels_trace_preserving_and_positive():
    rng = np.random.default_rng(2)
    rho = random_dm((16,), rng)
    for out in (
        thermal_channel(rho, 0.8),
        phase_channel(rho, 0.6),
        bs_loss(rho, 0.75),
    ):
        assert out.trace() == pytest.approx(rho.trace(), abs=1e-6)
        assert np.linalg.eigvalsh(out.mat).min() >= -1e-8


def test_beamsplitter_conserves_total_photon_distribution():
    rng = np.random.default_rng(3)
    state = random_state((9, 9), rng)
    out = apply_beamsplitter(state, 0, 1)

    def total_dist(v):
        p = np.abs(v.as_tensor()) ** 2
        dist = np.zeros(17)
        for m in range(9):
            for n in range(9):
                dist[m + n] += p[m, n]
        return dist

    assert np.abs(total_dist(state) - total_dist(out)).max() < 1e-10
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_gates_unitary_on_random_states():
    rng = np.random.default_rng(4)
    state = random_state((12, 9, 2), rng)
    for theta in (0.4, np.pi / 4, -2.2):
        assert apply_beamsplitter(state, 1, 0, theta).norm() == pytest.approx(1.0, abs=1e-10)
    for gamma in (0.4, np.pi, 2.2):
        assert controlled_phase(state, 0, 2, gamma).norm() == pytest.approx(1.0, abs=1e-10)


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


def test_tensor_then_trace_roundtrip_random():
    rng = np.random.default_rng(7)
    a = random_dm((5,), rng)
    b = random_dm((6,), rng)
    joint = tensor(a, b)
    assert np.abs(partial_trace(joint.mat, (5, 6), [0]) - a.mat).max() < 1e-12
    assert np.abs(partial_trace(joint.mat, (5, 6), [1]) - b.mat).max() < 1e-12
