"""Column evaluation: every prepared curve of the sweeps, evaluated on a whole
inner axis at once as `cli.run` passes it, matches its per-point reference at
each point of the axis within 1e-12 absolute.

An axis is drawn as `cli.run` builds one, ``np.linspace(lo, hi, steps)`` with
any bounds, so it need be neither symmetric about 0 nor increasing, and it may
have one point.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from esvsim import (
    DensityMatrix,
    EsvSpec,
    FockVector,
    ModeLayout,
    SqueezeSpec,
    TruncationWarning,
    displaced_overlap,
    duan_det,
    entangling_power,
    eof_pure,
    esv_criterion_det,
    esv_pure,
    simon_det,
    squeezed_vacuum,
    thermal_channel,
)
from esvsim.measures import esv_mixed_ln_curve, esv_pure_eof_curve
from esvsim.separability import esv_criteria_curve

from oracles import entangling_power_kraus

TOL = 1e-12


def axis(lo, hi, steps=6):
    """A sweep axis with bounds in [lo, hi] and 1 to `steps` points."""
    return st.builds(np.linspace, st.floats(lo, hi), st.floats(lo, hi), st.integers(1, steps))


def assert_columns(got, reference, points):
    got = np.asarray(got)
    assert got.shape == points.shape
    for value, point in zip(got.tolist(), points.tolist()):
        assert abs(value - reference(point)) <= TOL, point


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.floats(0.05, 1.0), cutoff=st.integers(4, 30), phi=axis(-7.0, 7.0))
@example(s=0.2, cutoff=30, phi=np.array([np.pi]))                  # one point: one ebit
@example(s=1.0, cutoff=30, phi=np.linspace(-1.0, 5.5, 6))          # not symmetric about 0
def test_eof_and_criteria_columns_match_the_state_path(s, cutoff, phi):
    # s stays within the criteria sweep's range: beyond it the state path's graded minors
    # lose more than 1e-12 absolute on either path (a known conditioning limit)
    states = {p: esv_pure(EsvSpec(s, p, cutoff)) for p in phi.tolist()}
    assert_columns(esv_pure_eof_curve(s, cutoff)(phi), lambda p: eof_pure(states[p], [0]), phi)
    columns = esv_criteria_curve(s, cutoff)(phi)
    for column, det in zip(columns, (simon_det, duan_det, esv_criterion_det)):
        assert_columns(column, lambda p: det(states[p]), phi)


def _messages(compute):
    """compute()'s value and the TruncationWarning messages it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        value = compute()
    return value, [str(w.message) for w in caught if issubclass(w.category, TruncationWarning)]


# an s axis as the whole-grid sweeps pass it: repeated, unsorted or a single point, and
# s = 0, where phi stays away from pi (there s = 0 is the zero vector)
S_POINTS = st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=S_POINTS, cutoff=st.integers(4, 30), phi=axis(-7.0, 7.0))
@example(s=[0.6, 0.6, 0.6], cutoff=12, phi=np.linspace(0.0, 1.0, 2))        # a repeated s, all warning
@example(s=[1.0, 0.2, 0.0, 0.6], cutoff=30, phi=np.linspace(-3.0, 9.0, 11))  # unsorted, with s = 0
@example(s=[0.3], cutoff=20, phi=np.array([np.pi]))                           # a single point
def test_array_s_grid_is_its_scalar_s_curves(s, cutoff, phi):
    # each row of the (s, phi) grid is bit for bit the curve of its s alone, which warns
    # as often and in the same order; and it is the state path's within 1e-12
    assume(0.0 not in s or np.abs(np.cos(phi / 2)).min() > 1e-2)
    column, grid = np.array(s)[:, None], []
    for curve in (lambda x: (esv_pure_eof_curve(x, cutoff)(phi),), lambda x: esv_criteria_curve(x, cutoff)(phi)):
        values, warned = _messages(lambda: curve(column))
        singles, single_warned = _messages(lambda: [curve(x) for x in s])
        assert warned == single_warned
        for value, single in zip(values, zip(*singles)):
            assert value.shape == (len(s), len(phi))
            assert value.tolist() == np.array(single).tolist()
        grid += values
    # s as a row against one phi broadcasts the same way
    assert esv_pure_eof_curve(np.array(s), cutoff)(phi[0]).tolist() == grid[0][:, 0].tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for x, *values in zip(s, *grid):
            states = {p: esv_pure(EsvSpec(x, p, cutoff)) for p in phi.tolist()}
            references = (lambda p: eof_pure(states[p], [0]), *(lambda p, det=det: det(states[p])
                                                                for det in (simon_det, duan_det, esv_criterion_det)))
            for column_values, reference in zip(values, references):
                assert_columns(column_values, reference, phi)


def random_state(dims, rank, seed):
    """A random two-mode state of no definite photon parity: a vector, or a rank-`rank` mixture."""
    shape = (dims[0] * dims[1], max(rank, 1))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if not rank:
        return FockVector(ModeLayout(dims), g[:, 0] / np.linalg.norm(g))
    return DensityMatrix(ModeLayout(dims), g @ g.conj().T / np.linalg.norm(g) ** 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dims=st.tuples(st.integers(2, 6), st.integers(2, 6)), rank=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1), tau=axis(0.0, 10.0))
@example(dims=(3, 4), rank=0, seed=1, tau=np.array([2.5]))
def test_jc_transfer_column_matches_the_per_tau_kraus_contraction(dims, rank, seed, tau):
    state = random_state(dims, rank, seed)
    assert_columns(entangling_power(state, tau), lambda t: entangling_power_kraus(state, t), tau)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(s=st.floats(0.1, 1.3), phi=st.floats(0.0, 2 * np.pi), tau=axis(0.0, 10.0))
def test_jc_transfer_column_of_the_esv_is_zero_as_per_tau(s, phi, tau):
    # the ent-power sweep's states: definite parity in each mode, so every value is an exact zero
    state = esv_pure(EsvSpec(s, phi, 16))
    values = entangling_power(state, tau)
    assert_columns(values, lambda t: entangling_power_kraus(state, t), tau)
    assert not np.any(values)


def test_jc_transfer_control_without_definite_parity_is_nonzero():
    # (|0, 0> + |1, 1>) / sqrt 2 has no definite parity in either mode; at tau = pi/2 the JC
    # coupling moves it onto the qubits whole, one ebit, and at tau = 0 nothing moves
    amps = np.zeros((3, 3))
    amps[0, 0] = amps[1, 1] = math.sqrt(0.5)
    state = FockVector(ModeLayout((3, 3)), amps.reshape(-1))
    tau = np.array([0.0, 0.4, np.pi / 2, 2.0])
    values = entangling_power(state, tau)
    assert_columns(values, lambda t: entangling_power_kraus(state, t), tau)
    assert values[0] == 0.0 and values[1] > 0.0 and values[2] == pytest.approx(1.0, abs=TOL)


def overlap_closed_form(d, r):
    """|<0, +r | d, -r>|² = exp(-d² / cosh 2r) / cosh 2r, in scalar `math`."""
    cosh = math.cosh(2.0 * r)
    return math.exp(-d * d / cosh) / cosh


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.floats(-5.0, 5.0), r=axis(-20.0, 20.0))
@example(d=2.0, r=np.linspace(0.0, 2.0, 81))                        # the README line
def test_overlap_column_matches_the_scalar_closed_form(d, r):
    assert_columns(displaced_overlap(0.0, d, r), lambda x: overlap_closed_form(d, x), r)
    assert_columns(displaced_overlap(0.0, d, r), lambda x: displaced_overlap(0.0, d, x), r)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(s=st.floats(0.2, 1.2), sigma=st.floats(0.0, 1.0), phi=axis(-7.0, 7.0, steps=4))
def test_ln_column_is_the_per_phi_curve(s, sigma, phi):
    # the noisy curves solve each phi's blocks on their own, so a column is the scalar values
    curve = esv_mixed_ln_curve(thermal_channel(squeezed_vacuum(SqueezeSpec(s, 8)).normalized().density(), sigma))
    assert np.asarray(curve(phi)).tolist() == [curve(p) for p in phi.tolist()]
