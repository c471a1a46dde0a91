import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esvsim import (
    DUAN_SELECTOR,
    SIMON_SELECTOR,
    EsvSpec,
    MinorSelector,
    MomentIndex,
    SqueezeSpec,
    canonical_indices,
    duan_det,
    esv_criterion_det,
    esv_pure,
    minor_determinant,
    simon_det,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
from esvsim.fock import DensityMatrix, FockVector, ModeLayout, TruncationWarning, tail_mass
from esvsim.separability import _ESV_CRITERION_INDICES, _esv_minors, _moment_minor, _selected, esv_criteria_curve
from esvsim.states import _pair

from oracles import (basis_vector, exact_determinant, full_operator, moment_matrix_entry, moment_matrix_entry_via_pt,
                     multiindex_compare, tensor)


def test_ordering_examples():
    zero = MomentIndex(0, 0, 0, 0)
    e1 = MomentIndex(1, 0, 0, 0)
    e4 = MomentIndex(0, 0, 0, 1)
    assert multiindex_compare(zero, e1) == -1
    assert multiindex_compare(e1, e4) == -1   # highest differing slot decides
    assert multiindex_compare(e4, e4) == 0
    assert multiindex_compare(e4, e1) == 1


def test_canonical_enumeration_prefix():
    first5 = [i.astuple() for i in canonical_indices()[:5]]
    assert first5 == [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize("max_weight", range(6))
def test_canonical_enumeration_is_every_index_sorted_by_the_order(max_weight):
    every = [MomentIndex(*t) for t in itertools.product(range(max_weight + 1), repeat=4) if sum(t) <= max_weight]
    ordered = sorted(every, key=functools.cmp_to_key(multiindex_compare))
    assert canonical_indices(max_weight) == tuple(ordered)


def test_entry_unit_and_hermiticity():
    state = esv_pure(EsvSpec(0.7, 0.9, 20))
    zero = MomentIndex(0, 0, 0, 0)
    assert moment_matrix_entry(state, zero, zero) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(7)
    idx = canonical_indices(2)
    for _ in range(30):
        i, j = rng.choice(len(idx), size=2)
        a = moment_matrix_entry(state, idx[i], idx[j])
        b = moment_matrix_entry(state, idx[j], idx[i])
        assert a == pytest.approx(np.conj(b), abs=1e-10)


def test_entry_swap_identity_equals_explicit_pt():
    state = esv_pure(EsvSpec(0.8, 0.0, 18))
    idx = canonical_indices(2)
    for i in idx:
        for j in idx:
            direct = moment_matrix_entry(state, i, j)
            via_pt = moment_matrix_entry_via_pt(state.amps, (18, 18), i.astuple(), j.astuple())
            assert direct == pytest.approx(via_pt, abs=1e-9)


def test_minor_selector_validation():
    with pytest.raises(ValueError):
        MinorSelector(())
    with pytest.raises(ValueError):
        MinorSelector((2, 2))
    with pytest.raises(ValueError):
        MinorSelector((0, 1))
    with pytest.raises(ValueError):
        minor_determinant(esv_pure(EsvSpec(0.5, 0.0, 10)), MinorSelector((1, 10_000)))


def test_minor_trivial_cases():
    state = esv_pure(EsvSpec(0.6, 0.2, 16))
    assert minor_determinant(state, MinorSelector((1,))) == pytest.approx(1.0, abs=1e-10)
    vac = FockVector(ModeLayout((8, 8)), basis_vector((8, 8), (0, 0)))
    assert simon_det(vac) == pytest.approx(0.0, abs=1e-12)
    assert duan_det(vac) == pytest.approx(0.0, abs=1e-12)
    assert esv_criterion_det(vac) == pytest.approx(0.0, abs=1e-12)


def test_duan_minor_negative_for_tmsv_with_dense_oracle():
    d = 28
    state = two_mode_squeezed_vacuum(0.5, d).normalized()
    got = minor_determinant(state, DUAN_SELECTOR)
    assert got < -1e-3
    # dense-kron reconstruction of the same 3x3 determinant
    def dense_entry(i, j):
        word = [(0, i[0], i[1]), (1, j[2], j[3]), (0, j[1], j[0]), (1, i[3], i[2])]
        op = full_operator((d, d), word)
        return complex(np.vdot(state.amps, op @ state.amps))
    rows = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)]
    m = np.array([[dense_entry(i, j) for j in rows] for i in rows])
    assert got == pytest.approx(np.linalg.det(m).real, abs=1e-9)
    # closed form: det = -sinh(s)^2 for the two-mode squeezed vacuum
    assert got == pytest.approx(-np.sinh(0.5) ** 2, abs=1e-6)


def test_simon_detects_tmsv():
    state = two_mode_squeezed_vacuum(0.5, 28).normalized()
    assert simon_det(state) < -1e-3


def test_second_moment_tests_blind_to_esv():
    for phi in (0.0, np.pi):
        state = esv_pure(EsvSpec(1.0, phi, 36))
        assert simon_det(state) >= -1e-9
        assert duan_det(state) >= -1e-9


def test_esv_criterion_detects_everywhere_on_grid():
    for s in (0.2, 0.5, 1.0):
        for phi in (0.0, np.pi / 2, np.pi):
            state = esv_pure(EsvSpec(s, phi, 36))
            assert esv_criterion_det(state) < -1e-12


def test_esv_criterion_nonnegative_on_product_state():
    prod = tensor(squeezed_vacuum(SqueezeSpec(0.8, 30)),
                  squeezed_vacuum(SqueezeSpec(-0.8, 30))).normalized()
    assert esv_criterion_det(prod) >= -1e-9


def test_moment_weight_bound():
    state = esv_pure(EsvSpec(0.5, 0.0, 12))
    heavy = MomentIndex(3, 2, 0, 0)
    with pytest.raises(ValueError):
        moment_matrix_entry(state, heavy, heavy)


def test_minors_work_on_density_matrices():
    state = esv_pure(EsvSpec(0.7, np.pi, 24))
    rho = state.density()
    assert esv_criterion_det(rho) == pytest.approx(esv_criterion_det(state), abs=1e-10)


def test_maximally_mixed_state_is_undetected():
    d = 6
    rho = DensityMatrix(ModeLayout((d, d)), np.eye(d * d, dtype=complex) / (d * d))
    assert simon_det(rho) >= -1e-12
    assert duan_det(rho) >= -1e-12
    assert esv_criterion_det(rho) >= -1e-12


def test_mirrored_minor_equals_the_full_matrix_on_random_mixed_states():
    """The minor is evaluated on its upper triangle and mirrored; every entry,
    both triangles included, must equal its value through an explicit partial
    transpose, and so must the determinant (the identity M_ji = conj(M_ij))."""
    rng = np.random.default_rng(11)
    order = canonical_indices()
    for dims in ((3, 4), (5, 5), (6, 3)):
        d = dims[0] * dims[1]
        g = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        rho = g @ g.conj().T / np.linalg.norm(g) ** 2
        state = DensityMatrix(ModeLayout(dims), rho)
        picked = MinorSelector(tuple(sorted(rng.choice(len(order), size=6, replace=False) + 1)))
        cases = [(SIMON_SELECTOR.rows, simon_det),
                 (picked.rows, lambda st: minor_determinant(st, picked)),
                 (None, esv_criterion_det)]
        for rows, det in cases:
            idx = list(_ESV_CRITERION_INDICES) if rows is None else [order[r - 1] for r in rows]
            full = np.array([[moment_matrix_entry_via_pt(rho, dims, i.astuple(), j.astuple())
                              for j in idx] for i in idx])
            assert np.abs(full.imag).max() > 1e-3       # a conj dropped from the mirror would show
            scale = np.linalg.norm(full, 2)
            assert np.abs(_moment_minor(state, idx) - full).max() <= 1e-12 * scale
            want = np.linalg.det(full)
            assert abs(want.imag) <= 1e-12 * scale ** len(idx)
            assert abs(det(state) - want.real) <= 1e-12 * scale ** len(idx)


def _heavy_tail_state(d=10):
    amps = np.random.default_rng(5).standard_normal(d * d) + 0j
    state = FockVector(ModeLayout((d, d)), amps / np.linalg.norm(amps))
    assert tail_mass(state) > 1e-2
    return state


def test_minor_without_raising_operators_checks_no_tail():
    # position 1 is the index (0, 0, 0, 0): its only word is the identity
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        assert minor_determinant(_heavy_tail_state(), MinorSelector((1,))) == pytest.approx(1.0)


def test_minor_checks_the_tail_once():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simon_det(_heavy_tail_state())
    tails = [w for w in caught if issubclass(w.category, TruncationWarning)]
    assert len(tails) == 1
    assert str(tails[0].message).startswith("moment:")


@pytest.mark.parametrize("mixed", [False, True])
def test_minor_equals_the_entries_one_by_one(mixed):
    rng = np.random.default_rng(17)
    dims = (7, 5)
    amps = rng.standard_normal(35) + 1j * rng.standard_normal(35)
    state = FockVector(ModeLayout(dims), amps / np.linalg.norm(amps))
    if mixed:
        g = rng.standard_normal((35, 3)) + 1j * rng.standard_normal((35, 3))
        state = DensityMatrix(ModeLayout(dims), g @ g.conj().T / np.linalg.norm(g) ** 2)
    order = canonical_indices()
    idx = [order[r] for r in sorted(rng.choice(len(order), size=7, replace=False))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        minor = _moment_minor(state, idx)
        entries = np.array([[moment_matrix_entry(state, i, j) for j in idx] for i in idx])
    assert np.abs(entries.imag).max() > 1e-3
    assert np.abs(minor - entries).max() <= 1e-12 * max(1.0, np.abs(entries).max())


EPS = np.finfo(float).eps
_CURVE_MINORS = (_selected(SIMON_SELECTOR), _selected(DUAN_SELECTOR), _ESV_CRITERION_INDICES)


def _outcome(compute):
    """(the value or the ValueError raised, the contexts of the TruncationWarnings warned)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        try:
            value = compute()
        except ValueError as exc:
            value = exc
    return value, {str(w.message).split(":")[0] for w in caught if issubclass(w.category, TruncationWarning)}


def _state_path(s, phi, cutoff):
    state = esv_pure(EsvSpec(s, phi, cutoff))
    return state, (simon_det(state), duan_det(state), esv_criterion_det(state))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(s=st.floats(1e-5, 1.3),
       phi=st.floats(0.0, 2 * np.pi, exclude_max=True) | st.floats(-1e-3, 1e-3).map(lambda x: np.pi + x),
       cutoff=st.integers(6, 40))
@example(s=1e-5, phi=np.pi, cutoff=6)
@example(s=1e-5, phi=np.pi - 1e-9, cutoff=40)
@example(s=1e-5, phi=1.5, cutoff=6)
@example(s=1.3, phi=np.pi, cutoff=6)            # truncated far past the tail threshold
@example(s=0.0, phi=np.pi, cutoff=10)           # the degenerate EsvSpec point
def test_esv_criteria_curve_matches_the_state_minors(s, phi, cutoff):
    want, want_warned = _outcome(lambda: _state_path(s, phi, cutoff))
    got, got_warned = _outcome(lambda: esv_criteria_curve(s, phi, cutoff))
    assert got_warned == want_warned
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
        return
    state, dets = want
    # esv_pure sums |s+>|s-> and e^{i phi}|s->|s+>, which nearly cancel near phi = pi at
    # small s: its amplitudes lose a factor kappa of relative accuracy, the curve none
    plus, minus = _pair(s, cutoff)
    superposed = np.kron(plus, minus) + np.exp(1j * phi) * np.kron(minus, plus)
    kappa = 2 * np.vdot(plus, plus).real / np.linalg.norm(superposed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        minors = _esv_minors(s, phi, cutoff)
        for idx, minor, det, value in zip(_CURVE_MINORS, minors, dets, got):
            ref = _moment_minor(state, idx)
            root = np.sqrt(np.abs(ref.diagonal()))
            assert (np.abs(minor - ref) <= 1e-12 * kappa * np.maximum(np.outer(root, root), np.abs(ref))).all()
            # each eigenvalue of a minor moves by up to about eps max|lambda| (Weyl), so the
            # product is fixed no better than eps max|lambda| sum 1/|lambda|, relative
            lam = np.abs(np.linalg.eigvalsh(ref))
            weyl = 64 * EPS * kappa * (lam.max() / np.maximum(lam, 1e-300)).sum()
            assert abs(value - det) <= max(1e-11, weyl) * max(abs(det), 1e-300)


# (s, phi, cutoff), by test id: at phi = 1.5 the diagonals are graded; at fl(pi) and
# s <= 5e-9 the fifth diagonal entry of the ESV-criterion minor is below 2e-33 in a
# row with entries of order 1, where a unit-diagonal scaling printed +2.0 and +1.5e-32
GRADED_MINORS = {"0.01": (1e-2, 1.5, 6), "1e-05": (1e-5, 1.5, 6), "1e-07": (1e-7, 1.5, 6),
                 "5e-09-pi": (5e-9, np.pi, 30), "1e-09-pi": (1e-9, np.pi, 30), "1e-11-pi": (1e-11, np.pi, 30)}


@pytest.mark.parametrize("s, phi, cutoff", GRADED_MINORS.values(), ids=list(GRADED_MINORS))
def test_graded_minor_determinants_match_the_exact_determinant(s, phi, cutoff):
    # at small s the minors' diagonals span from 1 down to about s⁸; equilibrated by
    # powers of two before the eigensolve, the Duan and ESV-criterion determinants are
    # those of the same float minors, taken exactly, to 1e-13 relative (the unscaled
    # product of eigenvalues was 6.2e-7 off at s = 1e-5 and 1.3e-3 at 1e-7).  Simon's
    # scaled minor has a condition of about 0.5/s², so no eigensolve on its float
    # entries gets it right
    _, duan, criterion = esv_criteria_curve(s, phi, cutoff)
    for minor, value in zip(_esv_minors(s, phi, cutoff)[1:], (duan, criterion)):
        real, imag = exact_determinant(minor)
        assert imag == 0 and real != 0
        assert abs(value - float(real)) <= 1e-13 * abs(float(real))


@pytest.mark.parametrize("phi", [-1e-20, -7.0, 20.0, 2 * np.pi, 3 * np.pi, -np.pi, 1e300, np.nan, np.inf])
def test_esv_criteria_curve_wraps_phi_as_esv_spec(phi):
    # the value at the wrapped phi, or EsvSpec's error.  -1e-20 wraps to fl(2 pi), which
    # wraps on to 0: there sin(phi/2) is 1.2e-16 instead of 0, and the values differ in the last bits
    def curve(phi):
        return esv_criteria_curve(0.7, phi, 12)

    try:
        wrapped = EsvSpec(0.7, phi, 12).phi
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            curve(phi)
        assert str(got.value) == str(exc)
        return
    assert curve(phi) == pytest.approx(curve(wrapped), rel=1e-12, abs=0)


def test_esv_criteria_curve_guards():
    # the checks both phi-curves share are test_states.test_esv_phi_curves_guard_as_esv_pure;
    # this curve also judges the joint tail of the moment words at each phi
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        # at s = 0.62 and the default cutoff each single-mode tail (7.1e-9) passes,
        # the joint one (1.6e-8) does not
        with pytest.raises(TruncationWarning, match="^moment:"):
            esv_criteria_curve(0.62, 0.0, 30)
        assert esv_criteria_curve(0.3, np.pi, 40)[2] < 0
