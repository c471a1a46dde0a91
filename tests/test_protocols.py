import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esvsim import (
    EsvSpec,
    KerrSpec,
    QubitAmplitudes,
    SqueezeSpec,
    TruncationWarning,
    entanglement_swap,
    esv_pure,
    fidelity,
    generate_scheme_a,
    generate_scheme_b,
    log_negativity,
    squeezed_vacuum,
    teleport,
    two_mode_squeezed_vacuum,
)
import esvsim.protocols
import esvsim.states
from esvsim.fock import FockVector, ModeLayout
from esvsim.states import _pair

from oracles import (_split_padded, basis_vector, controlled_phase, entanglement_swap_padded, esv_aligned,
                     generate_scheme_a_circuit, generate_scheme_b_branches, generate_scheme_b_circuit,
                     heralded_fidelity, odd_odd_projector, padded_balanced_bs, parity_weights, partial_trace,
                     phase_rotation, teleport_padded, tensor)

HALF = 1 / np.sqrt(2)


def basis_state(dims, occupations):
    return FockVector(ModeLayout(dims), basis_vector(dims, occupations))


def test_qubit_amplitudes_validation():
    QubitAmplitudes(HALF, HALF * 1j)
    with pytest.raises(ValueError):
        QubitAmplitudes(1.0, 0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan")),
                                 complex(float("inf"), 0.0)])
@pytest.mark.parametrize("slot", [0, 1])
def test_qubit_amplitudes_reject_non_finite(bad, slot):
    # NaN compares False with the norm tolerance, so it must be caught on its own
    amps = [bad, 0.0] if slot == 0 else [0.0, bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            QubitAmplitudes(*amps)


@pytest.mark.parametrize("amps", [(1e200, 0.0), (0.0, 1e200), (1e-200, 0.0), (float("nan"), 0.0), (3.0, 4.0)])
def test_qubit_amplitudes_reject_every_bad_pair_with_value_error(amps):
    # the norm comes from hypot, so a huge or tiny amplitude neither overflows nor underflows
    with pytest.raises(ValueError):
        QubitAmplitudes(*amps)


def test_odd_odd_projector_basis_cases():
    v = basis_state((4, 4), (1, 1))
    out, p = odd_odd_projector(v, (0, 1))
    assert p == pytest.approx(1.0)
    assert np.array_equal(out.amps, v.amps)
    v = basis_state((4, 4), (0, 1))
    out, p = odd_odd_projector(v, (0, 1))
    assert p == 0.0
    assert np.abs(out.amps).max() == 0.0


def test_odd_odd_projector_on_tmsv_geometric_series():
    s, d = 0.8, 60
    v = two_mode_squeezed_vacuum(s, d).normalized()
    _, p = odd_odd_projector(v, (0, 1))
    t = np.tanh(s)
    expected = t**2 / (np.cosh(s) ** 2 * (1 - t**4))
    assert p == pytest.approx(expected, abs=1e-8)


def test_entanglement_swap_probability_and_fidelity():
    for s in (0.3, 0.6, 1.0, 1.5):
        p, f = entanglement_swap(s)
        assert p == pytest.approx(0.25, abs=2e-3)
        assert f >= 1 - 1e-6
    with pytest.raises(ValueError):
        entanglement_swap(0.0)


def _random_vector(dims, rng):
    n = int(np.prod(dims))
    return FockVector(ModeLayout(dims), rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("keep", [[0, 2], [1], [2]])
def test_heralded_fidelity_matches_density_matrix_oracle(keep):
    # unnormalized vectors: the norm squared plays the heralding probability
    rng = np.random.default_rng(11)
    for dims in ((3, 4, 5), (2, 6, 3), (5, 2, 4), (4, 4, 4)):
        for _ in range(3):
            vec = _random_vector(dims, rng)
            target = _random_vector(tuple(dims[m] for m in keep), rng).normalized()
            prob = vec.norm() ** 2
            rho = partial_trace(vec.density().mat, dims, keep) / prob
            want = np.vdot(target.amps, rho @ target.amps).real
            assert heralded_fidelity(vec, keep, prob, target) == pytest.approx(want, abs=1e-12)


def test_heralded_fidelity_rejects_layout_mismatch():
    rng = np.random.default_rng(12)
    vec = _random_vector((3, 4, 5), rng)
    for keep, dims in (([0, 2], (5, 3)), ([1], (5,)), ([2], (3, 5))):
        with pytest.raises(ValueError, match="layout mismatch"):
            heralded_fidelity(vec, keep, 1.0, _random_vector(dims, rng))


def test_swap_probability_is_squeezing_independent():
    probs = [entanglement_swap(s)[0] for s in (0.4, 0.9, 1.3)]
    assert np.ptp(probs) < 1e-9


def test_teleport_three_inputs():
    for a0, a1 in ((1.0, 0.0), (0.0, 1.0), (HALF, HALF)):
        p, f = teleport(QubitAmplitudes(a0, a1), 1.0)
        assert p == pytest.approx(0.25, abs=2e-3)
        assert f >= 1 - 1e-6


def test_teleport_heralding_complement():
    # the odd-odd projector plus its complement resolve the identity
    inp = squeezed_vacuum(SqueezeSpec(1.0, 24)).normalized()
    joint = tensor(inp, esv_aligned(EsvSpec(1.0, np.pi, 24)))
    mixed = padded_balanced_bs(joint, 0, 1)
    projected, p = odd_odd_projector(mixed, (0, 1))
    complement = FockVector(mixed.layout, mixed.amps - projected.amps)
    assert p + complement.norm() ** 2 == pytest.approx(1.0, abs=1e-9)


def test_squeezed_vacuum_sign_flip_is_exact():
    # |s-> = (-1)^n |s+> on |2n>, bit for bit: teleport's target a0|s-> + a1|s+>
    # is exactly the pi/2 rotation of its input a0|s+> + a1|s->
    for s in (0.2, 0.7, 1.0, 1.5, 3.0):
        for cutoff in (2, 3, 12, 41, 300):
            plus = squeezed_vacuum(SqueezeSpec(s, cutoff)).amps
            minus = squeezed_vacuum(SqueezeSpec(-s, cutoff)).amps
            sign = np.where(np.arange(cutoff) % 4 == 2, -1.0, 1.0)
            assert np.array_equal(minus.real.view(np.int64), (sign * plus.real).view(np.int64))
            assert not minus.imag.any() and not plus.imag.any()


def teleport_rotating_input(inp, s, cutoff):
    """teleport's (p, F) with the target taken as the dense R(-pi/2) applied to the input."""
    amps = (inp.a0 * squeezed_vacuum(SqueezeSpec(s, cutoff)).amps
            + inp.a1 * squeezed_vacuum(SqueezeSpec(-s, cutoff)).amps)
    input_state = FockVector(ModeLayout((cutoff,)), amps / np.linalg.norm(amps))
    joint = tensor(input_state, esv_aligned(EsvSpec(s, np.pi, cutoff)))
    projected, prob = odd_odd_projector(padded_balanced_bs(joint, 0, 1), (0, 1))
    target = FockVector(input_state.layout, phase_rotation(cutoff, -np.pi / 2) @ input_state.amps)
    return prob, heralded_fidelity(projected, [2], prob, target)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(s=st.floats(0.2, 1.5), theta=st.floats(0.0, np.pi / 2), alpha=st.floats(-np.pi, np.pi),
       beta=st.floats(-np.pi, np.pi), cutoff=st.integers(6, 36))
def test_teleport_matches_dense_rotation_oracle(s, theta, alpha, beta, cutoff):
    inp = QubitAmplitudes(np.cos(theta) * np.exp(1j * alpha), np.sin(theta) * np.exp(1j * beta))
    p, f = teleport(inp, s)
    p_want, f_want = teleport_rotating_input(inp, s, cutoff)
    assert abs(p - p_want) <= 1e-12
    assert abs(f - f_want) <= 1e-12


def _values_and_contexts(protocol, *args):
    """(p, F) and the set of TruncationWarning contexts warned on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        values = protocol(*args)
    contexts = {str(w.message).split(":")[0] for w in caught if issubclass(w.category, TruncationWarning)}
    return values, contexts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(swap=st.booleans(), s=st.floats(1e-3, 6.0), cutoff=st.integers(4, 24),
       theta=st.floats(0.0, np.pi / 2), alpha=st.floats(-np.pi, np.pi), beta=st.floats(-np.pi, np.pi))
def test_closed_forms_match_padded_circuit_oracle(swap, s, cutoff, theta, alpha, beta):
    # the cutoff-free algebra, which warns nothing, against the joint padded state at a cutoff
    if swap:
        args, protocol, oracle = (s,), entanglement_swap, entanglement_swap_padded
    else:
        inp = QubitAmplitudes(np.cos(theta) * np.exp(1j * alpha), np.sin(theta) * np.exp(1j * beta))
        args, protocol, oracle = (inp, s), teleport, teleport_padded
    (p, f), contexts = _values_and_contexts(protocol, *args)
    assert contexts == set()
    p_want, f_want = oracle(*args, cutoff)
    assert abs(p - p_want) <= 1e-12
    assert abs(f - f_want) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d_a=st.integers(4, 16), d_b=st.integers(4, 16), seed=st.integers(0, 2**32 - 1))
def test_odd_odd_herald_of_the_splitter_is_an_antisymmetrizer(d_a, d_b, seed):
    # on even photon numbers in both modes, <B(a⊗b)| P_oo |B(a'⊗b')> = (<a|a'><b|b'> - <a|b'><b|a'>)/2;
    # the overlaps across modes are taken on the common levels
    rng = np.random.default_rng(seed)

    def even_vector(d):
        v = np.zeros(d, dtype=complex)
        v[::2] = rng.standard_normal((d + 1) // 2) + 1j * rng.standard_normal((d + 1) // 2)
        return v

    a, a2, b, b2 = even_vector(d_a), even_vector(d_a), even_vector(d_b), even_vector(d_b)
    out = _split_padded(np.stack([np.outer(a, b), np.outer(a2, b2)], axis=-1))
    chi = out[1::2, 1::2]
    got = np.vdot(chi[..., 0], chi[..., 1])
    d = min(d_a, d_b)
    want = 0.5 * (np.vdot(a, a2) * np.vdot(b, b2) - np.vdot(a[:d], b2[:d]) * np.vdot(b[:d], a2[:d]))
    scale = np.linalg.norm(a) * np.linalg.norm(a2) * np.linalg.norm(b) * np.linalg.norm(b2)
    assert abs(got - want) <= 1e-12 * scale


def test_swap_and_teleport_build_no_fock_vector(monkeypatch):
    # the two protocols are cutoff-free: they build no squeezed vacuum and no |s+>, |s-> pair
    def forbidden(*args, **kwargs):
        raise AssertionError("a Fock-space routine was called")

    for module, name in ((esvsim.states, "squeezed_vacuum"), (esvsim.protocols, "_pair")):
        monkeypatch.setattr(module, name, forbidden)
    assert entanglement_swap(1.0) == pytest.approx((0.25, 1.0), abs=1e-15)
    assert teleport(QubitAmplitudes(0.6, 0.8j), 1.0) == pytest.approx((0.25, 1.0), abs=1e-15)


@pytest.mark.parametrize("s", [1e-14, 1e-6, 400.0])
def test_swap_and_teleport_edge_squeezing(s):
    # exactly (1/4, 1), a1 = -a0 included, and no RuntimeWarning
    inputs = (QubitAmplitudes(1.0, 0.0), QubitAmplitudes(0.6, 0.8j), QubitAmplitudes(HALF, -HALF))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert entanglement_swap(s) == (0.25, 1.0)
        for inp in inputs:
            assert teleport(inp, s) == (0.25, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.one_of(st.floats(5e-324, 1e-300, allow_subnormal=True), st.floats(1e-300, 1e-6),
                   st.floats(1e-6, 10.0), st.floats(10.0, 1e300)),
       theta=st.floats(0.0, np.pi / 2), alpha=st.floats(-np.pi, np.pi), beta=st.floats(-np.pi, np.pi),
       antiparallel=st.booleans())
@example(s=5e-324, theta=np.pi / 4, alpha=0.0, beta=0.0, antiparallel=True)
@example(s=1e-13, theta=np.pi / 4, alpha=0.0, beta=0.0, antiparallel=True)
def test_swap_and_teleport_are_exactly_one_quarter_and_one(s, theta, alpha, beta, antiparallel):
    # at every finite s > 0, subnormals included, the two-level algebra fixes both results
    # exactly; a1 = -a0 is x = sqrt(2) O, of squared norm 1 - c > 0
    if antiparallel:
        inp = QubitAmplitudes(HALF * np.exp(1j * alpha), -HALF * np.exp(1j * alpha))
    else:
        inp = QubitAmplitudes(np.cos(theta) * np.exp(1j * alpha), np.sin(theta) * np.exp(1j * beta))
    assert entanglement_swap(s) == (0.25, 1.0)
    assert teleport(inp, s) == (0.25, 1.0)


@pytest.mark.parametrize("s", [0.0, -1.0, -np.inf, np.nan, np.inf])
def test_swap_and_teleport_reject_squeezing_outside_the_closed_form(s):
    # the closed form holds on every finite s > 0 and nowhere else; a non-finite s
    # is named by the one real-value check before the sign is tested
    for protocol, args, message in ((entanglement_swap, (s,), "swap requires s > 0"),
                                    (teleport, (QubitAmplitudes(1.0, 0.0), s), "teleportation requires s > 0")):
        with pytest.raises(ValueError) as err:
            protocol(*args)
        assert str(err.value) == (message if np.isfinite(s) else f"s must be finite, got {s!r}")


def test_parity_weights_match_the_truncated_norms():
    # (|E|², |O|²) in closed form against the squeezed vacuum at a cutoff whose tail is below 1e-17
    for s in (1e-8, 1e-6, 1e-3, 0.1, 1.0, 2.0):
        plus, minus = _pair(s, 1500)
        even, odd = (plus + minus) / 2, (plus - minus) / 2     # exact: each level is 2u / 2 or 0
        want = np.array([np.vdot(even, even).real, np.vdot(odd, odd).real])
        assert np.allclose(parity_weights(s), want, rtol=1e-13, atol=0)


def _value_or_error(protocol, *args):
    """protocol(*args), or the message of the ValueError it raises."""
    try:
        return protocol(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scheme_b=st.booleans(), s=st.floats(-3.0, 3.0), cutoff=st.integers(4, 30),
       theta=st.floats(0.0, np.pi / 2), alpha=st.floats(-np.pi, np.pi), beta=st.floats(-np.pi, np.pi),
       outcome=st.sampled_from("+-"), gamma=st.floats(-2 * np.pi, 2 * np.pi))
def test_branch_sums_match_generation_circuit_oracle(scheme_b, s, cutoff, theta, alpha, beta, outcome,
                                                      gamma):
    # the stacked two-mode branches against the 3-mode circuit with a qubit ancilla; both
    # schemes truncate the same pair |s+>, |s->, so scheme b warns what scheme a warns
    anc = QubitAmplitudes(np.cos(theta) * np.exp(1j * alpha), np.sin(theta) * np.exp(1j * beta))
    args = (s, anc, outcome, cutoff) + ((KerrSpec(gamma),) if scheme_b else ())
    pair = ((generate_scheme_b, generate_scheme_b_circuit) if scheme_b
            else (generate_scheme_a, generate_scheme_a_circuit))
    (got, contexts), (want, contexts_want) = (_values_and_contexts(_value_or_error, protocol, *args)
                                              for protocol in pair)
    if scheme_b:
        contexts_want = _values_and_contexts(_value_or_error, generate_scheme_a, *args[:4])[1]
    assert contexts == contexts_want
    if isinstance(want, str):     # the same ValueError, after the same warnings
        assert got == want
        return
    (state, p), (state_want, p_want) = got, want
    assert state.layout == state_want.layout
    # the conditional state is normalized from a vector of norm sqrt(p), so the
    # branches' rounding grows as 1/sqrt(p) on near-null outcomes
    assert np.abs(state.amps - state_want.amps).max() <= 1e-12 + 1e-15 / np.sqrt(p_want)
    assert abs(p - p_want) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=st.floats(-3.0, 3.0), cutoff=st.integers(4, 30), theta=st.floats(0.0, np.pi / 2),
       alpha=st.floats(-np.pi, np.pi), beta=st.floats(-np.pi, np.pi), outcome=st.sampled_from("+-"),
       gamma=st.floats(-2 * np.pi, 2 * np.pi))
def test_scheme_b_products_match_padded_branch_sums(s, cutoff, theta, alpha, beta, outcome, gamma):
    # the product branches against the TMSV branches through the padded splitter, cropped to
    # the cutoff; wherever the padded output's band check warns, the squeezed vacua's does too
    anc = QubitAmplitudes(np.cos(theta) * np.exp(1j * alpha), np.sin(theta) * np.exp(1j * beta))
    args = (s, anc, outcome, cutoff, KerrSpec(gamma))
    (got, contexts), (want, contexts_want) = (_values_and_contexts(_value_or_error, protocol, *args)
                                              for protocol in (generate_scheme_b, generate_scheme_b_branches))
    assert "beam splitter" not in contexts_want or "squeezed_vacuum" in contexts
    if isinstance(want, str):
        assert got == want
        return
    (state, p), (state_want, p_want) = got, want
    assert np.abs(state.amps - state_want.amps).max() <= 1e-12 + 1e-15 / np.sqrt(p_want)
    assert abs(p - p_want) <= 1e-12


def test_scheme_b_flags_the_truncation_its_crop_hid():
    # at (s, cutoff) = (1, 40) the cutoff drops 3.5e-6 of each squeezed vacuum's squared norm;
    # the padded band lies beyond the crop and reads none of it
    args = (1.0, QubitAmplitudes(HALF, HALF), "+", 40)
    assert _values_and_contexts(generate_scheme_b, *args)[1] == {"squeezed_vacuum"}
    assert _values_and_contexts(generate_scheme_b_branches, *args)[1] == set()


def _peak_mb(protocol, *args):
    tracemalloc.start()
    try:
        protocol(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_protocols_form_no_joint_padded_state():
    # the padded 4-mode swap vector alone is 24 * 47 * 47 * 24 * 16 B = 20 MB;
    # the cutoff-free swap and teleport hold a few arrays of at most four entries
    assert _peak_mb(entanglement_swap, 1.0) < 0.05
    assert _peak_mb(teleport, QubitAmplitudes(1, 0), 1.0) < 0.05
    assert _peak_mb(generate_scheme_b, 1.0, QubitAmplitudes(HALF, HALF), "+", 24) < 8.0


def test_generation_schemes_at_large_squeezing_raise_without_cosh_overflow():
    # cosh s overflows from |s| ~ 710; sech s from e^{-|s|} underflows to 0, where
    # every truncated amplitude is 0, and the squeezed vacua raise before any branch forms
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scheme in (generate_scheme_a, generate_scheme_b):
            with pytest.raises(ValueError, match="sech s underflows to 0"):
                scheme(800.0, QubitAmplitudes(HALF, HALF), "+", 8)


def test_generation_schemes_agree_and_match_target():
    anc = QubitAmplitudes(HALF, HALF)
    state_a, pa = generate_scheme_a(1.0, anc, "+", 40)
    state_b, pb = generate_scheme_b(1.0, anc, "+", 40)
    target = esv_pure(EsvSpec(1.0, 0.0, 40))
    assert fidelity(state_a, target) >= 1 - 1e-8
    assert fidelity(state_b, target) >= 1 - 1e-8
    assert fidelity(state_a, state_b) >= 1 - 1e-8
    # the two resources truncate differently, so probabilities agree only
    # up to the tail
    assert pa == pytest.approx(pb, abs=1e-5)


def test_generation_minus_outcome():
    anc = QubitAmplitudes(HALF, HALF)
    state_a, _ = generate_scheme_a(0.8, anc, "-", 30)
    target = esv_pure(EsvSpec(0.8, np.pi, 30))
    assert fidelity(state_a, target) >= 1 - 1e-8


def test_generation_probabilities():
    anc = QubitAmplitudes(HALF, HALF)
    _, p_plus = generate_scheme_a(1.0, anc, "+", 50)
    _, p_minus = generate_scheme_a(1.0, anc, "-", 50)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-10)
    # p+ = (1 + 2 Re(a0 conj(a1)) / cosh 2s)/2 up to the truncated overlap
    assert p_plus == pytest.approx((1 + 1 / np.cosh(2.0)) / 2, abs=1e-5)
    assert p_plus == pytest.approx(0.6329, abs=1e-4)


def test_heralding_probability_is_at_most_one_without_clipping():
    # at this point p+ is 1 to rounding, and a ratio to the joint squared norm came out
    # 1.0000000000000002; n+ / (n+ + n-) cannot exceed 1, and p+ + p- is 1 within an ulp
    anc = QubitAmplitudes(math.sqrt(0.5), math.sqrt(0.5))
    args = (0.35643475049301365, anc)
    _, p_plus = generate_scheme_b(*args, "+", 2, KerrSpec(0.0))
    assert p_plus <= 1.0
    for scheme in (generate_scheme_a, generate_scheme_b):
        p = [scheme(*args, outcome, 6)[1] for outcome in ("+", "-")]
        assert max(p) <= 1.0 and abs(sum(p) - 1.0) <= 2.0 ** -52


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s=st.floats(0.01, 3.0), phi=st.floats(0.0, 2 * np.pi), cutoff=st.integers(2, 40),
       a0=st.floats(0.05, 1.0), a1=st.floats(0.05, 1.0), beta=st.floats(-np.pi / 2, np.pi / 2))
@example(s=1.0, phi=0.0, cutoff=30, a0=0.7071067811865476, a1=0.7071067811865476, beta=0.0)
def test_fidelity_of_built_unit_vectors_stays_within_its_rounding_bound(s, phi, cutoff, a0, a1, beta):
    # the generate command's fid_schemes and fid_esv (the example is its README row, which
    # computes 1.0000000000000022) and ESVs with themselves: F - 1 <= (8n + 33)u on a layout
    # of dimension n, as `fock.fidelity` derives, and F is the rounded |<x|y>|² unclipped
    norm = math.hypot(a0, a1)     # the ancilla as the CLI normalizes it
    anc = QubitAmplitudes(complex(a0) / norm, a1 * np.exp(1j * beta) / norm)
    state_a, _ = generate_scheme_a(s, anc, "+", cutoff)
    state_b, _ = generate_scheme_b(s, anc, "+", cutoff)
    target = esv_pure(EsvSpec(s, 0.0, cutoff))
    esv = esv_pure(EsvSpec(s, phi, cutoff))
    bound = (8 * cutoff * cutoff + 33) * 2.0 ** -53
    for x, y in ((state_a, state_b), (state_a, target), (esv, esv), (state_b, state_b)):
        f = fidelity(x, y)
        assert f == np.abs(np.vdot(x.amps, y.amps)) ** 2
        assert f - 1.0 <= bound


def test_generation_with_trivial_ancilla():
    anc = QubitAmplitudes(1.0, 0.0)
    for outcome in ("+", "-"):
        state, p = generate_scheme_a(0.9, anc, outcome, 30)
        assert p == pytest.approx(0.5, abs=1e-12)
        # conditional state is the product |s+, s->
        target = tensor(squeezed_vacuum(SqueezeSpec(0.9, 30)),
                        squeezed_vacuum(SqueezeSpec(-0.9, 30))).normalized()
        assert fidelity(state, target) >= 1 - 1e-10


def test_scheme_b_without_kerr_gives_product():
    anc = QubitAmplitudes(1.0, 0.0)
    state, p = generate_scheme_b(0.8, anc, "+", 30, kerr=KerrSpec(0.0))
    assert log_negativity(state, [1]) <= 1e-9
    assert p == pytest.approx(0.5, abs=1e-9)


def test_generation_null_conditional_state_raises():
    # at s = 0 both branches coincide, so the "-" outcome projects to zero
    anc = QubitAmplitudes(HALF, HALF)
    with pytest.raises(ValueError):
        generate_scheme_a(0.0, anc, "-", 16)


def test_controlled_phase_validation():
    v = basis_state((4, 2), (2, 1))
    out = controlled_phase(v, 0, 1, np.pi / 2, control_value=1)
    assert out.as_tensor()[2, 1] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)
    out = controlled_phase(v, 0, 1, np.pi / 2, control_value=0)
    assert out.as_tensor()[2, 1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        controlled_phase(basis_state((4, 3), (0, 0)), 0, 1, 0.5)
