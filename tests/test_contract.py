"""The domain contract of the public library API.

Every public constructor, channel, measure and protocol is called with
arguments drawn over the whole float domain (nan, ±inf, ±0, the smallest
subnormal, ±1e300 and ordinary values) and cutoffs 2-12, with
`RuntimeWarning` raised as an error.  Each call must either return finite
values in their documented ranges, or raise ValueError or TypeError whose
message names the offending argument or is one of the numeric guards the
README documents.  It must never raise anything else (LinAlgError,
OverflowError, ZeroDivisionError, FloatingPointError), warn, or surface a
numpy-internal message.
"""

import math
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esvsim import (
    DensityMatrix,
    EsvSpec,
    KerrSpec,
    MinorSelector,
    ModeLayout,
    MomentIndex,
    QubitAmplitudes,
    SqueezeSpec,
    bs_loss,
    displaced_overlap,
    entanglement_swap,
    entangling_power,
    eof_pure,
    esv_mixed,
    esv_pure,
    generate_scheme_a,
    generate_scheme_b,
    log_negativity,
    moment,
    phase_channel,
    squeezed_vacuum,
    teleport,
    thermal_channel,
    two_mode_squeezed_vacuum,
)
from esvsim.measures import esv_mixed_ln_curve, esv_pure_eof_curve
from esvsim.separability import esv_criteria_curve

REALS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300, -1e300]),
                  st.floats(-3.0, 3.0))
CUTOFFS = st.integers(2, 12)
POWERS = st.one_of(st.integers(0, 3), REALS)
ANCILLA = QubitAmplitudes(math.sqrt(0.5), math.sqrt(0.5))

# the README's numeric guards: the sech s underflow and the degenerate state
# (a superposition, or a conditional map's output, of norm or trace ~ 0)
GUARDS = ("sech s underflows to 0", "degenerate superposition is the zero vector",
          "conditional map annihilated the input state")
# ROADMAP item 2's known remainder: the truncated |s+> and |s-> vanish at large s
GENERATE_ZERO = "cannot normalize the zero vector"


@lru_cache(maxsize=None)
def physical_input(cutoff):
    """A normalized squeezed vacuum as a density matrix: real, parity-definite, unit trace."""
    return squeezed_vacuum(SqueezeSpec(0.5, cutoff)).normalized().density()


def unit(v):
    return abs(v.norm() - 1.0) <= 1e-12


def unit_or_less(v):
    return v.norm() <= 1.0 + 1e-12


def unit_trace(rho):
    return abs(rho.trace() - 1.0) <= 1e-12


def finite_in(lo, hi):
    return lambda x: math.isfinite(x) and lo <= x <= hi


def state_and_probability(out):
    # n / (n + m) of two squared norms, which rounding keeps at most 1
    state, prob = out
    return unit(state) and 0.0 <= prob <= 1.0


def exactly_hermitian(rho):
    return np.isfinite(rho.mat).all() and np.array_equal(rho.mat, rho.mat.conj().T)


@dataclass(frozen=True)
class Case:
    name: str
    args: st.SearchStrategy
    names: tuple[str, ...]      # the arguments a message may name
    call: Callable
    ok: Callable                # the documented range of the result
    guards: tuple[str, ...] = GUARDS


def two_reals(*names):
    return st.tuples(REALS, REALS, CUTOFFS), names


def one_real(name):
    return st.tuples(REALS, CUTOFFS), (name,)


def s_axis_and_phi():
    return st.tuples(st.lists(REALS, min_size=1, max_size=4), REALS, CUTOFFS), ("s", "phi")


CASES = [
    Case("squeezed_vacuum", *one_real("s"), lambda s, d: squeezed_vacuum(SqueezeSpec(s, d)), unit_or_less),
    Case("esv_pure", *two_reals("s", "phi"), lambda s, phi, d: esv_pure(EsvSpec(s, phi, d)), unit),
    Case("two_mode_squeezed_vacuum", *one_real("s"), two_mode_squeezed_vacuum, unit_or_less),
    Case("esv_mixed", *one_real("phi"), lambda phi, d: esv_mixed(physical_input(d), physical_input(d), phi),
         unit_trace),
    Case("esv_mixed_ln_curve", *one_real("phi"), lambda phi, d: esv_mixed_ln_curve(physical_input(d), phi),
         finite_in(0.0, math.inf)),
    Case("esv_pure_eof_curve", *two_reals("s", "phi"), lambda s, phi, d: esv_pure_eof_curve(s, phi, d),
         finite_in(0.0, 1.0)),
    Case("esv_criteria_curve", *two_reals("s", "phi"), lambda s, phi, d: esv_criteria_curve(s, phi, d),
         lambda dets: all(map(math.isfinite, dets))),
    # an s axis as a column against a phi row, as the sweeps pass them
    Case("esv_pure_eof_curve-s-array", *s_axis_and_phi(),
         lambda s, phi, d: esv_pure_eof_curve(np.array(s)[:, None], np.array([phi, 0.5]), d),
         lambda eof: bool(np.isfinite(eof).all() and (eof >= 0).all() and (eof <= 1).all())),
    Case("esv_criteria_curve-s-array", *s_axis_and_phi(),
         lambda s, phi, d: esv_criteria_curve(np.array(s)[:, None], np.array([phi, 0.5]), d),
         lambda dets: all(bool(np.isfinite(det).all()) for det in dets)),
    Case("thermal_channel", *one_real("sigma"), lambda sigma, d: thermal_channel(physical_input(d), sigma),
         unit_trace),
    Case("phase_channel", *one_real("sigma"), lambda sigma, d: phase_channel(physical_input(d), sigma),
         unit_trace),
    Case("bs_loss", *one_real("transmissivity"), lambda eta, d: bs_loss(physical_input(d), eta), unit_trace),
    # the two-mode squeezed vacuum transfers entanglement; the ESV gives exact zeros
    Case("entangling_power", *one_real("tau"),
         lambda tau, d: entangling_power(two_mode_squeezed_vacuum(0.5, d).normalized(), tau), finite_in(0.0, 1.0)),
    Case("KerrSpec", st.tuples(REALS), ("gamma",), lambda gamma: KerrSpec(gamma).gamma, math.isfinite),
    Case("generate_scheme_a", *one_real("s"), lambda s, d: generate_scheme_a(s, ANCILLA, "+", d),
         state_and_probability, GUARDS + (GENERATE_ZERO,)),
    Case("generate_scheme_b", *two_reals("s", "gamma"),
         lambda s, gamma, d: generate_scheme_b(s, ANCILLA, "+", d, KerrSpec(gamma)),
         state_and_probability, GUARDS + (GENERATE_ZERO,)),
    Case("entanglement_swap", st.tuples(REALS), ("s",), entanglement_swap, lambda out: out == (0.25, 1.0)),
    Case("teleport", st.tuples(REALS), ("s",), lambda s: teleport(QubitAmplitudes(1.0, 0.0), s),
         lambda out: out == (0.25, 1.0)),
    Case("displaced_overlap", st.tuples(REALS, REALS, REALS), ("alpha", "beta", "r"), displaced_overlap,
         finite_in(0.0, 1.0)),
    Case("DensityMatrix", st.tuples(REALS, REALS, REALS), ("matrix",),
         lambda x, y, z: DensityMatrix(ModeLayout((2,)), [[x, y], [y, z]]), exactly_hermitian),
    Case("moment", st.tuples(POWERS, POWERS, CUTOFFS), ("operator power",),
         lambda ndag, nlow, d: moment(squeezed_vacuum(SqueezeSpec(0.5, d)), [(0, ndag, nlow)]),
         lambda z: math.isfinite(z.real) and math.isfinite(z.imag)),
]


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_public_api_returns_in_range_or_names_the_argument(case, data):
    args = data.draw(case.args, label="args")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = case.call(*args)
        except (ValueError, TypeError) as exc:
            message = str(exc)
            assert type(exc) in (ValueError, TypeError), f"{type(exc).__name__}: {message}"
            assert (any(re.search(rf"\b{name}\b", message) for name in case.names)
                    or any(guard in message for guard in case.guards)), message
            return
    assert case.ok(out), out


# --- one regression per defect mended by validating where an argument enters --

@pytest.mark.parametrize("call, error, message", [
    (lambda: esv_mixed(physical_input(6), physical_input(6), np.nan), ValueError, "phi must be finite"),
    (lambda: esv_mixed(physical_input(6), physical_input(6), np.inf), ValueError, "phi must be finite"),
    (lambda: DensityMatrix(ModeLayout((2,)), np.full((2, 2), np.nan)), ValueError, "non-finite matrix entry"),
    (lambda: DensityMatrix(ModeLayout((2,)), [[1.0, np.inf], [np.inf, 0.0]]), ValueError,
     "non-finite matrix entry"),
    (lambda: esv_mixed_ln_curve(physical_input(6), np.nan), ValueError, "phi must be finite"),
    (lambda: log_negativity(DensityMatrix(ModeLayout((2, 2)), np.full((4, 4), np.nan)), [1]), ValueError,
     "non-finite matrix entry"),
    (lambda: two_mode_squeezed_vacuum(np.nan, 10), ValueError, "s must be finite"),
    (lambda: two_mode_squeezed_vacuum(np.inf, 10), ValueError, "s must be finite"),
    (lambda: moment(squeezed_vacuum(SqueezeSpec(0.5, 6)), [(0, 1.5, 0)]), TypeError,
     "operator power must be an integer"),
    (lambda: SqueezeSpec(None, 10), TypeError, "s must be a real number"),
    (lambda: SqueezeSpec("1.5", 10), TypeError, "s must be a real number"),
    (lambda: SqueezeSpec(10 ** 400, 10), ValueError, "s must be finite"),
    (lambda: SqueezeSpec(np.complex128(1 + 1j), 10), TypeError, "s must be a real number"),
    # integers are never truncated: each of these once acted on position 1 and 2, index 1 or mode 0
    (lambda: MinorSelector((1.7, 2.2)), TypeError, "selector position must be an integer"),
    (lambda: MomentIndex(1.5, 0, 0, 0), TypeError, "multi-index entry must be an integer"),
    (lambda: log_negativity(esv_pure(EsvSpec(0.5, 1.0, 6)), [0.6]), TypeError, "mode must be an integer"),
    (lambda: eof_pure(esv_pure(EsvSpec(0.5, 1.0, 6)), [0.2]), TypeError, "mode must be an integer"),
    (lambda: moment(squeezed_vacuum(SqueezeSpec(0.5, 6)), [(0.9, 1, 1)]), TypeError, "mode must be an integer"),
    # a protocol's qubit is QubitAmplitudes, not anything: these once returned (1/4, 1) or ran
    (lambda: teleport(None, 1.0), TypeError, "inp must be QubitAmplitudes"),
    (lambda: teleport((5, 5), 1.0), TypeError, "inp must be QubitAmplitudes"),
    (lambda: generate_scheme_a(1.0, (1.0, 0.0), "+", 6), TypeError, "ancilla must be QubitAmplitudes"),
    (lambda: generate_scheme_b(1.0, None, "+", 6), TypeError, "ancilla must be QubitAmplitudes"),
    # a non-number raises a TypeError naming the argument, not numpy's or a comparison's
    (lambda: QubitAmplitudes("a", 0), TypeError, "a0 must be a complex number"),
    (lambda: QubitAmplitudes(1.0, None), TypeError, "a1 must be a complex number"),
    (lambda: displaced_overlap("x", 0, 1.0), TypeError, "alpha must be a complex number"),
    (lambda: bs_loss(physical_input(6), "0.5"), TypeError, "transmissivity must be a real number"),
], ids=["esv_mixed-nan", "esv_mixed-inf", "DensityMatrix-nan", "DensityMatrix-inf", "esv_mixed_ln_curve-nan",
        "log_negativity-nan", "two_mode_squeezed_vacuum-nan", "two_mode_squeezed_vacuum-inf", "moment-float-power",
        "SqueezeSpec-None", "SqueezeSpec-str", "SqueezeSpec-huge-int", "SqueezeSpec-complex",
        "MinorSelector-float", "MomentIndex-float", "log_negativity-float-mode", "eof_pure-float-mode",
        "moment-float-mode", "teleport-None", "teleport-tuple", "generate_scheme_a-tuple", "generate_scheme_b-None",
        "QubitAmplitudes-str", "QubitAmplitudes-None", "displaced_overlap-str", "bs_loss-str"])
def test_argument_is_rejected_where_it_enters(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_density_matrix_stores_the_exact_hermitian_part():
    # an exactly Hermitian input is kept bit for bit, subnormal and huge entries included;
    # one with anti-Hermitian noise under the tolerance is stored as its Hermitian part
    mat = np.array([[5e-324, 1e300 - 2e299j], [1e300 + 2e299j, 0.25]])
    assert np.array_equal(DensityMatrix(ModeLayout((2,)), mat).mat, mat)
    noisy = np.array([[0.5 + 1e-12j, 0.1 + 0.2j], [0.1 - 0.2j + 1e-12, 0.5]])
    stored = DensityMatrix(ModeLayout((2,)), noisy).mat
    assert np.array_equal(stored, 0.5 * (noisy + noisy.conj().T))
    assert np.array_equal(stored, stored.conj().T) and not stored.diagonal().imag.any()


@pytest.mark.parametrize("curve", [esv_pure_eof_curve, esv_criteria_curve])
@pytest.mark.parametrize("bad, phi, message", [
    (0.0, np.pi, "degenerate superposition is the zero vector"),
    # s > 0 is not degenerate at phi = pi, however small: the inf after it is the error
    (5e-324, np.pi, "s must be finite and >= 0, got inf"),
    (1e300, 0.0, "sech s underflows to 0 at s = 1e+300"),
    (-0.5, 0.0, "s must be finite and >= 0, got -0.5"),
    (np.nan, 0.0, "s must be finite and >= 0, got nan"),
], ids=["zero", "subnormal", "huge", "negative", "nan"])
def test_array_s_is_rejected_at_its_point(curve, bad, phi, message):
    # an s axis is checked point by point, in its order: the error of the bad point,
    # after the good point before it and whatever point follows
    s = np.array([[0.5], [bad], [np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            curve(s, np.array([0.25, phi]), 10)
        assert np.isfinite(curve(s[:1], np.array([0.25, phi]), 10)).all()
