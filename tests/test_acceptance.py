"""End-to-end validation matrix: eleven numbered criteria with fixed
tolerances, each printing one PASS/FAIL line (run with ``pytest -v -s``).

Two criteria carry corrected reference values; their docstrings keep the
original statements and the analysis that refutes them:

- 04: the printed mean-photon closed form had the wrong sign on the first
  bracket term (it gives a negative occupation); the corrected form is asserted.
- 05: single-quantum JC exchange transfers exactly zero entanglement from
  even-parity inputs, so the ESV values are asserted to vanish, with a
  two-mode-squeezed-vacuum positive control.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from esvsim import (
    EsvSpec,
    QubitAmplitudes,
    SqueezeSpec,
    bs_loss,
    displaced_overlap,
    duan_det,
    entangling_power,
    entanglement_swap,
    eof_pure,
    esv_criterion_det,
    esv_mixed,
    esv_pure,
    fidelity,
    generate_scheme_a,
    generate_scheme_b,
    log_negativity,
    moment,
    phase_channel,
    simon_det,
    squeezed_vacuum,
    teleport,
    thermal_channel,
    two_mode_squeezed_vacuum,
)

HALF = 1 / np.sqrt(2)


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_swap_probability_and_fidelity():
    t0 = time.time()
    results = {s: entanglement_swap(s, 24) for s in (0.3, 0.6, 1.0, 1.5)}
    elapsed = time.time() - t0
    worst_p = max(abs(p - 0.25) for p, _ in results.values())
    worst_f = min(f for _, f in results.values())
    ok = worst_p <= 2e-3 and worst_f >= 1 - 1e-6 and elapsed < 60
    assert report(1, ok, f"swap |p-1/4| <= {worst_p:.2e}, min fidelity {worst_f:.9f}, {elapsed:.1f}s")


def test_criterion_02_exact_ebit_at_phi_pi():
    t0 = time.time()
    worst_eof, worst_ln = 0.0, 0.0
    for s in (0.1, 0.3, 1.0):
        state = esv_pure(EsvSpec(s, np.pi, 40))
        worst_eof = max(worst_eof, abs(eof_pure(state, [0]) - 1.0))
        worst_ln = max(worst_ln, abs(log_negativity(state, [1]) - 1.0))
    elapsed = time.time() - t0
    ok = worst_eof <= 1e-6 and worst_ln <= 1e-6 and elapsed < 30
    assert report(2, ok, f"|EoF-1| <= {worst_eof:.2e}, |LN-1| <= {worst_ln:.2e}, {elapsed:.1f}s")


def test_criterion_03_determinant_contrast():
    t0 = time.time()
    simon_min, duan_min, esv_max = np.inf, np.inf, -np.inf
    for s in (0.2, 0.5, 1.0):
        for phi in (0.0, np.pi / 2, np.pi):
            state = esv_pure(EsvSpec(s, phi, 36))
            simon_min = min(simon_min, simon_det(state))
            duan_min = min(duan_min, duan_det(state))
            esv_max = max(esv_max, esv_criterion_det(state))
    elapsed = time.time() - t0
    ok = simon_min >= -1e-9 and duan_min >= -1e-9 and esv_max < -1e-12 and elapsed < 60
    assert report(3, ok, f"min simon {simon_min:.2e}, min duan {duan_min:.2e}, "
                         f"max tailored det {esv_max:.2e}, {elapsed:.1f}s")


def test_criterion_04_mean_photon_closed_form_as_printed():
    """Checks <a†a> against the mean-photon closed form in its printed
    bracket shape, with the sign of the bracket's first term corrected:
        <a†a> = 2 N^2 (nu^2 - cos(phi) [-nu^2 + mu nu tanh(2s)] / cosh(2s)).
    The form as originally printed,
        <a†a> = 2 N^2 (nu^2 - cos(phi) [nu^2 + mu nu tanh(2s)] / cosh(2s)),
    is refuted: at s = 0.2, phi = 0 it evaluates to -0.0359, a negative mean
    photon number, and at phi = pi, s -> 0 it tends to 2 where the state
    (|0,2> - |2,0>)/sqrt(2) pins the true value at 1.  From the overlaps
    <s+|n|s-> = -nu^2/cosh^{3/2}(2s) and <s-|s+> = 1/sqrt(cosh 2s) the mean
    is 2 N^2 nu^2 (1 - cos(phi)/cosh^2(2s)), which the identity
    mu nu tanh(2s) - nu^2 = nu^2/cosh(2s) turns into the corrected form.
    """
    t0 = time.time()
    worst = 0.0
    for s in (0.2, 0.5, 1.0):
        for phi in (0.0, np.pi / 2, np.pi):
            state = esv_pure(EsvSpec(s, phi, 80))
            got = moment(state, [(0, 1, 1)]).real
            mu, nu = np.cosh(s), np.sinh(s)
            n2 = 1.0 / (2 * (1 + np.cos(phi) / np.cosh(2 * s)))
            corrected = 2 * n2 * (nu**2 - np.cos(phi) / np.cosh(2 * s)
                                  * (-nu**2 + mu * nu * np.tanh(2 * s)))
            worst = max(worst, abs(got - corrected))
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and elapsed < 10
    assert report(4, ok, f"max |<n> - corrected form| = {worst:.2e} (tolerance 1e-7), {elapsed:.1f}s")


def test_criterion_05_entangling_power_peak():
    """Checks the entanglement transferred to two qubits by resonant JC
    exchange from the ESV at (s=1.1, phi=0, tau=8) and over the squeezing
    grid.  The original target (> 0.9 at s=1.1, the strict arg max over the
    grid) is unreachable: the input state occupies only even photon numbers
    in each mode, and the single-quantum exchange coupling tags the qubit
    level with the photon-number parity, so after tracing the modes every
    two-qubit coherence vanishes identically.  The reduced state is diagonal,
    hence separable: the transferred entanglement is exactly zero for every
    tau, s and phi, and is asserted so.  The two-mode squeezed vacuum, whose
    |n,n> correlations span both parities, is the positive control: the same
    machinery must report > 0.5 for it, so the zero is physics, not a bug.
    """
    t0 = time.time()
    state = esv_pure(EsvSpec(1.1, 0.0, 40))
    at_zero = entangling_power(state, 0.0)
    peak = entangling_power(state, 8.0)
    grid = {s: entangling_power(esv_pure(EsvSpec(s, 0.0, 40)), 8.0)
            for s in (0.5, 0.8, 1.4, 1.7, 2.0)}
    tmsv = two_mode_squeezed_vacuum(1.1, 30).normalized()
    control = max(entangling_power(tmsv, tau) for tau in (2.0, 4.6, 8.0))
    elapsed = time.time() - t0
    worst_esv = max(peak, *grid.values())
    ok = at_zero <= 1e-12 and worst_esv <= 1e-12 and control > 0.5 and elapsed < 120
    assert report(5, ok, f"ESV value(tau=8) max over s = {worst_esv:.1e} (need <= 1e-12), "
                         f"value(tau=0) = {at_zero:.1e}, TMSV control {control:.3f} (need > 0.5), "
                         f"{elapsed:.1f}s")


def test_criterion_06_thermal_noise_surface():
    t0 = time.time()
    base = squeezed_vacuum(SqueezeSpec(1.0, 30)).normalized().density()
    noisy = thermal_channel(base, 2.0)
    lns = [log_negativity(esv_mixed(noisy, noisy, phi), [1])
           for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)]
    elapsed = time.time() - t0
    ok = all(0.05 <= v <= 0.2 for v in lns) and elapsed < 600
    assert report(6, ok, f"thermal LN range [{min(lns):.4f}, {max(lns):.4f}] within [0.05, 0.2], "
                         f"{elapsed:.1f}s")


def test_criterion_07_phase_noise_surface():
    t0 = time.time()
    base = squeezed_vacuum(SqueezeSpec(1.0, 30)).normalized().density()
    noisy = phase_channel(base, 1.0)
    lns = [log_negativity(esv_mixed(noisy, noisy, phi), [1])
           for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)]
    small = sum(1 for v in lns if v < 0.05)
    elapsed = time.time() - t0
    ok = small >= 6 and elapsed < 300
    assert report(7, ok, f"phase-noise LN < 0.05 at {small}/8 phases, {elapsed:.1f}s")


def test_criterion_08_mixed_entangling_power_bound():
    t0 = time.time()
    lossy = bs_loss(squeezed_vacuum(SqueezeSpec(1.1, 16)).normalized().density(), 0.8)
    rho = esv_mixed(lossy, lossy, 0.0)
    values = [entangling_power(rho, tau) for tau in np.linspace(0.0, 10.0, 11)]
    elapsed = time.time() - t0
    ok = max(values) <= 0.4 + 1e-3 and elapsed < 600
    assert report(8, ok, f"mixed transfer max {max(values):.3e} <= 0.401, {elapsed:.1f}s")


def test_criterion_09_oracle_equivalences():
    t0 = time.time()
    ln_err = 0.0
    for s in (0.25, 0.5, 1.0):
        ln = log_negativity(two_mode_squeezed_vacuum(s, 40).normalized(), [1])
        ln_err = max(ln_err, abs(ln - 2 * s / np.log(2)))
    overlap_err = 0.0
    for s, cutoff in ((0.5, 400), (1.0, 800), (2.0, 3000)):
        plus = squeezed_vacuum(SqueezeSpec(s, cutoff))
        minus = squeezed_vacuum(SqueezeSpec(-s, cutoff))
        o = float(np.vdot(plus.amps, minus.amps).real) / (plus.norm() * minus.norm())
        overlap_err = max(overlap_err, abs(o - 1 / np.sqrt(np.cosh(2 * s))))
    p5 = squeezed_vacuum(SqueezeSpec(5.0, 140000))
    m5 = squeezed_vacuum(SqueezeSpec(-5.0, 140000))
    o5 = abs(float(np.vdot(p5.amps, m5.amps).real)) / (p5.norm() * m5.norm())
    rs = np.linspace(0.0, 2.0, 4001)
    r_star = rs[int(np.argmax([displaced_overlap(0.0, 2.0, r) for r in rs]))]
    r_err = abs(r_star - 0.5 * np.arccosh(4.0))
    elapsed = time.time() - t0
    ok = (ln_err <= 1e-4 and overlap_err <= 1e-8
          and 0.005 < o5 < 0.02 and r_err <= 1e-3 and elapsed < 60)
    assert report(9, ok, f"LN err {ln_err:.1e}, overlap err {overlap_err:.1e}, "
                         f"overlap(s=5) = {o5:.4f}, peak-location err {r_err:.1e}, {elapsed:.1f}s")


def test_criterion_10_protocol_exactness():
    t0 = time.time()
    tele_ok = True
    worst_p, worst_f = 0.0, 1.0
    for a0, a1 in ((1.0, 0.0), (0.0, 1.0), (HALF, HALF)):
        p, f = teleport(QubitAmplitudes(a0, a1), 1.0, 40)
        worst_p = max(worst_p, abs(p - 0.25))
        worst_f = min(worst_f, f)
    tele_ok = worst_p <= 2e-3 and worst_f >= 1 - 1e-6
    anc = QubitAmplitudes(HALF, HALF)
    state_a, _ = generate_scheme_a(1.0, anc, "+", 40)
    state_b, _ = generate_scheme_b(1.0, anc, "+", 40)
    target = esv_pure(EsvSpec(1.0, 0.0, 40))
    gen_ok = (fidelity(state_a, target) >= 1 - 1e-8
              and fidelity(state_b, target) >= 1 - 1e-8
              and fidelity(state_a, state_b) >= 1 - 1e-8)
    elapsed = time.time() - t0
    ok = tele_ok and gen_ok and elapsed < 120
    assert report(10, ok, f"teleport |p-1/4| <= {worst_p:.1e}, min fidelity {worst_f:.9f}; "
                          f"generation fidelities {'ok' if gen_ok else 'bad'}, {elapsed:.1f}s")


def test_criterion_11_structural_suite_standalone():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(Path(__file__).parent / "test_properties.py"), "-q"],
        capture_output=True, text=True,
    )
    elapsed = time.time() - t0
    ok = proc.returncode == 0 and elapsed < 60
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    assert report(11, ok, f"standalone structural suite: {tail}, {elapsed:.1f}s")
