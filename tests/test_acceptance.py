"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Criterion 2 checks that the design at delta = 0.2 with spontaneous emission
from level 4 suppressed 1000x lands on the quoted operating point: alpha_b
about 20, gamma_10 about 2e-4 and gate duration |Omega_a| N t about 160 pi.
For the four-level response on two-photon resonance with gamma_30 = 0, W10
is a Lorentzian in nu_c with |Re W10| <= 1/(nu_c alpha_b^2), so the duration
obeys |Omega_a| N t >= phi alpha_b^2 nu_c with near equality in the
dispersive regime.  The quoted alpha_b and duration therefore fix the
detuning at nu_c = 160 / 20^2 = 0.4, which is the reference the nu_c window
is centred on.  The reference point is also quoted with "nu_c ~ 30"; PAPER.md
holds only the abstract and does not settle whether that figure is a
misprint or uses another unit.  It cannot be met together with the other
windows: alpha_b >= 14 with duration <= 320 pi caps nu_c at about 1.6.  The
duration identity is asserted as its own check, so a reference window that
the identity rules out shows up as a violated identity, not as a silent
mismatch.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from eitgate import (OptimizationConstraints, SweepSpec, SystemParams, design_point,
                     fock_dephasing_bound, max_dephasing, optimal_detuning, steady_chain_rate,
                     sweep, tau_eff, verify_qss, w10)
from eitgate.cli import main
from eitgate.coherent_gate import _two_qubit_budget
from conftest import random_physical_params

PI = math.pi


def _criterion(number, description, checks):
    ok = all(flag for _, flag, _ in checks)
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    for label, flag, detail in checks:
        print(f"    {'ok ' if flag else 'BAD'} {label}: {detail}")
    assert ok, f"criterion {number}: " + "; ".join(
        label for label, flag, _ in checks if not flag)


def _within_factor(value, center, factor):
    return center / factor <= value <= center * factor


def _run_design_cli(tmp_path, *flags):
    out = tmp_path / "design.json"
    start = time.monotonic()
    rc = main(["design", *flags, "--format", "json", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert rc == 0
    return json.loads(out.read_text()), elapsed


def test_criterion_1_design_point_unsuppressed(tmp_path):
    report, elapsed = _run_design_cli(tmp_path, "--delta", "0.2",
                                      "--suppression", "1")
    checks = [
        ("alpha_b in [7, 14]", 7.0 <= report["alpha_b"] <= 14.0,
         f"alpha_b = {report['alpha_b']}"),
        ("nu_c within 2x of 125", _within_factor(report["nu_c_over_omega_a"], 125.0, 2.0),
         f"nu_c = {report['nu_c_over_omega_a']:.4g}"),
        ("gamma_10 within 3x of 6e-7",
         _within_factor(report["gamma_10_over_omega_a"], 6e-7, 3.0),
         f"gamma_10 = {report['gamma_10_over_omega_a']:.4g}"),
        ("time_norm within 2x of 1.25e4 pi",
         _within_factor(report["time_norm"], 1.25e4 * PI, 2.0),
         f"time_norm = {report['time_norm']:.6g} = {report['time_norm'] / PI:.4g} pi"),
        ("runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f} s"),
    ]
    _criterion(1, "two-qubit design point, unsuppressed emission", checks)


def test_criterion_2_design_point_suppressed(tmp_path):
    report, elapsed = _run_design_cli(tmp_path, "--delta", "0.2",
                                      "--suppression", "1e-3")
    lower = report["phi"] * report["alpha_b"] ** 2 * report["nu_c_over_omega_a"]
    checks = [
        ("alpha_b in [14, 28]", 14.0 <= report["alpha_b"] <= 28.0,
         f"alpha_b = {report['alpha_b']}"),
        # nu_c reference = quoted duration / quoted alpha_b^2 = 160 / 20^2 = 0.4
        # (the point is also quoted with "nu_c ~ 30", which no alpha_b in
        # [14, 28] reaches within the duration window; see the module docstring)
        ("nu_c within 2x of 0.4", _within_factor(report["nu_c_over_omega_a"], 0.4, 2.0),
         f"nu_c = {report['nu_c_over_omega_a']:.4g}"),
        ("gamma_10 within 3x of 2e-4",
         _within_factor(report["gamma_10_over_omega_a"], 2e-4, 3.0),
         f"gamma_10 = {report['gamma_10_over_omega_a']:.4g}"),
        ("time_norm within 2x of 160 pi",
         _within_factor(report["time_norm"], 160.0 * PI, 2.0),
         f"time_norm = {report['time_norm']:.6g} = {report['time_norm'] / PI:.4g} pi"),
        ("runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f} s"),
        ("duration identity phi alpha_b^2 nu_c <= time_norm <= 1.01 phi alpha_b^2 nu_c",
         lower <= report["time_norm"] <= 1.01 * lower,
         f"time_norm / (phi alpha_b^2 nu_c) = {report['time_norm'] / lower:.6f}"),
    ]
    _criterion(2, "two-qubit design point, emission suppressed 1000x", checks)


def test_criterion_3_oracle_equivalence(rng):
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        p = random_physical_params(rng)
        rate = steady_chain_rate(p)
        expected = -p.gamma_10 + 1j * w10(p)
        scale = max(abs(expected), 1e-12)
        worst = max(worst, abs(rate - expected) / scale)
    p = SystemParams(omega_a_tilde=0.1, omega_b_tilde=3.0, omega_c_tilde=3.0,
                     n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=30.0,
                     gamma_10=1e-6, gamma_20=1.0, gamma_30=1e-6, gamma_40=1.0)
    report = verify_qss(p, PI / abs(w10(p).real))
    elapsed = time.monotonic() - start
    checks = [
        ("adiabatic-elimination identity <= 1e-10 on 1000 random sets",
         worst <= 1e-10, f"worst relative deviation = {worst:.3e}"),
        ("quasi-steady-state deviation < 1% at omega_a = 0.1 gamma_20",
         report.max_rel_deviation < 0.01,
         f"max_rel_deviation = {report.max_rel_deviation:.3e}"),
        ("runtime < 120 s", elapsed < 120.0, f"{elapsed:.1f} s"),
    ]
    _criterion(3, "steady-chain linear solve pins the response and its signs", checks)


def _golden_argmin(f, lo, hi, iters=80):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(math.exp(x1)), f(math.exp(x2))
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(math.exp(x2))
    return math.exp(0.5 * (a + b))


def test_criterion_4_closed_form_optimum(rng):
    worst = 0.0
    for _ in range(100):
        p = SystemParams(
            omega_a_tilde=rng.uniform(0.1, 1.0),
            omega_b_tilde=rng.uniform(3.0, 30.0),
            omega_c_tilde=rng.uniform(3.0, 30.0),
            n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=1.0,
            gamma_10=10 ** rng.uniform(-8.0, -5.0),
            gamma_20=rng.uniform(0.5, 2.0),
            gamma_30=10 ** rng.uniform(-9.0, -6.0),
            gamma_40=rng.uniform(0.5, 2.0))
        seed = optimal_detuning(p)
        argmin = _golden_argmin(
            lambda v: tau_eff(replace(p, nu_c=v), PI),
            seed / 100.0, seed * 100.0)
        worst = max(worst, abs(argmin - seed) / seed)
    _criterion(4, "numerical argmin of tau_eff matches the closed form", [
        ("relative mismatch < 5% on 100 regime-satisfying sets",
         worst < 0.05, f"worst mismatch = {worst:.3e}"),
    ])


def test_criterion_5_analytic_limits(rng):
    dark = w10(SystemParams(omega_a_tilde=1.0, omega_b_tilde=5.0,
                            omega_c_tilde=0.0, n_a=1, n_c=1,
                            nu_a=0.0, nu_b=0.0, nu_c=7.0,
                            gamma_10=0.0, gamma_20=2.0, gamma_30=0.0,
                            gamma_40=1.0))

    worst_three_level = 0.0
    for _ in range(500):
        p = replace(random_physical_params(rng), omega_c_tilde=0.0)
        d3 = p.nu_a - p.nu_b
        a3 = d3 + 1j * p.gamma_30
        den = (p.nu_a + 1j * p.gamma_20) * a3 - p.omega_b ** 2
        scale = abs((p.nu_a + 1j * p.gamma_20) * a3) + p.omega_b ** 2
        if abs(den) < 1e-4 * scale:
            continue
        reduced = -a3 * p.omega_a ** 2 / den
        if reduced == 0:
            continue
        worst_three_level = max(worst_three_level,
                                abs(w10(p) - reduced) / abs(reduced))

    worst_kerr = 0.0
    for _ in range(200):
        ob = rng.uniform(5.0, 50.0)
        oc = rng.uniform(5.0, 50.0)
        g20, g40 = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        g30 = rng.uniform(0.0, 0.01)
        q_c_sq = g30 * g40 + oc ** 2
        knee = q_c_sq * (g20 + g40 * ob ** 2 / q_c_sq) / ob ** 2
        p = SystemParams(omega_a_tilde=rng.uniform(0.1, 1.0), omega_b_tilde=ob,
                         omega_c_tilde=oc, n_a=1, n_c=1, nu_a=0.0, nu_b=0.0,
                         nu_c=rng.uniform(100.0, 1000.0) * knee,
                         gamma_10=0.0, gamma_20=g20, gamma_30=g30, gamma_40=g40)
        kerr = -(p.omega_a ** 2) * p.omega_c ** 2 / (p.nu_c * p.omega_b ** 2)
        worst_kerr = max(worst_kerr, abs(kerr - w10(p).real) / abs(kerr))

    worst_passivity = 0.0
    for _ in range(2000):
        p = random_physical_params(rng)
        worst_passivity = min(worst_passivity, w10(p).imag)

    _criterion(5, "transparency, three-level reduction, Kerr limit, passivity", [
        ("W10 = 0 at ideal two-photon resonance", dark == 0.0, f"W10 = {dark}"),
        ("three-level reduction identity <= 1e-12",
         worst_three_level <= 1e-12, f"worst = {worst_three_level:.3e}"),
        ("Kerr limit within 5% deep in the dispersive regime",
         worst_kerr < 0.05, f"worst = {worst_kerr:.3e}"),
        ("Im(W10) >= -1e-12 over the random ensemble",
         worst_passivity >= -1e-12, f"most negative = {worst_passivity:.3e}"),
    ])


def test_criterion_6_coherent_spread_scaling():
    p = SystemParams(omega_a_tilde=1.0, omega_b_tilde=1.0, omega_c_tilde=1.0,
                     n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=125.0,
                     gamma_10=0.0, gamma_20=0.0, gamma_30=0.0, gamma_40=0.0)
    scaled = {}
    for alpha in (5.0, 10.0, 20.0, 40.0):
        design = design_point(p, 125.0, alpha, PI)
        budget = _two_qubit_budget(p, design)
        scaled[alpha] = budget.delta_coherent_spread * alpha ** 2
    band = max(scaled.values()) / min(scaled.values())
    vanishing = scaled[40.0] / 40.0 ** 2
    _criterion(6, "finite-amplitude error scales as 1/alpha_b^2 at phi = pi", [
        ("delta_spread * alpha_b^2 constant within 10%", band < 1.10,
         f"band max/min = {band:.4f}; values "
         + ", ".join(f"{a:g}: {v:.4f}" for a, v in scaled.items())),
        ("delta_spread -> 0 as alpha_b grows", vanishing < 0.01,
         f"delta_spread(40) = {vanishing:.2e}"),
    ])


def test_criterion_7_fock_dephasing_bound():
    value = fock_dephasing_bound(0.2, PI, 100)
    expected = (0.2 / PI) ** 2 / 100.0
    rel = abs(value - expected) / expected
    _criterion(7, "Fock-input dephasing estimate evaluates exactly", [
        ("(0.2/pi)^2/100 to 1e-15 relative", rel <= 1e-15,
         f"value = {value:.17e}, relative error = {rel:.1e}"),
        ("documented as a different calculation from criterion 1's optimizer "
         "output (4e-5 Fock estimate vs ~1e-6 coherent-drive inversion)",
         value > 1e-5, "the two quantities are reported side by side, never forced "
         "to agree"),
    ])


def test_criterion_8_monotonicity_audit():
    gammas = tuple(np.geomspace(3e-8, 3e-4, 8))
    spec = SweepSpec(quantity="gamma_10", values=gammas)
    rows = sweep(spec, [OptimizationConstraints(suppression=1.0)])
    deltas = [r.delta_total for r in rows]
    increasing = all(b >= a - 1e-9 for a, b in zip(deltas, deltas[1:]))
    _criterion(8, "optimized error is nondecreasing in the dephasing", [
        ("audit passed over an 8-point log grid (violations raise)",
         increasing and all(r.status == "ok" for r in rows),
         "delta_total = " + ", ".join(f"{d:.4f}" for d in deltas)),
    ])
