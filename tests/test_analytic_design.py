import math
from dataclasses import replace

import numpy as np
import pytest

from eitgate import (DegenerateParams, DivisionByZero, GateDesign, InvalidInput,
                     OptimizationConstraints, RegimeWarning, SystemParams, ZeroPhaseRate,
                     asymptotic_design, aux_factors, decoherence_error,
                     fock_dephasing_bound, gate_time, kerr_approximation,
                     optimal_detuning, tau_eff, tau_eff_at_optimum, w10)
from eitgate.cli import EvalOptions
from conftest import w10_continued_fraction

PI = math.pi


def params(**kwargs):
    base = dict(omega_a_tilde=1.0, omega_b_tilde=10.0, omega_c_tilde=10.0,
                n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=10.0,
                gamma_10=1e-6, gamma_20=1.0, gamma_30=0.0, gamma_40=1.0)
    base.update(kwargs)
    return SystemParams(**base)


def golden_argmin(f, lo, hi, iters=80):
    """Independent golden-section argmin on a log axis."""
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


class TestAuxFactors:
    def test_dephasing_free_reduction(self):
        f = aux_factors(params(gamma_30=0.0))
        assert f.q_b_sq == 100.0
        assert f.q_c_sq == 100.0
        assert f.gamma_10_tilde == params().gamma_10

    def test_suppressed_emission_limit(self):
        f = aux_factors(params(gamma_40=0.0))
        assert f.gamma_20_tilde == 1.0

    def test_direct_arithmetic(self):
        p = params(gamma_20=1.0, gamma_30=0.01, gamma_40=1.0, gamma_10=2e-4)
        f = aux_factors(p)
        assert f.q_b_sq == pytest.approx(100.01, rel=1e-15)
        assert f.q_c_sq == pytest.approx(100.01, rel=1e-15)
        assert f.gamma_10_tilde == pytest.approx(2e-4 + 0.01 / 100.01, rel=1e-14)
        assert f.gamma_20_tilde == pytest.approx(1.0 + 100.0 / 100.01, rel=1e-14)

    def test_ordering_invariants(self, rng):
        from conftest import random_physical_params
        for _ in range(300):
            p = random_physical_params(rng)
            if p.gamma_20 * p.gamma_30 + p.omega_b ** 2 == 0:
                continue
            if p.gamma_30 * p.gamma_40 + p.omega_c ** 2 == 0:
                continue
            f = aux_factors(p)
            assert f.q_b_sq >= p.omega_b ** 2
            assert f.q_c_sq >= p.omega_c ** 2
            assert f.gamma_10_tilde >= p.gamma_10
            assert f.gamma_20_tilde >= p.gamma_20

    def test_degenerate(self):
        with pytest.raises(DegenerateParams):
            aux_factors(params(omega_b_tilde=0.0, gamma_30=0.0))


class TestTauEff:
    def test_lossless_limit(self):
        # gamma_10 = 0 and Im(W10) = 0: pure real response, no exposure
        p = params(gamma_10=0.0, gamma_20=0.0, gamma_40=0.0)
        assert w10(p).imag == 0.0
        assert tau_eff(p, PI) == 0.0

    def test_linearity_in_phi(self):
        p = params()
        assert tau_eff(p, 2.0) == pytest.approx(
            2.0 * tau_eff(p, 1.0), rel=1e-14)

    def test_value_from_response_oracle(self):
        p = params()
        w = w10_continued_fraction(p)
        expected = -(p.gamma_10 + w.imag) / w.real * PI
        assert tau_eff(p, PI) == pytest.approx(expected, rel=1e-12)
        assert tau_eff(p, PI) > 0

    def test_zero_phase_rate(self):
        with pytest.raises(ZeroPhaseRate):
            tau_eff(params(nu_c=0.0), PI)


class TestOptimalDetuning:
    def test_diverges_without_dephasing(self):
        with pytest.raises(DegenerateParams):
            optimal_detuning(params(gamma_10=0.0, gamma_30=0.0))

    def test_inverse_sqrt_scaling(self):
        full = optimal_detuning(params(gamma_10=2e-6))
        half = optimal_detuning(params(gamma_10=1e-6))
        assert half == pytest.approx(math.sqrt(2.0) * full, rel=1e-6)

    def test_closed_form_value(self):
        # gamma_20_tilde = 2, so nu_c* = sqrt(2 (2e-6 + 1) / 1e-6)
        expected = math.sqrt(2.0 * (1e-6 * 2.0 + 1.0) / 1e-6)
        assert optimal_detuning(params()) == pytest.approx(expected, rel=1e-14)

    def test_matches_numerical_argmin(self):
        p = params()
        seed = optimal_detuning(p)
        argmin = golden_argmin(lambda v: tau_eff(replace(p, nu_c=v), PI),
                               seed / 100.0, seed * 100.0)
        assert abs(argmin - seed) / seed < 0.05

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            optimal_detuning(params(gamma_10=0.5))


class TestTauEffAtOptimum:
    def test_algebraic_reduction(self):
        # gamma_30 = gamma_40 = 0 and gamma_10 gamma_20 << |Omega_a|^2:
        # reduces to 2 sqrt(gamma_10 gamma_20) phi / |Omega_a| up to the
        # neglected gamma_10 gamma_20 term
        p = params(gamma_40=0.0)
        expected = 2.0 * math.sqrt(1e-6 * 1.0) * PI
        assert tau_eff_at_optimum(p, PI) == pytest.approx(expected, rel=1e-5)

    def test_zero_phase(self):
        # the formulas take any phase; the records a phase enters through
        # check it (TestPhaseEntryPoints)
        assert tau_eff_at_optimum(params(), 0.0) == 0.0

    def test_consistency_with_tau_eff(self):
        p = params()
        at_opt = tau_eff(replace(p, nu_c=optimal_detuning(p)), PI)
        assert tau_eff_at_optimum(p, PI) == pytest.approx(at_opt, rel=0.05)

    def test_minimum_property(self, rng):
        p = params()
        floor = tau_eff_at_optimum(p, PI)
        for _ in range(50):
            nu = math.exp(rng.uniform(math.log(10.0), math.log(1e5)))
            assert floor <= tau_eff(replace(p, nu_c=nu), PI) * 1.05

    def test_zero_amplitude(self):
        with pytest.raises(DivisionByZero):
            tau_eff_at_optimum(params(omega_c_tilde=0.0), PI)


class TestAsymptoticDesign:
    def test_agreement_with_full_forms(self):
        p = params(omega_b_tilde=30.0, omega_c_tilde=30.0)
        nu, tau = asymptotic_design(p, PI)
        assert nu == pytest.approx(optimal_detuning(p), rel=0.10)
        assert tau == pytest.approx(tau_eff_at_optimum(p, PI), rel=0.10)

    def test_ratio_cancellation(self):
        p = params()
        f = aux_factors(p)
        nu, _ = asymptotic_design(p, PI)
        assert nu == pytest.approx(
            math.sqrt(f.gamma_20_tilde / f.gamma_10_tilde), rel=1e-12)

    def test_sqrt_scalings(self):
        p = params()
        nu1, tau1 = asymptotic_design(p, PI)
        nu2, tau2 = asymptotic_design(replace(p, gamma_10=4e-6), PI)
        assert nu2 == pytest.approx(nu1 / 2.0, rel=1e-3)
        assert tau2 == pytest.approx(2.0 * tau1, rel=1e-3)

    def test_out_of_regime_warns(self):
        with pytest.warns(RegimeWarning):
            asymptotic_design(params(omega_b_tilde=1.0, omega_c_tilde=1.0),
                              PI)


class TestFockDephasingBound:
    def test_reference_value(self):
        value = fock_dephasing_bound(0.2, PI, 100)
        assert value == pytest.approx((0.2 / PI) ** 2 / 100.0, rel=1e-15)

    def test_quadratic_in_delta(self):
        assert fock_dephasing_bound(0.4, PI, 100) == pytest.approx(
            4.0 * fock_dephasing_bound(0.2, PI, 100), rel=1e-14)

    def test_inverse_in_n(self):
        assert fock_dephasing_bound(0.2, PI, 200) == pytest.approx(
            fock_dephasing_bound(0.2, PI, 100) / 2.0, rel=1e-14)

    def test_joint_scale_invariance(self):
        a = fock_dephasing_bound(0.2, 1.0, 50)
        b = fock_dephasing_bound(0.6, 3.0, 50)
        assert a == pytest.approx(b, rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            fock_dephasing_bound(-0.1, PI, 100)
        with pytest.raises(InvalidInput):
            fock_dephasing_bound(0.2, PI, 0)


class TestDecoherenceError:
    def test_zero_exposure(self):
        assert decoherence_error(0.0) == 0.0

    def test_saturation(self):
        assert decoherence_error(60.0, 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_reference_value(self):
        assert decoherence_error(0.1, 0.5) == pytest.approx(
            (1.0 - math.exp(-0.2)) / 4.0, rel=1e-14)

    def test_monotone_and_bounded(self):
        taus = np.linspace(0.0, 5.0, 50)
        vals = [decoherence_error(t, 0.5) for t in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v <= 0.25 for v in vals)

    def test_small_tau_slope(self):
        assert decoherence_error(1e-4, 0.5) == pytest.approx(0.5e-4, rel=1e-3)

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            decoherence_error(-1.0)
        with pytest.raises(InvalidInput):
            decoherence_error(0.1, 0.8)


class TestGateTime:
    def test_zero_phase(self):
        assert gate_time(params(), 0.0) == 0.0

    def test_kerr_regime_value(self):
        p = params()
        t = gate_time(p, PI)
        assert t == pytest.approx(PI / 0.1, rel=0.05)          # Kerr estimate
        assert t == pytest.approx(-PI / w10(p).real, rel=1e-14)

    def test_kerr_refinement(self):
        p = params()
        exact = gate_time(p, PI)
        assert exact == pytest.approx(-PI / kerr_approximation(p), rel=0.05)

    def test_zero_phase_rate(self):
        with pytest.raises(ZeroPhaseRate):
            gate_time(params(nu_c=0.0), PI)


@pytest.mark.parametrize("record, fields", [
    (GateDesign, dict(nu_c=1.0, alpha_b=1.0, time_norm=1.0)),
    (OptimizationConstraints, {}),
    (EvalOptions, {}),
], ids=["GateDesign", "OptimizationConstraints", "EvalOptions"])
class TestPhaseEntryPoints:
    """A target phase enters through these records, which check it once."""

    def test_above_two_pi_warns_once_at_the_caller(self, record, fields):
        with pytest.warns(RegimeWarning) as caught:
            record(phi=7.0, **fields)
        assert len(caught) == 1
        assert caught[0].filename == __file__       # the caller, not the generated __init__

    @pytest.mark.parametrize("phi", [0.0, -1.0])
    def test_not_positive_raises(self, record, fields, phi):
        with pytest.raises(InvalidInput):
            record(phi=phi, **fields)
