import math

import numpy as np
import pytest

from eitgate import (CoherenceVector, InvalidInput, StepSizeUnderflow,
                     SystemParams, integrate, steady_chain_rate, verify_qss, w10)
from eitgate.lindblad_oracle import chain_matrix
from conftest import random_physical_params


def params(**kwargs):
    base = dict(omega_a_tilde=0.1, omega_b_tilde=3.0, omega_c_tilde=3.0,
                n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=30.0,
                gamma_10=1e-6, gamma_20=1.0, gamma_30=1e-6, gamma_40=1.0)
    base.update(kwargs)
    return SystemParams(**base)


def gate_duration(p, phi=math.pi):
    return phi / abs(w10(p).phase_rate)


class TestChainRhs:
    def test_decoupled_decay(self):
        p = params(omega_a_tilde=0.0, gamma_10=0.25)
        dv = chain_matrix(p) @ CoherenceVector(rho_10=0.5).as_array()
        assert dv[0] == -0.25 * 0.5
        assert dv[1] == dv[2] == dv[3] == 0.0

    def test_two_level_norm_conservation(self):
        # no damping, no drive beyond the probe: Rabi oscillation between
        # rho_10 and rho_20 conserves their joint norm on resonance
        p = params(omega_a_tilde=1.0, omega_b_tilde=0.0, omega_c_tilde=0.0,
                   nu_c=0.0, gamma_10=0.0, gamma_20=0.0, gamma_30=0.0,
                   gamma_40=0.0)
        traj = integrate(p, CoherenceVector(rho_10=0.5), t_final=7.0, tol=1e-12)
        norms = np.abs(traj.states[:, 0]) ** 2 + np.abs(traj.states[:, 1]) ** 2
        assert np.allclose(norms, 0.25, rtol=1e-9)
        # it actually oscillates
        assert np.min(np.abs(traj.states[:, 0])) < 0.2

    def test_steady_chain_reproduces_response(self, rng):
        for _ in range(1000):
            p = random_physical_params(rng)
            rate = steady_chain_rate(p)
            expected = -p.gamma_10 + 1j * w10(p).value
            assert rate == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestIntegrate:
    def test_free_decay(self):
        p = params(omega_a_tilde=0.0, gamma_10=0.1)
        traj = integrate(p, CoherenceVector(rho_10=0.5), t_final=20.0, tol=1e-10)
        expected = 0.5 * np.exp(-0.1 * traj.times)
        assert np.allclose(traj.rho_10.real, expected, rtol=1e-8)
        assert np.allclose(traj.rho_10.imag, 0.0, atol=1e-12)

    def test_linearity(self):
        p = params()
        t_final = 50.0
        one = integrate(p, CoherenceVector(rho_10=0.5), t_final, tol=1e-12)
        two = integrate(p, CoherenceVector(rho_10=1.0), t_final, tol=1e-12)
        assert np.allclose(two.states, 2.0 * one.states, rtol=1e-12, atol=0.0)

    def test_zero_start_shortcut(self):
        p = params()
        traj = integrate(p, CoherenceVector(rho_10=0.0), 1.0)
        assert np.all(traj.states == 0.0)

    def test_requested_sample_times(self):
        p = params()
        t_eval = np.array([0.0, 1.0, 2.5, 10.0])
        traj = integrate(p, CoherenceVector(rho_10=0.5), 10.0, t_eval=t_eval)
        assert np.array_equal(traj.times, t_eval)

    def test_invalid_inputs(self):
        p = params()
        with pytest.raises(InvalidInput):
            integrate(p, CoherenceVector(rho_10=0.5), t_final=-1.0)
        with pytest.raises(InvalidInput):
            integrate(p, CoherenceVector(rho_10=0.5), 1.0, tol=0.0)

    def test_step_budget_guard(self):
        p = params(gamma_20=1e12, nu_c=3e13)
        with pytest.raises(StepSizeUnderflow):
            integrate(p, CoherenceVector(rho_10=0.5), t_final=1.0)

    def test_convergence_with_tolerance(self):
        p = params(omega_a_tilde=0.3)
        t_final = gate_duration(p)
        v0 = CoherenceVector(rho_10=0.5)
        t_eval = np.linspace(0.0, t_final, 201)
        reference = integrate(p, v0, t_final, tol=1e-12, t_eval=t_eval)
        errors = []
        for tol in (1e-4, 1e-6, 1e-8):
            traj = integrate(p, v0, t_final, tol=tol, t_eval=t_eval)
            errors.append(np.max(np.abs(traj.rho_10 - reference.rho_10)
                                 / np.abs(reference.rho_10)))
        assert errors[0] >= errors[1] >= errors[2]


class TestVerifyQss:
    def test_dispersive_regime_bound(self):
        p = params(omega_a_tilde=0.1)
        report = verify_qss(p, gate_duration(p), tol=1e-10)
        assert report.max_rel_deviation < 0.01
        assert report.regime_flag == "in"
        assert report.final_magnitude_ratio == pytest.approx(1.0, abs=0.01)

    def test_no_probe_no_deviation(self):
        p = params(omega_a_tilde=0.0)
        report = verify_qss(p, 100.0, tol=1e-10)
        assert report.max_rel_deviation < 1e-8

    def test_strong_probe_recorded_not_asserted(self):
        p = params(omega_a_tilde=1.0)
        report = verify_qss(p, gate_duration(p), tol=1e-8)
        assert math.isfinite(report.max_rel_deviation)
        assert report.regime_flag == "in"     # omega_a == gamma_20 boundary

    def test_transient_window_guard(self):
        p = params()
        with pytest.raises(InvalidInput):
            verify_qss(p, t_final=1.0)        # shorter than 10/gamma_20

    def test_magnitude_non_increasing_after_transient(self):
        p = params(omega_a_tilde=0.1)
        t_final = gate_duration(p)
        traj = integrate(p, CoherenceVector(rho_10=0.5), t_final, tol=1e-10)
        mags = np.abs(traj.rho_10[traj.times > 10.0 / p.gamma_20])
        drops = np.diff(mags)
        assert np.all(drops <= 1e-10)
