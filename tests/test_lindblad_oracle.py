import math

import numpy as np
import pytest
from scipy.linalg import expm

from eitgate import (InvalidInput, NearExceptionalPoint, SystemParams, integrate,
                     steady_chain_rate, verify_qss, w10)
from eitgate.lindblad_oracle import MAX_EIGEN_COND, chain_matrix
from conftest import random_physical_params

START = np.array([0.5, 0.0, 0.0, 0.0])
EIGEN_ACCURACY = 1e-9       # integrate's documented bound, per unit (1 + ||A|| t) |y0|


def params(**kwargs):
    base = dict(omega_a_tilde=0.1, omega_b_tilde=3.0, omega_c_tilde=3.0,
                n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=30.0,
                gamma_10=1e-6, gamma_20=1.0, gamma_30=1e-6, gamma_40=1.0)
    base.update(kwargs)
    return SystemParams(**base)


def gate_duration(p, phi=math.pi):
    return phi / abs(w10(p).real)


def scaled_error(p, y0, times):
    """Largest |integrate - expm| over times, in units of (1 + ||A|| t) |y0|."""
    a = chain_matrix(p)
    states = integrate(p, y0, times)
    exact = np.array([expm(a * t) @ y0 for t in times])
    err = np.linalg.norm(states - exact, axis=1)
    return float(np.max(err / ((1.0 + np.linalg.norm(a, 2) * times)
                               * np.linalg.norm(y0))))


class TestChainRhs:
    def test_decoupled_decay(self):
        p = params(omega_a_tilde=0.0, gamma_10=0.25)
        dv = chain_matrix(p) @ START
        assert dv[0] == -0.25 * 0.5
        assert dv[1] == dv[2] == dv[3] == 0.0

    def test_two_level_norm_conservation(self):
        # no damping, no drive beyond the probe: Rabi oscillation between
        # rho_10 and rho_20 conserves their joint norm on resonance
        p = params(omega_a_tilde=1.0, omega_b_tilde=0.0, omega_c_tilde=0.0,
                   nu_c=0.0, gamma_10=0.0, gamma_20=0.0, gamma_30=0.0,
                   gamma_40=0.0)
        states = integrate(p, START, np.linspace(0.0, 7.0, 801))
        norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
        assert np.allclose(norms, 0.25, rtol=1e-12)
        # it actually oscillates
        assert np.min(np.abs(states[:, 0])) < 0.2

    def test_steady_chain_reproduces_response(self, rng):
        for _ in range(1000):
            p = random_physical_params(rng)
            rate = steady_chain_rate(p)
            expected = -p.gamma_10 + 1j * w10(p)
            assert rate == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestIntegrate:
    def test_free_decay(self):
        p = params(omega_a_tilde=0.0, gamma_10=0.1)
        times = np.linspace(0.0, 20.0, 801)
        rho_10 = integrate(p, START, times)[:, 0]
        expected = 0.5 * np.exp(-0.1 * times)
        assert np.allclose(rho_10.real, expected, rtol=1e-12)
        assert np.allclose(rho_10.imag, 0.0, atol=1e-15)

    def test_linearity(self):
        p = params()
        times = np.linspace(0.0, 50.0, 801)
        one = integrate(p, START, times)
        two = integrate(p, 2.0 * START, times)
        assert np.allclose(two, 2.0 * one, rtol=1e-12, atol=0.0)

    def test_zero_start_shortcut(self):
        p = params()
        states = integrate(p, np.zeros(4), np.linspace(0.0, 1.0, 801))
        assert np.all(states == 0.0)

    def test_requested_sample_times(self):
        p = params()
        states = integrate(p, START, np.array([0.0, 1.0, 2.5, 10.0]))
        assert np.allclose(states[0], START, rtol=0.0, atol=1e-15)

    def test_invalid_inputs(self):
        p = params()
        with pytest.raises(InvalidInput):
            integrate(p, START, np.array([-1.0]))
        with pytest.raises(InvalidInput):
            integrate(p, START, np.array([0.0, 2.0, -0.5]))

    def test_matches_expm_on_random_ensemble(self, rng):
        y0 = np.array([0.5, 0.1j, 0.0, -0.2])
        times = np.array([0.0, 0.01, 0.1, 1.0, 10.0])
        for _ in range(200):
            assert scaled_error(random_physical_params(rng), y0, times) <= EIGEN_ACCURACY

    @pytest.mark.parametrize("gamma_10", [0.0, 0.3])
    def test_exceptional_point_bound_or_refusal(self, gamma_10):
        # the two-level block coalesces at |Omega_a| = (gamma_20 - gamma_10) / 2
        times = np.linspace(0.0, 20.0, 41)
        refused = 0
        for k in range(1, 17):
            for sign in (1.0, -1.0):
                p = params(omega_a_tilde=(1.0 - gamma_10) / 2.0 + sign * 10.0 ** -k,
                           omega_b_tilde=0.0, omega_c_tilde=0.0, nu_c=0.0,
                           gamma_10=gamma_10, gamma_30=0.0, gamma_40=0.0)
                try:
                    assert scaled_error(p, START, times) <= EIGEN_ACCURACY
                except NearExceptionalPoint as exc:
                    assert f"{MAX_EIGEN_COND:.0e}" in str(exc)
                    refused += 1
        assert 0 < refused < 32


class TestVerifyQss:
    def test_dispersive_regime_bound(self):
        p = params(omega_a_tilde=0.1)
        report = verify_qss(p, gate_duration(p))
        assert report.max_rel_deviation < 0.01
        assert report.regime_flag == "in"
        assert report.final_magnitude_ratio == pytest.approx(1.0, abs=0.01)

    def test_no_probe_no_deviation(self):
        p = params(omega_a_tilde=0.0)
        report = verify_qss(p, 100.0)
        assert report.max_rel_deviation < 1e-8

    def test_strong_probe_recorded_not_asserted(self):
        p = params(omega_a_tilde=1.0)
        report = verify_qss(p, gate_duration(p))
        assert math.isfinite(report.max_rel_deviation)
        assert report.regime_flag == "in"     # omega_a == gamma_20 boundary

    def test_transient_window_guard(self):
        p = params()
        with pytest.raises(InvalidInput):
            verify_qss(p, t_final=1.0)        # shorter than 10/gamma_20
        with pytest.raises(InvalidInput):
            verify_qss(params(gamma_20=0.0), t_final=0.0)   # no window, nothing solved

    def test_underflowed_reference_refused(self):
        # check-oracle's 0.1 gamma_20 point in a stiff unit system
        p = params(omega_a_tilde=1e11, gamma_20=1e12, gamma_10=1.0, nu_c=3e13)
        with pytest.raises(InvalidInput, match="underflows"):
            verify_qss(p, t_final=1.0)

    def test_magnitude_non_increasing_after_transient(self):
        p = params(omega_a_tilde=0.1)
        times = np.linspace(0.0, gate_duration(p), 801)
        rho_10 = integrate(p, START, times)[:, 0]
        mags = np.abs(rho_10[times > 10.0 / p.gamma_20])
        drops = np.diff(mags)
        assert np.all(drops <= 1e-10)
