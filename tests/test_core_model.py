import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eitgate import (DegenerateDenominator, DivisionByZero, InvalidInput,
                     RegimeWarning, SystemParams, kerr_approximation, w10)
from conftest import cf_denominator_scale, random_physical_params, w10_continued_fraction


def params(**kwargs):
    base = dict(omega_a_tilde=1.0, omega_b_tilde=10.0, omega_c_tilde=10.0,
                n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=10.0,
                gamma_10=0.0, gamma_20=1.0, gamma_30=0.0, gamma_40=1.0)
    base.update(kwargs)
    return SystemParams(**base)


# the worked example used throughout: exact value -5/52 + i/52
EXAMPLE = params()
EXAMPLE_W10 = -5.0 / 52.0 + 1j / 52.0


class TestW10:
    def test_no_probe_photon_gives_zero(self):
        assert w10(params(n_a=0)) == 0.0

    def test_ideal_eit_dark_state(self):
        # two-photon resonance, no gamma_30, no signal field: full transparency
        p = params(omega_c_tilde=0.0, nu_c=0.0)
        assert w10(p) == 0.0

    def test_worked_example_value(self):
        w = w10(EXAMPLE)
        assert w == pytest.approx(EXAMPLE_W10, rel=1e-14)
        # leading-order Kerr estimate of the phase rate
        assert w.real == pytest.approx(-0.1, rel=0.05)
        assert w.imag > 0

    def test_matches_continued_fraction_at_example(self):
        assert w10(EXAMPLE) == pytest.approx(
            w10_continued_fraction(EXAMPLE), rel=1e-12)

    def test_degenerate_denominator(self):
        p = params(omega_b_tilde=0.0, omega_c_tilde=0.0, nu_c=0.0,
                   gamma_20=0.0, gamma_40=0.0)
        with pytest.raises(DegenerateDenominator):
            w10(p)


class TestEnsembleInvariants:
    def test_form_equivalence_10k(self, rng):
        for _ in range(10_000):
            p = random_physical_params(rng)
            a = w10(p)
            b = w10_continued_fraction(p)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-300)

    def test_passivity(self, rng):
        for _ in range(2_000):
            p = random_physical_params(rng)
            assert w10(p).imag >= -1e-12

    @settings(max_examples=200, deadline=None)
    @given(amps=st.tuples(*[st.floats(0.0, 100.0)] * 3),
           detunings=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
           rates=st.tuples(*[st.floats(0.0, 10.0)] * 4))
    def test_passivity_property(self, amps, detunings, rates):
        # W10 = i |Omega_a|^2 / z with Re z >= 0 for nonnegative rates; where
        # Re z is exactly 0 the closed form may round below 0, by at most a few
        # eps |W10| times the cancellation factor of its denominator
        p = params(omega_a_tilde=amps[0], omega_b_tilde=amps[1], omega_c_tilde=amps[2],
                   nu_a=detunings[0], nu_b=detunings[1], nu_c=detunings[2],
                   gamma_10=rates[0], gamma_20=rates[1], gamma_30=rates[2],
                   gamma_40=rates[3])
        den, scale = cf_denominator_scale(p)
        assume(scale > 0 and den > 1e-4 * scale)
        w = w10(p)
        assert w.imag >= -8 * np.finfo(float).eps * abs(w) * scale / den

    def test_three_level_reduction(self, rng):
        for _ in range(500):
            p = replace(random_physical_params(rng), omega_c_tilde=0.0)
            d3 = p.nu_a - p.nu_b
            a3 = d3 + 1j * p.gamma_30
            den = (p.nu_a + 1j * p.gamma_20) * a3 - p.omega_b ** 2
            if abs(den) < 1e-4 * (abs((p.nu_a + 1j * p.gamma_20) * a3) + p.omega_b ** 2):
                continue
            reduced = -a3 * p.omega_a ** 2 / den
            assert w10(p) == pytest.approx(reduced, rel=1e-12, abs=1e-300)

    def test_scaling_covariance_exact_for_pow2(self, rng):
        for s in (2.0, 0.5, 1024.0):
            for _ in range(200):
                p = random_physical_params(rng)
                scaled = SystemParams(
                    omega_a_tilde=s * p.omega_a_tilde, omega_b_tilde=s * p.omega_b_tilde,
                    omega_c_tilde=s * p.omega_c_tilde, n_a=p.n_a, n_c=p.n_c,
                    nu_a=s * p.nu_a, nu_b=s * p.nu_b, nu_c=s * p.nu_c,
                    gamma_10=s * p.gamma_10, gamma_20=s * p.gamma_20,
                    gamma_30=s * p.gamma_30, gamma_40=s * p.gamma_40)
                assert w10(scaled) == s * w10(p)

    def test_scaling_covariance_generic_factor(self, rng):
        s = 3.0
        for _ in range(200):
            p = random_physical_params(rng)
            scaled = SystemParams(
                omega_a_tilde=s * p.omega_a_tilde, omega_b_tilde=s * p.omega_b_tilde,
                omega_c_tilde=s * p.omega_c_tilde, n_a=p.n_a, n_c=p.n_c,
                nu_a=s * p.nu_a, nu_b=s * p.nu_b, nu_c=s * p.nu_c,
                gamma_10=s * p.gamma_10, gamma_20=s * p.gamma_20,
                gamma_30=s * p.gamma_30, gamma_40=s * p.gamma_40)
            assert w10(scaled) == pytest.approx(s * w10(p), rel=5e-15)


class TestKerrApproximation:
    def test_direct_arithmetic(self):
        assert kerr_approximation(EXAMPLE) == -0.1

    def test_no_probe_photon(self):
        assert kerr_approximation(params(n_a=0)) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            kerr_approximation(params(nu_c=0.0))
        with pytest.raises(DivisionByZero):
            kerr_approximation(params(omega_b_tilde=0.0))

    def test_dispersive_agreement(self, rng):
        count = 0
        while count < 200:
            ob = rng.uniform(5.0, 50.0)
            oc = rng.uniform(5.0, 50.0)
            g20 = rng.uniform(0.1, 1.0)
            g40 = rng.uniform(0.1, 1.0)
            g30 = rng.uniform(0.0, 0.01)
            q_c_sq = g30 * g40 + oc ** 2
            knee = q_c_sq * (g20 + g40 * ob ** 2 / q_c_sq) / ob ** 2
            p = SystemParams(
                omega_a_tilde=rng.uniform(0.1, 1.0), omega_b_tilde=ob,
                omega_c_tilde=oc, n_a=1, n_c=1, nu_a=0.0, nu_b=0.0,
                nu_c=rng.uniform(100.0, 1000.0) * knee,
                gamma_10=0.0, gamma_20=g20, gamma_30=g30, gamma_40=g40)
            assert kerr_approximation(p) == pytest.approx(w10(p).real, rel=0.05)
            count += 1


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidInput):
            params(gamma_20=-1.0)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(InvalidInput):
            params(n_a=-1)

    def test_non_finite_rejected(self):
        for field in ("gamma_10", "nu_c", "omega_b_tilde"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidInput, match=field):
                    params(**{field: bad})

    def test_metastability_warning(self):
        with pytest.warns(RegimeWarning):
            params(gamma_30=5.0, gamma_20=1.0)
