"""High-precision references for the fast double-precision paths.

Each reference is evaluated with mpmath at 30 significant digits, from the
continued-fraction form of W10 (a different grouping from the closed form
that `core_model._w10_terms` evaluates) and Poisson weights from
exp(-mu) mu^n / n!, so it shares no code with the path under test.
"""

from dataclasses import replace

import mpmath as mp
import pytest

from eitgate import OptimizationConstraints, base_params, design_point, optimal_detuning
from eitgate.coherent_gate import _poisson_window, _two_qubit_budget

DIGITS = 30
FIELDS = ("delta_total", "delta_decoherence", "delta_coherent_spread")


def w10_mp(p, nu_c, omega_b_sq):
    """i|Omega_a|^2 / [x2 + |Omega_b|^2 / (x3 + |Omega_c|^2 / x4)] in mpmath."""
    d3 = mp.mpf(p.nu_a) - mp.mpf(p.nu_b)
    x2 = mp.mpf(p.gamma_20) - 1j * mp.mpf(p.nu_a)
    x3 = mp.mpf(p.gamma_30) - 1j * d3
    x4 = mp.mpf(p.gamma_40) - 1j * (d3 + mp.mpf(nu_c))
    omega_c_sq = mp.mpf(p.omega_c_tilde) ** 2 * p.n_c
    omega_a_sq = mp.mpf(p.omega_a_tilde) ** 2 * p.n_a
    return 1j * omega_a_sq / (x2 + omega_b_sq / (x3 + omega_c_sq / x4))


def two_qubit_reference(p, nu_c, alpha_b, phi, fock):
    """Budget fields of the Poisson-weighted sum over the Fock states in fock.

    The time is calibrated at the mean component as in design_point; the
    sums are normalized by the weight they capture.
    """
    mu = mp.mpf(alpha_b) ** 2
    omega_b_sq = mp.mpf(p.omega_b_tilde) ** 2
    omega_a = mp.mpf(p.omega_a_tilde) * mp.sqrt(p.n_a)
    time_norm = -mp.mpf(phi) * omega_a / mp.re(w10_mp(p, nu_c, omega_b_sq * mu))
    nt = time_norm / omega_a
    full, spread, damp, mass = mp.mpc(0), mp.mpc(0), mp.mpf(0), mp.mpf(0)
    for n in fock:
        weight = mp.exp(-mu + n * mp.log(mu) - mp.loggamma(n + 1))
        w = w10_mp(p, nu_c, omega_b_sq * n)
        phase = -mp.re(w) * nt
        tau = (mp.mpf(p.gamma_10) + mp.im(w)) * nt
        full += weight * mp.exp(-1j * phase - tau)
        spread += weight * mp.exp(-1j * phase)
        damp += weight * mp.exp(-tau)
        mass += weight
    return time_norm, {"delta_total": 1 - abs(full / mass) ** 2,
                       "delta_decoherence": 1 - (damp / mass) ** 2,
                       "delta_coherent_spread": 1 - abs(spread / mass) ** 2}


class TestTwoQubitBudget:
    """alpha_b 12, gamma_10 1e-6, suppression 1, nu_c at the closed-form optimum."""

    @pytest.fixture(scope="class")
    def point(self):
        cs = OptimizationConstraints(suppression=1.0)
        p = base_params(cs, 1e-6)
        alpha = 12.0
        nu = optimal_detuning(replace(p, omega_b_tilde=p.omega_b_tilde * alpha))
        design = design_point(p, nu, alpha, cs.phi)
        return p, design, _two_qubit_budget(p, design)

    def test_against_the_full_poisson_sum(self, point):
        p, design, budget = point
        _, _, missing = _poisson_window(design.alpha_b ** 2)
        with mp.workdps(DIGITS):
            # every Fock state up to where the weights fall below 1e-40
            mu = design.alpha_b ** 2
            top = next(n for n in range(int(mu), 10 * int(mu))
                       if mp.exp(-mu + n * mp.log(mu) - mp.loggamma(n + 1)) < 1e-40)
            time_norm, ref = two_qubit_reference(p, design.nu_c, design.alpha_b,
                                                 design.phi, range(top + 1))
        assert design.time_norm == pytest.approx(float(time_norm), rel=1e-13)
        # the window leaves out `missing` of the Poisson mass and is
        # normalized by the rest; that moves |sum| by at most 2 missing and
        # 1 - |sum|^2 by at most 4 missing
        for field in FIELDS:
            assert abs(getattr(budget, field) - float(ref[field])) <= 4 * missing, field

    def test_against_the_same_window(self, point):
        # over the window the double-precision path sums, only rounding is left
        p, design, budget = point
        nb, _, _ = _poisson_window(design.alpha_b ** 2)
        with mp.workdps(DIGITS):
            _, ref = two_qubit_reference(p, design.nu_c, design.alpha_b, design.phi,
                                         (int(n) for n in nb))
        for field in FIELDS:
            assert getattr(budget, field) == pytest.approx(float(ref[field]), rel=0,
                                                           abs=1e-13), field
