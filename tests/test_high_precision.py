"""High-precision references for the fast double-precision paths.

Each reference is evaluated with mpmath at 30 significant digits, from the
continued-fraction form of W10 (a different grouping from the closed form
that `core_model._w10_terms` evaluates) and Poisson weights from
exp(-mu) mu^n / n!, so it shares no code with the path under test.  The
oracle's propagator is checked against mpmath's matrix exponential at 40
digits.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from eitgate import (DegenerateDenominator, OptimizationConstraints, SystemParams,
                     base_params, design_point, gate_time, optimal_detuning, w10)
from eitgate.core_model import EPS_DEN, _w10_terms
from eitgate.coherent_gate import (_one_qubit_budget, _poisson_window, _quadrature_budget,
                                   _two_qubit_budget)
from eitgate.design_optimizer import _one_qubit_dec_limit
from eitgate.lindblad_oracle import chain_matrix, integrate

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


def one_qubit_reference(p, design, cut):
    """Budget fields of the Poisson double sum over every (n_b, n_c) whose
    weight on each axis is at least cut, normalized by the weight captured.

    The time is calibrated at the mean component as in design_point.  The
    response at n_c = 0 is 0, its limit as |Omega_c| -> 0: with gamma_30 = 0
    the continued fraction is 0/0 there.
    """
    def weights(mu):
        out = []
        for n in range(10 * int(mu) + 30):
            w = mp.exp(-mu + n * mp.log(mu) - mp.loggamma(n + 1))
            if n > mu and w < cut:
                return out
            out.append(w)
        raise AssertionError("weights did not fall below the cut")

    d3 = mp.mpf(p.nu_a) - mp.mpf(p.nu_b)
    x2 = mp.mpf(p.gamma_20) - 1j * mp.mpf(p.nu_a)
    x3 = mp.mpf(p.gamma_30) - 1j * d3
    x4 = mp.mpf(p.gamma_40) - 1j * (d3 + mp.mpf(design.nu_c))
    ia = 1j * mp.mpf(p.omega_a_tilde) ** 2
    b_sq, c_sq = mp.mpf(p.omega_b_tilde) ** 2, mp.mpf(p.omega_c_tilde) ** 2
    mu_b, mu_c = mp.mpf(design.alpha_b) ** 2, mp.mpf(design.alpha_c) ** 2
    nt = -mp.mpf(design.phi) / mp.re(ia / (x2 + b_sq * mu_b / (x3 + c_sq * mu_c / x4)))
    gamma_10 = mp.mpf(p.gamma_10)
    wb, wc = weights(mu_b), weights(mu_c)
    full, spread, damp = mp.mpc(0), mp.mpc(0), mp.mpf(0)
    for n_c, pc in enumerate(wc):
        per_b = b_sq / (x3 + c_sq * n_c / x4) if n_c else None
        row_full, row_spread, row_damp = mp.mpc(0), mp.mpc(0), mp.mpf(0)
        for n_b, pb in enumerate(wb):
            w = ia / (x2 + n_b * per_b) if n_c else mp.mpc(0)
            turn = pb * mp.expj(mp.re(w) * nt)
            decay = mp.exp(-(gamma_10 + mp.im(w)) * nt)
            row_full += turn * decay
            row_spread += turn
            row_damp += pb * decay
        full += pc * row_full
        spread += pc * row_spread
        damp += pc * row_damp
    mass = mp.fsum(wb) * mp.fsum(wc)
    return {"delta_total": 1 - abs(full / mass) ** 2,
            "delta_decoherence": 1 - (damp / mass) ** 2,
            "delta_coherent_spread": 1 - abs(spread / mass) ** 2}


def test_one_qubit_quadrature_against_the_double_sum():
    # alpha_b 6.5 and alpha_c 4.9 keep the sum near 8,000 terms; mode c sits
    # just above the vacuum guard and the Gauss-Charlier ladder converges
    alpha_b, alpha_c = 6.5, 4.9
    cs = OptimizationConstraints(mode="one-qubit", alpha_c_over_alpha_b=alpha_c / alpha_b)
    p = base_params(cs, 1e-6)
    nu, _ = _one_qubit_dec_limit(1e-6, cs)
    design = design_point(p, nu, alpha_b, cs.phi, alpha_c=alpha_c)
    rule = _quadrature_budget(replace(p, nu_c=nu, n_c=1), design.time_norm,
                              alpha_b ** 2, alpha_c ** 2)
    budget = _one_qubit_budget(p, design)
    assert rule is not None and budget == rule
    with mp.workdps(DIGITS):
        ref = one_qubit_reference(p, design, mp.mpf("1e-17"))
    # measured: 6e-16 at most; the ladder accepts an order that moved no
    # field by more than EPS_TRUNC from the one before
    for field in FIELDS:
        assert getattr(budget, field) == pytest.approx(float(ref[field]), rel=0,
                                                       abs=1e-12), field


# A lossless chain (all widths 0) whose denominator
# nu_a (d3 d4 - |Omega_c|^2) - d4 |Omega_b|^2 vanishes at one real |Omega_b|.
LOSSLESS = dict(omega_a_tilde=1.0, omega_c_tilde=1.0, n_a=1, n_c=1, nu_a=1.0, nu_b=0.3,
                nu_c=2.0, gamma_10=0.0, gamma_20=0.0, gamma_30=0.0, gamma_40=0.0)


def degeneracy(p):
    """|denominator| / scale of W10, the ratio that EPS_DEN bounds, in mpmath."""
    d3 = mp.mpf(p.nu_a) - mp.mpf(p.nu_b)
    d4 = d3 + mp.mpf(p.nu_c)
    a2_bracket = mp.mpf(p.nu_a) * (d3 * d4 - mp.mpf(p.omega_c_tilde) ** 2)
    b_term = d4 * mp.mpf(p.omega_b_tilde) ** 2
    return abs(a2_bracket - b_term) / (abs(a2_bracket) + abs(b_term))


def test_w10_near_the_degeneracy_threshold():
    # drive amplitudes whose exact ratio lies on either side of EPS_DEN
    # (1e-12), from 1e-14 to 1e-6, approached from above and below the root
    with mp.workdps(DIGITS):
        p = SystemParams(omega_b_tilde=1.0, **LOSSLESS)
        d3 = mp.mpf(p.nu_a) - mp.mpf(p.nu_b)
        d4 = d3 + mp.mpf(p.nu_c)
        root = mp.sqrt(mp.mpf(p.nu_a) * (d3 * d4 - 1) / d4)
        points = [SystemParams(omega_b_tilde=float(root * mp.sqrt(1 + 2 * sign * r)),
                               **LOSSLESS)
                  for r in (1e-14, 0.5 * EPS_DEN, 0.99 * EPS_DEN, 1.01 * EPS_DEN,
                            2 * EPS_DEN, 1e-10, 1e-8, 1e-6) for sign in (1, -1)]
        ratios = [degeneracy(p) for p in points]
        for p, ratio in zip(points, ratios):
            # the double-precision ratio is off by a few eps, far inside 0.1%
            assert abs(ratio / EPS_DEN - 1) > 1e-3
            if ratio < EPS_DEN:
                with pytest.raises(DegenerateDenominator):
                    w10(p)
                continue
            ref = w10_mp(p, p.nu_c, mp.mpf(p.omega_b_tilde) ** 2)
            # the denominator's rounding, a few eps of its scale, over its size;
            # measured: at most 0.7 eps / ratio
            err = abs(mp.mpc(w10(p)) - ref) / abs(ref)
            assert err <= 4 * np.finfo(float).eps / ratio, float(ratio)
    degenerate = [ratio < EPS_DEN for ratio in ratios]
    assert degenerate.count(True) == 6
    # the array path flags the same points as the scalar one
    omega_b = np.array([p.omega_b_tilde for p in points])
    _, _, flags = _w10_terms(points[0], omega_b ** 2, points[0].omega_c ** 2)
    assert list(flags) == degenerate


def test_oracle_propagator_at_the_hard_point():
    # check-oracle's 0.1 gamma_20 point over its default span, one gate time,
    # against exp(A t) y0 at 40 digits of the same double-precision generator
    p = replace(SystemParams(), omega_a_tilde=0.1, n_a=1)
    t_final = gate_time(p, math.pi) / p.omega_a
    assert t_final == pytest.approx(9466.67, rel=1e-6)
    y0 = np.array([0.5, 0.0, 0.0, 0.0])
    state = integrate(p, y0, np.array([t_final]))[0]
    a = chain_matrix(p)
    with mp.workdps(40):
        ref = mp.expm(mp.matrix(a.tolist()) * t_final) * mp.matrix(y0.tolist())
        err = [mp.mpc(complex(x)) - r for x, r in zip(state, ref)]
        rel_rho_10 = float(abs(err[0]) / abs(ref[0]))
        err_norm = float(mp.norm(mp.matrix(err)))
    # measured: 5.5e-13
    assert rel_rho_10 <= 1e-11
    # the bound integrate's docstring states: 1e-9 (1 + ||A|| t) |y0| in 2-norms
    assert err_norm <= 1e-9 * (1 + np.linalg.norm(a, 2) * t_final) * np.linalg.norm(y0)
