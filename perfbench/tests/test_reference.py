"""The benchmark's references against cases with known exact answers."""

import cmath
import math

import numpy as np
import pytest

import reference as ref


@pytest.mark.parametrize("mu", [0.0, 0.5, 10.0, 144.0, 796.0, 79_600.0])
def test_poisson_weights_sum_mean_variance(mu):
    n, p = ref.poisson_weights(mu)
    # each log-weight carries the rounding of k ln(mu) and lgamma(k + 1)
    rel = 8 * np.finfo(float).eps * max(mu * math.log(max(mu, 2.0)), 1.0)
    assert abs(math.fsum(p) - 1.0) <= rel + 1e-13
    assert abs(float(np.sum(n * p)) - mu) <= rel * max(mu, 1.0)
    assert abs(float(np.sum((n - mu) ** 2 * p)) - mu) <= rel * max(mu, 1.0) + 1e-12


def test_poisson_weights_match_factorial_formula():
    mu = 3.0
    n, p = ref.poisson_weights(mu)
    for k, pk in zip(n[:15], p[:15]):
        exact = math.exp(-mu) * mu ** int(k) / math.factorial(int(k))
        assert abs(pk - exact) <= 1e-14 * exact


def test_w10_two_level_limit():
    # no drive: W10 = i |Omega_a|^2 / (gamma_20 - i nu_a)
    w = ref.w10_chain(0.3, 0.0, 2.0, 5.0, gamma_20=1.5, nu_a=0.7)
    assert abs(w - 1j * 0.09 / (1.5 - 0.7j)) < 1e-15


def test_w10_lambda_limit():
    # no signal field: W10 = i |Omega_a|^2 / (gamma_20 + |Omega_b|^2 / gamma_30)
    w = ref.w10_chain(0.3, 2.0, 0.0, 5.0, gamma_30=0.05)
    assert abs(w - 1j * 0.09 / (1.0 + 4.0 / 0.05)) < 1e-16


def test_w10_kerr_limit():
    # far detuned: Re W10 -> -|Omega_a|^2 |Omega_c|^2 / (nu_c |Omega_b|^2)
    oa, ob, oc, nu = 1.0, 3.0, 2.0, 1e6
    w = ref.w10_chain(oa, ob, oc, nu)
    kerr = -oa ** 2 * oc ** 2 / (nu * ob ** 2)
    assert abs(w.real - kerr) < 1e-5 * abs(kerr)


def test_evolve_diagonal_chain():
    a = ref.chain_generator(0.0, 0.0, 0.0, 7.0, 0.01)
    v0 = np.array([0.5, 0.1, 0.2j, 0.3])
    t = 40.0
    v = ref.evolve(a, t, v0)
    exact = v0 * np.exp(np.diag(a) * t)
    assert np.max(np.abs(v - exact)) < 1e-14


def test_evolve_undamped_two_level_rabi():
    # rho_10 <-> rho_20 only, no damping: rho_10(t) = 0.5 cos(Omega_a t)
    a = ref.chain_generator(0.4, 0.0, 0.0, 0.0, 0.0, gamma_20=0.0, gamma_40=0.0)
    for t in (1.0, 10.0, 123.4):
        rho = ref.evolve(a, t, np.array([0.5, 0, 0, 0], dtype=complex))[0]
        assert abs(rho - 0.5 * math.cos(0.4 * t)) < 1e-12


def test_budget_2q_matches_scalar_sum():
    # a third route: scalar loop, factorial-free weights, closed-form W10
    gamma, nu, alpha, s = 1e-6, 80.0, 6.0, 1.0

    def w10(ob):
        bracket = -1.0         # a3 a4 - |Omega_c|^2 with a3 = 0, |Omega_c| = 1
        return -bracket / (1j * bracket - (nu + 1j * s) * ob ** 2)

    tn = -math.pi / w10(alpha).real
    mu = alpha ** 2
    full = spread = 0j
    damp = 0.0
    p = math.exp(-mu)
    for k in range(400):
        if k:
            p *= mu / k
        w = w10(math.sqrt(k))
        phase, tau = -w.real * tn, (gamma + w.imag) * tn
        full += p * cmath.exp(-1j * phase - tau)
        spread += p * cmath.exp(-1j * phase)
        damp += p * math.exp(-tau)
    got = ref.budget_2q(gamma, nu, alpha, s)
    assert abs(got["delta_total"] - (1 - abs(full) ** 2)) < 1e-12
    assert abs(got["delta_spread"] - (1 - abs(spread) ** 2)) < 1e-12
    assert abs(got["delta_decoherence"] - (1 - damp ** 2)) < 1e-12


def test_budget_1q_independent_of_block_size(monkeypatch):
    args = (1e-5, 3e4, 16.0, 160.0)
    whole = ref.budget_1q(*args)
    monkeypatch.setattr(ref, "BLOCK_CELLS", 5_000)
    assert ref.budget_1q(*args) == pytest.approx(whole, rel=1e-12, abs=1e-15)


def test_decoherence_floor_matches_tau_eff():
    gamma, nu = 1e-6, 1e5
    w = ref.w10_chain(1.0, 1.0, 10.0, nu)
    tau = -(gamma + w.imag) / w.real * math.pi
    assert ref.decoherence_floor_1q(gamma, nu) == pytest.approx(1 - math.exp(-2 * tau),
                                                                rel=1e-15)
