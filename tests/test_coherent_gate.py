import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln
from scipy.stats import poisson

import eitgate
from eitgate import (DegenerateDenominator, ErrorBudget, GateDesign, InvalidInput,
                     NotAttainable, OptimizationConstraints, SystemParams, base_params,
                     design_point, gate_time, min_alpha_b, optimal_detuning, w10)
from eitgate import coherent_gate, design_optimizer
from eitgate.coherent_gate import (EPS_TRUNC, GAUSS_ORDERS, _fock_sum, _gauss_charlier,
                                   _one_qubit_budget, _poisson_window, _quadrature_budget,
                                   _response_grid, _system_at, _two_qubit_budget,
                                   _two_qubit_delta)
from eitgate.core_model import EPS_DEN, _w10_terms
from conftest import w10_continued_fraction

PI = math.pi


def params(**kwargs):
    """Per-photon amplitudes for the coherent-drive machinery."""
    base = dict(omega_a_tilde=1.0, omega_b_tilde=1.0, omega_c_tilde=1.0,
                n_a=1, n_c=1, nu_a=0.0, nu_b=0.0, nu_c=125.0,
                gamma_10=6e-7, gamma_20=1.0, gamma_30=0.0, gamma_40=1.0)
    base.update(kwargs)
    return SystemParams(**base)


def lossless(**kwargs):
    base = dict(gamma_10=0.0, gamma_20=0.0, gamma_40=0.0)
    base.update(kwargs)
    return params(**base)


def poisson_pmf(n, mu):
    """Poisson weight from lgamma, independent of scipy."""
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1)) if mu > 0 else float(n == 0)


# |w - p| <= ROUNDING_UNITS eps (1 + k |ln mu| + ln k! + mu) p for a window
# weight w of the Poisson pmf p(k): the rounding of the log-pmf's three terms
# and of exp.  Measured at 162 mu from 1e-6 to 1e5: at most 0.98 for the
# window, 0.94 for scipy.stats' pmf.
ROUNDING_UNITS = 2.0


def mpmath_pmf(lo, hi, mu):
    """Poisson(mu) pmf at k = lo .. hi to 30 digits, by the ratio p(k + 1) / p(k),
    as two float arrays whose sum it is (the second holds the first's rounding)."""
    head, tail = [], []
    with mpmath.workdps(30):
        m = mpmath.mpf(mu)
        p = mpmath.exp(lo * mpmath.log(m) - mpmath.loggamma(lo + 1) - m)
        for k in range(lo, hi + 1):
            head.append(float(p))
            tail.append(float(p - head[-1]))
            p = p * m / (k + 1)
    return np.array(head), np.array(tail)


def assert_pmf_rounding(n, weights, mu, reference):
    """Each weight within ROUNDING_UNITS of the 30-digit reference pmf."""
    head, tail = reference
    scale = np.finfo(float).eps * (1.0 + n * abs(math.log(mu)) + gammaln(n + 1.0) + mu)
    err = np.abs((weights - head) - tail) / head   # weights - head is exact
    assert np.max(err / scale) <= ROUNDING_UNITS


def kerr_overlap(mu, phi, n_terms):
    """<coherent|Kerr state>: component n >= 1 carries phi mu / n, the vacuum none."""
    weights = [poisson_pmf(n, mu) for n in range(n_terms)]
    phases = [phi * mu / n if n >= 1 else 0.0 for n in range(n_terms)]
    return complex(math.fsum(w * math.cos(f) for w, f in zip(weights, phases)),
                   -math.fsum(w * math.sin(f) for w, f in zip(weights, phases)))


def component_response(p, n_b, time_norm):
    """Phase and damping of Fock component n_b of the drive, via scalar w10."""
    w = w10(replace(p, omega_b_tilde=p.omega_b_tilde * math.sqrt(n_b)))
    nt = time_norm / p.omega_a
    return -w.real * nt, (p.gamma_10 + w.imag) * nt


class TestTruncationBound:
    """The Poisson window that truncates every Fock sum."""

    def test_vacuum(self):
        n, weights, missing = _poisson_window(0.0)
        assert n.tolist() == [0] and weights.tolist() == [1.0] and missing == 0.0

    def test_cumulative_sum_oracle(self):
        # brute force: the mass below and above the window, summed term by
        # term from lgamma weights, is what the window reports as missing
        for mu in (0.5, 4.0, 9.0, 144.0, 22500.0):
            n, weights, missing = _poisson_window(mu)
            lo, hi = int(n[0]), int(n[-1])
            assert np.array_equal(n, np.arange(lo, hi + 1))
            below = math.fsum(poisson_pmf(k, mu) for k in range(lo))
            above = math.fsum(poisson_pmf(k, mu) for k in range(hi + 1, hi + 2000))
            assert missing == pytest.approx(below + above, rel=1e-6, abs=1e-300)
            assert above <= EPS_TRUNC / 2 and below <= EPS_TRUNC / 2
            assert np.allclose(weights, [poisson_pmf(k, mu) for k in n], rtol=1e-9, atol=0)

    def test_monotonicity(self):
        widths = [len(_poisson_window(mu)[0]) for mu in (0.0, 1.0, 4.0, 16.0, 100.0, 1e4)]
        assert widths == sorted(widths)
        assert widths[-1] > widths[-2]

    def test_definition(self):
        # missing mass within the tolerance, and captured + missing = 1
        for mu in (1.0, 9.0, 144.0, 384.16, 784.0, 79524.0):
            n, weights, missing = _poisson_window(mu)
            assert missing <= EPS_TRUNC
            expected = poisson.sf(n[-1], mu) + (poisson.cdf(n[0] - 1, mu) if n[0] > 0 else 0.0)
            assert missing == pytest.approx(expected, rel=1e-9, abs=0.0)
            reference = mpmath_pmf(int(n[0]), int(n[-1]), mu)
            assert_pmf_rounding(n, weights, mu, reference)
            assert_pmf_rounding(n, poisson.pmf(n, mu), mu, reference)
            # the pmf bulk carries a relative rounding of order mu * eps_machine
            tol = 1e-12 + 10 * mu * np.finfo(float).eps
            assert math.fsum(weights) + missing == pytest.approx(1.0, abs=tol)

    @settings(max_examples=300, deadline=None)
    @given(mu=st.one_of(st.just(0.0),
                        st.floats(math.log(1e-6), math.log(1e5)).map(math.exp)))
    def test_window_matches_scipy_stats(self, mu):
        n, weights, missing = _poisson_window(mu)
        lo, hi = int(n[0]), int(n[-1])
        assert np.array_equal(n, np.arange(lo, hi + 1))
        side = EPS_TRUNC / 2
        upper, lower = poisson.sf(hi, mu), poisson.cdf(lo - 1, mu)
        assert upper <= side and lower <= side
        assert missing == pytest.approx(upper + lower, rel=1e-9, abs=0.0)
        if mu > 0.0:
            # the window's weights round no worse than scipy.stats' pmf
            reference = mpmath_pmf(lo, hi, mu)
            assert_pmf_rounding(n, weights, mu, reference)
            assert_pmf_rounding(n, poisson.pmf(n, mu), mu, reference)
        else:
            assert weights.tolist() == [1.0]
        # each end at most one index beyond the shortest window: moved in by
        # two indices, either end leaves out more than its side's bound
        assert poisson.sf(hi - 2, mu) > side and poisson.cdf(lo + 1, mu) > side


# Run in a fresh interpreter, since the test modules import scipy themselves:
# every command, and a one-qubit budget that falls back to the exact windows.
RUNTIME_PATH = """
import json, math, sys
from dataclasses import replace
from eitgate import OptimizationConstraints, base_params, cli, design_point, optimal_detuning
from eitgate.coherent_gate import _one_qubit_budget, _quadrature_budget
out, one_qubit = sys.argv[1], sys.argv[2]
for argv in (["eval"], ["check-oracle"],
             ["design", "--delta", "0.2", "--suppression", "1"],
             ["design", "--delta", "0.2", "--suppression", "1e-3"],
             ["design", "--gamma10", "1e-6", "--config", one_qubit]):
    assert cli.main(argv + ["--out", out]) == 0, argv
p = base_params(OptimizationConstraints(), 1e-5)
nu_c = optimal_detuning(replace(p, omega_b_tilde=5.0, omega_c_tilde=50.0))
design = design_point(p, nu_c, 5.0, math.pi, alpha_c=50.0)
assert _quadrature_budget(replace(p, nu_c=nu_c), design.time_norm, 25.0, 2500.0) is None
_one_qubit_budget(p, design)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_runtime_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(eitgate.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    one_qubit = tmp_path / "one_qubit.json"
    one_qubit.write_text('{"constraints": {"mode": "one-qubit"}}')
    result = subprocess.run([sys.executable, "-W", "ignore", "-c", RUNTIME_PATH,
                             str(tmp_path / "out.txt"), str(one_qubit)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestKerrPhaseState:
    """The idealized Kerr limit, reached on the Fock sum with every loss off.

    Component n >= 1 then acquires the Kerr phase phi mu / n and the vacuum
    component none.
    """

    def test_normalization(self):
        n, weights, missing = _poisson_window(9.0)
        assert math.fsum(weights) + missing == pytest.approx(1.0, abs=1e-12)

    def test_no_phase_without_either_photon(self):
        # the cross-Kerr phase needs both the probe and the signal photon
        for n_a, n_c in ((0, 1), (1, 0)):
            p = lossless(n_a=n_a, n_c=n_c)
            grid = _response_grid(p, np.sqrt(np.arange(50.0)), p.omega_c)
            assert np.all(grid == 0.0)

    def test_large_amplitude_overlap(self):
        # the error vanishes as only components near the mean contribute
        p = lossless()
        assert _two_qubit_budget(p, design_point(p, 125.0, 50.0, PI)).delta_total < 0.01
        assert _two_qubit_budget(p, design_point(p, 125.0, 120.0, PI)).delta_total < 0.001

    def test_spread_error_brute_force(self):
        # independent truncated resummation of the overlap against the
        # lossless Fock sum
        alpha, phi = 2.0, PI
        p = lossless()
        expected = 1.0 - abs(kerr_overlap(alpha ** 2, phi, 80)) ** 2
        budget = _two_qubit_budget(p, design_point(p, 125.0, alpha, phi))
        assert budget.delta_total == pytest.approx(expected, abs=1e-10)

    def test_vacuum_component_has_zero_phase(self):
        # lossless and undriven, w10 is singular; the Fock sum gives W10 = 0
        p = lossless()
        with pytest.raises(DegenerateDenominator):
            w10(replace(p, omega_b_tilde=0.0))
        grid = _response_grid(p, np.sqrt(np.arange(3.0)), p.omega_c)
        assert grid[0] == 0.0
        assert grid[1] == w10(replace(p, omega_b_tilde=1.0))


class TestPerComponentResponse:
    """Phase and damping of single Fock components of the drive."""

    def test_mean_component_phase_is_target(self):
        p = params()
        design = design_point(p, 125.0, 10.0, PI)
        phase, damping = component_response(p, 100, design.time_norm)
        assert phase == pytest.approx(PI, rel=1e-12)
        assert damping > 0

    def test_vacuum_component_is_regular(self):
        p = params()
        design = design_point(p, 125.0, 10.0, PI)
        assert _response_grid(p, np.array([0.0]), p.omega_c)[0] == \
            w10(replace(p, omega_b_tilde=0.0))
        phase, damping = component_response(p, 0, design.time_norm)
        assert math.isfinite(phase) and math.isfinite(damping)
        # with no drive the medium is a bare absorber: huge damping, no phase
        assert phase == 0.0
        assert damping > 1.0

    def test_against_response_oracle(self):
        p = params()
        design = design_point(p, 125.0, 10.0, PI)
        n_b = 200        # twice the mean occupation
        w = w10_continued_fraction(
            replace(p, omega_b_tilde=math.sqrt(n_b)))
        nt = design.time_norm / p.omega_a
        phase, damping = component_response(p, n_b, design.time_norm)
        assert phase == pytest.approx(-w.real * nt, rel=1e-10)
        assert damping == pytest.approx((p.gamma_10 + w.imag) * nt, rel=1e-10)

    def test_vector_path_bit_equal_to_scalar(self):
        # the Fock-sum evaluation must agree with w10 exactly, component by
        # component, so CLI numbers match library calls bit for bit
        p = params()
        n = np.arange(0, 300)
        grid = _response_grid(p, p.omega_b_tilde * np.sqrt(n), p.omega_c)
        for k in (0, 1, 100, 200, 299):
            scalar = w10(replace(p, omega_b_tilde=p.omega_b_tilde * math.sqrt(k)))
            assert grid[k] == scalar


def masked_response(p, omega_b, omega_c):
    """W10 over a grid as the kernel computed it before its degeneracy
    bound: the closed form with the degeneracy flag of every component, and
    the division through both masks."""
    omega_b_sq, omega_c_sq = omega_b * omega_b, omega_c * omega_c
    d3 = p.nu_a - p.nu_b
    d4 = d3 + p.nu_c
    a3 = d3 + 1j * p.gamma_30
    a4 = d4 + 1j * p.gamma_40
    bracket = a3 * a4 - omega_c_sq
    num = -bracket * p.omega_a ** 2
    a2_bracket = (p.nu_a + 1j * p.gamma_20) * bracket
    den = a2_bracket - a4 * omega_b_sq
    bad = abs(den) <= EPS_DEN * (abs(a2_bracket) + abs(a4) * omega_b_sq)
    return np.where(bad, 0.0, num) / np.where(bad, 1.0, den)


def separate_sums(p, time_norm, omega_b, omega_c, weights):
    """(full, spread-only, damping-only) Fock sums from phases and damping
    exponents taken as two real products."""
    nt = time_norm / p.omega_a
    w = masked_response(p, omega_b, omega_c)
    phases = -w.real * nt
    taus = (p.gamma_10 + w.imag) * nt
    return ((weights * np.exp(-1j * phases - taus)).sum(),
            np.sum(weights * np.exp(-1j * phases)), float(np.sum(weights * np.exp(-taus))))


def separate_budget(p, time_norm, nb, pb, nc, pc):
    """_fock_sum's budget over one block, from separate_sums."""
    assert len(nb) * len(nc) <= 1_000_000
    weights = pb[:, None] * pc[None, :]
    full, spread, damp = separate_sums(p, time_norm, p.omega_b_tilde * np.sqrt(nb)[:, None],
                                       p.omega_c_tilde * np.sqrt(nc)[None, :], weights)
    wsum = float(np.sum(weights))
    fid = min(float(np.abs(full / wsum)), 1.0)
    return ErrorBudget(
        delta_decoherence=max(1.0 - min(float(damp / wsum), 1.0) ** 2, 0.0),
        delta_coherent_spread=max(1.0 - min(float(np.abs(spread / wsum)), 1.0) ** 2, 0.0),
        delta_total=1.0 - fid ** 2, fidelity=fid)


def separate_delta(p, nu_c, alpha_b, phi):
    """_two_qubit_delta from separate_sums at the design's time."""
    time_norm = gate_time(_system_at(p, nu_c, alpha_b), phi)
    nb, pb, _ = _poisson_window(alpha_b ** 2)
    weights = pb[:, None]
    full, _, _ = separate_sums(
        _system_at(p, nu_c, alpha_b), time_norm, p.omega_b_tilde * np.sqrt(nb)[:, None],
        p.omega_c_tilde * math.sqrt(p.n_c), weights)
    return 1.0 - min(float(np.abs(full / float(np.sum(weights)))), 1.0) ** 2


REFERENCE = Path(__file__).resolve().parents[1] / "reference"

# the lossless chain of test_high_precision, whose denominator vanishes at
# one real drive amplitude
NEAR_ROOT = dict(omega_a_tilde=1.0, omega_b_tilde=1.0, omega_c_tilde=1.0, n_a=1, n_c=1,
                 nu_a=1.0, nu_b=0.3, nu_c=2.0, gamma_10=0.0, gamma_20=0.0, gamma_30=0.0,
                 gamma_40=0.0)


def near_root_drives():
    """Drive amplitudes whose |denominator| / scale straddles EPS_DEN, from
    1e-14 to 1e-6 on both sides of the root (test_high_precision's points)."""
    d3 = NEAR_ROOT["nu_a"] - NEAR_ROOT["nu_b"]
    d4 = d3 + NEAR_ROOT["nu_c"]
    root = math.sqrt(NEAR_ROOT["nu_a"] * (d3 * d4 - 1.0) / d4)
    return np.array([root * math.sqrt(1.0 + 2.0 * sign * r)
                     for r in (1e-14, 0.5 * EPS_DEN, 0.99 * EPS_DEN, 1.01 * EPS_DEN,
                               2 * EPS_DEN, 1e-10, 1e-8, 1e-6) for sign in (1, -1)])


def random_designs(count):
    """Two-qubit points over the random-design ranges: drive and probe
    ratios over decades, suppression 1e-4 to 10, four phases, alpha_b over
    the default range and nu_c within two decades of its closed form."""
    rng = random.Random(10)
    for _ in range(count):
        cs = OptimizationConstraints(
            omega_a_over_gamma_20=10.0 ** rng.uniform(math.log10(0.03), 1.0),
            omega_b_sq_over_omega_c_sq=10.0 ** rng.uniform(-1.0, 1.0),
            suppression=10.0 ** rng.uniform(-4.0, 1.0),
            phi=rng.choice([PI, PI / 2, PI / 4, 2 * PI]))
        p = base_params(cs, 10.0 ** rng.uniform(-9.0, -2.0))
        alpha = rng.uniform(1.0, 150.0)
        nu = optimal_detuning(_system_at(p, 1.0, alpha)) * 10.0 ** rng.uniform(-2.0, 2.0)
        yield p, nu, alpha, cs.phi


class TestKernelBits:
    """The Fock-sum kernel gives the bits of the masked division with
    separate phase and damping products, wherever its degeneracy bound and
    its one complex exponent apply and where they do not."""

    def test_delta_on_random_designs(self):
        for p, nu, alpha, phi in random_designs(40):
            assert _two_qubit_delta(p, nu, alpha, phi) == separate_delta(p, nu, alpha, phi)

    def test_undriven_mean_component(self):
        # alpha_b = 0: the window is the vacuum alone, off two-photon
        # resonance so that the phase rate does not vanish
        p = replace(base_params(OptimizationConstraints(), 1e-6), nu_a=0.5)
        assert _two_qubit_delta(p, 80.0, 0.0, PI) == separate_delta(p, 80.0, 0.0, PI)

    def test_lossless_vacuum_component(self):
        # every width zero: the vacuum component's denominator vanishes, so
        # the bound fails and the flags are taken per component
        p = lossless()
        omega_b = np.sqrt(np.arange(60.0))[:, None]
        _, _, flags = _w10_terms(p, omega_b * omega_b, 1.0)
        assert flags is not False and flags[0, 0] and not flags[1:].any()
        grid = _response_grid(p, omega_b, 1.0)
        assert grid[0, 0] == 0.0
        assert np.array_equal(grid, masked_response(p, omega_b, 1.0))
        for alpha in (2.0, 4.0):
            assert _two_qubit_delta(p, 125.0, alpha, PI) == separate_delta(p, 125.0, alpha, PI)

    @pytest.mark.parametrize("gamma_40", [0.0, 1e-15])
    def test_near_the_degeneracy_threshold(self, gamma_40):
        # a width of 1e-15 keeps the distance from the line above zero but
        # far below EPS_DEN: the bound fails there too
        p = SystemParams(**{**NEAR_ROOT, "gamma_40": gamma_40})
        omega_b = near_root_drives()
        _, _, flags = _w10_terms(p, omega_b * omega_b, p.omega_c ** 2)
        assert flags is not False and flags.sum() == 6
        grid = _response_grid(p, omega_b, p.omega_c)
        assert np.count_nonzero(grid == 0.0) == 6
        assert np.array_equal(grid, masked_response(p, omega_b, p.omega_c))
        nb, pb = omega_b * omega_b, np.full(len(omega_b), 1.0 / len(omega_b))
        one = np.array([1.0])
        assert _fock_sum(p, 3.0, nb, pb, one, one) == separate_budget(p, 3.0, nb, pb, one, one)

    def test_fock_sums_on_both_grids(self):
        # two-qubit: mode c holds one photon; one-qubit: both modes' windows
        for p, nu, alpha, phi in random_designs(8):
            design = design_point(p, nu, alpha, phi)
            nb, pb, _ = _poisson_window(alpha ** 2)
            nc, pc = np.array([p.n_c]), np.array([1.0])
            p_nu = _system_at(p, nu, 1.0)
            assert _fock_sum(p_nu, design.time_norm, nb, pb, nc, pc) == \
                separate_budget(p_nu, design.time_norm, nb, pb, nc, pc)
        p = params()
        p_one = _system_at(p, 125.0, 1.0, 1.0)
        for alpha_b, alpha_c in ((6.0, 2.0), (10.0, 30.0), (1.5, 0.5)):
            design = design_point(p, 125.0, alpha_b, PI, alpha_c=alpha_c)
            nb, pb, _ = _poisson_window(alpha_b ** 2)
            nc, pc, _ = _poisson_window(alpha_c ** 2)
            assert _fock_sum(p_one, design.time_norm, nb, pb, nc, pc) == \
                separate_budget(p_one, design.time_norm, nb, pb, nc, pc)

    @pytest.mark.parametrize("name, suppression", [
        ("design-delta0.2-s1.json", 1.0), ("design-delta0.2-s1e-3.json", 1e-3)])
    def test_bound_admits_the_committed_designs(self, name, suppression):
        design = json.loads((REFERENCE / name).read_text())
        p = base_params(OptimizationConstraints(suppression=suppression),
                        design["gamma_10_over_omega_a"])
        nb, _, _ = _poisson_window(design["alpha_b"] ** 2)
        omega_b = p.omega_b_tilde * np.sqrt(nb)[:, None]
        mean = _system_at(p, design["nu_c_over_omega_a"], design["alpha_b"])
        _, _, flags = _w10_terms(mean, omega_b * omega_b, 1.0)
        assert flags is False


class TestGateDesign:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            GateDesign(nu_c=1.0, alpha_b=-1.0, phi=PI, time_norm=1.0)
        with pytest.raises(InvalidInput):
            GateDesign(nu_c=1.0, alpha_b=1.0, phi=PI, time_norm=1.0, alpha_c=0.0)
        with pytest.raises(InvalidInput):
            design_point(params(), 125.0, 10.0, PI, alpha_c=-1.0)

    def test_non_finite_fields_rejected(self):
        fields = dict(nu_c=1.0, alpha_b=1.0, phi=PI, time_norm=1.0, alpha_c=10.0)
        for name in fields:
            for bad in (math.nan, math.inf):
                with pytest.raises(InvalidInput, match=name):
                    GateDesign(**{**fields, name: bad})


class TestErrorBudget:
    def test_non_finite_fields_rejected(self):
        fields = dict(delta_decoherence=0.1, delta_coherent_spread=0.1,
                      delta_total=0.19, fidelity=0.9)
        for name in fields:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidInput, match=name):
                    ErrorBudget(**{**fields, name: bad})


class TestGateError:
    def test_ideal_gate(self):
        p = lossless()
        design = design_point(p, 125.0, 60.0, PI)
        budget = _two_qubit_budget(p, design)
        assert budget.delta_decoherence == 0.0
        assert budget.delta_total == pytest.approx(budget.delta_coherent_spread,
                                                   abs=1e-12)
        assert budget.delta_total < 3e-3

    def test_uniform_damping_limit(self):
        # all weight on one Fock component: delta reduces to 1 - e^{-2 tau}
        p = params(gamma_10=1e-3)
        design = design_point(p, 125.0, 10.0, PI)
        _, damping = component_response(p, 100, design.time_norm)
        budget = _two_qubit_budget(p, design)
        # dampings vary slowly across the bulk of the distribution, so the
        # decoherence component tracks 1 - e^{-2 tau(mean)} closely
        assert budget.delta_decoherence == pytest.approx(
            1.0 - math.exp(-2.0 * damping), rel=0.02)

    def test_reference_operating_point(self):
        p = params()
        design = design_point(p, 125.0, 10.0, PI)
        budget = _two_qubit_budget(p, design)
        assert 0.1 < budget.delta_total < 0.3
        assert design.time_norm == pytest.approx(1.25e4 * PI, rel=0.1)

    def test_budget_invariants(self):
        p = params()
        budget = _two_qubit_budget(p, design_point(p, 125.0, 10.0, PI))
        assert budget.delta_total == pytest.approx(1.0 - budget.fidelity ** 2,
                                                   abs=1e-12)
        assert budget.delta_total >= max(budget.delta_decoherence,
                                         budget.delta_coherent_spread) - 1e-9

    def test_spread_scaling(self):
        p = lossless()
        values = {}
        for alpha in (5.0, 10.0, 20.0, 40.0):
            design = design_point(p, 125.0, alpha, PI)
            values[alpha] = _two_qubit_budget(p, design).delta_coherent_spread * alpha ** 2
        band = max(values.values()) / min(values.values())
        assert band < 1.10

    def test_limit_consistency_with_kerr_state(self):
        # with every damping channel off each component n >= 1 picks up the
        # Kerr phase phi mu / n and the vacuum none, so the gate error is the
        # spread of that Kerr state, resummed here term by term
        p = lossless()
        for alpha in (3.0, 10.0):
            overlap = kerr_overlap(alpha ** 2, PI, 400)
            budget = _two_qubit_budget(p, design_point(p, 125.0, alpha, PI))
            assert budget.delta_decoherence == 0.0
            assert budget.delta_coherent_spread == pytest.approx(budget.delta_total, abs=1e-12)
            assert budget.delta_total == pytest.approx(
                1.0 - abs(overlap) ** 2, rel=1e-9, abs=4 * EPS_TRUNC)


class TestOneQubitError:
    def test_ideal_gate(self):
        p = lossless(nu_c=10.0)
        design = design_point(p, 10.0, 30.0, PI, alpha_c=300.0)
        budget = _one_qubit_budget(p, design)
        assert budget.delta_decoherence == 0.0
        assert budget.delta_total < 2e-2

    def test_spread_decreases_with_alpha(self):
        p = lossless(nu_c=10.0)
        spreads = []
        for alpha in (5.0, 10.0, 20.0):
            design = design_point(p, 10.0, alpha, PI, alpha_c=10.0 * alpha)
            spreads.append(_one_qubit_budget(p, design).delta_coherent_spread)
        assert spreads[0] > spreads[1] > spreads[2]

    def test_decoherence_insensitive_to_intensity(self):
        # one-qubit configuration: the widths depend on the intensities only
        # through the fixed alpha_c/alpha_b ratio, so the decoherence part
        # stays within a factor 2 across a tenfold amplitude range
        p = params(gamma_10=1e-4, nu_c=1.0)
        decs = []
        for alpha in (5.0, 15.0, 50.0):
            nu = _nu_for(p, alpha)
            design = design_point(p, nu, alpha, PI, alpha_c=10.0 * alpha)
            decs.append(_one_qubit_budget(p, design).delta_decoherence)
        assert max(decs) / min(decs) < 2.0


def exact_one_qubit(p, design):
    """The one-qubit Fock double sum over the product of both exact windows."""
    nb, pb, _ = _poisson_window(design.alpha_b ** 2)
    nc, pc, _ = _poisson_window(design.alpha_c ** 2)
    return _fock_sum(replace(p, nu_c=design.nu_c, n_c=1), design.time_norm, nb, pb, nc, pc)


class TestGaussCharlier:
    """The one-qubit budget sums a Gauss-Charlier rule where it converges."""

    FIELDS = ("delta_total", "delta_decoherence", "delta_coherent_spread", "fidelity")

    @pytest.mark.parametrize("gamma_10", [0.0, 1e-5])
    def test_agrees_with_exact_windows(self, gamma_10):
        if gamma_10 == 0.0:
            p, nu_of = lossless(nu_c=10.0), lambda alpha, ratio: 10.0
        else:
            p = params(gamma_10=gamma_10)
            nu_of = lambda alpha, ratio: _nu_for(p, alpha, ratio)
        for alpha in (3.0, 5.0, 7.0, 10.0, 14.0, 20.0, 28.0):
            for ratio in (10.0, 20.0):
                design = design_point(p, nu_of(alpha, ratio), alpha, PI,
                                      alpha_c=ratio * alpha)
                budget = _one_qubit_budget(p, design)
                exact = exact_one_qubit(p, design)
                rule = _quadrature_budget(replace(p, nu_c=design.nu_c, n_c=1),
                                          design.time_norm, alpha ** 2, design.alpha_c ** 2)
                if alpha <= 5.0:
                    # near the vacuum the ladder does not converge: the
                    # exact sum, bit for bit
                    assert rule is None and budget == exact
                    continue
                assert budget == rule
                for field in self.FIELDS:
                    assert getattr(budget, field) == pytest.approx(
                        getattr(exact, field), rel=0, abs=4 * EPS_TRUNC)

    def test_rule_integrates_poisson_moments(self):
        # an m-point Gauss rule is exact for polynomials of degree < 2m:
        # E[n^j] = sum_i S(j, i) mu^i (Touchard), S the Stirling numbers of
        # the second kind, exact in integers at an integer mu
        mu, m = 400, 8
        nodes, weights = _gauss_charlier(float(mu), m)
        stirling = [1]      # S(j, i) for i = 0 .. j
        for j in range(2 * m):
            exact = sum(s * mu ** i for i, s in enumerate(stirling))
            assert math.fsum(weights * nodes ** j) == pytest.approx(exact, rel=1e-14)
            stirling = [0] + [i * (stirling[i] if i <= j else 0) + stirling[i - 1]
                              for i in range(1, j + 2)]

    @pytest.mark.parametrize("mu", [25.0, 196.0, 1e4])
    @pytest.mark.parametrize("m", GAUSS_ORDERS)
    def test_rule_matches_eigh_tridiagonal(self, mu, m):
        # numpy's dense eigh on the Jacobi matrix against scipy's tridiagonal solver
        k = np.arange(m, dtype=float)
        nodes, vectors = eigh_tridiagonal(k + mu, np.sqrt(k[1:] * mu))
        got_nodes, got_weights = _gauss_charlier(mu, m)
        np.testing.assert_allclose(got_nodes, nodes, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got_weights, vectors[0] ** 2, rtol=1e-13, atol=0)

    def test_negative_node_falls_back(self, monkeypatch):
        p = params(gamma_10=1e-5)
        design = design_point(p, _nu_for(p, 14.0), 14.0, PI, alpha_c=140.0)
        exact = exact_one_qubit(p, design)
        assert _one_qubit_budget(p, design) != exact
        rule = coherent_gate._gauss_charlier
        for bad in (-1e-3, math.nan):
            def with_bad_node(mu, m, bad=bad):
                nodes, weights = rule(mu, m)
                nodes[0] = bad
                return nodes, weights
            monkeypatch.setattr(coherent_gate, "_gauss_charlier", with_bad_node)
            assert _one_qubit_budget(p, design) == exact

    def test_small_mu_node_check_precedes_sum(self, monkeypatch):
        # at mu = 1 the 32-node rule has a node below zero, where sqrt(n)
        # would give NaN; the ladder must stop before summing it
        assert _gauss_charlier(1.0, 32)[0].min() < 0.0
        p = params(gamma_10=1e-5)
        design = design_point(p, _nu_for(p, 1.0), 1.0, PI, alpha_c=10.0)
        summed = []

        def recording(params, time_norm, nb, pb, nc, pc):
            summed.append(min(nb.min(), nc.min()))
            return _fock_sum(params, time_norm, nb, pb, nc, pc)
        monkeypatch.setattr(coherent_gate, "_fock_sum", recording)
        assert _quadrature_budget(replace(p, nu_c=design.nu_c, n_c=1),
                                  design.time_norm, 1.0, 100.0) is None
        assert min(summed) >= 0.0


class TestBudgetProperties:
    """Both budgets over the physical ensemble, near the closed-form optimum."""

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(3.0, 30.0), ratio=st.floats(10.0, 20.0),
           log_gamma=st.floats(-7.0, -4.0), nu_scale=st.floats(0.5, 2.0),
           one_qubit=st.booleans())
    def test_budget_identities(self, alpha, ratio, log_gamma, nu_scale, one_qubit):
        p = params(gamma_10=10.0 ** log_gamma)
        if one_qubit:
            nu = nu_scale * _nu_for(p, alpha, ratio)
            design = design_point(p, nu, alpha, PI, alpha_c=ratio * alpha)
            budget_of = _one_qubit_budget
        else:
            nu = nu_scale * optimal_detuning(replace(p, omega_b_tilde=alpha))
            design = design_point(p, nu, alpha, PI)
            budget_of = _two_qubit_budget
        budget = budget_of(p, design)
        assert 0.0 <= budget.fidelity <= 1.0
        assert budget.delta_total == 1.0 - budget.fidelity ** 2
        for part in (budget.delta_total, budget.delta_decoherence,
                     budget.delta_coherent_spread):
            assert 0.0 <= part <= 1.0
        assert budget_of(p, design) == budget


class TestMinAlphaB:
    def test_threshold_property(self):
        p = params()
        nu = _nu_for(p, 1.0)
        design, budget = min_alpha_b(p, PI, 0.05, nu, alpha_c_ratio=10.0)
        alpha = design.alpha_b
        # the returned pair is the search's own evaluation at its result
        assert design == design_point(p, nu, alpha, PI, alpha_c=10.0 * alpha)
        assert budget == _one_qubit_budget(p, design)
        assert budget.delta_coherent_spread <= 0.05
        below = _one_qubit_budget(p, design_point(p, nu, alpha * 0.9, PI,
                                                  alpha_c=9.0 * alpha))
        assert below.delta_coherent_spread > 0.05 * 0.8

    def test_smaller_target_needs_larger_alpha(self):
        p = params()
        nu = _nu_for(p, 1.0)
        strict, _ = min_alpha_b(p, PI, 0.02, nu, alpha_c_ratio=10.0)
        loose, _ = min_alpha_b(p, PI, 0.1, nu, alpha_c_ratio=10.0)
        assert strict.alpha_b > loose.alpha_b

    def test_not_attainable(self, monkeypatch):
        p = params()
        monkeypatch.setattr(design_optimizer, "_MIN_ALPHA_SPAN", (0.5, 20.0))
        with pytest.raises(NotAttainable, match="20.0"):
            min_alpha_b(p, PI, 1e-4, _nu_for(p, 1.0), alpha_c_ratio=10.0)

    @pytest.mark.parametrize("ratio", [1.0, 10.0])
    @pytest.mark.parametrize("phi", [PI, 1.2])
    def test_smallest_passing_lattice_point(self, phi, ratio):
        # the result is a lattice point that meets the target, and the
        # lattice point below it does not
        p, target, span = params(), 0.05, design_optimizer._MIN_ALPHA_SPAN
        nu = _nu_for(p, 1.0, ratio)
        design, budget = min_alpha_b(p, phi, target, nu, alpha_c_ratio=ratio)
        step = math.log(span[1] / span[0]) / design_optimizer._STEPS
        j = round(math.log(design.alpha_b / span[0]) / step)
        assert design.alpha_b == design_optimizer._lattice(j, span)
        assert budget.delta_coherent_spread <= target
        alpha = design_optimizer._lattice(j - 1, span)
        below = _one_qubit_budget(p, design_point(p, nu, alpha, phi, alpha_c=ratio * alpha))
        assert below.delta_coherent_spread > target


def _nu_for(p, alpha, ratio=10.0):
    """Closed-form optimal nu_c at the mean one-qubit configuration.

    It depends on the drive amplitudes only through alpha_c / alpha_b.
    """
    mean = replace(p, omega_b_tilde=p.omega_b_tilde * alpha,
                   omega_c_tilde=p.omega_c_tilde * alpha * ratio, n_c=1)
    return optimal_detuning(mean)
