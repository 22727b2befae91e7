import csv
import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from eitgate import (DegenerateDenominator, ErrorBudget, GateDesign, GateModelError,
                     InvalidInput, MonotonicityViolation, NoConvergence, NotAttainable,
                     OptimizationConstraints, RegimeWarning, SweepSpec,
                     SystemParams, ZeroPhaseRate,
                     asymptotic_design, base_params, design_point, max_dephasing, optimal_detuning,
                     optimize_design, sweep, tau_eff_at_optimum, w10)
from eitgate import coherent_gate, design_optimizer
from eitgate.cli import main
from eitgate.coherent_gate import _one_qubit_budget, _two_qubit_budget, _two_qubit_delta

PI = math.pi
REFERENCE = Path(__file__).resolve().parents[1] / "reference"


class TestConstraints:
    def test_defaults(self):
        cs = OptimizationConstraints()
        assert cs.suppression == 1.0
        assert cs.phi == PI
        assert cs.mode == "two-qubit"

    def test_validation(self):
        with pytest.raises(InvalidInput):
            OptimizationConstraints(suppression=0.0)
        with pytest.raises(InvalidInput):
            OptimizationConstraints(mode="qutrit")
        with pytest.raises(InvalidInput):
            OptimizationConstraints(alpha_b_range=(5.0, 2.0))

    @pytest.mark.parametrize("low", [0.0, -1.0])
    def test_non_positive_alpha_b_floor_rejected(self, low):
        # alpha_b is searched on a log axis, which cannot start at 0
        with pytest.raises(InvalidInput, match="alpha_b_range"):
            OptimizationConstraints(alpha_b_range=(low, 0.5))

    def test_non_finite_rejected(self):
        for bad in ({"suppression": math.nan}, {"phi": math.inf},
                    {"alpha_b_range": (1.0, math.inf)}, {"alpha_c_over_alpha_b": math.nan}):
            with pytest.raises(InvalidInput):
                OptimizationConstraints(**bad)

    def test_base_params(self):
        cs = OptimizationConstraints(suppression=1e-3, omega_a_over_gamma_20=2.0)
        p = base_params(cs, 1e-5)
        assert p.omega_a_tilde == 1.0
        assert p.gamma_20 == 0.5
        assert p.gamma_40 == pytest.approx(5e-4)
        assert p.gamma_30 == 0.0
        assert p.nu_a == p.nu_b == 0.0


def _no_seed(value, cs):
    # how a seed fails where 4 c^2 gamma_10 underflows (suppression 1e-200)
    raise ZeroDivisionError("float division by zero")


INVERSION_TARGETS = [0.05, 0.198, 0.2, 0.202, 0.3]   # 0.198 and 0.202: invert-2q's band


def _cold_starts(monkeypatch):
    """Keep one inversion from carrying anything between its searches:
    every alpha_b search starts from its own seed, and the gamma_10
    search's first slope is 1/2."""
    search, seed = design_optimizer._two_qubit_optimize, design_optimizer._seed_gamma_10
    monkeypatch.setattr(design_optimizer, "_two_qubit_optimize",
                        lambda gamma, cs, guess: search(gamma, cs))
    monkeypatch.setattr(design_optimizer, "_seed_gamma_10", lambda t, cs: (seed(t, cs)[0], 0.5))


def _reference_designs():
    """The committed two-qubit designs: the fig2 sweep's and `invert-2q`'s
    (`design --delta 0.2` at suppressions 1 and 1e-3)."""
    designs = []
    with (REFERENCE / "fig2.csv").open(newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            if row["mode"] == "two-qubit":
                designs.append({**{k: float(row[k]) for k in (
                    "gamma_10_over_omega_a", "suppression", "alpha_b")}, "id": f"fig2-row{i}"})
    for name in ("design-delta0.2-s1.json", "design-delta0.2-s1e-3.json"):
        designs.append({**json.loads((REFERENCE / name).read_text()), "id": name})
    return designs


def _count_delta_calls(monkeypatch):
    calls = []
    delta = design_optimizer._two_qubit_delta
    monkeypatch.setattr(design_optimizer, "_two_qubit_delta",
                        lambda *args: calls.append(args) or delta(*args))
    return calls


def _count_alpha_b_evals(monkeypatch):
    """Objective calls of each alpha_b search, one entry per search."""
    evals = []
    golden = design_optimizer._golden_min

    def counted(f, *args):
        evals.append(0)

        def objective(alpha):
            evals[-1] += 1
            return f(alpha)
        return golden(objective, *args)

    monkeypatch.setattr(design_optimizer, "_golden_min", counted)
    return evals


def _lattice_minimum(f, x, span) -> int:
    """The lattice index of x, asserting that x is a point of the lattice of
    span and that f there is below the point before and no higher than the
    point after (where they exist)."""
    steps = design_optimizer._STEPS
    k = round(math.log(x / span[0]) / math.log(span[1] / span[0]) * steps)
    assert design_optimizer._lattice(k, span) == x
    if k > 0:
        assert f(design_optimizer._lattice(k - 1, span)) > f(x)
    if k < steps:
        assert f(design_optimizer._lattice(k + 1, span)) >= f(x)
    return k


class TestOptimizeDesign:
    def test_forward_reference_point(self):
        cs = OptimizationConstraints(suppression=1.0)
        design, budget = optimize_design(6e-7, cs)
        assert 9.0 <= design.alpha_b <= 16.0
        assert 60.0 <= design.nu_c <= 200.0
        assert 0.1 <= budget.delta_total <= 0.3
        assert 0.8e4 * PI <= design.time_norm <= 3e4 * PI

    def test_tiny_dephasing_floor(self):
        cs = OptimizationConstraints(suppression=1.0)
        design, budget = optimize_design(1e-12, cs)
        assert budget.delta_total < 0.01
        assert design.alpha_b < 150.0

    def test_certificate_holds(self):
        cs = OptimizationConstraints(suppression=1.0)
        design, budget = optimize_design(1e-6, cs)
        p = base_params(cs, 1e-6)
        for nu, alpha in ((design.nu_c * 1.05, design.alpha_b),
                          (design.nu_c, design.alpha_b * 1.05)):
            perturbed = _two_qubit_budget(p, design_point(p, nu, alpha, cs.phi))
            assert perturbed.delta_total >= budget.delta_total - 1e-4

    @pytest.mark.parametrize("nu_scale, alpha_scale", [(1.0, 1.05), (0.95, 1.0)],
                             ids=["alpha_b*1.05", "nu_c*0.95"])
    def test_certificate_failure_raises(self, monkeypatch, capsys, nu_scale, alpha_scale):
        # one perturbed probe, matched by its exact nu_c and alpha_b, reads twice
        # the slack below the search's own error: the library raises, and
        # the command exits 3 with the message
        cs = OptimizationConstraints(suppression=1.0)
        _, nu, alpha, delta = design_optimizer._two_qubit_optimize(1e-6, cs)
        probe = (nu * nu_scale, alpha * alpha_scale)
        delta_at = design_optimizer._two_qubit_delta

        def lowered(params, nu_c, alpha_b, phi):
            if (nu_c, alpha_b) == probe:
                return delta - 2.0 * design_optimizer._CERT_SLACK
            return delta_at(params, nu_c, alpha_b, phi)

        monkeypatch.setattr(design_optimizer, "_two_qubit_delta", lowered)
        with pytest.raises(NoConvergence, match="local-minimum certificate failed"):
            optimize_design(1e-6, cs)
        assert main(["design", "--gamma10", "1e-6"]) == 3
        assert "NoConvergence: local-minimum certificate failed" in capsys.readouterr().err

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_seeded_by_closed_form_when_dephasing_dominates(self, suppression):
        # nu_c is the closed-form optimum at the mean component, exactly
        cs = OptimizationConstraints(suppression=suppression)
        gamma = 3e-5
        design, _ = optimize_design(gamma, cs)
        p = base_params(cs, gamma)
        assert design.nu_c == optimal_detuning(
            replace(p, omega_b_tilde=p.omega_b_tilde * design.alpha_b))

    def test_invalid_gamma(self):
        with pytest.raises(InvalidInput):
            optimize_design(0.0, OptimizationConstraints())

    def test_search_cost(self, monkeypatch):
        # the lattice search over alpha_b from the seed, nu_c in closed form,
        # and the certificate: 7 calls measured (3 in the search), bound
        # with a margin of 3
        calls = _count_delta_calls(monkeypatch)
        optimize_design(1e-6, OptimizationConstraints())
        assert len(calls) <= 10

    @pytest.mark.parametrize("suppression, gammas", [
        (1.0, (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)),
        (1e-3, (1e-9, 1e-8, 1e-7, 1e-6)),
    ])
    def test_cold_search_cost(self, monkeypatch, suppression, gammas):
        # the one alpha_b search of design --gamma10 starts from
        # _seed_alpha_b alone, with the model's curvature there as its first
        # slope: measured 3 objective calls at every point but gamma_10
        # 1e-6 at suppression 1e-3 (4), bound at 4.  At 1e-3 the optimum at
        # gamma_10 1e-10 lies past the range's top
        cs = OptimizationConstraints(suppression=suppression)
        evals = _count_alpha_b_evals(monkeypatch)
        for gamma in gammas:
            optimize_design(gamma, cs)
        assert len(evals) == len(gammas)
        assert max(evals) <= 4
        if suppression == 1e-3:
            with pytest.raises(NoConvergence, match="edge"):
                optimize_design(1e-10, cs)

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_one_alpha_b_search_per_search(self, monkeypatch, suppression):
        # the seeds solve a scalar model and call no objective: every
        # two-qubit search, forward or inside the inversion, runs the
        # alpha_b search alone
        calls = {"searches": 0, "alpha_b": 0}
        search, alpha_b = design_optimizer._two_qubit_optimize, design_optimizer._golden_min

        def counted(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize", counted("searches", search))
        monkeypatch.setattr(design_optimizer, "_golden_min", counted("alpha_b", alpha_b))
        cs = OptimizationConstraints(suppression=suppression)
        optimize_design(1e-6, cs)
        assert calls == {"searches": 1, "alpha_b": 1}
        max_dephasing(0.2, cs)
        assert calls["alpha_b"] == calls["searches"] > 1

    @pytest.mark.parametrize("gamma", [1e-6, 1e-4])
    def test_one_qubit_search_cost(self, monkeypatch, gamma):
        # min_alpha_b's secant search from its estimate: 3 budgets measured
        # at both points, bound with a margin of 1
        calls = []
        budget = design_optimizer._one_qubit_budget
        monkeypatch.setattr(design_optimizer, "_one_qubit_budget",
                            lambda *args: calls.append(args) or budget(*args))
        optimize_design(gamma, OptimizationConstraints(mode="one-qubit"))
        assert len(calls) <= 4

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_no_worse_than_the_tenth_grid(self, suppression):
        # the lattice search beats every 0.1-grid alpha_b within +/-1 of
        # its result, each at the closed-form nu_c as the search itself uses
        cs = OptimizationConstraints(suppression=suppression)
        design, budget = optimize_design(1e-6, cs)
        p = base_params(cs, 1e-6)
        grid = np.round(round(design.alpha_b, 1) + 0.1 * np.arange(-10, 11), 10)
        best = min(design_optimizer._two_qubit_min_nu(p, a, cs)[1] for a in grid)
        assert budget.delta_total <= best

    @pytest.mark.parametrize("alpha_b_range", [(1.0, 10.0), (20.0, 150.0)])
    def test_optimum_outside_range_does_not_converge(self, alpha_b_range):
        # the optimum at gamma_10 1e-6 sits at alpha_b ~ 12
        with pytest.raises(NoConvergence, match="edge"):
            optimize_design(1e-6, OptimizationConstraints(alpha_b_range=alpha_b_range))

    @pytest.mark.parametrize("seed", [
        lambda gamma, cs: 10.0,
        lambda gamma, cs: math.nan,
        _no_seed,
    ], ids=["model", "nan", "raises"])
    @pytest.mark.parametrize("target, edge", [(30.0, False), (200.0, True), (0.5, True)])
    def test_bracket_widens_from_the_seed(self, monkeypatch, seed, target, edge):
        # the search starts at the seed's alpha_b 10, or at the range's
        # geometric centre 12.2 where the seed fails; the objective's
        # minimum lies at target, several factors away or beyond an end of
        # the range: the search reaches the lattice minimum with its own
        # error there, or returns the range's end itself, which the
        # certificate reports as the edge
        def error(alpha):
            return -math.expm1(-math.log(alpha / target) ** 2)

        monkeypatch.setattr(design_optimizer, "_seed_alpha_b", seed)
        monkeypatch.setattr(design_optimizer, "_two_qubit_min_nu",
                            lambda params, alpha, cs: (100.0, error(alpha)))
        cs = OptimizationConstraints()
        search = design_optimizer._two_qubit_optimize(1e-6, cs)
        _, nu, alpha, delta = search
        assert (nu, delta) == (100.0, error(alpha))
        assert (alpha in cs.alpha_b_range) is edge
        _lattice_minimum(error, alpha, cs.alpha_b_range)
        if edge:
            assert alpha == (cs.alpha_b_range[0] if target < 1.0 else cs.alpha_b_range[1])
            with pytest.raises(NoConvergence, match="edge"):
                design_optimizer._certified(*search, cs)
        else:
            step = math.log(150.0) / design_optimizer._STEPS
            assert abs(math.log(alpha / target)) <= step


def _seed_model_error(gamma, alpha, cs):
    """The seeds' error model 1 - exp(-2 tau - phi^2 S), written out from
    asymptotic_design's tau at the mean component of base_params, with the
    spread S = u + 6 u^2, u = 1/alpha_b^2, continued along its tangent
    above the knee u = 1/64 (alpha_b below 8).  By expm1, so that the
    error keeps the exponent's digits where it is small."""
    p = base_params(cs, gamma)
    mean = replace(p, omega_b_tilde=p.omega_b_tilde * alpha)
    _, tau = asymptotic_design(mean, cs.phi)
    u = 1.0 / alpha ** 2
    knee = design_optimizer._SPREAD_KNEE
    assert knee == 1.0 / 64.0
    spread = u + 6.0 * u * u if u <= knee else u + 6.0 * knee * (2.0 * u - knee)
    return -math.expm1(-2.0 * tau - cs.phi ** 2 * spread)


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


# the ranges of random two-qubit designs away from the defaults
ITEM_10_CONSTRAINTS = st.builds(
    OptimizationConstraints, omega_a_over_gamma_20=_log_uniform(0.03, 10.0),
    omega_b_sq_over_omega_c_sq=_log_uniform(0.1, 10.0), suppression=_log_uniform(1e-4, 10.0),
    phi=st.sampled_from([PI, PI / 2, PI / 4, 2 * PI]))


class TestGaussianModel:
    """The strong-drive seeds of both two-qubit searches, `_seed_alpha_b`
    and `_seed_gamma_10`: Newton solutions of the second-cumulant error
    model 1 - exp(-2 tau - phi^2 S) (`_model`), against the model written
    out here and against the full searches."""

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    @pytest.mark.parametrize("gamma", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 5e-4])
    def test_matches_the_search(self, gamma, suppression):
        # measured: alpha_b within 4.9% (at suppression 1 and 5e-4, below
        # the knee; within 0.8% elsewhere) and delta within 0.30%
        cs = OptimizationConstraints(suppression=suppression)
        design, budget = optimize_design(gamma, cs)
        alpha = design_optimizer._seed_alpha_b(gamma, cs)
        delta = _seed_model_error(gamma, alpha, cs)
        assert abs(alpha / design.alpha_b - 1.0) <= 0.06
        assert abs(delta / budget.delta_total - 1.0) <= 0.005

    def test_dephasing_free_spread(self):
        # the spread term assumes the Kerr limit s = d ln Re W10 / d ln n_b
        # = -1; at suppression 1e-3, alpha_b 40 and the closed-form nu_c the
        # W10 formula gives it to 1e-12
        p = base_params(OptimizationConstraints(suppression=1e-3), 1e-14)
        mean = replace(p, omega_b_tilde=p.omega_b_tilde * 40.0)
        mean = replace(mean, nu_c=optimal_detuning(mean))
        h = 1e-4
        up, down = (w10(replace(mean, omega_b_tilde=mean.omega_b_tilde * math.sqrt(1.0 + d))).real
                    for d in (h, -h))
        assert math.log(up / down) / math.log((1.0 + h) / (1.0 - h)) == pytest.approx(
            -1.0, abs=1e-9)

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    @pytest.mark.parametrize("target", [0.05, 0.2, 0.3])
    def test_gamma_10_matches_the_inversion(self, target, suppression):
        # measured: within 0.83%, at suppression 1e-3 and target 0.3
        cs = OptimizationConstraints(suppression=suppression)
        seed, _ = design_optimizer._seed_gamma_10(target, cs)
        assert abs(seed / max_dephasing(target, cs)[0] - 1.0) <= 0.015

    @pytest.mark.parametrize("suppression", [1.0, 1e-3, 1e-8])
    @pytest.mark.parametrize("phi", [PI, PI / 2])
    @pytest.mark.parametrize("target", [0.01, 0.2, 0.49])
    def test_round_trip(self, target, phi, suppression):
        # the forward seed's optimum at the inversion seed's gamma_10 meets
        # the target in the model both are written from
        cs = OptimizationConstraints(suppression=suppression, phi=phi)
        gamma, _ = design_optimizer._seed_gamma_10(target, cs)
        alpha = design_optimizer._seed_alpha_b(gamma, cs)
        assert _seed_model_error(gamma, alpha, cs) == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("suppression", [1.0, 1e-3, 1e-8])
    @pytest.mark.parametrize("phi", [PI, PI / 2])
    @pytest.mark.parametrize("target", [0.05, 0.2, 0.3])
    def test_gamma_10_slope(self, target, phi, suppression):
        # the first slope of the gamma_10 search, tau / E at the seed, is
        # d ln x / d ln gamma_10 along the seed's inverse, x = -ln(1 - delta):
        # against a central difference over targets x (1 +/- 1e-5)
        cs = OptimizationConstraints(suppression=suppression, phi=phi)
        x = -math.log1p(-target)
        _, slope = design_optimizer._seed_gamma_10(target, cs)
        gammas = [design_optimizer._seed_gamma_10(-math.expm1(-x * (1.0 + h)), cs)[0]
                  for h in (1e-5, -1e-5)]
        central = math.log((1.0 + 1e-5) / (1.0 - 1e-5)) / math.log(gammas[0] / gammas[1])
        assert slope == pytest.approx(central, rel=1e-8)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cs=ITEM_10_CONSTRAINTS, target=st.floats(0.02, 0.45))
    def test_round_trip_drawn(self, cs, target):
        # the round trip away from the defaults, over the ranges of random
        # designs: the Newton iterates of both seeds stop at the model's
        # root where its convexity is not known
        gamma, _ = design_optimizer._seed_gamma_10(target, cs)
        alpha = design_optimizer._seed_alpha_b(gamma, cs)
        assert _seed_model_error(gamma, alpha, cs) == pytest.approx(target, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cs=ITEM_10_CONSTRAINTS, target=st.floats(0.02, 0.45))
    def test_gamma_10_slope_drawn(self, cs, target):
        # tau / E at the seed against the central difference of the seed
        # itself, over the ranges of random designs
        x = -math.log1p(-target)
        _, slope = design_optimizer._seed_gamma_10(target, cs)
        gammas = [design_optimizer._seed_gamma_10(-math.expm1(-x * (1.0 + h)), cs)[0]
                  for h in (1e-5, -1e-5)]
        central = math.log((1.0 + 1e-5) / (1.0 - 1e-5)) / math.log(gammas[0] / gammas[1])
        assert slope == pytest.approx(central, rel=1e-8)

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    @pytest.mark.parametrize("phi", [PI, PI / 2])
    @pytest.mark.parametrize("alpha", [5.0, 12.0, 40.0])
    def test_alpha_b_curvature(self, alpha, phi, suppression):
        # the alpha_b search's first slope is d^2 ln x / d(ln alpha_b)^2 of
        # the model's exponent x, on either side of the knee: against a
        # central second difference over ln alpha_b +/- 1e-4 (measured:
        # within 1.6e-6)
        cs = OptimizationConstraints(suppression=suppression, phi=phi)
        h = 1e-4
        ln_x = [math.log(-math.log1p(-_seed_model_error(1e-6, alpha * math.exp(d), cs)))
                for d in (h, 0.0, -h)]
        central = (ln_x[0] - 2.0 * ln_x[1] + ln_x[2]) / (h * h)
        assert design_optimizer._model_curvature(alpha, 1e-6, cs) == pytest.approx(
            central, rel=1e-5)

    @pytest.mark.parametrize("suppression", [1.0, 1e-3, 1e-8])
    def test_alpha_b_minimizes_the_model(self, suppression):
        # Newton's iterates stop at the model's minimum over the whole
        # lattice of max_dephasing, including where it lies far outside
        # alpha_b_range
        cs = OptimizationConstraints(suppression=suppression)
        for gamma in np.geomspace(1e-14, 1e-1, 27):
            alpha = design_optimizer._seed_alpha_b(gamma, cs)
            best = minimize_scalar(lambda x: _seed_model_error(gamma, math.exp(x), cs),
                                   bracket=(math.log(alpha) - 0.1, math.log(alpha) + 0.1),
                                   tol=1e-10)
            assert abs(math.log(alpha) - best.x) <= 1e-6

    def test_underflow_raises(self):
        # 4 c^2 gamma_10 underflows to 0; the searches fall back to their
        # unseeded brackets (tests/test_cli.py pins the command's exit)
        cs = OptimizationConstraints(suppression=1e-200)
        with pytest.raises(ZeroDivisionError):
            design_optimizer._seed_alpha_b(1e-6, cs)
        with pytest.raises(ZeroDivisionError):
            design_optimizer._seed_gamma_10(0.2, cs)


class TestLatticeSearch:
    """_last_true, the safeguarded secant search behind both inversions,
    against a scan."""

    STEPS = design_optimizer._STEPS
    SPAN = design_optimizer._GAMMA_SPAN

    @staticmethod
    def adversarial(last, seed, run, nan_share):
        """g of the predicate's sign only: magnitudes from 0 to 1e300, the
        same over runs of `run` indices, and nan at a share of the runs."""
        def g(k):
            rng = random.Random(f"{seed}:{k // run}")
            if rng.random() < nan_share:
                return math.nan
            size = rng.choice([0.0, 10.0 ** rng.uniform(-300.0, 300.0)])
            return size if k > last else -size
        return g

    @settings(max_examples=300, deadline=None)
    @given(last=st.one_of(st.sampled_from([-1, 0, STEPS - 1, STEPS]),
                          st.integers(-1, STEPS)),
           start=st.one_of(st.sampled_from([None, 0, STEPS]), st.integers(0, STEPS)),
           near=st.integers(-64, 64),
           slope=st.floats(1e-3, 1e3),
           linear=st.one_of(st.none(), st.floats(1e-6, 1e2)),
           seed=st.integers(0, 2 ** 32), run=st.sampled_from([1, 7, 1000, 2 * STEPS]),
           nan_share=st.sampled_from([0.0, 0.3, 1.0]))
    def test_matches_a_scan(self, last, start, near, slope, linear, seed, run, nan_share):
        # any threshold, from any start (the centre where the guess fails,
        # misplaced on either side, or within 64 steps of the threshold),
        # with g linear through the threshold at any slope per step, or of
        # the right sign alone; the first slope anywhere from 1e-3 to 1e3
        if start is not None and seed % 2:
            start = min(self.STEPS, max(0, last + near))
        if linear is None:
            g = self.adversarial(last, seed, run, nan_share)
        else:
            def g(k):
                return linear * (k - last - 0.5)
        guess = math.nan if start is None else design_optimizer._lattice(start, self.SPAN)
        seen = []
        found = design_optimizer._last_true(
            lambda k: seen.append(k) or (k <= last, g(k)), self.SPAN, guess, slope)
        assert found == max((k for k in range(self.STEPS + 1) if k <= last), default=-1)
        assert len(seen) == len(set(seen))
        assert all(0 <= k <= self.STEPS for k in seen)
        assert seen[0] == (self.STEPS // 2 if start is None else start)
        # a bisection follows every step from the third on that does not
        # halve the bracket
        assert len(seen) <= 2 * math.log2(self.STEPS) + 2
        # on a linear g the first secant through two points lands on the
        # threshold
        if linear is not None and abs(seen[0] - last) <= 64:
            assert len(seen) <= 4

    @pytest.mark.parametrize("guess, first", [
        (1e-300, 0), (1e300, STEPS), (math.inf, STEPS // 2), (0.0, STEPS // 2),
        (-1.0, STEPS // 2), (math.nan, STEPS // 2)])
    def test_start(self, guess, first):
        # the lattice point nearest the guess, or the centre without one
        seen = []
        design_optimizer._last_true(lambda k: seen.append(k) or (k <= 5, math.nan),
                                    self.SPAN, guess, 0.5)
        assert seen[0] == first

    @staticmethod
    def _recorded(monkeypatch):
        """The probes of every _last_true search, one list per search in the
        order the searches start, and their results once they return."""
        searches, results = [], {}
        last_true = design_optimizer._last_true

        def recorded(evaluate, span, guess, slope):
            seen = []
            searches.append(seen)
            results[len(searches) - 1] = found = last_true(
                lambda k: seen.append(k) or evaluate(k), span, guess, slope)
            return found

        monkeypatch.setattr(design_optimizer, "_last_true", recorded)
        return searches, results

    def test_creeping_approach_keeps_to_its_side(self, monkeypatch):
        # the first alpha_b search of max_dephasing(0.34) at suppression
        # 1e-3 and phi = pi/2, rerun with the fixed first slope 2, creeps up
        # on its threshold while the failing end is unknown: 7883, 7910,
        # 8003, 8004; the unit step to 8004 is the cheapest test of the
        # threshold, so the search tests 8005 next instead of bisecting
        # towards the lattice's top (12194).  With the model's curvature as
        # its first slope the same search probes 7883, 8011, 8004, 8005
        runs = []
        golden = design_optimizer._golden_min
        monkeypatch.setattr(design_optimizer, "_golden_min",
                            lambda *args: runs.append(args) or golden(*args))
        max_dephasing(0.34, OptimizationConstraints(suppression=1e-3, phi=PI / 2))
        f, span, guess, slope = runs[0]
        monkeypatch.undo()
        searches, _ = self._recorded(monkeypatch)
        result = design_optimizer._golden_min(f, span, guess, slope)
        assert searches[0] == [7883, 8011, 8004, 8005]
        assert design_optimizer._golden_min(f, span, guess, 2.0) == result
        seen = searches[1]
        assert max(seen) < (8004 + self.STEPS + 1) // 2   # none in the far half
        assert seen == [7883, 7910, 8003, 8004, 8005]

    def test_no_probe_in_the_far_half(self, monkeypatch):
        # with the fixed first slope 2, the first alpha_b search of this
        # inversion crept by two unit steps, 6085, 6086, 6087, and then
        # bisected towards the lattice's top (11236) before it tested 6088;
        # from the model's curvature it keeps to the threshold's side
        searches, results = self._recorded(monkeypatch)
        gamma, _, _ = max_dephasing(0.48, OptimizationConstraints(suppression=1e-2,
                                                                  phi=PI / 2))
        seen = searches[1]   # the first, searches[0], is over gamma_10
        assert max(seen) < (6087 + self.STEPS + 1) // 2
        assert seen == [5915, 6116, 6087, 6088]
        # the same lattice points as before: alpha_b index 6088, and gamma_10
        assert results[1] == 6087
        assert gamma == 0.00584746691755724

    def test_lattice_ends_are_exact(self):
        for span in (design_optimizer._GAMMA_SPAN, design_optimizer._MIN_ALPHA_SPAN):
            assert design_optimizer._lattice(0, span) == span[0]
            assert design_optimizer._lattice(self.STEPS, span) == span[1]


def _raised(call):
    try:
        call()
    except GateModelError as exc:
        return type(exc)
    return None


class TestSearchPath:
    """The searches rank points by _two_qubit_delta; it is the full budget's
    delta_total, bit for bit, and fails wherever the full path fails."""

    # the search evaluates alpha_b anywhere in the default range
    ALPHAS = st.floats(1.0, 150.0)

    # a signal amplitude whose square differs between Python's x ** 2 and
    # numpy's array square, x * x, at n_c = 1
    ROUNDING_SIGNAL = 2.759

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(log_gamma=st.floats(-9.0, -2.0), suppression=st.sampled_from([1.0, 1e-3]),
           alpha=ALPHAS, position=st.floats(0.0, 1.0),
           phi=st.sampled_from([PI, PI / 2, PI / 4, 2 * PI]),
           log_a_ratio=st.floats(math.log10(0.03), 1.0), log_bc_ratio=st.floats(-1.0, 1.0),
           n_c=st.sampled_from([None, 1, 2]))
    @example(log_gamma=-6.0, suppression=1.0, alpha=12.0, position=0.5, phi=PI,
             log_a_ratio=0.0, log_bc_ratio=0.0, n_c=1)
    @example(log_gamma=-6.0, suppression=1e-3, alpha=40.0, position=0.5, phi=PI / 2,
             log_a_ratio=0.0, log_bc_ratio=0.0, n_c=2)
    def test_delta_equals_full_budget(self, log_gamma, suppression, alpha, position, phi,
                                      log_a_ratio, log_bc_ratio, n_c):
        # the constraint space away from its defaults: any phase of the
        # sample, drive ratios over decades, and a SystemParams whose signal
        # is ROUNDING_SIGNAL with one or two photons (n_c None: base_params')
        assert self.ROUNDING_SIGNAL ** 2 != self.ROUNDING_SIGNAL * self.ROUNDING_SIGNAL
        cs = OptimizationConstraints(suppression=suppression, phi=phi,
                                     omega_a_over_gamma_20=10.0 ** log_a_ratio,
                                     omega_b_sq_over_omega_c_sq=10.0 ** log_bc_ratio)
        p = base_params(cs, 10.0 ** log_gamma)
        if n_c is not None:
            p = replace(p, omega_c_tilde=self.ROUNDING_SIGNAL, n_c=n_c)
        # nu_c anywhere within two decades of the closed-form optimum at the
        # mean component, on a log axis
        seed = optimal_detuning(replace(p, omega_b_tilde=p.omega_b_tilde * alpha))
        nu = seed * 10.0 ** (4.0 * position - 2.0)
        full = _two_qubit_budget(p, design_point(p, nu, alpha, cs.phi)).delta_total
        assert _two_qubit_delta(p, nu, alpha, cs.phi) == full

    LOSSLESS = dict(omega_a_tilde=1.0, omega_b_tilde=1.0, omega_c_tilde=1.0, n_a=1,
                    n_c=1, nu_a=0.0, nu_b=0.0, nu_c=10.0, gamma_10=0.0, gamma_20=0.0,
                    gamma_30=0.0, gamma_40=0.0)

    @pytest.mark.parametrize("case, nu, alpha, expected", [
        ("non-finite nu_c", math.nan, 12.0, InvalidInput),
        ("negative alpha_b", 100.0, -1.0, InvalidInput),
        ("Re W10 = 0 on resonance", 0.0, 12.0, ZeroPhaseRate),
        ("negative time below resonance", -50.0, 12.0, InvalidInput),
        ("undriven lossless mean component", 10.0, 0.0, DegenerateDenominator),
        ("non-finite sum", 100.0, 12.0, InvalidInput),
        ("infinite gate time", 100.0, 12.0, InvalidInput),
    ])
    def test_raises_as_full_path(self, monkeypatch, case, nu, alpha, expected):
        if case.startswith("undriven"):
            p = SystemParams(**self.LOSSLESS)
        else:
            p = base_params(OptimizationConstraints(), 1e-6)
        if case == "infinite gate time":
            monkeypatch.setattr(coherent_gate, "gate_time", lambda params, phi: math.inf)
            with pytest.raises(InvalidInput, match="time_norm must be finite"):
                _two_qubit_delta(p, nu, alpha, PI)
        if case == "non-finite sum":
            monkeypatch.setattr(coherent_gate, "_response_grid",
                                lambda params, omega_b, omega_c: np.full(
                                    np.broadcast_shapes(np.shape(omega_b), np.shape(omega_c)),
                                    math.nan))
        full = _raised(lambda: _two_qubit_budget(p, design_point(p, nu, alpha, PI)))
        assert full is expected
        assert _raised(lambda: _two_qubit_delta(p, nu, alpha, PI)) is expected


class TestNuSearch:
    """nu_c in closed form (`optimal_detuning` of the mean component): the
    one-qubit decoherence floor, and the two-qubit search at each alpha_b."""

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_one_qubit_floor_is_closed_form(self, suppression):
        cs = OptimizationConstraints(mode="one-qubit", suppression=suppression)
        ratio = math.sqrt(cs.alpha_c_over_alpha_b ** 2 / cs.omega_b_sq_over_omega_c_sq)
        for gamma in np.geomspace(1e-14, 1e-1, 27):
            mean = replace(base_params(cs, gamma), omega_b_tilde=1.0, omega_c_tilde=ratio)
            floor = 1.0 - math.exp(-2.0 * tau_eff_at_optimum(mean, cs.phi))
            nu, got = design_optimizer._one_qubit_dec_limit(gamma, cs)
            assert nu == optimal_detuning(mean)
            assert got == pytest.approx(floor, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("design", _reference_designs(), ids=lambda d: d["id"])
    def test_closed_form_nu_near_the_minimum(self, design):
        # the search takes nu_c from the closed form; at each reference
        # design's alpha_b its delta is within 1e-5 (10x below the
        # certificate's slack) of a bounded Brent minimum over ln nu_c on two
        # decades either side (measured rise 1.1e-8 to 1.1e-6)
        cs = OptimizationConstraints(suppression=design["suppression"])
        p = base_params(cs, design["gamma_10_over_omega_a"])
        alpha = design["alpha_b"]
        nu, closed = design_optimizer._two_qubit_min_nu(p, alpha, cs)
        best = minimize_scalar(lambda x: _two_qubit_delta(p, math.exp(x), alpha, cs.phi),
                               bounds=(math.log(nu) - 2 * math.log(10),
                                       math.log(nu) + 2 * math.log(10)),
                               method="bounded", options={"xatol": 4.4e-5})
        assert closed <= best.fun + 1e-5


class TestLatticeMinimum:
    """`_golden_min`: the local minimum of a gate error on a geometric lattice."""

    def test_finds_smooth_minimum(self):
        # an error whose exponent is e^y - 2y in y = ln x: asymmetric,
        # minimum at x = 2, off the lattice's geometric centre
        evals = []

        def f(x):
            evals.append(x)
            return -math.expm1(-(x - 2.0 * math.log(x)))

        span = (0.01, 50.0)
        x, value = design_optimizer._golden_min(f, span, math.nan, 2.0)
        # once per point, and at most two points per step of _last_true
        assert len(evals) == len(set(evals)) <= 2 * (2 * math.log2(design_optimizer._STEPS) + 2)
        assert abs(math.log(x / 2.0)) <= math.log(span[1] / span[0]) / design_optimizer._STEPS
        assert value == f(x)
        _lattice_minimum(f, x, span)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_goes_to_lattice_end(self, sign):
        span = (1e-3, 1e3)
        x, _ = design_optimizer._golden_min(lambda x: sign * x, span, 1.0, 2.0)
        assert x == (span[0] if sign > 0 else span[1])


class TestMaxDephasing:
    def test_monotone_inversion(self):
        cs = OptimizationConstraints(suppression=1.0)
        g_strict, _, _ = max_dephasing(0.05, cs)
        g_loose, _, _ = max_dephasing(0.2, cs)
        assert g_strict < g_loose

    def test_witness_meets_target(self, monkeypatch):
        searches = []
        search = design_optimizer._two_qubit_optimize

        def counted(*args, **kwargs):
            searches.append(args[0])
            return search(*args, **kwargs)

        windows = []
        window = coherent_gate._poisson_window

        def counted_window(mu):
            windows.append(mu)
            return window(mu)

        # every alpha_b whose window a search reads, through the full budget
        # or the delta-only path
        alphas = set()
        two_qubit_budget = design_optimizer._two_qubit_budget
        two_qubit_delta = design_optimizer._two_qubit_delta

        def recorded_budget(params, design, *args):
            alphas.add(design.alpha_b)
            return two_qubit_budget(params, design, *args)

        def recorded_delta(params, nu_c, alpha_b, *args):
            alphas.add(alpha_b)
            return two_qubit_delta(params, nu_c, alpha_b, *args)

        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize", counted)
        monkeypatch.setattr(coherent_gate, "_poisson_window", counted_window)
        monkeypatch.setattr(design_optimizer, "_two_qubit_budget", recorded_budget)
        monkeypatch.setattr(design_optimizer, "_two_qubit_delta", recorded_delta)
        cs = OptimizationConstraints(suppression=1.0)
        coherent_gate._window.cache_clear()
        gamma, design, budget = max_dephasing(0.2, cs)
        # all searches of one call read the memoized windows: each distinct
        # alpha_b has its window built once, and the cache holds them all
        assert len(windows) == len(alphas)
        assert len(alphas) <= coherent_gate._window.cache_info().maxsize
        assert budget.delta_total <= 0.2 * 1.01
        # the seed's point, then secant steps from the seed model's slope to
        # the threshold and its neighbour: 3 measured here and at targets
        # 0.05, 0.198, 0.202 and 0.3 at both suppressions, bound with a
        # margin of 1; the search at the final gamma_10 is reused
        assert len(searches) <= 4
        assert searches.count(gamma) == 1
        # the windows outlive the call: an identical call builds none
        windows.clear()
        assert max_dephasing(0.2, cs) == (gamma, design, budget)
        assert windows == []
        # the returned budget, summed over a memoized window, is the witness
        # design's own with a freshly built window, bit for bit
        coherent_gate._window.cache_clear()
        assert budget == _two_qubit_budget(base_params(cs, gamma), design)
        assert len(windows) == 1

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    @pytest.mark.parametrize("target", INVERSION_TARGETS)
    def test_seed_leaves_the_result(self, monkeypatch, target, suppression):
        # the same lattice point with nothing carried between the searches
        # of the inversion (every alpha_b search from its own seed, the
        # first gamma_10 slope 1/2), and with both seeds failing, so that
        # both searches start from the unseeded brackets: the range's centre
        # and the whole lattice
        cs = OptimizationConstraints(suppression=suppression)
        seeded = max_dephasing(target, cs)[0]
        _cold_starts(monkeypatch)
        assert max_dephasing(target, cs)[0] == seeded
        monkeypatch.undo()
        monkeypatch.setattr(design_optimizer, "_seed_alpha_b", _no_seed)
        monkeypatch.setattr(design_optimizer, "_seed_gamma_10", _no_seed)
        assert max_dephasing(target, cs)[0] == seeded

    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_misplaced_seed_reaches_the_same_point(self, monkeypatch, factor):
        # a gamma_10 seed three decades off, with the warm starts and the
        # model's first slope, and without them
        for target, suppression, cold in itertools.product(
                INVERSION_TARGETS, (1.0, 1e-3), (False, True)):
            cs = OptimizationConstraints(suppression=suppression)
            seeded = max_dephasing(target, cs)[0]
            guess, slope = design_optimizer._seed_gamma_10(target, cs)
            with monkeypatch.context() as patched:
                patched.setattr(design_optimizer, "_seed_gamma_10",
                                lambda t, c: (guess * factor, slope))
                if cold:
                    _cold_starts(patched)
                assert max_dephasing(target, cs)[0] == seeded

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_inversion_cost(self, monkeypatch, suppression):
        # measured: 3 and 3 searches, 14 and 15 delta calls (the
        # certificate's 4 included), bound with a margin of one search,
        # which costs at most 4 calls once warm
        measured_searches, measured_calls = {1.0: (3, 14), 1e-3: (3, 15)}[suppression]
        searches = []
        search = design_optimizer._two_qubit_optimize
        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize",
                            lambda *args: searches.append(args) or search(*args))
        calls = _count_delta_calls(monkeypatch)
        max_dephasing(0.2, OptimizationConstraints(suppression=suppression))
        assert len(searches) <= measured_searches + 1
        assert len(calls) <= measured_calls + 4

    def test_benchmark_round_cost(self, monkeypatch):
        # a seed-0 invert-2q round: design --delta 0.2 at suppressions 1 and
        # 1e-3; measured: 29 delta calls, bound with a margin of 1
        calls = _count_delta_calls(monkeypatch)
        for suppression in (1.0, 1e-3):
            max_dephasing(0.2, OptimizationConstraints(suppression=suppression))
        assert len(calls) <= 30

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    @pytest.mark.parametrize("target", [0.198, 0.2, 0.202])
    def test_warm_alpha_b_searches(self, monkeypatch, target, suppression):
        # every alpha_b search after the first starts from its seed scaled by
        # the last search's ratio of found alpha_b to seed: measured 4
        # objective calls in the first search at suppression 1 and 5 at
        # 1e-3, where the cold seed lands 13 to 26 lattice indices below
        # the minimum and the model's curvature, 0.91, makes the first
        # secant step reach it, then 3 each
        evals = _count_alpha_b_evals(monkeypatch)
        max_dephasing(target, OptimizationConstraints(suppression=suppression))
        assert len(evals) >= 2
        assert max(evals[1:]) <= 4

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_design_built_once(self, monkeypatch, suppression):
        # every search hands back its lattice point; only the result of the
        # command is built into a validated design and budget
        calls = {"design_point": 0, "_two_qubit_budget": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(design_optimizer, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(design_optimizer, name, counted)
        cs = OptimizationConstraints(suppression=suppression)
        max_dephasing(0.2, cs)
        assert calls == {"design_point": 1, "_two_qubit_budget": 1}
        calls.update(dict.fromkeys(calls, 0))
        optimize_design(1e-6, cs)
        assert calls == {"design_point": 1, "_two_qubit_budget": 1}

    def test_not_attainable(self):
        cs = OptimizationConstraints(alpha_b_range=(1.0, 10.0))
        with pytest.raises(NotAttainable):
            max_dephasing(0.001, cs)

    def test_not_attainable_from_a_seed(self, monkeypatch):
        # a seed far above the floor: the bracket moves down to k = 0
        monkeypatch.setattr(design_optimizer, "_seed_gamma_10", lambda t, c: (1e-6, 0.5))
        with pytest.raises(NotAttainable, match="1e-14"):
            max_dephasing(0.001, OptimizationConstraints(alpha_b_range=(1.0, 10.0)))

    def test_bracket_top_warns(self, monkeypatch):
        # every lattice point meets a loose target: the bracket moves up to
        # the lattice's top, which is returned with a RegimeWarning
        cs = OptimizationConstraints()
        search = design_optimizer._two_qubit_optimize(1e-6, cs)
        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize", lambda g, c, guess: search)
        with pytest.warns(RegimeWarning, match="bracket top"):
            gamma, design, budget = max_dephasing(0.45, cs)
        assert gamma == 1e-1
        assert (design.nu_c, design.alpha_b, budget.delta_total) == search[1:]

    def test_postcondition(self, monkeypatch):
        # a returned design above the target fails loudly, also under -O
        cs = OptimizationConstraints()
        certified = design_optimizer._certified

        def missed(*args):
            design, _ = certified(*args)
            return design, ErrorBudget(0.1, 0.15, 0.25, math.sqrt(0.75))

        monkeypatch.setattr(design_optimizer, "_certified", missed)
        with pytest.raises(NoConvergence, match="above its target"):
            max_dephasing(0.2, cs)

    def test_invalid_target(self):
        with pytest.raises(InvalidInput):
            max_dephasing(0.7, OptimizationConstraints())


def _bisected(holds) -> int:
    """Largest lattice index where holds, -1 if none, by a plain bisection of
    the whole lattice: the reference both inversions must agree with."""
    lo, hi = -1, design_optimizer._STEPS + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


class TestMatchesTheBisection:
    """Both inversions return the lattice point the plain bisection returns."""

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_max_dephasing(self, suppression):
        cs = OptimizationConstraints(suppression=suppression)
        for target in (0.05, 0.198, 0.2, 0.202, 0.3):
            k = _bisected(lambda k: design_optimizer._two_qubit_optimize(
                design_optimizer._lattice(k), cs)[3] <= target)
            assert max_dephasing(target, cs)[0] == design_optimizer._lattice(k)

    def test_min_alpha_b(self):
        # at forward-1q's ten dephasings of seed 0, 10^(-6 ... -5.98)
        cs = OptimizationConstraints(mode="one-qubit")
        span = design_optimizer._MIN_ALPHA_SPAN
        for i in range(10):
            gamma = 10.0 ** (-6.0 + 0.002 * (i + 0.5))
            p = base_params(cs, gamma)
            nu, floor = design_optimizer._one_qubit_dec_limit(gamma, cs)

            def misses(j):
                alpha = design_optimizer._lattice(j, span)
                design = design_point(p, nu, alpha, cs.phi, alpha_c=10.0 * alpha)
                return _one_qubit_budget(p, design).delta_coherent_spread > floor

            j = _bisected(misses) + 1
            assert optimize_design(gamma, cs)[0].alpha_b == design_optimizer._lattice(j, span)

    @pytest.mark.parametrize("design", [
        *_reference_designs(),
        {"gamma_10_over_omega_a": 1e-6, "suppression": 1.0, "alpha_b": None, "id": "1e-6"},
    ], ids=lambda d: d["id"])
    def test_alpha_b(self, design):
        # the two-qubit alpha_b is the lattice point after the last one
        # where the error falls to the next, and each committed design holds it
        cs = OptimizationConstraints(suppression=design["suppression"])
        gamma = design["gamma_10_over_omega_a"]
        p = base_params(cs, gamma)
        span, steps = cs.alpha_b_range, design_optimizer._STEPS

        def f(alpha):
            return design_optimizer._two_qubit_min_nu(p, alpha, cs)[1]

        alpha = optimize_design(gamma, cs)[0].alpha_b
        if design["alpha_b"] is not None:
            assert alpha == design["alpha_b"]
        k = _lattice_minimum(f, alpha, span)
        assert 0 < k < steps
        falls = lambda k: (k < steps and f(design_optimizer._lattice(k + 1, span))
                           < f(design_optimizer._lattice(k, span)))
        assert _bisected(falls) + 1 == k


class TestDriveRatioSymmetry:
    """With gamma_30 = 0 and nu_a = nu_b = 0, as in base_params, level 3
    enters W10 only through r (gamma_40 - i nu_c), r =
    omega_b_sq_over_omega_c_sq: a design depends on suppression x r, and
    nu_c scales as 1/r.  So (suppression, r) -> (suppression k, r / k) leaves
    every lattice point in place; delta_total and nu_c r move in the last
    digits only (measured: 2.2e-15 and 3.3e-16 relative)."""

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_scaled_pair_gives_the_same_designs(self, suppression):
        base = OptimizationConstraints(suppression=suppression)
        forward = {gamma: optimize_design(gamma, base) for gamma in (1e-8, 1e-6, 1e-4)}
        inverse = {target: max_dephasing(target, base) for target in (0.05, 0.2, 0.3)}
        for k in (0.1, 0.37, 3.3, 10.0):
            cs = OptimizationConstraints(suppression=suppression * k,
                                         omega_b_sq_over_omega_c_sq=1.0 / k)
            r = cs.omega_b_sq_over_omega_c_sq
            results = [((None, *optimize_design(gamma, cs)), (None, *forward[gamma]))
                       for gamma in forward]
            results += [(max_dephasing(target, cs), inverse[target]) for target in inverse]
            for (gamma, design, budget), (gamma_0, design_0, budget_0) in results:
                assert gamma == gamma_0
                assert design.alpha_b == design_0.alpha_b
                assert budget.delta_total == pytest.approx(budget_0.delta_total, rel=1e-13)
                assert design.nu_c * r == pytest.approx(design_0.nu_c, rel=1e-13)


class TestSweep:
    def test_design_point_rows(self):
        spec = SweepSpec(quantity="delta_target", values=(0.2,))
        sets = [OptimizationConstraints(suppression=1.0),
                OptimizationConstraints(suppression=1e-3)]
        rows = sweep(spec, sets)
        assert len(rows) == 2
        assert all(r.status == "ok" for r in rows)
        unsup, sup = rows
        assert unsup.suppression == 1.0 and sup.suppression == 1e-3
        assert 7.0 <= unsup.alpha_b <= 14.0
        assert sup.gamma_10_over_omega_a > unsup.gamma_10_over_omega_a

    def test_not_attainable_rows_flagged(self):
        spec = SweepSpec(quantity="delta_target", values=(0.001,))
        rows = sweep(spec, [OptimizationConstraints(alpha_b_range=(1.0, 10.0))])
        assert rows[0].status == "NotAttainable"
        assert math.isnan(rows[0].delta_total)

    def test_forward_grid_monotone(self):
        gammas = tuple(np.geomspace(1e-7, 1e-4, 6))
        spec = SweepSpec(quantity="gamma_10", values=gammas)
        rows = sweep(spec, [OptimizationConstraints(suppression=1.0)])
        deltas = [r.delta_total for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(deltas, deltas[1:]))

    def test_determinism(self):
        spec = SweepSpec(quantity="gamma_10", values=(1e-6, 1e-5))
        sets = [OptimizationConstraints(suppression=1.0)]
        assert sweep(spec, sets) == sweep(spec, sets)

    def test_one_qubit_rows(self):
        spec = SweepSpec(quantity="delta_target", values=(0.2,))
        rows = sweep(spec, [OptimizationConstraints(mode="one-qubit")])
        row = rows[0]
        assert row.status == "ok"
        assert row.mode == "one-qubit"
        # decoherence part carries the target; spread stays at or below it
        assert row.delta_decoherence == pytest.approx(0.2, rel=0.05)
        assert row.delta_spread <= 0.2 * 1.05
        # tolerates far more dephasing than the unsuppressed two-qubit gate
        assert row.gamma_10_over_omega_a > 1e-5

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInput):
            SweepSpec(quantity="delta_target", values=())

    @pytest.mark.parametrize("quantity, value", [
        ("delta_target", 0.5), ("delta_target", math.nan), ("gamma_10", 0.0),
        ("gamma_10", math.inf), ("gamma_10", math.nan),
    ])
    def test_out_of_range_grid_rejected(self, quantity, value):
        # the grid fails as a whole before any point runs, not row by row
        with pytest.raises(InvalidInput, match=quantity):
            SweepSpec(quantity=quantity, values=(1e-6 if quantity == "gamma_10" else 0.2, value))


def _tabulated(errors):
    """An optimize_design that returns the design and budget of a table
    {(gamma_10, suppression): delta_total}, raising NoConvergence where the
    table holds None."""
    def optimize(gamma, cs):
        delta = errors[gamma, cs.suppression]
        if delta is None:
            raise NoConvergence("no design here")
        return (GateDesign(nu_c=1.0, alpha_b=10.0, phi=cs.phi, time_norm=100.0),
                ErrorBudget(delta / 2, delta / 2, delta, math.sqrt(1.0 - delta)))
    return optimize


class TestMonotonicityAudit:
    """The sweep audits delta_total within each constraint set, over its ok rows."""

    SETS = [OptimizationConstraints(suppression=1.0),
            OptimizationConstraints(suppression=1e-3, mode="one-qubit")]

    def test_decrease_within_a_set_raises(self, monkeypatch):
        # the first set rises, the second falls: the message names the second
        monkeypatch.setattr(design_optimizer, "optimize_design", _tabulated(
            {(1e-6, 1.0): 0.1, (1e-6, 1e-3): 0.3, (1e-5, 1.0): 0.2, (1e-5, 1e-3): 0.25}))
        with pytest.raises(MonotonicityViolation,
                           match=r"0\.3 to 0\.25 .*\(mode=one-qubit, suppression=0\.001\)"):
            sweep(SweepSpec("gamma_10", (1e-6, 1e-5)), self.SETS)

    def test_crossing_sets_pass(self, monkeypatch):
        # rows are value-major: 0.1, 0.3, 0.5, 0.4 falls as a whole, but
        # each set rises, and the two cross
        monkeypatch.setattr(design_optimizer, "optimize_design", _tabulated(
            {(1e-6, 1.0): 0.1, (1e-6, 1e-3): 0.3, (1e-5, 1.0): 0.5, (1e-5, 1e-3): 0.4}))
        rows = sweep(SweepSpec("gamma_10", (1e-6, 1e-5)), self.SETS)
        assert [r.delta_total for r in rows] == [0.1, 0.3, 0.5, 0.4]
        assert [r.suppression for r in rows] == [1.0, 1e-3, 1.0, 1e-3]

    def test_failed_rows_are_skipped(self, monkeypatch):
        # a failed row between a fall does not hide it, and a failed row
        # alone passes
        gammas = (1e-6, 1e-5, 1e-4)
        monkeypatch.setattr(design_optimizer, "optimize_design", _tabulated(
            {(1e-6, 1.0): 0.3, (1e-5, 1.0): None, (1e-4, 1.0): 0.2}))
        with pytest.raises(MonotonicityViolation, match="0.3 to 0.2"):
            sweep(SweepSpec("gamma_10", gammas), self.SETS[:1])
        monkeypatch.setattr(design_optimizer, "optimize_design", _tabulated(
            {(1e-6, 1.0): 0.2, (1e-5, 1.0): None, (1e-4, 1.0): 0.3}))
        rows = sweep(SweepSpec("gamma_10", gammas), self.SETS[:1])
        assert [r.status for r in rows] == ["ok", "NoConvergence", "ok"]
        assert math.isnan(rows[1].delta_total)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sweep(SweepSpec("gamma_10", (1e-6,)), []), InvalidInput,
     "no constraint sets given"),
    (lambda: design_optimizer.min_alpha_b(base_params(OptimizationConstraints(), 1e-6),
                                          PI, 1.0, 1.0, 10.0),
     InvalidInput, r"delta_target must be in \(0, 1\), got 1.0"),
    # at gamma_10 = 0.1 and |Omega~_a| = 0.01 gamma_20, tau_eff is so large
    # that the floor 1 - exp(-2 tau) rounds to 1.0
    (lambda: optimize_design(0.1, OptimizationConstraints(mode="one-qubit",
                                                          omega_a_over_gamma_20=0.01)),
     NoConvergence, "one-qubit decoherence floor 1.0 out of range"),
], ids=["sweep-no-sets", "min_alpha_b-target-1", "one-qubit-floor-1"])
def test_library_failure_named(call, error, message):
    with pytest.raises(error, match=message):
        call()
