import csv
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from eitgate import (DegenerateDenominator, ErrorBudget, GateModelError,
                     InvalidInput, NoConvergence, NotAttainable, OptimizationConstraints,
                     PhaseTarget, RegimeWarning, SweepSpec, SystemParams, ZeroPhaseRate,
                     asymptotic_design, base_params, design_point, max_dephasing, optimal_detuning,
                     optimize_design, sweep, tau_eff_at_optimum, w10)
from eitgate import coherent_gate, design_optimizer
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
        # and the certificate: 11 calls measured (7 in the search), bound
        # with a margin of 3; Brent's bounded method took 11 as well, a
        # nested Brent search over nu_c 58, a 24-point scan seed 75 and an
        # integer-then-0.1 grid about 350
        calls = _count_delta_calls(monkeypatch)
        optimize_design(1e-6, OptimizationConstraints())
        assert len(calls) <= 14

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_one_brent_search_per_search(self, monkeypatch, suppression):
        # the seeds are closed forms: every two-qubit search, forward or
        # inside the inversion, runs the alpha_b search alone; a numerical
        # model seed ran its own search beside it, and a root search on top
        # of that
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
        # the continuous search beats every 0.1-grid alpha_b within +/-1 of
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
        # the range: the search reaches the lattice minimum, or reports the
        # edge with the range's end itself
        def error(alpha):
            return -math.expm1(-math.log(alpha / target) ** 2)

        monkeypatch.setattr(design_optimizer, "_seed_alpha_b", seed)
        monkeypatch.setattr(design_optimizer, "_two_qubit_min_nu",
                            lambda params, alpha, cs: (100.0, error(alpha)))
        cs = OptimizationConstraints()
        _, design, _, at_edge = design_optimizer._two_qubit_optimize(1e-6, cs)
        assert at_edge is edge
        _lattice_minimum(error, design.alpha_b, cs.alpha_b_range)
        if edge:
            assert design.alpha_b == (cs.alpha_b_range[0] if target < 1.0 else cs.alpha_b_range[1])
        else:
            step = math.log(150.0) / design_optimizer._STEPS
            assert abs(math.log(design.alpha_b / target)) <= step


def _seed_model_error(gamma, alpha, cs):
    """The seeds' error model 1 - exp(-2 tau - (phi / alpha_b)^2), written out
    from asymptotic_design's tau at the mean component of base_params."""
    p = base_params(cs, gamma)
    mean = replace(p, omega_b_tilde=p.omega_b_tilde * alpha)
    _, tau = asymptotic_design(mean, PhaseTarget(cs.phi))
    return 1.0 - math.exp(-2.0 * tau - (cs.phi / alpha) ** 2)


class TestGaussianModel:
    """The closed forms that seed both two-qubit searches: the optimum of the
    Gaussian (second-cumulant) error model in the strong-drive limit,
    1 - exp(-2 tau - (phi / alpha_b)^2), against the full searches."""

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    @pytest.mark.parametrize("gamma", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 5e-4])
    def test_matches_the_search(self, gamma, suppression):
        # measured: alpha_b within 5.9% and delta within 2.6% (a numerical
        # minimization of the model with the exact tau and s at the mean
        # component: 6.0% and 2.6%)
        cs = OptimizationConstraints(suppression=suppression)
        design, budget = optimize_design(gamma, cs)
        alpha = design_optimizer._seed_alpha_b(gamma, cs)
        delta = _seed_model_error(gamma, alpha, cs)
        assert abs(alpha / design.alpha_b - 1.0) <= 0.10
        assert abs(delta / budget.delta_total - 1.0) <= 0.05

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
        # measured: within 7.4%, at suppression 1 and target 0.3
        cs = OptimizationConstraints(suppression=suppression)
        seed = design_optimizer._seed_gamma_10(target, cs)
        assert abs(seed / max_dephasing(target, cs)[0] - 1.0) <= 0.10

    @pytest.mark.parametrize("suppression", [1.0, 1e-3, 1e-8])
    @pytest.mark.parametrize("phi", [PI, PI / 2])
    @pytest.mark.parametrize("target", [0.01, 0.2, 0.49])
    def test_round_trip(self, target, phi, suppression):
        # the forward seed's optimum at the inversion seed's gamma_10 meets
        # the target in the model both are written from
        cs = OptimizationConstraints(suppression=suppression, phi=phi)
        gamma = design_optimizer._seed_gamma_10(target, cs)
        alpha = design_optimizer._seed_alpha_b(gamma, cs)
        assert _seed_model_error(gamma, alpha, cs) == pytest.approx(target, rel=1e-12)

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

    @settings(max_examples=150, deadline=None)
    @given(log_gamma=st.floats(-9.0, -2.0), suppression=st.sampled_from([1.0, 1e-3]),
           alpha=ALPHAS, position=st.floats(0.0, 1.0))
    def test_delta_equals_full_budget(self, log_gamma, suppression, alpha, position):
        cs = OptimizationConstraints(suppression=suppression)
        p = base_params(cs, 10.0 ** log_gamma)
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
    ])
    def test_raises_as_full_path(self, monkeypatch, case, nu, alpha, expected):
        if case.startswith("undriven"):
            p = SystemParams(**self.LOSSLESS)
        else:
            p = base_params(OptimizationConstraints(), 1e-6)
        if case == "non-finite sum":
            monkeypatch.setattr(coherent_gate, "_response_grid",
                                lambda params, omega_b, omega_c: np.full(
                                    np.broadcast_shapes(omega_b.shape, omega_c.shape),
                                    math.nan))
        full = _raised(lambda: _two_qubit_budget(p, design_point(p, nu, alpha, PI)))
        assert full is expected
        assert _raised(lambda: _two_qubit_delta(p, nu, alpha, PI)) is expected


class TestNuSearch:
    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_one_qubit_floor_is_closed_form(self, suppression):
        cs = OptimizationConstraints(mode="one-qubit", suppression=suppression)
        ratio = math.sqrt(cs.alpha_c_over_alpha_b ** 2 / cs.omega_b_sq_over_omega_c_sq)
        for gamma in np.geomspace(1e-14, 1e-1, 27):
            mean = replace(base_params(cs, gamma), omega_b_tilde=1.0, omega_c_tilde=ratio)
            floor = 1.0 - math.exp(-2.0 * tau_eff_at_optimum(mean, PhaseTarget(cs.phi)))
            nu, got = design_optimizer._one_qubit_dec_limit(gamma, cs)
            assert nu == optimal_detuning(mean)
            assert got == pytest.approx(floor, rel=1e-14, abs=0.0)

    def test_brent_finds_smooth_minimum(self):
        # an error whose exponent is e^x - 2x in x = ln nu: asymmetric,
        # minimum at nu = 2, off the lattice's geometric centre
        evals = []

        def f(nu):
            evals.append(nu)
            return -math.expm1(-(nu - 2.0 * math.log(nu)))

        span = (0.01, 50.0)
        nu, value = design_optimizer._golden_min(f, span, math.nan)
        # once per point, and at most two points per step of _last_true
        assert len(evals) == len(set(evals)) <= 2 * (2 * math.log2(design_optimizer._STEPS) + 2)
        assert abs(math.log(nu / 2.0)) <= math.log(span[1] / span[0]) / design_optimizer._STEPS
        assert value == f(nu)
        _lattice_minimum(f, nu, span)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_brent_monotone_goes_to_bracket_end(self, sign):
        span = (1e-3, 1e3)
        nu, _ = design_optimizer._golden_min(lambda nu: sign * nu, span, 1.0)
        assert nu == (span[0] if sign > 0 else span[1])

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
        # the seed's point, then secant steps to the threshold and its
        # neighbour: 4 measured here and at most 4 over targets 0.05 to 0.3
        # at both suppressions, bound with a margin of 1; the search at the
        # final gamma_10 is reused
        assert len(searches) <= 5
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
    @pytest.mark.parametrize("target", [0.05, 0.2])
    def test_seed_leaves_the_result(self, monkeypatch, target, suppression):
        # with both seeds failing, both searches start from the unseeded
        # brackets: the range's centre and the whole lattice
        cs = OptimizationConstraints(suppression=suppression)
        seeded = max_dephasing(target, cs)[0]
        monkeypatch.setattr(design_optimizer, "_seed_alpha_b", _no_seed)
        monkeypatch.setattr(design_optimizer, "_seed_gamma_10", _no_seed)
        assert max_dephasing(target, cs)[0] == seeded

    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_misplaced_seed_reaches_the_same_point(self, monkeypatch, factor):
        cs = OptimizationConstraints(suppression=1.0)
        seeded = max_dephasing(0.2, cs)[0]
        guess = design_optimizer._seed_gamma_10(0.2, cs)
        monkeypatch.setattr(design_optimizer, "_seed_gamma_10", lambda t, c: guess * factor)
        assert max_dephasing(0.2, cs)[0] == seeded

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_inversion_cost(self, monkeypatch, suppression):
        # measured: 4 and 3 searches, 32 and 25 delta calls, bound with a
        # margin of one search
        searches = []
        search = design_optimizer._two_qubit_optimize
        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize",
                            lambda *args: searches.append(args) or search(*args))
        calls = _count_delta_calls(monkeypatch)
        max_dephasing(0.2, OptimizationConstraints(suppression=suppression))
        assert len(searches) <= 5
        assert len(calls) <= 40

    def test_not_attainable(self):
        cs = OptimizationConstraints(alpha_b_range=(1.0, 10.0))
        with pytest.raises(NotAttainable):
            max_dephasing(0.001, cs)

    def test_not_attainable_from_a_seed(self, monkeypatch):
        # a seed far above the floor: the bracket moves down to k = 0
        monkeypatch.setattr(design_optimizer, "_seed_gamma_10", lambda t, c: 1e-6)
        with pytest.raises(NotAttainable, match="1e-14"):
            max_dephasing(0.001, OptimizationConstraints(alpha_b_range=(1.0, 10.0)))

    def test_bracket_top_warns(self, monkeypatch):
        # every lattice point meets a loose target: the bracket moves up to
        # the lattice's top, which is returned with a RegimeWarning
        cs = OptimizationConstraints()
        search = design_optimizer._two_qubit_optimize(1e-6, cs)
        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize", lambda g, c: search)
        with pytest.warns(RegimeWarning, match="bracket top"):
            gamma, _, budget = max_dephasing(0.45, cs)
        assert gamma == 1e-1
        assert budget == search[2]

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
                design_optimizer._lattice(k), cs)[2].delta_total <= target)
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

