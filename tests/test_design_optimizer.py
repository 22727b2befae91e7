import csv
import json
import math
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
from eitgate.coherent_gate import _two_qubit_budget, _two_qubit_delta

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


def _assert_brent_is_scipys(f, lo, hi, xatol):
    """_golden_min evaluates f at the points minimize_scalar(method="bounded")
    evaluates on ln x, in the same order, and returns its x and f(x), bit for bit."""
    ours, scipys = [], []
    x, fx = design_optimizer._golden_min(lambda x: ours.append(x) or f(x), lo, hi, xatol)
    result = minimize_scalar(lambda t: scipys.append(math.exp(t)) or f(math.exp(t)),
                             bounds=(math.log(lo), math.log(hi)), method="bounded",
                             options={"xatol": xatol})
    assert ours == scipys and len(ours) == result.nfev
    assert x == math.exp(result.x) and fx == result.fun


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
        # Brent on ln alpha_b from the seed's bracket, nu_c in closed form,
        # and the certificate: 11 calls measured, bound with a margin of 3;
        # a nested Brent search over nu_c took 58, a 24-point scan seed 75
        # and an integer-then-0.1 grid about 350
        calls = _count_delta_calls(monkeypatch)
        optimize_design(1e-6, OptimizationConstraints())
        assert len(calls) <= 14

    @pytest.mark.parametrize("suppression", [1.0, 1e-3])
    def test_one_brent_search_per_search(self, monkeypatch, suppression):
        # the seeds are closed forms: every two-qubit search, forward or
        # inside the inversion, runs the alpha_b search alone; a numerical
        # model seed ran its own Brent search beside it, and a root search
        # on top of that
        calls = {"searches": 0, "brent": 0}
        search, brent = design_optimizer._two_qubit_optimize, design_optimizer._golden_min

        def counted(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize", counted("searches", search))
        monkeypatch.setattr(design_optimizer, "_golden_min", counted("brent", brent))
        cs = OptimizationConstraints(suppression=suppression)
        optimize_design(1e-6, cs)
        assert calls == {"searches": 1, "brent": 1}
        max_dephasing(0.2, cs)
        assert calls["brent"] == calls["searches"] > 1

    @pytest.mark.parametrize("gamma", [1e-6, 1e-4])
    def test_one_qubit_search_cost(self, monkeypatch, gamma):
        # min_alpha_b from its +-1% bracket: 8 budgets measured at both
        # points, bound with a margin of 2; its grow, shrink and bisect
        # loops took 13 and 11
        calls = []
        budget = design_optimizer._one_qubit_budget
        monkeypatch.setattr(design_optimizer, "_one_qubit_budget",
                            lambda *args: calls.append(args) or budget(*args))
        optimize_design(gamma, OptimizationConstraints(mode="one-qubit"))
        assert len(calls) <= 10

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
    @pytest.mark.parametrize("target, edge", [(30.0, False), (200.0, True)])
    def test_bracket_widens_from_the_seed(self, monkeypatch, seed, target, edge):
        # the bracket starts at the seed's alpha_b 10, or at the range's
        # geometric centre 12.2 where the seed fails, times 1.25^+-1; the
        # objective's minimum lies at target, several factors away: the
        # bracket widens until it holds the minimum, or reports the edge
        monkeypatch.setattr(design_optimizer, "_seed_alpha_b", seed)
        monkeypatch.setattr(design_optimizer, "_two_qubit_min_nu",
                            lambda params, alpha, cs: (100.0, math.log(alpha / target) ** 2))
        _, design, _, at_edge = design_optimizer._two_qubit_optimize(
            1e-6, OptimizationConstraints())
        assert at_edge is edge
        end = min(target, 150.0)
        assert abs(math.log(design.alpha_b / end)) <= 2 * design_optimizer._ALPHA_XATOL


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
    """_last_true, the bracket-and-bisect behind both inversions, against a scan."""

    STEPS = design_optimizer._STEPS
    INDEX = st.integers(0, STEPS)

    @settings(max_examples=300, deadline=None)
    @given(last=st.one_of(st.sampled_from([-1, 0, STEPS - 1, STEPS]),
                          st.integers(-1, STEPS)),
           ends=st.one_of(st.tuples(INDEX, INDEX), INDEX.map(lambda k: (k, k))))
    def test_matches_a_scan(self, last, ends):
        # any threshold, from any bracket: misplaced on either side, the
        # whole lattice, or a single point
        lo, hi = sorted(ends)
        seen = []
        found = design_optimizer._last_true(lambda k: seen.append(k) or k <= last, lo, hi)
        assert found == max((k for k in range(self.STEPS + 1) if k <= last), default=-1)
        assert len(seen) == len(set(seen))
        assert all(0 <= k <= self.STEPS for k in seen)
        # outward steps double and bisection halves: 28 measured at worst
        assert len(seen) <= 2 * math.log2(self.STEPS) + 2

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
        # e^x - 2x in x = ln nu: asymmetric, minimum at nu = 2, off the
        # bracket's geometric centre
        evals = []

        def f(nu):
            evals.append(nu)
            return nu - 2.0 * math.log(nu)

        nu, value = design_optimizer._golden_min(f, 0.01, 50.0, xatol=4.4e-5)
        assert abs(math.log(nu / 2.0)) <= 4.4e-5
        assert value == f(nu)
        assert len(evals) < 26    # the golden section's fixed count

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
           width=st.floats(1e-3, 10.0),
           xatol=st.floats(math.log(1e-9), math.log(0.1)).map(math.exp),
           centre=st.floats(-10.0, 10.0), power=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_brent_is_scipys(self, lo, width, xatol, centre, power):
        _assert_brent_is_scipys(
            lambda x: abs(math.log(x) - centre) ** power + 0.1 * math.sin(3.0 * x),
            lo, lo * math.exp(width), xatol)

    def test_brent_is_scipys_on_the_alpha_b_search(self):
        # the first fig2 design's search: its objective and first bracket
        cs = OptimizationConstraints(suppression=1.0)
        gamma = 1.2638180982913590e-08
        p = base_params(cs, gamma)
        seed = design_optimizer._seed_alpha_b(gamma, cs)
        _assert_brent_is_scipys(lambda alpha: design_optimizer._two_qubit_min_nu(p, alpha, cs)[1],
                                seed / design_optimizer._ALPHA_SEED,
                                seed * design_optimizer._ALPHA_SEED,
                                design_optimizer._ALPHA_XATOL)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_brent_monotone_goes_to_bracket_end(self, sign):
        lo, hi = 1e-3, 1e3
        nu, _ = design_optimizer._golden_min(lambda nu: sign * nu, lo, hi, xatol=4.4e-5)
        end = lo if sign > 0 else hi
        assert abs(math.log(nu / end)) <= 4.4e-5

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
        # two bracket ends and one search per bisection step inside the
        # seed's +-5% bracket: 8 measured here and at most 8 over targets
        # 0.05 to 0.3 at both suppressions (16 over the whole lattice), bound
        # with a margin of 2; the search at the final gamma_10 is reused
        assert len(searches) <= 10
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
        # measured: 8 and 8 searches, 60 and 52 delta calls (bound with a
        # margin of 4); the Gaussian model's seed made 53 and 52, a nested
        # Brent search over nu_c 369 and 404 calls, and the plain bisection
        # 16 searches and 1,343 and 1,229
        searches = []
        search = design_optimizer._two_qubit_optimize
        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize",
                            lambda *args: searches.append(args) or search(*args))
        calls = _count_delta_calls(monkeypatch)
        max_dephasing(0.2, OptimizationConstraints(suppression=suppression))
        assert len(searches) <= 10
        assert len(calls) <= 64

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

