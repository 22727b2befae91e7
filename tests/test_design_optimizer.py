import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitgate import (DegenerateDenominator, GateModelError, InvalidInput, NotAttainable,
                     OptimizationConstraints, SweepSpec, SystemParams, ZeroPhaseRate,
                     base_params, design_point, max_dephasing,
                     optimal_detuning, optimize_design, sweep)
from eitgate import coherent_gate, design_optimizer
from eitgate.coherent_gate import _two_qubit_budget, _two_qubit_delta

PI = math.pi


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

    def test_non_finite_rejected(self):
        for bad in ({"suppression": math.nan}, {"phi": math.inf},
                    {"alpha_b_range": (1.0, math.inf)}, {"nu_c_range": (math.nan, 1.0)},
                    {"alpha_c_over_alpha_b": math.nan}):
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

    def test_seeded_by_closed_form_when_dephasing_dominates(self):
        cs = OptimizationConstraints(suppression=1.0)
        gamma = 3e-5
        design, budget = optimize_design(gamma, cs)
        if budget.delta_coherent_spread < budget.delta_decoherence / 10.0:
            p = base_params(cs, gamma)
            from dataclasses import replace
            mean = replace(p, omega_b_tilde=p.omega_b_tilde * design.alpha_b)
            seed = optimal_detuning(mean)
            assert design.nu_c / seed < 3.0 and seed / design.nu_c < 3.0

    def test_invalid_gamma(self):
        with pytest.raises(InvalidInput):
            optimize_design(0.0, OptimizationConstraints())


def _raised(call):
    try:
        call()
    except GateModelError as exc:
        return type(exc)
    return None


class TestSearchPath:
    """The searches rank points by _two_qubit_delta; it is the full budget's
    delta_total, bit for bit, and fails wherever the full path fails."""

    # the integer prescan grid and the 0.1 refinement steps
    ALPHAS = st.one_of(st.integers(1, 150).map(float),
                       st.integers(10, 1500).map(lambda k: round(k * 0.1, 10)))

    @settings(max_examples=150, deadline=None)
    @given(log_gamma=st.floats(-9.0, -2.0), suppression=st.sampled_from([1.0, 1e-3]),
           alpha=ALPHAS, position=st.floats(0.0, 1.0))
    def test_delta_equals_full_budget(self, log_gamma, suppression, alpha, position):
        cs = OptimizationConstraints(suppression=suppression)
        p = base_params(cs, 10.0 ** log_gamma)
        # nu_c anywhere in the golden search's bracket, on its log axis
        lo, hi = design_optimizer._nu_bracket(p, alpha, cs)
        nu = math.exp(math.log(lo) + position * (math.log(hi) - math.log(lo)))
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
        # two bracket ends and one search per bisection step; the search at
        # the final gamma_10 is reused, not run again
        assert len(searches) == 2 + design_optimizer._BISECT_ITERS == 16
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

    def test_not_attainable(self):
        cs = OptimizationConstraints(alpha_b_range=(1.0, 10.0))
        with pytest.raises(NotAttainable):
            max_dephasing(0.001, cs)

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

