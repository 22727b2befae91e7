import io
import math

import numpy as np
import pytest

from eitgate import (InvalidInput, NotAttainable, OptimizationConstraints,
                     SweepSpec, base_params, design_point, gate_error, max_dephasing,
                     optimal_detuning, optimize_design, sweep, sweep_to_csv,
                     sweep_to_json)
from eitgate import coherent_gate, design_optimizer
from eitgate.coherent_gate import _two_qubit_budget
from eitgate.design_optimizer import SWEEP_COLUMNS

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

        alphas = set()
        two_qubit_budget = design_optimizer._two_qubit_budget

        def recorded(params, design, *args):
            alphas.add(design.alpha_b)
            return two_qubit_budget(params, design, *args)

        monkeypatch.setattr(design_optimizer, "_two_qubit_optimize", counted)
        monkeypatch.setattr(coherent_gate, "_poisson_window", counted_window)
        monkeypatch.setattr(design_optimizer, "_two_qubit_budget", recorded)
        cs = OptimizationConstraints(suppression=1.0)
        gamma, design, budget = max_dephasing(0.2, cs)
        # all searches of one call share one window table: each distinct
        # alpha_b has its window built once
        built = len(windows)
        assert built == len(alphas)
        assert budget.delta_total <= 0.2 * 1.01
        # the returned budget, summed over a window from the table, is the
        # witness design's own with a freshly built window, bit for bit
        assert budget == gate_error(base_params(cs, gamma), design)
        # two bracket ends and one search per bisection step; the search at
        # the final gamma_10 is reused, not run again
        assert len(searches) == 2 + design_optimizer._BISECT_ITERS == 16
        assert searches.count(gamma) == 1
        # the table lives for one call: an identical call builds every window again
        windows.clear()
        assert max_dephasing(0.2, cs) == (gamma, design, budget)
        assert len(windows) == built

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

    def test_failed_rows_strict_json(self):
        # the failed row's NaN fields are written as null, not bare NaN
        import json
        spec = SweepSpec(quantity="delta_target", values=(0.001,))
        rows = sweep(spec, [OptimizationConstraints(alpha_b_range=(1.0, 10.0))])
        buf = io.StringIO()
        sweep_to_json(rows, buf)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(buf.getvalue(), parse_constant=reject)
        assert payload[0]["status"] == "NotAttainable"
        assert payload[0]["delta_total"] is None
        assert payload[0]["gamma_10_over_omega_a"] is None
        assert payload[0]["suppression"] == 1.0

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


class TestExport:
    @pytest.fixture
    def rows(self):
        spec = SweepSpec(quantity="gamma_10", values=(1e-6,))
        return sweep(spec, [OptimizationConstraints(suppression=1.0)])

    def test_csv_shape_and_precision(self, rows):
        buf = io.StringIO()
        sweep_to_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == len(SWEEP_COLUMNS)
        # 17 significant digits round-trip the double exactly
        assert float(cells[0]) == rows[0].gamma_10_over_omega_a
        assert float(cells[1]) == rows[0].delta_total
        assert cells[-2] == "two-qubit"
        assert cells[-1] == "ok"

    def test_json_matches_csv_fields(self, rows):
        import json
        buf = io.StringIO()
        sweep_to_json(rows, buf)
        payload = json.loads(buf.getvalue())
        assert list(payload[0]) == list(SWEEP_COLUMNS)
        assert payload[0]["delta_total"] == rows[0].delta_total
