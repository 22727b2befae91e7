"""Which eitgate calls the traced run wraps, and the per-layer metrics.

Layers are the modules of `src/eitgate/`.  Each patch below replaces one
module attribute, so it catches every call that goes through that name:
calls between modules, and the calls inside a module that the metrics need
(the Poisson helpers, the budgets and the searches).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from tracer import Tracer, self_times

W10 = "core_model.w10"
ANALYTIC = "analytic_design"
POISSON = "coherent_gate.poisson"
BUDGET_2Q = "coherent_gate.budget_2q"
BUDGET_1Q = "coherent_gate.budget_1q"
GRID = "coherent_gate.response_grid"
MIN_ALPHA = "coherent_gate.min_alpha_b"
SEARCH_2Q = "design_optimizer.search_2q"
MAX_DEPHASING = "design_optimizer.max_dephasing"
INTEGRATE = "lindblad_oracle.integrate"
CLI_MAIN = "cli.main"

_POISSON_METHODS = ("pmf", "sf", "isf", "ppf", "cdf")


class _PoissonProxy:
    """scipy's poisson distribution with its methods wrapped in spans."""

    def __init__(self, dist, tracer: Tracer):
        self._dist = dist
        for method in _POISSON_METHODS:
            setattr(self, method, tracer.wrap(getattr(dist, method), POISSON))

    def __getattr__(self, attr):
        return getattr(self._dist, attr)


def _count_fock_terms(tracer, args, result):
    cells = math.prod(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2])))
    caller = tracer.innermost()
    if caller == BUDGET_2Q:
        tracer.counts["budget_2q.terms"] += cells
    elif caller == BUDGET_1Q:
        tracer.counts["budget_1q.cells"] += cells


def _count_min_alpha_step(tracer, args, result):
    if tracer.innermost() == MIN_ALPHA:
        tracer.counts["min_alpha_b.steps"] += 1


def _count_bisect_step(tracer, args, result):
    if tracer.innermost() == MAX_DEPHASING:
        tracer.counts["bisect.steps"] += 1


def instrument(tracer: Tracer, eitgate_modules) -> None:
    """Wrap the layer boundaries of the imported eitgate modules."""
    core, analytic, gate, opt, oracle, cli = eitgate_modules
    patch = tracer.patch
    span = tracer.spanned

    for module in (analytic, gate, oracle, cli):
        patch(module, "w10", span(W10))
    for module, names in ((gate, ("gate_time", "optimal_detuning")),
                          (opt, ("optimal_detuning", "tau_eff")),
                          (cli, ("asymptotic_design", "decoherence_error",
                                 "fock_dephasing_bound", "gate_time",
                                 "optimal_detuning", "tau_eff"))):
        for name in names:
            patch(module, name, span(ANALYTIC))

    patch(gate, "truncation_bound", span(POISSON))
    patch(gate, "_poisson_window", span(POISSON))
    patch(gate, "poisson", lambda dist: _PoissonProxy(dist, tracer))
    for module in (gate, opt):
        patch(module, "_two_qubit_budget", span(BUDGET_2Q))
        patch(module, "_one_qubit_budget", span(BUDGET_1Q, _count_min_alpha_step))
    patch(gate, "_response_grid", span(GRID, _count_fock_terms))
    patch(opt, "min_alpha_b", span(MIN_ALPHA))
    patch(opt, "design_point", span("coherent_gate.design_point"))

    for name in ("max_dephasing", "optimize_design", "design_budget", "sweep",
                 "sweep_to_csv", "sweep_to_json"):
        patch(cli, name, span(f"design_optimizer.{name}"))
    for name in ("max_dephasing", "optimize_design"):
        patch(opt, name, span(f"design_optimizer.{name}"))
    patch(opt, "_two_qubit_optimize", span(SEARCH_2Q, _count_bisect_step))
    patch(opt, "_one_qubit_dec_limit",
          span("design_optimizer.dec_limit_1q", _count_bisect_step))

    def counted_golden(golden):
        def golden_min(f, *args, **kwargs):
            def counted(x):
                tracer.counts["golden.evals"] += 1
                return f(x)
            return golden(counted, *args, **kwargs)
        return tracer.wrap(golden_min, "design_optimizer.golden")
    patch(opt, "_golden_min", counted_golden)

    patch(cli, "verify_qss", span("lindblad_oracle.verify_qss"))
    patch(oracle, "integrate", span(INTEGRATE))

    def counted_solver(solve_ivp):
        def solve(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            tracer.counts["rhs_evals"] += int(sol.nfev)
            return sol
        return solve
    patch(oracle, "solve_ivp", counted_solver)

    patch(cli, "main", span(CLI_MAIN))


# metric -> (how it is computed, the patched names it depends on)
METRICS = {
    "core_model.w10.calls": (("calls", W10), ("analytic_design.w10", "coherent_gate.w10",
                                              "lindblad_oracle.w10", "cli.w10")),
    "core_model.w10.self_s": (("self", W10), ("analytic_design.w10", "coherent_gate.w10",
                                              "lindblad_oracle.w10", "cli.w10")),
    "analytic_design.calls": (("calls", ANALYTIC), ("coherent_gate.gate_time",)),
    "analytic_design.self_s": (("self", ANALYTIC), ("coherent_gate.gate_time",)),
    "coherent_gate.poisson.calls": (("calls", POISSON), (
        "coherent_gate.truncation_bound", "coherent_gate._poisson_window",
        "coherent_gate.poisson")),
    "coherent_gate.poisson.self_s": (("self", POISSON), (
        "coherent_gate.truncation_bound", "coherent_gate._poisson_window",
        "coherent_gate.poisson")),
    "coherent_gate.budget_2q.calls": (("calls", BUDGET_2Q), (
        "coherent_gate._two_qubit_budget", "design_optimizer._two_qubit_budget")),
    "coherent_gate.budget_2q.self_s": (("self", BUDGET_2Q), (
        "coherent_gate._two_qubit_budget", "design_optimizer._two_qubit_budget")),
    "coherent_gate.budget_2q.terms": (("count", "budget_2q.terms"), (
        "coherent_gate._response_grid", "coherent_gate._two_qubit_budget")),
    "coherent_gate.budget_1q.calls": (("calls", BUDGET_1Q), (
        "coherent_gate._one_qubit_budget", "design_optimizer._one_qubit_budget")),
    "coherent_gate.budget_1q.self_s": (("self", BUDGET_1Q), (
        "coherent_gate._one_qubit_budget", "design_optimizer._one_qubit_budget")),
    "coherent_gate.budget_1q.cells": (("count", "budget_1q.cells"), (
        "coherent_gate._response_grid", "coherent_gate._one_qubit_budget")),
    "coherent_gate.response_grid.self_s": (("self", GRID), ("coherent_gate._response_grid",)),
    "coherent_gate.min_alpha_b.steps": (("count", "min_alpha_b.steps"), (
        "design_optimizer.min_alpha_b", "coherent_gate._one_qubit_budget")),
    "design_optimizer.search_2q.calls": (("calls", SEARCH_2Q), (
        "design_optimizer._two_qubit_optimize",)),
    "design_optimizer.golden.evals": (("count", "golden.evals"), (
        "design_optimizer._golden_min",)),
    "design_optimizer.bisect.steps": (("count", "bisect.steps"), (
        "design_optimizer._two_qubit_optimize", "design_optimizer._one_qubit_dec_limit")),
    "design_optimizer.self_s": (("layer_self", "design_optimizer."), (
        "cli.max_dephasing", "cli.optimize_design")),
    "lindblad_oracle.integrate.calls": (("calls", INTEGRATE), ("lindblad_oracle.integrate",)),
    "lindblad_oracle.integrate.self_s": (("self", INTEGRATE), ("lindblad_oracle.integrate",)),
    "lindblad_oracle.rhs_evals": (("count", "rhs_evals"), ("lindblad_oracle.solve_ivp",)),
    "cli.self_s": (("layer_self", "cli."), ("cli.main",)),
}


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict, list[str]]:
    """Per-round per-layer metrics, and the metrics whose names are all gone.

    Counts are exact per round, since every round repeats the same jobs.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_ns: defaultdict = defaultdict(int)
    for (name, *_), own in zip(spans, selfs):
        calls[name] += 1
        self_ns[name] += own
    missing_names = set(tracer.missing)
    values, missing = {}, []
    for metric, ((kind, key), sources) in METRICS.items():
        if all(src in missing_names for src in sources):
            missing.append(metric)
            continue
        if kind == "calls":
            v, unit = calls[key] / rounds, "count"
        elif kind == "count":
            v, unit = tracer.counts[key] / rounds, "count"
        elif kind == "self":
            v, unit = self_ns[key] * 1e-9 / rounds, "s"
        else:
            v = sum(ns for name, ns in self_ns.items() if name.startswith(key))
            v, unit = v * 1e-9 / rounds, "s"
        values[metric] = {"value": v, "unit": unit}
    return values, missing
