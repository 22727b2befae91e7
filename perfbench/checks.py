"""Output checks of each workload's jobs against the independent references.

Each check_* function takes a job (as made by workloads.make_jobs) and the
text of its output file, and returns a list of (check name, passed, detail).
"""

from __future__ import annotations

import json
import math

import reference as ref

BUDGET_TOL = 1e-8       # absolute, on each error component and the fidelity
TIME_RTOL = 1e-9        # relative, on time_norm and t_final
ORACLE_TOL = 1e-8       # absolute, on the final magnitude ratio and phase error
ORACLE_HARD_POINT, ORACLE_HARD_BOUND = 0.1, 0.01
# one step of max_dephasing's bisection on log gamma_10 over [1e-14, 1e-1]
BISECT_RATIO = math.exp(math.log(1e-1 / 1e-14) / 2 ** 14)
ALPHA_C_OVER_ALPHA_B = 10.0


def _close(name, got, want, tol):
    return (name, abs(got - want) <= tol, f"got {got!r}, reference {want!r}")


def _budget_checks(out: dict, want: dict) -> list:
    return [_close(f"{k} matches reference budget", out[k], want[k], BUDGET_TOL)
            for k in ("delta_total", "delta_decoherence", "delta_spread", "fidelity")]


def check_invert(job: dict, text: str) -> list:
    out = json.loads(text)
    target, suppression = float(job["argv"][2]), float(job["argv"][4])
    gamma, nu, alpha = out["gamma_10_over_omega_a"], out["nu_c_over_omega_a"], out["alpha_b"]
    items = _budget_checks(out, ref.budget_2q(gamma, nu, alpha, suppression))
    tn = ref.time_norm(gamma, nu, alpha, 1.0, suppression)
    items.append(("time_norm = -phi / Re W10 at the mean component",
                  abs(out["time_norm"] - tn) <= TIME_RTOL * tn, f"{out['time_norm']!r} vs {tn!r}"))
    items.append(("inversion at or below its target",
                  out["delta_total"] <= target, f"{out['delta_total']!r} vs {target!r}"))
    items.append(("inversion within one bisection step of its target",
                  out["delta_total"] >= target / BISECT_RATIO,
                  f"{out['delta_total']!r} vs {target / BISECT_RATIO!r}"))
    items.append(("mode and suppression echoed",
                  out["mode"] == "two-qubit" and out["suppression"] == suppression,
                  f"{out['mode']}, {out['suppression']!r}"))
    return items


def check_forward(job: dict, text: str) -> list:
    out = json.loads(text)
    gamma = float(job["argv"][2])
    nu, alpha = out["nu_c_over_omega_a"], out["alpha_b"]
    alpha_c = alpha * ALPHA_C_OVER_ALPHA_B
    items = [("gamma_10 echoed", out["gamma_10_over_omega_a"] == gamma,
              f"{out['gamma_10_over_omega_a']!r}")]
    items += _budget_checks(out, ref.budget_1q(gamma, nu, alpha, alpha_c))
    tn = ref.time_norm(gamma, nu, alpha, alpha_c, 1.0)
    items.append(("time_norm = -phi / Re W10 at the mean component",
                  abs(out["time_norm"] - tn) <= TIME_RTOL * tn, f"{out['time_norm']!r} vs {tn!r}"))
    floor = ref.decoherence_floor_1q(gamma, nu)
    items.append(("spread error no larger than the decoherence floor",
                  out["delta_spread"] <= floor, f"{out['delta_spread']!r} vs {floor!r}"))
    items.append(("mode echoed", out["mode"] == "one-qubit", out["mode"]))
    return items


def check_oracle(job: dict, text: str) -> list:
    reports = json.loads(text)
    system = job["config"]["system"]
    scan = job["config"]["check_oracle"]["omega_a_scan"]
    items = [("one report per scan point",
              [r["omega_a_over_gamma_20"] for r in reports] == scan, str(len(reports)))]
    for rep in reports:
        s = rep["omega_a_over_gamma_20"]
        want = ref.oracle_final(s, system["omega_b_tilde"], system["omega_c_tilde"],
                                system["nu_c"], system["gamma_10"], rep["t_final"])
        items.append((f"t_final = -pi / Re W10 at {s}",
                      abs(rep["t_final"] - want["t_final"]) <= TIME_RTOL * want["t_final"],
                      f"{rep['t_final']!r} vs {want['t_final']!r}"))
        for key in ("final_magnitude_ratio", "final_phase_error"):
            items.append(_close(f"{key} matches expm at {s}", rep[key], want[key], ORACLE_TOL))
        items.append((f"max_rel_deviation covers the final deviation at {s}",
                      rep["max_rel_deviation"] >= want["final_rel_deviation"] - ORACLE_TOL,
                      f"{rep['max_rel_deviation']!r} vs {want['final_rel_deviation']!r}"))
        items.append((f"regime flag at {s}", rep["regime_flag"] == "in", rep["regime_flag"]))
        if s == ORACLE_HARD_POINT:
            items.append(("max_rel_deviation below 1% at 0.1 gamma_20",
                          rep["max_rel_deviation"] < ORACLE_HARD_BOUND,
                          f"{rep['max_rel_deviation']!r}"))
    return items


CHECKS = {"invert-2q": check_invert, "forward-1q": check_forward, "oracle": check_oracle}
