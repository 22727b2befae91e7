"""Numerical design search and trade-off sweeps.

Finds the (nu_c, alpha_b) pair minimizing the total gate error at a given
ground-state dephasing, inverts that map to the largest tolerable dephasing
for a target error, and tabulates trade-off curves over a grid.  All searches
are deterministic: Brent's bounded method on ln alpha_b, seeded by a scan, with
Brent on ln nu_c, seeded at the closed-form optimum, nested inside.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .analytic_design import PhaseTarget, optimal_detuning, tau_eff
from .coherent_gate import (ONE_QUBIT, TWO_QUBIT, ErrorBudget, GateDesign,
                            _two_qubit_budget, _two_qubit_delta, _unchecked,
                            design_point, min_alpha_b)
from .core_model import SystemParams
from .errors import (GateModelError, InvalidInput, MonotonicityViolation,
                     NoConvergence, NotAttainable, RegimeWarning)

_BISECT_ITERS = 14
_CERT_SLACK = 1e-4
_NU_XATOL = 4.4e-5  # on ln nu_c: half the final bracket of the golden search it replaced
_ALPHA_SCAN = 24    # geometric scan points over alpha_b_range that seed the Brent bracket
_ALPHA_XATOL = 1e-3  # on ln alpha_b


@dataclass(frozen=True)
class OptimizationConstraints:
    """Fixed ratios and search ranges for the design optimization.

    Everything is expressed in units of the per-photon probe amplitude
    |Omega~_a|; the probe carries one photon, mode c one photon in two-qubit
    mode.  gamma_30 is held at zero so the optimized error depends only on
    the ratios fixed here.
    """

    omega_a_over_gamma_20: float = 1.0
    omega_b_sq_over_omega_c_sq: float = 1.0
    suppression: float = 1.0
    alpha_b_range: tuple[float, float] = (1.0, 150.0)
    mode: str = TWO_QUBIT
    phi: float = math.pi
    alpha_c_over_alpha_b: float = 10.0

    def __post_init__(self):
        numbers = (self.omega_a_over_gamma_20, self.omega_b_sq_over_omega_c_sq,
                   self.suppression, *self.alpha_b_range, self.phi, self.alpha_c_over_alpha_b)
        if not all(math.isfinite(v) for v in numbers):
            raise InvalidInput(f"constraint values must be finite, got {self}")
        if self.suppression <= 0:
            raise InvalidInput(f"suppression must be > 0, got {self.suppression}")
        if self.omega_a_over_gamma_20 <= 0 or self.omega_b_sq_over_omega_c_sq <= 0:
            raise InvalidInput("amplitude ratios must be > 0")
        if self.mode not in (TWO_QUBIT, ONE_QUBIT):
            raise InvalidInput(f"mode must be '{TWO_QUBIT}' or '{ONE_QUBIT}'")
        if not 0 < self.alpha_b_range[0] < self.alpha_b_range[1]:  # searched on ln alpha_b
            raise InvalidInput(f"alpha_b_range must be 0 < lo < hi, got {self.alpha_b_range}")
        if self.phi <= 0:
            raise InvalidInput(f"phi must be > 0, got {self.phi}")
        if self.alpha_c_over_alpha_b <= 0:
            raise InvalidInput("alpha_c_over_alpha_b must be > 0")


@dataclass(frozen=True)
class SweepRow:
    """One record of a trade-off sweep; the field order is the table's column order."""

    gamma_10_over_omega_a: float
    delta_total: float
    delta_decoherence: float
    delta_spread: float
    nu_c_over_omega_a: float
    alpha_b: float
    time_norm: float
    suppression: float
    mode: str
    status: str = "ok"


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: which quantity is swept and its values."""

    quantity: str               # "gamma_10" or "delta_target"
    values: tuple[float, ...]

    def __post_init__(self):
        if self.quantity not in ("gamma_10", "delta_target"):
            raise InvalidInput(f"unknown sweep quantity {self.quantity!r}")
        if len(self.values) == 0:
            raise InvalidInput("sweep grid is empty")


def base_params(constraints: OptimizationConstraints, gamma_10: float) -> SystemParams:
    """System at the constrained ratios, in units |Omega~_a| = 1.

    Probe on two-photon resonance (nu_a = nu_b = 0); nu_c is the free knob.
    omega_b_tilde holds the per-photon drive amplitude here; the coherent
    machinery folds sqrt(n_b) per Fock component.
    """
    gamma_20 = 1.0 / constraints.omega_a_over_gamma_20
    return SystemParams(
        omega_a_tilde=1.0,
        omega_b_tilde=math.sqrt(constraints.omega_b_sq_over_omega_c_sq),
        omega_c_tilde=1.0,
        n_a=1, n_c=1,
        nu_a=0.0, nu_b=0.0, nu_c=1.0,
        gamma_10=gamma_10,
        gamma_20=gamma_20,
        gamma_30=0.0,
        gamma_40=constraints.suppression * gamma_20,
    )


def _golden_min(f, lo: float, hi: float):
    """(nu, f(nu)) minimizing f over [lo, hi] to within _NU_XATOL on ln nu, by
    Brent's bounded method (Brent 1973, ch. 5).  The name is the golden
    section's it replaced: perfbench counts its evaluations as
    `design_optimizer.golden.evals`.
    """
    result = minimize_scalar(lambda x: f(math.exp(x)), bounds=(math.log(lo), math.log(hi)),
                             method="bounded", options={"xatol": _NU_XATOL})
    return math.exp(result.x), result.fun


def _nu_bracket(params: SystemParams, alpha_b: float) -> tuple[float, float]:
    mean = _unchecked(params, omega_b_tilde=params.omega_b_tilde * alpha_b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        seed = optimal_detuning(mean)
    return seed / 100.0, seed * 100.0


def _two_qubit_min_nu(params: SystemParams, alpha_b: float,
                      constraints: OptimizationConstraints):
    """(nu_c, delta_total) minimizing delta_total over nu_c at fixed alpha_b."""
    return _golden_min(lambda nu: _two_qubit_delta(params, nu, alpha_b, constraints.phi),
                       *_nu_bracket(params, alpha_b))


def _two_qubit_optimize(gamma_10: float, constraints: OptimizationConstraints):
    """Minimization of the total error over (ln alpha_b, ln nu_c).

    The best point of a geometric alpha_b scan, ranked at the closed-form
    nu_c seed, and its two neighbours bracket Brent's search on ln alpha_b,
    widened by one scan interval while the optimum sits at an inner bracket
    end.  Every point is ranked by _two_qubit_delta alone; the full design
    and budget are built once, at the result.
    """
    params = base_params(constraints, gamma_10)
    phi = constraints.phi
    scan = np.log(np.geomspace(*constraints.alpha_b_range, _ALPHA_SCAN)).tolist()

    def at_seed(x):
        alpha = math.exp(x)
        lo, hi = _nu_bracket(params, alpha)
        return _two_qubit_delta(params, math.sqrt(lo * hi), alpha, phi)

    found = {}   # ln alpha_b -> (nu_c, delta_total)

    def at_min_nu(x):
        found[x] = _two_qubit_min_nu(params, math.exp(x), constraints)
        return found[x][1]

    best = int(np.argmin([at_seed(x) for x in scan]))
    last = len(scan) - 1
    i, j = max(best - 1, 0), min(best + 1, last)
    while True:
        x = float(minimize_scalar(at_min_nu, bounds=(scan[i], scan[j]), method="bounded",
                                  options={"xatol": _ALPHA_XATOL}).x)
        # Brent stops within _ALPHA_XATOL of a bracket end it runs into
        at_lo, at_hi = x - scan[i] <= 2 * _ALPHA_XATOL, scan[j] - x <= 2 * _ALPHA_XATOL
        at_edge = (at_lo and i == 0) or (at_hi and j == last)
        if at_edge or not (at_lo or at_hi):
            break
        i, j = (i - 1, j) if at_lo else (i, j + 1)

    design = design_point(params, found[x][0], math.exp(x), phi)
    budget = _two_qubit_budget(params, design)
    return params, design, budget, at_edge


def _certified(params: SystemParams, design: GateDesign, budget: ErrorBudget,
               at_edge: bool, constraints: OptimizationConstraints):
    """(design, budget), once certified as an interior local minimum."""
    if at_edge:
        raise NoConvergence(
            f"optimal alpha_b = {design.alpha_b} sits at the edge of the search "
            f"range {constraints.alpha_b_range}; enlarge the range")
    value = budget.delta_total
    for nu, alpha in ((design.nu_c * 1.05, design.alpha_b),
                      (design.nu_c * 0.95, design.alpha_b),
                      (design.nu_c, design.alpha_b * 1.05),
                      (design.nu_c, design.alpha_b * 0.95)):
        perturbed = _two_qubit_delta(params, nu, alpha, constraints.phi)
        if perturbed < value - _CERT_SLACK:
            raise NoConvergence(
                f"local-minimum certificate failed: delta {perturbed:.6f} "
                f"< {value:.6f} - {_CERT_SLACK} at nu_c={nu:.6g}, alpha_b={alpha:.6g}")
    return design, budget


def _one_qubit_dec_limit(gamma_10: float, constraints: OptimizationConstraints):
    """(nu_c, floor): the one-qubit gate's decoherence-only error floor.

    Evaluated at the mean Fock component, which is the large-amplitude limit
    of the full double sum; the drive intensities enter only through the
    (alpha_c/alpha_b)^2 ratio, so the floor is amplitude-independent.  nu_c
    is the closed-form minimizer of tau_eff there, `optimal_detuning`.
    """
    params = base_params(constraints, gamma_10)
    ratio_sq = (constraints.alpha_c_over_alpha_b ** 2
                / constraints.omega_b_sq_over_omega_c_sq)
    # mean-component system with |Omega_c|^2/|Omega_b|^2 fixed at the ratio
    mean = replace(params, omega_b_tilde=1.0, omega_c_tilde=math.sqrt(ratio_sq), n_c=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        nu = optimal_detuning(mean)
        tau = tau_eff(replace(mean, nu_c=nu), PhaseTarget(constraints.phi))
    return nu, 1.0 - math.exp(-2.0 * tau)


def optimize_design(gamma_10: float,
                    constraints: OptimizationConstraints) -> tuple[GateDesign, ErrorBudget]:
    """Design minimizing the total gate error at the given dephasing.

    Two-qubit mode runs Brent's bounded minimization over ln alpha_b (to
    within _ALPHA_XATOL) around the best point of a geometric scan with,
    inside it, the same over ln nu_c (to within _NU_XATOL) on two decades
    either side of the closed-form optimum, and certifies the result against
    +/-5% perturbations on both axes.  One-qubit mode puts
    nu_c at the closed-form minimizer of the decoherence floor and reports
    the smallest alpha_b whose spread error stays below that floor.

    Raises
    ------
    NoConvergence
        If the optimum sits at the edge of the search range or the
        local-minimum certificate fails.
    """
    if gamma_10 <= 0:
        raise InvalidInput(f"gamma_10 must be > 0, got {gamma_10}")
    if constraints.mode == ONE_QUBIT:
        return _one_qubit_design(gamma_10, constraints)
    return _certified(*_two_qubit_optimize(gamma_10, constraints), constraints)


def _one_qubit_design(gamma_10: float, constraints: OptimizationConstraints):
    params = base_params(constraints, gamma_10)
    nu, dec_floor = _one_qubit_dec_limit(gamma_10, constraints)
    if not 0.0 < dec_floor < 1.0:
        raise NoConvergence(f"one-qubit decoherence floor {dec_floor} out of range")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return min_alpha_b(params, constraints.phi, dec_floor, nu,
                           alpha_c_ratio=constraints.alpha_c_over_alpha_b)


def max_dephasing(delta_target: float, constraints: OptimizationConstraints
                  ) -> tuple[float, GateDesign, ErrorBudget]:
    """Largest gamma_10 whose optimized error stays within delta_target.

    Bisection on log gamma_10, valid because the optimized error is
    monotone nondecreasing in the dephasing.  Returns (gamma_10, design,
    budget); a two-qubit design is the search the bisection ran there.

    Raises
    ------
    NotAttainable
        If even vanishing dephasing cannot reach delta_target (the
        coherent-spread floor is above it).
    """
    if not 0.0 < delta_target < 0.5:
        raise InvalidInput(f"delta_target must be in (0, 0.5), got {delta_target}")
    searches = {}

    def optimized_delta(gamma: float) -> float:
        if constraints.mode == ONE_QUBIT:
            return _one_qubit_dec_limit(gamma, constraints)[1]
        searches[gamma] = _two_qubit_optimize(gamma, constraints)
        return searches[gamma][2].delta_total

    lo, hi = 1e-14, 1e-1
    if optimized_delta(lo) > delta_target:
        raise NotAttainable(
            f"error floor at gamma_10 = {lo} already exceeds {delta_target}")
    if optimized_delta(hi) <= delta_target:
        warnings.warn(f"delta_target {delta_target} attainable even at gamma_10 = {hi}; "
                      "returning the bracket top", RegimeWarning, stacklevel=2)
        lo = hi
    for _ in range(_BISECT_ITERS):
        if lo == hi:
            break
        mid = math.sqrt(lo * hi)
        if optimized_delta(mid) <= delta_target:
            lo = mid
        else:
            hi = mid
    if constraints.mode == ONE_QUBIT:
        design, budget = _one_qubit_design(lo, constraints)
    else:
        design, budget = _certified(*searches[lo], constraints)
    return lo, design, budget


def _row_from_design(gamma_10, design, budget, constraints) -> SweepRow:
    return SweepRow(
        gamma_10_over_omega_a=gamma_10,
        delta_total=budget.delta_total,
        delta_decoherence=budget.delta_decoherence,
        delta_spread=budget.delta_coherent_spread,
        nu_c_over_omega_a=design.nu_c,
        alpha_b=design.alpha_b,
        time_norm=design.time_norm,
        suppression=constraints.suppression,
        mode=constraints.mode,
    )


def _failed_row(gamma_10, constraints, exc) -> SweepRow:
    nan = float("nan")
    return SweepRow(
        gamma_10_over_omega_a=gamma_10 if gamma_10 is not None else nan,
        delta_total=nan, delta_decoherence=nan, delta_spread=nan,
        nu_c_over_omega_a=nan, alpha_b=nan, time_norm=nan,
        suppression=constraints.suppression, mode=constraints.mode,
        status=type(exc).__name__,
    )


def sweep(spec: SweepSpec,
          constraint_sets: list[OptimizationConstraints]) -> list[SweepRow]:
    """Trade-off table over the grid, one row per (grid point, constraint set).

    Per-point failures are recorded in the row's status field and never abort
    the sweep.  After tabulation the optimized error is audited to be
    nondecreasing in gamma_10 within each constraint set; a violation raises
    MonotonicityViolation.
    """
    if not constraint_sets:
        raise InvalidInput("no constraint sets given")
    rows: list[SweepRow] = []
    tagged: list[tuple[int, SweepRow]] = []
    for value in spec.values:
        for idx, cs in enumerate(constraint_sets):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RegimeWarning)
                    if spec.quantity == "gamma_10":
                        design, budget = optimize_design(value, cs)
                        row = _row_from_design(value, design, budget, cs)
                    else:
                        gamma, design, budget = max_dephasing(value, cs)
                        row = _row_from_design(gamma, design, budget, cs)
            except GateModelError as exc:
                row = _failed_row(value if spec.quantity == "gamma_10" else None,
                                  cs, exc)
            rows.append(row)
            tagged.append((idx, row))
    _audit_monotonicity(tagged)
    return rows


def _audit_monotonicity(tagged: list[tuple[int, SweepRow]]) -> None:
    by_set: dict[int, list[SweepRow]] = {}
    for idx, row in tagged:
        if row.status == "ok":
            by_set.setdefault(idx, []).append(row)
    for ok in by_set.values():
        ok.sort(key=lambda r: r.gamma_10_over_omega_a)
        for prev, cur in zip(ok, ok[1:]):
            if cur.delta_total < prev.delta_total - 1e-9:
                raise MonotonicityViolation(
                    f"optimized delta_total decreased from {prev.delta_total!r} to "
                    f"{cur.delta_total!r} as gamma_10 grew from "
                    f"{prev.gamma_10_over_omega_a!r} to {cur.gamma_10_over_omega_a!r} "
                    f"(mode={cur.mode}, suppression={cur.suppression})")

