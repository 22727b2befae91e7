"""Numerical design search and trade-off sweeps.

Finds the (nu_c, alpha_b) pair minimizing the total gate error at a given
ground-state dephasing, inverts that map to the largest tolerable dephasing
for a target error, and tabulates trade-off curves over a grid.  All searches
are deterministic: Brent's bounded method on ln alpha_b, bracketed around the
optimum of the closed-form Gaussian model (`analytic_design.gaussian_error`),
with Brent on ln nu_c, seeded at the closed-form optimum, nested inside.  The
inversion and the one-qubit amplitude search bisect fixed lattices (`_last_true`)
from brackets around Gaussian estimates, which they validate and widen.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

from scipy.optimize import brentq, minimize_scalar

from .analytic_design import PhaseTarget, gaussian_error, optimal_detuning, tau_eff
from .coherent_gate import (ONE_QUBIT, TWO_QUBIT, ErrorBudget, GateDesign,
                            _one_qubit_budget, _two_qubit_budget, _two_qubit_delta,
                            design_point)
from .core_model import SystemParams, _unchecked
from .errors import (GateModelError, InvalidInput, MonotonicityViolation,
                     NoConvergence, NotAttainable, RegimeWarning)

_STEPS = 2 ** 14  # geometric steps of every lattice
_GAMMA_SPAN = (1e-14, 1e-1)   # the lattice of max_dephasing
_GAMMA_SEED = 1.05  # the inversion's first bracket: the model's gamma_10 times this^+-1
_MIN_ALPHA_SPAN = (0.5, 400.0)   # the lattice of min_alpha_b
_MIN_ALPHA_SEED = 1.01  # min_alpha_b's first bracket: its estimate times this^+-1
_CERT_SLACK = 1e-4
_NU_XATOL = 4.4e-5  # on ln nu_c: half the final bracket of the golden search it replaced
_ALPHA_SEED = 1.25  # the alpha_b bracket: the model's alpha_b times this^+-1, widened by it
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


def _model(gamma_10: float, constraints: OptimizationConstraints):
    """(alpha_b, delta) minimizing the Gaussian model over alpha_b_range.

    Brent's bounded method on ln alpha_b to within 1e-2.  Only a seed: it
    raises whatever the closed forms raise, and its values may be
    non-finite; every caller validates what it takes from it.
    """
    params, target = base_params(constraints, gamma_10), PhaseTarget(constraints.phi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        result = minimize_scalar(lambda x: gaussian_error(params, math.exp(x), target),
                                 bounds=tuple(map(math.log, constraints.alpha_b_range)),
                                 method="bounded", options={"xatol": 1e-2})
    return math.exp(result.x), result.fun


def _two_qubit_optimize(gamma_10: float, constraints: OptimizationConstraints):
    """Minimization of the total error over (ln alpha_b, ln nu_c).

    Brent's search on ln alpha_b starts from the Gaussian model's alpha_b
    times _ALPHA_SEED^+-1, clipped to alpha_b_range (from the range's
    geometric centre where the model fails), and the bracket widens by that
    factor while the optimum sits at an inner bracket end.  Every point is
    ranked by _two_qubit_delta alone; the full design and budget are built
    once, at the result.
    """
    params = base_params(constraints, gamma_10)
    phi = constraints.phi
    low, high = map(math.log, constraints.alpha_b_range)
    try:
        seed = math.log(_model(gamma_10, constraints)[0])
    except (GateModelError, ArithmeticError, ValueError):
        seed = math.nan
    if not math.isfinite(seed):
        seed = 0.5 * (low + high)
    seed = min(high, max(low, seed))

    found = {}   # ln alpha_b -> (nu_c, delta_total)

    def at_min_nu(x):
        found[x] = _two_qubit_min_nu(params, math.exp(x), constraints)
        return found[x][1]

    step = math.log(_ALPHA_SEED)
    lo, hi = max(low, seed - step), min(high, seed + step)
    while True:
        x = float(minimize_scalar(at_min_nu, bounds=(lo, hi), method="bounded",
                                  options={"xatol": _ALPHA_XATOL}).x)
        # Brent stops within _ALPHA_XATOL of a bracket end it runs into
        at_lo, at_hi = x - lo <= 2 * _ALPHA_XATOL, hi - x <= 2 * _ALPHA_XATOL
        at_edge = (at_lo and lo == low) or (at_hi and hi == high)
        if at_edge or not (at_lo or at_hi):
            break
        lo, hi = (max(low, lo - step), hi) if at_lo else (lo, min(high, hi + step))

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
    within _ALPHA_XATOL) around the Gaussian model's optimum with, inside
    it, the same over ln nu_c (to within _NU_XATOL) on two decades
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
    return min_alpha_b(params, constraints.phi, dec_floor, nu,
                       alpha_c_ratio=constraints.alpha_c_over_alpha_b)


def min_alpha_b(params: SystemParams, phi: float, delta_target: float, nu_c: float,
                alpha_c_ratio: float) -> tuple[GateDesign, ErrorBudget]:
    """(design, budget) at the smallest lattice drive amplitude whose
    spread-only one-qubit error <= target; NotAttainable if there is none.

    The detuning is held at nu_c; alpha_c tracks alpha_b at the given ratio.
    The lattice is alpha_j = 0.5 * 800^(j / _STEPS), spanning
    _MIN_ALPHA_SPAN = [0.5, 400], and the spread error must fall as alpha_b
    grows.  `_last_true` starts from _MIN_ALPHA_SEED^+-1 around the Gaussian
    estimate spread ~ phi^2 (1/alpha_b^2 + 1/alpha_c^2).  The returned pair
    is the one the search evaluated at its result.
    """
    if not 0.0 < delta_target < 1.0:
        raise InvalidInput(f"delta_target must be in (0, 1), got {delta_target}")
    evaluated = {}

    def misses(j: int) -> bool:
        alpha = _lattice(j, _MIN_ALPHA_SPAN)
        design = design_point(params, nu_c, alpha, phi, alpha_c=alpha * alpha_c_ratio)
        evaluated[j] = design, _one_qubit_budget(params, design)
        return evaluated[j][1].delta_coherent_spread > delta_target

    guess = phi * math.sqrt((1.0 + alpha_c_ratio ** -2) / delta_target)
    j = _last_true(misses, *_bracket(guess, _MIN_ALPHA_SEED, _MIN_ALPHA_SPAN)) + 1
    if j > _STEPS:
        raise NotAttainable(f"spread error still above {delta_target} at alpha_b = "
                            f"{_MIN_ALPHA_SPAN[1]}")
    return evaluated[j]


def _model_gamma(delta_target: float, constraints: OptimizationConstraints):
    """gamma_10 at which the Gaussian model's optimum meets delta_target.

    brentq on ln delta* - ln delta_target over ln gamma_10 in _GAMMA_SPAN;
    None when the model has no root there or fails.
    """
    def excess(x):
        return math.log(_model(math.exp(x), constraints)[1] / delta_target)

    try:
        return math.exp(brentq(excess, *map(math.log, _GAMMA_SPAN), xtol=1e-2))
    except (GateModelError, ArithmeticError, ValueError):  # ValueError: no sign change
        return None


def _lattice(k: int, span=_GAMMA_SPAN) -> float:
    """Point k of the geometric lattice span[0] (span[1] / span[0])^(k / _STEPS),
    written so that both ends of span are exact."""
    t = k / _STEPS
    return span[0] ** (1.0 - t) * span[1] ** t


def _bracket(guess: float, factor: float, span) -> tuple[int, int]:
    """Lattice indices of guess / factor and guess * factor, clipped to span."""
    step = math.log(span[1] / span[0]) / _STEPS
    k = min(_STEPS, max(0.0, math.log(guess / span[0]) / step))
    reach = math.log(factor) / step
    return max(0, math.floor(k - reach)), min(_STEPS, math.ceil(k + reach))


def _last_true(holds, lo: int, hi: int) -> int:
    """Largest lattice index k in 0 .. _STEPS with holds(k); -1 if none.

    holds must be true up to some index and false beyond it.  The search
    starts from the bracket lo <= hi.  While lo fails, the bracket steps
    down past it, and while hi holds, up past it, each step twice the last
    (the first as wide as the bracket, at least 1); then it bisects.  holds
    is evaluated at most once per index.  The top is returned when it holds.
    """
    holds = functools.cache(holds)
    width = max(1, hi - lo)
    while not holds(lo):
        if lo == 0:
            return -1
        lo, hi, width = max(0, lo - width), lo, 2 * width
    while holds(hi):
        if hi == _STEPS:
            return _STEPS
        lo, hi, width = hi, min(_STEPS, hi + width), 2 * width
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def max_dephasing(delta_target: float, constraints: OptimizationConstraints
                  ) -> tuple[float, GateDesign, ErrorBudget]:
    """Largest lattice gamma_10 whose optimized error stays within delta_target.

    The lattice is gamma_k = 1e-14 (1e13)^(k / _STEPS), spanning
    _GAMMA_SPAN = [1e-14, 1e-1]; the result is its largest point whose
    optimized error is at most delta_target, provided that error is monotone
    nondecreasing in the dephasing.  `_last_true` searches k: in two-qubit
    mode from _GAMMA_SEED^+-1 around the Gaussian model's inverse
    (`_model_gamma`), each point checked by a full search; without a model
    root, and in one-qubit mode (on the decoherence floor), from the whole
    lattice.  Returns (gamma_10, design, budget); a two-qubit design is the
    search run there, and its delta_total is at most delta_target.

    Raises
    ------
    NotAttainable
        If even vanishing dephasing cannot reach delta_target (the
        coherent-spread floor is above it).
    NoConvergence
        If the returned two-qubit design misses delta_target, or its search
        fails to certify.
    """
    if not 0.0 < delta_target < 0.5:
        raise InvalidInput(f"delta_target must be in (0, 0.5), got {delta_target}")
    searches = {}

    def meets(k: int) -> bool:
        gamma = _lattice(k)
        if constraints.mode == ONE_QUBIT:
            return _one_qubit_dec_limit(gamma, constraints)[1] <= delta_target
        searches[k] = _two_qubit_optimize(gamma, constraints)
        return searches[k][2].delta_total <= delta_target

    lo, hi = 0, _STEPS
    if constraints.mode == TWO_QUBIT:
        guess = _model_gamma(delta_target, constraints)
        if guess is not None:
            lo, hi = _bracket(guess, _GAMMA_SEED, _GAMMA_SPAN)
    k = _last_true(meets, lo, hi)
    if k < 0:
        raise NotAttainable(f"error floor at gamma_10 = {_GAMMA_SPAN[0]} already "
                            f"exceeds {delta_target}")
    if k == _STEPS:
        warnings.warn(f"delta_target {delta_target} attainable even at gamma_10 = "
                      f"{_GAMMA_SPAN[1]}; returning the bracket top",
                      RegimeWarning, stacklevel=2)
    gamma = _lattice(k)
    if constraints.mode == ONE_QUBIT:
        return (gamma, *_one_qubit_design(gamma, constraints))
    design, budget = _certified(*searches[k], constraints)
    if not budget.delta_total <= delta_target:
        raise NoConvergence(f"inversion returned delta_total {budget.delta_total!r} "
                            f"above its target {delta_target!r}")
    return gamma, design, budget


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

