"""Numerical design search and trade-off sweeps.

Finds the (nu_c, alpha_b) pair minimizing the total gate error at a given
ground-state dephasing, inverts that map to the largest tolerable dephasing
for a target error, and tabulates trade-off curves over a grid.  All searches
are deterministic and share one engine: `_last_true` walks a fixed geometric
lattice by safeguarded secant steps from a closed-form estimate, and returns
the point a bisection of the whole lattice returns.  alpha_b is the lattice
local minimum of the total error, found from the strong-drive closed-form
optimum (`_seed_alpha_b`), with nu_c at each point the closed-form optimum
`optimal_detuning` of the mean Fock component.  The inversion and the
one-qubit amplitude search find the last lattice point that meets a target.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

from .analytic_design import PhaseTarget, optimal_detuning, tau_eff
from .coherent_gate import (ONE_QUBIT, TWO_QUBIT, ErrorBudget, GateDesign,
                            _one_qubit_budget, _two_qubit_budget, _two_qubit_delta,
                            design_point)
from .core_model import SystemParams, _unchecked
from .errors import (GateModelError, InvalidInput, MonotonicityViolation,
                     NoConvergence, NotAttainable, RegimeWarning)

_STEPS = 2 ** 14  # geometric steps of every lattice
_GAMMA_SPAN = (1e-14, 1e-1)   # the lattice of max_dephasing
_MIN_ALPHA_SPAN = (0.5, 400.0)   # the lattice of min_alpha_b
_CERT_SLACK = 1e-4


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
        for value in self.values:
            _check_design_value(self.quantity, value)


def _check_design_value(quantity: str, value: float) -> None:
    """InvalidInput unless value is in range: a delta_target in (0, 0.5), a
    gamma_10 in (0, inf)."""
    if quantity == "delta_target" and not 0.0 < value < 0.5:
        raise InvalidInput(f"'delta_target' must be in (0, 0.5), got {value}")
    if quantity == "gamma_10" and not 0.0 < value < math.inf:
        raise InvalidInput(f"'gamma_10' must be finite and > 0, got {value}")


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


def _golden_min(f, span, guess: float):
    """(x, f(x)) at the local minimum of the gate error f on the lattice of
    span: the point after the last index k where f falls to k + 1, or
    span[0] if it never falls there.  The alpha_b search runs through it.
    The name is the golden section's it replaced, kept because perfbench
    counts its evaluations as `design_optimizer.golden.evals`.

    `_last_true` starts at the point nearest guess (the centre without one)
    and steps on the difference of ln(-ln(1 - f)) from k to k + 1, whose
    slope per unit ln x at the minimum is 2 for the exponent 2 tau +
    (phi / alpha_b)^2 of the strong-drive error model.  f is evaluated once
    per point.
    """
    values = {}

    def at(k: int) -> float:
        if k not in values:
            values[k] = f(_lattice(k, span))
        return values[k]

    dx = math.log(span[1] / span[0]) / _STEPS

    def falls(k: int) -> tuple[bool, float]:
        if k == _STEPS:
            return False, math.nan
        return at(k + 1) < at(k), _log_gap(_exponent(at(k + 1)), _exponent(at(k))) / dx

    k = _last_true(falls, span, guess, slope=2.0) + 1
    return _lattice(k, span), at(k)


def _two_qubit_min_nu(params: SystemParams, alpha_b: float,
                      constraints: OptimizationConstraints):
    """(nu_c, delta_total) at alpha_b, nu_c the closed-form optimum of the
    mean component (at most 1.2e-6 above the minimum over nu_c at the fig2
    designs)."""
    mean = _unchecked(params, omega_b_tilde=params.omega_b_tilde * alpha_b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        nu = optimal_detuning(mean)
    return nu, _two_qubit_delta(params, nu, alpha_b, constraints.phi)


def _seed_rates(constraints: OptimizationConstraints) -> tuple[float, float]:
    """(gamma_20, c), in units |Omega~_a| = 1: at the mean component
    gamma_20~ = gamma_20 + gamma_40 |Omega_b|^2 / |Omega_c|^2 = gamma_20 + c alpha_b^2."""
    gamma_20 = 1.0 / constraints.omega_a_over_gamma_20
    return gamma_20, constraints.suppression * gamma_20 * constraints.omega_b_sq_over_omega_c_sq


def _seed_alpha_b(gamma_10: float, constraints: OptimizationConstraints) -> float:
    """alpha_b minimizing the strong-drive error model 2 tau + (phi / alpha_b)^2:
    tau = 2 phi sqrt(gamma_10 (gamma_20 + c alpha_b^2)) is `asymptotic_design`'s
    exposure at the mean component, (phi / alpha_b)^2 the phase spread in the
    Kerr limit Re W10 ~ 1/n_b.  y = alpha_b^2 is the positive root of the
    convex 4 c^2 gamma_10 y^4 - phi^2 (c y + gamma_20), by Newton's method
    from twice the larger one-term root, down until the iterates stop
    falling.  Only a seed: it may raise ArithmeticError or be non-finite.
    """
    gamma_20, c = _seed_rates(constraints)
    phi_sq, quartic = constraints.phi ** 2, 4.0 * c * c * gamma_10
    y = 2.0 * max((phi_sq * c / quartic) ** (1 / 3), (phi_sq * gamma_20 / quartic) ** 0.25)
    while True:
        step = ((quartic * y ** 4 - phi_sq * (c * y + gamma_20))
                / (4.0 * quartic * y ** 3 - phi_sq * c))
        if not y - step < y:
            return math.sqrt(y)
        y -= step


def _seed_gamma_10(delta_target: float, constraints: OptimizationConstraints) -> float:
    """gamma_10 at which `_seed_alpha_b`'s optimum meets delta_target: there
    the exponent 3 phi^2 u + (2 phi^2 gamma_20 / c) u^2, u = 1/alpha_b^2,
    equals x = -ln(1 - delta_target), and gamma_10 = phi^2 (gamma_20 + c/u)
    u^4 / (4 c^2).  Only a seed: it may raise ArithmeticError or be 0 or
    non-finite.
    """
    gamma_20, c = _seed_rates(constraints)
    phi_sq, x = constraints.phi ** 2, -math.log1p(-delta_target)
    b = 3.0 * phi_sq
    u = 2.0 * x / (b + math.sqrt(b * b + 8.0 * phi_sq * gamma_20 / c * x))
    return phi_sq * (gamma_20 + c / u) * u ** 4 / (4.0 * c * c)


def _two_qubit_optimize(gamma_10: float, constraints: OptimizationConstraints):
    """Minimization of the total error over the lattice of alpha_b_range,
    nu_c in closed form.

    `_golden_min` starts at `_seed_alpha_b` and ranks every point by
    _two_qubit_delta at the closed-form nu_c (_two_qubit_min_nu); the full
    design and budget are built once, at the result.  The result is at the
    edge exactly when it is an end of alpha_b_range.
    """
    params = base_params(constraints, gamma_10)
    try:
        seed = _seed_alpha_b(gamma_10, constraints)
    except ArithmeticError:
        seed = math.nan
    found = {}   # alpha_b -> (nu_c, delta_total)

    def at_min_nu(alpha):
        found[alpha] = _two_qubit_min_nu(params, alpha, constraints)
        return found[alpha][1]

    alpha, _ = _golden_min(at_min_nu, constraints.alpha_b_range, seed)
    design = design_point(params, found[alpha][0], alpha, constraints.phi)
    budget = _two_qubit_budget(params, design)
    return params, design, budget, alpha in constraints.alpha_b_range


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

    Two-qubit mode finds the local minimum over the lattice of alpha_b_range
    (`_golden_min`; 3.1e-4 apart in ln alpha_b over the default range) from
    the strong-drive closed-form optimum (`_seed_alpha_b`), with nu_c at
    each point the closed-form optimum `optimal_detuning` of the mean Fock
    component, and certifies the result against +/-5% perturbations on both
    axes.  One-qubit mode puts nu_c at the closed-form minimizer of the
    decoherence floor and reports the smallest alpha_b whose spread error
    stays below that floor.

    Raises
    ------
    NoConvergence
        If the optimum sits at the edge of the search range or the
        local-minimum certificate fails.
    """
    _check_design_value("gamma_10", gamma_10)
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
    grows.  `_last_true` starts at the estimate spread ~ phi^2 (1/alpha_b^2
    + 1/alpha_c^2) and steps on ln target - ln spread, whose slope there is
    2 per unit ln alpha_b.  The returned pair is the one the search
    evaluated at its result.
    """
    if not 0.0 < delta_target < 1.0:
        raise InvalidInput(f"delta_target must be in (0, 1), got {delta_target}")
    evaluated = {}

    def misses(j: int) -> tuple[bool, float]:
        alpha = _lattice(j, _MIN_ALPHA_SPAN)
        design = design_point(params, nu_c, alpha, phi, alpha_c=alpha * alpha_c_ratio)
        evaluated[j] = design, _one_qubit_budget(params, design)
        spread = evaluated[j][1].delta_coherent_spread
        return spread > delta_target, -_log_gap(spread, delta_target)

    guess = phi * math.sqrt((1.0 + alpha_c_ratio ** -2) / delta_target)
    j = _last_true(misses, _MIN_ALPHA_SPAN, guess, slope=2.0) + 1
    if j > _STEPS:
        raise NotAttainable(f"spread error still above {delta_target} at alpha_b = "
                            f"{_MIN_ALPHA_SPAN[1]}")
    return evaluated[j]


def _lattice(k: int, span=_GAMMA_SPAN) -> float:
    """Point k of the geometric lattice span[0] (span[1] / span[0])^(k / _STEPS),
    written so that both ends of span are exact."""
    t = k / _STEPS
    return span[0] ** (1.0 - t) * span[1] ** t


def _exponent(delta: float) -> float:
    """-ln(1 - delta), the error exponent of a gate error delta < 1; inf above."""
    return -math.log1p(-delta) if delta < 1.0 else math.inf


def _log_gap(value: float, target: float) -> float:
    """ln(value / target) where both are positive and finite, else nan."""
    if 0.0 < value < math.inf and 0.0 < target < math.inf:
        return math.log(value) - math.log(target)
    return math.nan


def _last_true(evaluate, span, guess: float, slope: float) -> int:
    """Largest lattice index k in 0 .. _STEPS where evaluate(k)[0] holds; -1 if none.

    evaluate(k) is (holds, g): holds is true up to some index and false
    beyond it; g, about linear in ln x on the lattice of span, only picks
    the next index floor(k - g / s), s the secant slope of the last two
    points (at the first, the given slope per unit ln x; that point is the
    one nearest guess, or the centre).  Every step lands strictly inside
    the bracket of indices known to hold and to fail (-1 and _STEPS + 1
    until known), so no index is evaluated twice.  Where the secant gives no
    finite index, the search steps outward, each step twice the last, or
    bisects a bracket; from the third step on, a step that does not halve
    the bracket is followed by a bisection: at most 2 log2(_STEPS) + 2
    evaluations.  In the alpha_b search (`_golden_min`) an evaluation
    compares the objective at k and k + 1, so it costs up to two objective
    calls; neighbouring evaluations share one.
    """
    dx = math.log(span[1] / span[0]) / _STEPS
    k, slope = _STEPS // 2, slope * dx
    if 0.0 < guess < math.inf:
        k = round(min(_STEPS, max(0.0, math.log(guess / span[0]) / dx)))
    lo, hi, last = -1, _STEPS + 1, None
    for count in itertools.count(1):
        holds, g = evaluate(k)
        width = hi - lo
        lo, hi = (k, hi) if holds else (lo, k)
        if hi - lo == 1:
            return lo
        reach = 1
        if last is not None:
            slope = (g - last[1]) / (k - last[0])
            reach = 2 * abs(k - last[0])
        last = k, g
        aim = k - g / slope if 0.0 < slope < math.inf else math.nan
        if (count > 3 and 2 * (hi - lo) > width + 1
                or not math.isfinite(aim) and 0 <= lo < hi <= _STEPS):
            k = (lo + hi) // 2
        elif math.isfinite(aim):
            k = math.floor(aim)
        else:
            k = lo + reach if hi > _STEPS else hi - reach
        k = min(hi - 1, max(lo + 1, k))


def max_dephasing(delta_target: float, constraints: OptimizationConstraints
                  ) -> tuple[float, GateDesign, ErrorBudget]:
    """Largest lattice gamma_10 whose optimized error stays within delta_target.

    The lattice is gamma_k = 1e-14 (1e13)^(k / _STEPS), spanning
    _GAMMA_SPAN = [1e-14, 1e-1]; the result is its largest point whose
    optimized error is at most delta_target, provided that error is monotone
    nondecreasing in the dephasing.  `_last_true` steps on ln(-ln(1 - delta)),
    of slope about 1/2 per unit ln gamma_10: in two-qubit mode from the
    strong-drive closed form's inverse (`_seed_gamma_10`), each point a full
    search; where that seed fails, and in one-qubit mode (on the decoherence
    floor), from the lattice's centre.  Returns (gamma_10, design, budget); a
    two-qubit design is the search run there, and its delta_total is at most
    delta_target.

    Raises
    ------
    NotAttainable
        If even vanishing dephasing cannot reach delta_target (the
        coherent-spread floor is above it).
    NoConvergence
        If the returned two-qubit design misses delta_target, or its search
        fails to certify.
    """
    _check_design_value("delta_target", delta_target)
    searches = {}

    def meets(k: int) -> tuple[bool, float]:
        gamma = _lattice(k)
        if constraints.mode == ONE_QUBIT:
            delta = _one_qubit_dec_limit(gamma, constraints)[1]
        else:
            searches[k] = _two_qubit_optimize(gamma, constraints)
            delta = searches[k][2].delta_total
        return delta <= delta_target, _log_gap(_exponent(delta), _exponent(delta_target))

    guess = math.nan
    if constraints.mode == TWO_QUBIT:
        try:
            guess = _seed_gamma_10(delta_target, constraints)
        except ArithmeticError:
            pass
    k = _last_true(meets, _GAMMA_SPAN, guess, slope=0.5)
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

