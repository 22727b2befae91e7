"""Numerical design search and trade-off sweeps.

Finds the (nu_c, alpha_b) pair minimizing the total gate error at a given
ground-state dephasing, inverts that map to the largest tolerable dephasing
for a target error, and tabulates trade-off curves over a grid.  All searches
are deterministic and share one engine: `_last_true` walks a fixed geometric
lattice by safeguarded secant steps from an estimate, and returns the point
a bisection of the whole lattice returns.  The two-qubit estimates solve one
strong-drive error model, `_model`.  alpha_b is the lattice local minimum of
the total error, found from the model's minimum (`_seed_alpha_b`, rescaled
by what the inversion's earlier searches found), with nu_c at each point the
closed-form optimum `optimal_detuning` of the mean Fock component.  The
inversion and the one-qubit amplitude search find the last lattice point
that meets a target.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .analytic_design import _check_phase, optimal_detuning, tau_eff
from .coherent_gate import (ONE_QUBIT, TWO_QUBIT, ErrorBudget, GateDesign,
                            _one_qubit_budget, _system_at, _two_qubit_budget,
                            _two_qubit_delta, design_point)
from .core_model import SystemParams
from .errors import (GateModelError, InvalidInput, MonotonicityViolation,
                     NoConvergence, NotAttainable, RegimeWarning)

_STEPS = 2 ** 14  # geometric steps of every lattice
_GAMMA_SPAN = (1e-14, 1e-1)   # the lattice of max_dephasing
_MIN_ALPHA_SPAN = (0.5, 400.0)   # the lattice of min_alpha_b
_CERT_SLACK = 1e-4
_SPREAD_KNEE = 1.0 / 64.0   # u = 1/alpha_b^2 above which the seeds' spread term is linear


@dataclass(frozen=True)
class OptimizationConstraints:
    """Fixed ratios and search ranges for the design optimization.

    Everything is expressed in units of the per-photon probe amplitude
    |Omega~_a|; the probe carries one photon, mode c one photon in two-qubit
    mode.  gamma_30 is held at zero so the optimized error depends only on
    the ratios fixed here.  Only two-qubit mode reads alpha_b_range (one-qubit
    mode searches the fixed lattice _MIN_ALPHA_SPAN = [0.5, 400]), and only
    one-qubit mode reads alpha_c_over_alpha_b.
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
        _check_phase(self.phi)
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


def _golden_min(f, span, guess: float, slope: float):
    """(x, f(x)) at the local minimum of the gate error f on the lattice of
    span: the point after the last index k where f falls to k + 1, or
    span[0] if it never falls there.  The alpha_b search runs through it.
    The name is the golden section's it replaced, kept because perfbench
    counts its evaluations as `design_optimizer.golden.evals`.

    `_last_true` starts at the point nearest guess (the centre without one)
    and steps on the difference of ln(-ln(1 - f)) from k to k + 1, per unit
    ln x, with slope as its first secant slope, which the two-qubit search
    takes from the seeds' model (`_model_curvature`).  f is evaluated once
    per point.  In `design --delta 0.2` the first search starts from
    `_seed_alpha_b`, within one index of the lattice minimum at suppression
    1 (4 calls, first slope 2.13) and 17 indices below it at 1e-3, where the
    first slope, 0.91, takes the first secant step 16 of them (5 calls).
    Every later search starts from `max_dephasing`'s warm start, within one
    index (3 calls).  The one search of `design --gamma10` makes 3 or 4
    from gamma_10 1e-10 to 1e-6 at both suppressions.
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

    k = _last_true(falls, span, guess, slope) + 1
    return _lattice(k, span), at(k)


def _two_qubit_min_nu(params: SystemParams, alpha_b: float,
                      constraints: OptimizationConstraints):
    """(nu_c, delta_total) at alpha_b, nu_c the closed-form optimum of the
    mean component (at most 1.2e-6 above the minimum over nu_c at the fig2
    designs).  `optimal_detuning` may warn out of its regime; the caller
    silences RegimeWarning (`_two_qubit_optimize`, once per search)."""
    nu = optimal_detuning(_system_at(params, params.nu_c, alpha_b))
    return nu, _two_qubit_delta(params, nu, alpha_b, constraints.phi)


def _seed_rates(constraints: OptimizationConstraints) -> tuple[float, float]:
    """(gamma_20, c), in units |Omega~_a| = 1: at the mean component
    gamma_20~ = gamma_20 + gamma_40 |Omega_b|^2 / |Omega_c|^2 = gamma_20 + c alpha_b^2."""
    gamma_20 = 1.0 / constraints.omega_a_over_gamma_20
    return gamma_20, constraints.suppression * gamma_20 * constraints.omega_b_sq_over_omega_c_sq


def _spread(u: float) -> tuple[float, float, float]:
    """(S, S', S''): the phase spread of the seeds' error model over phi^2,
    and its derivatives in u, at u = 1/alpha_b^2.  S = u + 6 u^2 is the
    second cumulant of mu/n for Poisson n, 1/mu + 6/mu^2 + O(mu^-3), mu =
    alpha_b^2; above _SPREAD_KNEE (alpha_b below 8) it goes on along its
    tangent, so that its slope S' <= 1 + 12/64 stops growing where the
    expansion stops holding.  At phi = pi the exact Kerr-limit spread is
    1.089 times its first term at alpha_b 8, against the expansion's 1.094,
    but 1.17 against 1.24 at alpha_b 5; unbounded, the term put the seed 14%
    above the searched alpha_b at suppression 1 and gamma_10 5e-4 (4.9%
    with the knee).
    """
    v = min(u, _SPREAD_KNEE)
    return u + 6.0 * v * (2.0 * u - v), 1.0 + 12.0 * v, 12.0 if u < _SPREAD_KNEE else 0.0


def _model(alpha_b: float, gamma_10: float, constraints: OptimizationConstraints
           ) -> tuple[float, float, float, float, float]:
    """(E, E', E'', tau, d E' / d ln gamma_10) of the seeds' strong-drive
    error model E = 2 tau + phi^2 S(u), primes d/ds at s = ln alpha_b.
    tau = 2 phi sqrt(gamma_10 (gamma_20 + c alpha_b^2)) is
    `asymptotic_design`'s exposure at the mean component, phi^2 S the phase
    spread in the Kerr limit Re W10 ~ 1/n_b (`_spread`), u = 1/alpha_b^2.
    With h = c alpha_b^2 / (gamma_20 + c alpha_b^2), the drive's share of
    the exposure's width: d tau / ds = h tau, d^2 tau / ds^2 = h (2 - h)
    tau, d S / ds = -2 u S' and d^2 S / ds^2 = 4 u (S' + u S''); tau goes
    as sqrt(gamma_10), so d E' / d ln gamma_10 = h tau.  The one statement
    of the model: both seeds and `_model_curvature` solve it.
    """
    gamma_20, c = _seed_rates(constraints)
    phi_sq, y = constraints.phi ** 2, alpha_b * alpha_b
    width = gamma_20 + c * y
    tau, share = 2.0 * constraints.phi * math.sqrt(gamma_10 * width), c * y / width
    u = 1.0 / y
    spread, slope, curve = _spread(u)
    return (2.0 * tau + phi_sq * spread,
            2.0 * share * tau - 2.0 * phi_sq * u * slope,
            2.0 * share * (2.0 - share) * tau + 4.0 * phi_sq * u * (slope + u * curve),
            tau, share * tau)


def _seed_alpha_b(gamma_10: float, constraints: OptimizationConstraints) -> float:
    """alpha_b at the minimum of `_model`: Newton's method on E' = 0 in
    s = ln alpha_b, until its step stops shrinking.  It starts from twice
    the larger one-term root in alpha_b^2 of the model without the 6 u^2
    term, 4 c^2 gamma_10 alpha_b^8 = phi^2 (c alpha_b^2 + gamma_20).  Only a
    seed: it may raise ArithmeticError or be non-finite.
    """
    gamma_20, c = _seed_rates(constraints)
    phi_sq, quartic = constraints.phi ** 2, 4.0 * c * c * gamma_10
    alpha = math.sqrt(2.0 * max((phi_sq * c / quartic) ** (1 / 3),
                                (phi_sq * gamma_20 / quartic) ** 0.25))
    last = math.inf
    while True:
        _, rise, bend, _, _ = _model(alpha, gamma_10, constraints)
        step = rise / bend
        if not abs(step) < last:
            return alpha
        alpha, last = alpha * math.exp(-step), abs(step)


def _model_curvature(alpha_b: float, gamma_10: float,
                     constraints: OptimizationConstraints) -> float:
    """d^2 ln E / d(ln alpha_b)^2 = E''/E - (E'/E)^2 of `_model` at alpha_b:
    the slope per unit ln alpha_b that `_golden_min`'s step function
    ln E(k + 1) - ln E(k) has there, and so its first secant slope.  At the
    model's optimum it is 2.13 at suppression 1 and 0.91 at 1e-3 for
    delta_target 0.2, phi = pi.
    """
    error, rise, bend, _, _ = _model(alpha_b, gamma_10, constraints)
    return bend / error - (rise / error) ** 2


def _seed_gamma_10(delta_target: float, constraints: OptimizationConstraints
                   ) -> tuple[float, float]:
    """(gamma_10, slope): the gamma_10 at which `_model`'s minimum over
    alpha_b meets the exponent x of delta_target, and there the slope
    d ln x / d ln gamma_10.  Newton's method on the pair (E' = 0, ln E =
    ln x) in (ln alpha_b, ln gamma_10), until its step stops shrinking.  It
    starts from the model without the 6 u^2 term, where the pair is
    phi^2 u (3 + 2 u gamma_20 / c) = x in closed form, and gamma_10 =
    phi^2 (gamma_20 + c/u) u^4 / (4 c^2).  By the envelope theorem the
    slope is d ln E / d ln gamma_10 = tau / E.  Only a seed: it may raise
    ArithmeticError, or ValueError where E underflows to 0, or be 0 or
    non-finite.
    """
    gamma_20, c = _seed_rates(constraints)
    phi_sq, x = constraints.phi ** 2, _exponent(delta_target)
    u = 2.0 * x / phi_sq / (3.0 + math.sqrt(9.0 + 8.0 * gamma_20 / c * x / phi_sq))
    gamma = phi_sq * (gamma_20 + c / u) * u ** 4 / (4.0 * c * c)
    alpha, last = u ** -0.5, math.inf
    while True:
        error, rise, bend, tau, pull = _model(alpha, gamma, constraints)
        miss, det = math.log(error / x) * error, bend * tau - pull * rise
        ds, dg = (pull * miss - rise * tau) / det, (rise * rise - bend * miss) / det
        step = max(abs(ds), abs(dg))
        if not step < last:
            return gamma, tau / error
        alpha, gamma, last = alpha * math.exp(ds), gamma * math.exp(dg), step


def _cold_alpha_b(gamma_10: float, constraints: OptimizationConstraints) -> float:
    """`_seed_alpha_b`, or nan where it fails: the alpha_b search's start
    when no earlier search informs it."""
    try:
        return _seed_alpha_b(gamma_10, constraints)
    except ArithmeticError:
        return math.nan


def _two_qubit_optimize(gamma_10: float, constraints: OptimizationConstraints,
                        guess: float | None = None):
    """(params, nu_c, alpha_b, delta_total): the local minimum of the total
    error over the lattice of alpha_b_range, nu_c in closed form.

    `_golden_min` starts at guess, by default `_seed_alpha_b` (the range's
    centre where it fails), with `_model_curvature` there as its first
    slope (without a guess 2, the model's curvature at its optimum where
    the drive dominates the width and S = u), and ranks every point by
    _two_qubit_delta at the closed-form nu_c (_two_qubit_min_nu), with
    RegimeWarning silenced for the whole search.  The result does not depend
    on the start where the error is unimodal on the lattice.  It is a
    lattice point and the search's own error there; `_certified` turns it
    into a design.
    """
    params = base_params(constraints, gamma_10)
    if guess is None:
        guess = _cold_alpha_b(gamma_10, constraints)
    slope = 2.0
    if 0.0 < guess < math.inf:
        slope = _model_curvature(guess, gamma_10, constraints)
    found = {}   # alpha_b -> nu_c

    def at_min_nu(alpha):
        found[alpha], delta = _two_qubit_min_nu(params, alpha, constraints)
        return delta

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        alpha, delta = _golden_min(at_min_nu, constraints.alpha_b_range, guess, slope)
    return params, found[alpha], alpha, delta


def _certified(params: SystemParams, nu_c: float, alpha_b: float, delta_total: float,
               constraints: OptimizationConstraints) -> tuple[GateDesign, ErrorBudget]:
    """(design, budget) at a search result, once certified as an interior
    local minimum: alpha_b is not an end of alpha_b_range, and no +/-5%
    perturbation of either axis lowers delta_total by more than _CERT_SLACK.
    The only place a two-qubit search result becomes a design."""
    if alpha_b in constraints.alpha_b_range:
        raise NoConvergence(
            f"optimal alpha_b = {alpha_b} sits at the edge of the search "
            f"range {constraints.alpha_b_range}; enlarge the range")
    for nu, alpha in ((nu_c * 1.05, alpha_b), (nu_c * 0.95, alpha_b),
                      (nu_c, alpha_b * 1.05), (nu_c, alpha_b * 0.95)):
        perturbed = _two_qubit_delta(params, nu, alpha, constraints.phi)
        if perturbed < delta_total - _CERT_SLACK:
            raise NoConvergence(
                f"local-minimum certificate failed: delta {perturbed:.6f} "
                f"< {delta_total:.6f} - {_CERT_SLACK} at nu_c={nu:.6g}, alpha_b={alpha:.6g}")
    design = design_point(params, nu_c, alpha_b, constraints.phi)
    return design, _two_qubit_budget(params, design)


def _one_qubit_dec_limit(gamma_10: float, constraints: OptimizationConstraints):
    """(nu_c, floor): the one-qubit gate's decoherence-only error floor.

    Taken on the mean Fock component at unit drive, the one builder's
    (`_system_at`) system at alpha_b = 1: in this large-amplitude limit of the
    double sum the drives enter only through alpha_c/alpha_b, so the floor is
    amplitude-independent.  nu_c is `optimal_detuning`, the floor's closed-form minimizer.
    """
    params = base_params(constraints, gamma_10)
    mean = _system_at(params, params.nu_c, 1.0, constraints.alpha_c_over_alpha_b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        nu = optimal_detuning(mean)
        tau = tau_eff(_system_at(mean, nu, 1.0), constraints.phi)
    return nu, 1.0 - math.exp(-2.0 * tau)


def optimize_design(gamma_10: float,
                    constraints: OptimizationConstraints) -> tuple[GateDesign, ErrorBudget]:
    """Design minimizing the total gate error at the given dephasing.

    Two-qubit mode finds the local minimum over the lattice of alpha_b_range
    (`_golden_min`; 3.1e-4 apart in ln alpha_b over the default range) from
    the seeds' model optimum (`_seed_alpha_b`), with nu_c at each point the
    closed-form optimum `optimal_detuning` of the mean Fock component, and
    certifies the result against +/-5% perturbations on both axes.
    One-qubit mode puts nu_c at the closed-form minimizer of the decoherence
    floor and reports the smallest alpha_b whose spread error stays below
    that floor.

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
    the bracket is followed by a bisection, except once a unit step beside
    an end, the cheapest test of a threshold the secant creeps up on: at
    most 2 log2(_STEPS) + 2 = 30 evaluations.  In the alpha_b search
    (`_golden_min`) an evaluation compares the objective at k and k + 1, so
    it costs up to two objective calls, at most 60 in all; neighbouring
    evaluations share one.
    """
    dx = math.log(span[1] / span[0]) / _STEPS
    k, slope = _STEPS // 2, slope * dx
    if 0.0 < guess < math.inf:
        k = round(min(_STEPS, max(0.0, math.log(guess / span[0]) / dx)))
    lo, hi, last, spared = -1, _STEPS + 1, None, False
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
        stalled = count > 3 and 2 * (hi - lo) > width + 1
        if stalled and hi - lo == width - 1 and not spared:
            stalled, spared = False, True   # a unit step: the threshold's cheapest test
        if stalled or not math.isfinite(aim) and 0 <= lo < hi <= _STEPS:
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
    nondecreasing in the dephasing.  `_last_true` steps on ln(-ln(1 - delta)).
    In two-qubit mode it starts from `_seed_gamma_10`, where the minimum of
    the seeds' model `_model` meets the target, with the model's slope there
    (0.33 to 0.44 per unit ln gamma_10 at delta_target 0.2), and each point
    is a full search.  The first alpha_b search starts from `_seed_alpha_b`;
    every later one, from its own seed times the ratio of the alpha_b found
    to the seed in the search before it, since that ratio barely moves
    between the points of one call.  Nothing is kept between calls.  Where
    the gamma_10 seed fails, and in one-qubit mode (on the decoherence
    floor), the search starts from the lattice's centre with slope 1/2.  At
    delta_target 0.2 an inversion runs 3 searches: the first makes 4
    objective calls at suppression 1 and 5 at 1e-3, each later one 3, so
    with the certificate's 4 an inversion makes 14 and 15 delta calls.
    Returns (gamma_10, design, budget); a two-qubit point is ranked on its
    search's own delta_total, and only the search at the result is certified
    and built (`_certified`); its delta_total is at most delta_target.

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
    searches, ratio = {}, 1.0   # ratio: alpha_b found / seed in the last search

    def meets(k: int) -> tuple[bool, float]:
        nonlocal ratio
        gamma = _lattice(k)
        if constraints.mode == ONE_QUBIT:
            delta = _one_qubit_dec_limit(gamma, constraints)[1]
        else:
            seed = _cold_alpha_b(gamma, constraints)
            searches[k] = _two_qubit_optimize(gamma, constraints, seed * ratio)
            delta = searches[k][3]
            if 0.0 < seed < math.inf:
                ratio = searches[k][2] / seed
        return delta <= delta_target, _log_gap(_exponent(delta), _exponent(delta_target))

    guess, slope = math.nan, 0.5
    if constraints.mode == TWO_QUBIT:
        try:
            guess, slope = _seed_gamma_10(delta_target, constraints)
        except (ArithmeticError, ValueError):
            pass
    k = _last_true(meets, _GAMMA_SPAN, guess, slope)
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


def sweep(spec: SweepSpec,
          constraint_sets: list[OptimizationConstraints]) -> list[SweepRow]:
    """Trade-off table over the grid, one row per (grid point, constraint set).

    Per-point failures are recorded in the row's status field, with NaN
    results, and never abort the sweep.  After tabulation the optimized
    error is audited to be nondecreasing in gamma_10 within each constraint
    set; a violation raises MonotonicityViolation.
    """
    if not constraint_sets:
        raise InvalidInput("no constraint sets given")
    rows: list[SweepRow] = []
    for value in spec.values:
        for cs in constraint_sets:
            gamma = value if spec.quantity == "gamma_10" else math.nan
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RegimeWarning)
                    if spec.quantity == "gamma_10":
                        design, budget = optimize_design(value, cs)
                    else:
                        gamma, design, budget = max_dephasing(value, cs)
                results, status = (budget.delta_total, budget.delta_decoherence,
                                   budget.delta_coherent_spread, design.nu_c,
                                   design.alpha_b, design.time_norm), "ok"
            except GateModelError as exc:
                results, status = (math.nan,) * 6, type(exc).__name__
            rows.append(SweepRow(gamma, *results, cs.suppression, cs.mode, status))
    for i in range(len(constraint_sets)):   # rows are value-major
        _audit_monotonicity(rows[i::len(constraint_sets)])
    return rows


def _audit_monotonicity(rows: list[SweepRow]) -> None:
    """MonotonicityViolation unless delta_total is nondecreasing in gamma_10
    over the ok rows of one constraint set."""
    ok = sorted((row for row in rows if row.status == "ok"),
                key=lambda r: r.gamma_10_over_omega_a)
    for prev, cur in zip(ok, ok[1:]):
        if cur.delta_total < prev.delta_total - 1e-9:
            raise MonotonicityViolation(
                f"optimized delta_total decreased from {prev.delta_total!r} to "
                f"{cur.delta_total!r} as gamma_10 grew from "
                f"{prev.gamma_10_over_omega_a!r} to {cur.gamma_10_over_omega_a!r} "
                f"(mode={cur.mode}, suppression={cur.suppression})")
