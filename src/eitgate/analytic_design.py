"""Closed-form design expressions for the phase gate.

Effective decoherence exposure, the detuning that minimizes it, the
asymptotic pi-gate regime and the Fock-input dephasing bound.  Everything
here is algebra on SystemParams; the exact response W10 is used wherever a
rate is needed, never its asymptotic form, so the closed forms can be
cross-checked against numerical minimization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core_model import SystemParams, w10
from .errors import (DegenerateParams, DivisionByZero, InvalidInput, RegimeWarning,
                     ZeroPhaseRate)

# Operational meaning of "much smaller than" for regime validation.
REGIME_SEPARATION = 100.0


@dataclass(frozen=True)
class AuxiliaryFactors:
    """Dressed widths entering the optimal-detuning expressions.

    q_b_sq = gamma_20 gamma_30 + |Omega_b|^2
    q_c_sq = gamma_30 gamma_40 + |Omega_c|^2
    gamma_10_tilde = gamma_10 + gamma_30 |Omega_a|^2 / q_b_sq
    gamma_20_tilde = gamma_20 + gamma_40 |Omega_b|^2 / q_c_sq
    """

    q_b_sq: float
    q_c_sq: float
    gamma_10_tilde: float
    gamma_20_tilde: float


def _check_phase(phi: float) -> None:
    """InvalidInput for a target phase phi <= 0, RegimeWarning for one
    outside (0, 2 pi].  Called from the __post_init__ of a record that takes
    a phase, so the warning names the line that built the record."""
    if phi <= 0:
        raise InvalidInput(f"phi must be > 0, got {phi}")
    if not phi <= 2 * math.pi:
        warnings.warn(f"target phase {phi} rad outside (0, 2*pi]", RegimeWarning,
                      stacklevel=4)


def aux_factors(params: SystemParams) -> AuxiliaryFactors:
    """Dressed widths Q_b^2, Q_c^2 and tilde rates for the design formulas."""
    q_b_sq = params.gamma_20 * params.gamma_30 + params.omega_b ** 2
    q_c_sq = params.gamma_30 * params.gamma_40 + params.omega_c ** 2
    if q_b_sq == 0 or q_c_sq == 0:
        raise DegenerateParams(
            f"aux_factors: Q_b^2={q_b_sq}, Q_c^2={q_c_sq}; both must be > 0")
    return AuxiliaryFactors(
        q_b_sq=q_b_sq,
        q_c_sq=q_c_sq,
        gamma_10_tilde=params.gamma_10 + params.gamma_30 * params.omega_a ** 2 / q_b_sq,
        gamma_20_tilde=params.gamma_20 + params.gamma_40 * params.omega_b ** 2 / q_c_sq,
    )


def tau_eff(params: SystemParams, phi: float) -> float:
    """Decoherence exposure accumulated while acquiring the target phase phi.

    tau_eff = -(gamma_10 + Im W10) / Re W10 * phi, with the exact response.
    The coherence after the gate is rho_10(0) e^{-i phi} e^{-tau_eff}.

    Raises
    ------
    ZeroPhaseRate
        If Re(W10) = 0 (no phase accumulates at these parameters).
    """
    w = w10(params)
    if w.real == 0:
        raise ZeroPhaseRate("tau_eff: Re(W10) = 0, gate impossible at these parameters")
    return -(params.gamma_10 + w.imag) / w.real * phi


def _check_detuning_regime(params: SystemParams):
    small = max(params.gamma_10, params.gamma_30)
    big = min(params.gamma_20, params.gamma_40, params.omega_b, params.omega_c)
    if small * REGIME_SEPARATION > big:
        warnings.warn(
            "optimal-detuning formula used outside its regime: "
            f"max(gamma_10, gamma_30)={small:.3e} is not << "
            f"min(gamma_20, gamma_40, |Omega_b|, |Omega_c|)={big:.3e}",
            RegimeWarning, stacklevel=3)


def optimal_detuning(params: SystemParams) -> float:
    """Detuning nu_c at which tau_eff is minimal.

    nu_c* = sqrt[gamma_20~ (gamma_10 gamma_20~ + |Omega_a|^2) / gamma_10~]
            * Q_c^2 / Q_b^2

    The Q and tilde factors do not depend on nu_c, so this is an explicit
    expression.  Emits RegimeWarning outside the separation-of-scales regime.

    Raises
    ------
    DegenerateParams
        If gamma_10~ = 0: with no ground-state dephasing the optimum
        diverges (larger nu_c is always better).
    """
    _check_detuning_regime(params)
    f = aux_factors(params)
    if f.gamma_10_tilde == 0:
        raise DegenerateParams(
            "optimal_detuning: gamma_10~ = 0, optimum detuning diverges")
    radicand = f.gamma_20_tilde * (params.gamma_10 * f.gamma_20_tilde
                                   + params.omega_a ** 2) / f.gamma_10_tilde
    return math.sqrt(radicand) * f.q_c_sq / f.q_b_sq


def tau_eff_at_optimum(params: SystemParams, phi: float) -> float:
    """Minimum of tau_eff over nu_c, in closed form.

    2 sqrt[gamma_10~ gamma_20~ (gamma_10 gamma_20~ + |Omega_a|^2)]
      * (Q_b^2/|Omega_b|^2) (Q_c^2/|Omega_c|^2) * phi / |Omega_a|^2
    """
    _check_detuning_regime(params)
    if params.omega_a == 0 or params.omega_b == 0 or params.omega_c == 0:
        raise DivisionByZero("tau_eff_at_optimum: all three amplitudes must be nonzero")
    f = aux_factors(params)
    root = math.sqrt(f.gamma_10_tilde * f.gamma_20_tilde
                     * (params.gamma_10 * f.gamma_20_tilde + params.omega_a ** 2))
    return (2.0 * root * (f.q_b_sq / params.omega_b ** 2)
            * (f.q_c_sq / params.omega_c ** 2) * phi / params.omega_a ** 2)


def asymptotic_design(params: SystemParams, phi: float) -> tuple[float, float]:
    """Strong-drive asymptotics of the optimal design point.

    nu_c ~ sqrt(gamma_20~/gamma_10~) (|Omega_c|^2/|Omega_b|^2) |Omega_a|,
    tau_eff ~ 2 phi sqrt(gamma_10~ gamma_20~) / |Omega_a|.

    Valid when gamma_20 gamma_30 << |Omega_b|^2, gamma_30 gamma_40 <<
    |Omega_c|^2, |Omega_a|^2 << |Omega_b|^2 and gamma_10 gamma_20~ <<
    |Omega_a|^2; warns otherwise.
    """
    f = aux_factors(params)
    checks = [
        (params.gamma_20 * params.gamma_30, params.omega_b ** 2,
         "gamma_20*gamma_30 vs |Omega_b|^2"),
        (params.gamma_30 * params.gamma_40, params.omega_c ** 2,
         "gamma_30*gamma_40 vs |Omega_c|^2"),
        (params.omega_a ** 2, params.omega_b ** 2, "|Omega_a|^2 vs |Omega_b|^2"),
        (params.gamma_10 * f.gamma_20_tilde, params.omega_a ** 2,
         "gamma_10*gamma_20~ vs |Omega_a|^2"),
    ]
    for small, big, label in checks:
        if small * REGIME_SEPARATION > big:
            warnings.warn(f"asymptotic_design outside regime ({label}: "
                          f"{small:.3e} not << {big:.3e})", RegimeWarning, stacklevel=2)
    if f.gamma_10_tilde == 0:
        raise DegenerateParams("asymptotic_design: gamma_10~ = 0, optimum diverges")
    nu_c = (math.sqrt(f.gamma_20_tilde / f.gamma_10_tilde)
            * (params.omega_c ** 2 / params.omega_b ** 2) * params.omega_a)
    tau = 2.0 * phi * math.sqrt(f.gamma_10_tilde * f.gamma_20_tilde) / params.omega_a
    return nu_c, tau


def fock_dephasing_bound(delta: float, phi: float, n_b: int) -> float:
    """Dephasing tolerable for error delta with a Fock drive of n_b photons.

    gamma_10 / |Omega~_a| = (delta/phi)^2 / n_b, derived for the pessimistic
    configuration |Omega_a| ~ gamma_20 ~ gamma_40 and |Omega~_b|^2 ~
    |Omega~_c|^2.  This is a Fock-input estimate; the coherent-drive
    optimizer answers a different question and its numbers differ.  It is
    inf where (delta/phi)^2 exceeds the float range.
    """
    if delta <= 0:
        raise InvalidInput(f"delta must be > 0, got {delta}")
    if phi <= 0:
        raise InvalidInput(f"phi must be > 0, got {phi}")
    if n_b < 1:
        raise InvalidInput(f"n_b must be >= 1, got {n_b}")
    try:
        return (delta / phi) ** 2 / n_b
    except OverflowError:
        return math.inf


def decoherence_error(tau: float, rho10_initial: complex = 0.5) -> float:
    """Gate error 1 - F^2 from dephasing and depopulation alone.

    |rho_10(0)|^2 (1 - e^{-2 tau}); with the dual-rail default
    rho_10(0) = 1/2 this is (1 - e^{-2 tau})/4 ~ tau/2 for small tau.
    """
    if tau < 0:
        raise InvalidInput(f"tau must be >= 0, got {tau}")
    mag = abs(rho10_initial)
    if mag > 0.5 + 1e-12:
        raise InvalidInput(f"|rho10_initial| must be <= 1/2, got {mag}")
    return mag ** 2 * (1.0 - math.exp(-2.0 * tau))


def gate_time(params: SystemParams, phi: float) -> float:
    """Interaction time needed for the target phase, as |Omega_a| N t.

    t = -phi / (Re(W10) N); the returned product |Omega_a| N t is the
    dimensionless number quoted for gate durations.
    """
    w = w10(params)
    if w.real == 0:
        raise ZeroPhaseRate("gate_time: Re(W10) = 0, no phase accumulates")
    return -phi * params.omega_a / w.real
