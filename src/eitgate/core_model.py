"""Four-level N-system parameters and the weak-probe response W10.

All rates, detunings and Rabi amplitudes are dimensionless, expressed in a
caller-chosen reference rate.  Per-photon amplitudes are written with a tilde;
the effective amplitude of mode k is |Omega_k| = |Omega~_k| sqrt(n_k).  Mode b
is special: `omega_b_tilde` holds the *effective* |Omega_b| for the evaluation
at hand, with any photon-number factor folded in by the caller (the coherent
drive machinery evaluates one Fock component at a time).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DivisionByZero, InvalidInput, RegimeWarning

# Relative tolerance floors: singularity detection and passivity slack.
EPS_DEN = 1e-12
EPS_NUM = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Rates, detunings and drive amplitudes of the four-level system.

    gamma_10 is the collective ground-state decoherence rate already divided
    by the atom number; gamma_10 and gamma_30 are pure dephasing (the levels
    they guard are metastable), gamma_20 and gamma_40 include depopulation.
    The defaults are those of the configuration file's `system` block.
    """

    omega_a_tilde: float = 1.0
    omega_b_tilde: float = 3.0
    omega_c_tilde: float = 3.0
    n_a: int = 1
    n_c: int = 1
    nu_a: float = 0.0
    nu_b: float = 0.0
    nu_c: float = 30.0
    gamma_10: float = 1e-6
    gamma_20: float = 1.0
    gamma_30: float = 0.0
    gamma_40: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, got {value}")
        for name in ("omega_a_tilde", "omega_b_tilde", "omega_c_tilde",
                     "gamma_10", "gamma_20", "gamma_30", "gamma_40"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_a < 0 or self.n_c < 0:
            raise InvalidInput(f"photon numbers must be >= 0, got n_a={self.n_a}, n_c={self.n_c}")
        if self.gamma_10 > self.gamma_20 or self.gamma_30 > self.gamma_20:
            warnings.warn(
                "gamma_10 or gamma_30 exceeds gamma_20; the metastability "
                "assumption behind the pure-dephasing model is doubtful here",
                RegimeWarning, stacklevel=2)

    @property
    def omega_a(self) -> float:
        """Effective probe amplitude |Omega_a| = |Omega~_a| sqrt(n_a).

        A numpy scalar: a power of it that overflows gives inf, where a
        Python float's would raise OverflowError.
        """
        return np.float64(self.omega_a_tilde * math.sqrt(self.n_a))

    @property
    def omega_b(self) -> float:
        """Effective drive amplitude; photon number already folded in.  A numpy scalar."""
        return np.float64(self.omega_b_tilde)

    @property
    def omega_c(self) -> float:
        """Effective signal amplitude |Omega_c| = |Omega~_c| sqrt(n_c); a numpy scalar."""
        return np.float64(self.omega_c_tilde * math.sqrt(self.n_c))


def _w10_terms(params: SystemParams, omega_b, omega_c):
    """Numerator, denominator and degeneracy flag of W10.

    omega_b and omega_c are the effective drive and signal amplitudes; they
    may be Python scalars or numpy arrays (one entry per Fock component).
    Plain operators and builtin abs keep scalars free of numpy overhead.  The
    flag is set where the denominator is at most EPS_DEN times the scale of
    its terms, which includes an exactly vanishing scale.
    """
    d3 = params.nu_a - params.nu_b
    d4 = d3 + params.nu_c
    a3 = d3 + 1j * params.gamma_30
    a4 = d4 + 1j * params.gamma_40
    bracket = a3 * a4 - omega_c ** 2
    num = -bracket * params.omega_a ** 2
    a2_bracket = (params.nu_a + 1j * params.gamma_20) * bracket
    den = a2_bracket - a4 * omega_b ** 2
    scale = abs(a2_bracket) + abs(a4) * omega_b ** 2
    return num, den, abs(den) <= EPS_DEN * scale


def w10(params: SystemParams) -> complex:
    """Evaluate the complex weak-probe response of the four-level chain.

    The ground-state coherence evolves as
    rho_10(t) = rho_10(0) exp[(-gamma_10 + i W10) N t]; Re(W10) sets the
    phase accumulation rate and Im(W10) >= 0 the absorption.

    Raises
    ------
    DegenerateDenominator
        If the response denominator is at most EPS_DEN times the scale of
        its terms (an exactly singular or unphysical parameter point).
    """
    num, den, degenerate = _w10_terms(params, params.omega_b, params.omega_c)
    if degenerate:
        raise DegenerateDenominator(
            f"w10: |denominator|={abs(den):.3e} at or below {EPS_DEN:.0e} x its scale")
    return complex(num / den)


def kerr_approximation(params: SystemParams) -> float:
    """Dispersive cross-Kerr limit of the phase rate.

    Re(W10) -> -|Omega_a|^2 |Omega_c|^2 / (nu_c |Omega_b|^2), valid deep in
    the dispersive regime (|nu_c| much larger than the widths involved).

    Raises
    ------
    DivisionByZero
        If nu_c = 0 or the drive amplitude is zero.
    """
    if params.nu_c == 0:
        raise DivisionByZero("kerr_approximation: nu_c = 0")
    if params.omega_b == 0:
        raise DivisionByZero("kerr_approximation: |Omega_b| = 0")
    return -(params.omega_a ** 2) * params.omega_c ** 2 / (params.nu_c * params.omega_b ** 2)
