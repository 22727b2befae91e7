"""Brute-force oracle for the quasi-steady-state coherence evolution.

Integrates the weak-probe coherence chain (the single-excitation column of
the density matrix) with an adaptive Runge-Kutta scheme and compares the
resulting rho_10(t) against the closed-form exponent (-gamma_10 + i W10) t.
Adiabatic elimination of the fast coherences from this chain reproduces the
closed-form response exactly, which pins every sign convention; the
steady-chain linear solve below provides that check without any reference to
the closed form's algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core_model import SystemParams, w10
from .errors import InvalidInput, StepSizeUnderflow

DEFAULT_TOL = 1e-10
TRANSIENT_WIDTHS = 10.0       # discarded window, in units of 1/gamma_20
_STEP_BUDGET = 2e7            # max (fastest rate) x t_final before refusing


@dataclass(frozen=True)
class CoherenceVector:
    """First-column coherences of the single-excitation manifold."""

    rho_10: complex
    rho_20: complex = 0.0
    rho_30: complex = 0.0
    rho_40: complex = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.rho_10, self.rho_20, self.rho_30, self.rho_40],
                        dtype=complex)

    @staticmethod
    def from_array(y: np.ndarray) -> "CoherenceVector":
        return CoherenceVector(*(complex(c) for c in y))


@dataclass(frozen=True)
class OracleReport:
    """Deviation of the integrated rho_10(t) from the closed-form evolution."""

    max_rel_deviation: float
    final_phase_error: float
    final_magnitude_ratio: float
    regime_flag: str            # "in" when |Omega_a| <= gamma_20


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of the coherence chain."""

    times: np.ndarray
    states: np.ndarray          # shape (len(times), 4), complex

    @property
    def rho_10(self) -> np.ndarray:
        return self.states[:, 0]

    def coherence(self, i: int) -> CoherenceVector:
        return CoherenceVector.from_array(self.states[i])


def chain_matrix(params: SystemParams) -> np.ndarray:
    """Generator A of the linear chain d/dt (rho_10, rho_20, rho_30, rho_40) = A v."""
    oa, ob, oc = params.omega_a, params.omega_b, params.omega_c
    d3 = params.nu_a - params.nu_b
    d4 = d3 + params.nu_c
    return np.array([
        [-params.gamma_10,            1j * oa,                      0.0,                          0.0],
        [1j * oa,                     -(params.gamma_20 - 1j * params.nu_a), 1j * ob,             0.0],
        [0.0,                         1j * ob,                      -(params.gamma_30 - 1j * d3), 1j * oc],
        [0.0,                         0.0,                          1j * oc,                      -(params.gamma_40 - 1j * d4)],
    ], dtype=complex)


def steady_chain_rate(params: SystemParams) -> complex:
    """Decay exponent of rho_10 with the fast coherences slaved, by linear solve.

    Holding rho_10 fixed and solving d(rho_20, rho_30, rho_40)/dt = 0 gives
    d(rho_10)/dt / rho_10.  Equals -gamma_10 + i W10; computed here through
    numpy.linalg.solve so it is independent of the closed form.
    """
    a = chain_matrix(params)
    # block-eliminate the fast subspace: rate = A00 + A01 (-A11)^{-1} A10
    fast = np.linalg.solve(-a[1:, 1:], a[1:, 0])
    return complex(a[0, 0] + a[0, 1:] @ fast)


def _fastest_rate(params: SystemParams) -> float:
    return max(params.gamma_10, params.gamma_20, params.gamma_30, params.gamma_40,
               abs(params.nu_a), abs(params.nu_b), abs(params.nu_c),
               params.omega_a, params.omega_b, params.omega_c, 1e-300)


def integrate(params: SystemParams, v0: CoherenceVector, t_final: float,
              tol: float = DEFAULT_TOL, t_eval: np.ndarray | None = None) -> Trajectory:
    """Adaptive integration of the coherence chain up to t_final.

    Local error is controlled at tolerance tol, with the absolute floor tied
    to the initial-vector norm so the exact linearity of the system is
    preserved: scaling the initial vector scales every error threshold, and
    with it the whole trajectory, by the same factor.

    Raises
    ------
    StepSizeUnderflow
        If the spread of time scales exceeds the explicit integrator's step
        budget, or the integrator reports a step-size failure.  Rescale the
        problem to a slower reference rate in that case.
    """
    if t_final <= 0:
        raise InvalidInput(f"t_final must be > 0, got {t_final}")
    if tol <= 0:
        raise InvalidInput(f"tol must be > 0, got {tol}")
    if _fastest_rate(params) * t_final > _STEP_BUDGET:
        raise StepSizeUnderflow(
            f"integrate: fastest rate {_fastest_rate(params):.3e} x t_final "
            f"{t_final:.3e} exceeds the step budget {_STEP_BUDGET:.0e}; rescale units")
    a = chain_matrix(params)
    if t_eval is None:
        t_eval = np.linspace(0.0, t_final, 801)
    y0 = v0.as_array()
    scale = float(np.max(np.abs(y0)))
    if scale == 0.0:
        t_eval = np.asarray(t_eval)
        return Trajectory(times=t_eval,
                          states=np.zeros((len(t_eval), 4), dtype=complex))
    sol = solve_ivp(lambda t, y: a @ y, (0.0, t_final), y0,
                    method="DOP853", rtol=tol, atol=tol * scale,
                    t_eval=np.asarray(t_eval))
    if not sol.success:
        raise StepSizeUnderflow(f"integrate: solver failed ({sol.message})")
    return Trajectory(times=sol.t, states=sol.y.T.copy())


def verify_qss(params: SystemParams, t_final: float,
               tol: float = DEFAULT_TOL) -> OracleReport:
    """Measure how well the closed-form exponent tracks the integrated chain.

    Starts from rho_10 = 1/2 with the fast coherences empty, integrates over
    [0, t_final], and compares rho_10(t) against
    rho_10(0) exp[(-gamma_10 + i W10) t] per atom, after discarding an
    initial slaving transient of duration TRANSIENT_WIDTHS / gamma_20.
    """
    w = w10(params)
    traj = integrate(params, CoherenceVector(rho_10=0.5), t_final, tol)
    qss = 0.5 * np.exp((-params.gamma_10 + 1j * w.value) * traj.times)
    window = TRANSIENT_WIDTHS / params.gamma_20 if params.gamma_20 > 0 else 0.0
    mask = traj.times >= window
    if not np.any(mask):
        raise InvalidInput(
            f"verify_qss: t_final={t_final} shorter than the transient window {window}")
    dev = np.abs(traj.rho_10[mask] - qss[mask]) / np.abs(qss[mask])
    phase_err = np.angle(traj.rho_10[-1] / qss[-1])
    return OracleReport(
        max_rel_deviation=float(np.max(dev)),
        final_phase_error=abs(float(phase_err)),
        final_magnitude_ratio=float(np.abs(traj.rho_10[-1]) / np.abs(qss[-1])),
        regime_flag="in" if params.omega_a <= params.gamma_20 else "out",
    )
