"""Brute-force oracle for the quasi-steady-state coherence evolution.

Solves the weak-probe coherence chain (the single-excitation column of the
density matrix) exactly, through the eigendecomposition of its constant
generator, and compares the resulting rho_10(t) against the closed-form
exponent (-gamma_10 + i W10) t.
Adiabatic elimination of the fast coherences from this chain reproduces the
closed-form response exactly, which pins every sign convention; the
steady-chain linear solve below provides that check without any reference to
the closed form's algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import SystemParams, w10
from .errors import InvalidInput, NearExceptionalPoint

TRANSIENT_WIDTHS = 10.0       # discarded window, in units of 1/gamma_20
MAX_EIGEN_COND = 1e6          # cond(V) above which integrate refuses the eigenbasis


def __getattr__(name):
    # Stopgap until the traced benchmark retires lindblad_oracle.rhs_evals,
    # which patches this name: nothing here calls solve_ivp, so scipy loads
    # only when the name is looked up (PEP 562), never on import.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OracleReport:
    """Deviation of the chain's rho_10(t) from the closed-form evolution."""

    max_rel_deviation: float
    final_phase_error: float
    final_magnitude_ratio: float
    regime_flag: str            # "in" when |Omega_a| <= gamma_20


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


def integrate(params: SystemParams, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact solution v(t) = V diag(exp(lambda t)) V^-1 y0 of dv/dt = A v.

    A = chain_matrix(params) = V diag(lambda) V^-1 is constant, so every
    requested time comes from one array expression, with no step control.
    y0 holds (rho_10, rho_20, rho_30, rho_40) at t = 0; the result holds
    them at each time, as a complex array of shape (len(times), 4).

    A is not normal, so rounding grows with the condition number of its
    eigenvector matrix V.  Accuracy: while cond(V) <= MAX_EIGEN_COND = 1e6,
    a sample at time t lies within 1e-9 (1 + ||A|| t) |y0| (2-norms) of
    exp(A t) y0.  Measured against scipy's expm, the error is about
    0.2 cond(V) eps (1 + ||A|| t) |y0|, so the bound holds with a margin of
    about 20 at the threshold.

    Raises
    ------
    InvalidInput
        If a time is negative.
    NearExceptionalPoint
        If cond(V) exceeds MAX_EIGEN_COND: the parameters sit so close to an
        exceptional point (coalescing eigenvectors, e.g. |Omega_a| =
        gamma_20 / 2 in the two-level chain) that the accuracy above is out
        of reach.
    """
    times = np.asarray(times)
    if np.any(times < 0.0):
        raise InvalidInput("integrate: times must be >= 0")
    lam, vec = np.linalg.eig(chain_matrix(params))
    cond = np.linalg.cond(vec)
    if not cond <= MAX_EIGEN_COND:
        raise NearExceptionalPoint(
            f"integrate: eigenvector condition number {cond:.3e} exceeds "
            f"{MAX_EIGEN_COND:.0e}; the chain is too close to an exceptional point")
    coef = np.linalg.solve(vec, np.asarray(y0, dtype=complex))
    return (vec @ (coef[:, None] * np.exp(lam[:, None] * times))).T


def verify_qss(params: SystemParams, t_final: float) -> OracleReport:
    """Measure how well the closed-form exponent tracks the exactly solved chain.

    Starts from rho_10 = 1/2 with the fast coherences empty, solves the chain
    over [0, t_final], and compares rho_10(t) against
    rho_10(0) exp[(-gamma_10 + i W10) t] per atom, after discarding an
    initial slaving transient of duration TRANSIENT_WIDTHS / gamma_20.
    Refuses (InvalidInput) when the closed-form reference underflows to 0 or
    is not finite inside that window, since no ratio to it is defined.
    """
    if t_final <= 0:
        raise InvalidInput(f"t_final must be > 0, got {t_final}")
    times = np.linspace(0.0, t_final, 801)
    qss = 0.5 * np.exp((-params.gamma_10 + 1j * w10(params)) * times)
    window = TRANSIENT_WIDTHS / params.gamma_20 if params.gamma_20 > 0 else 0.0
    mask = times >= window
    if not np.any(mask):
        raise InvalidInput(
            f"verify_qss: t_final={t_final} shorter than the transient window {window}")
    ref = np.abs(qss[mask])
    if not np.all((ref > 0.0) & np.isfinite(ref)):
        raise InvalidInput(
            f"verify_qss: the closed-form reference |rho_10| underflows to 0 or is not "
            f"finite inside the compared window (t_final={t_final}); shorten t_final")
    rho_10 = integrate(params, np.array([0.5, 0.0, 0.0, 0.0]), times)[:, 0]
    dev = np.abs(rho_10[mask] - qss[mask]) / ref
    phase_err = np.angle(rho_10[-1] / qss[-1])
    return OracleReport(
        max_rel_deviation=float(np.max(dev)),
        final_phase_error=abs(float(phase_err)),
        final_magnitude_ratio=float(np.abs(rho_10[-1]) / np.abs(qss[-1])),
        regime_flag="in" if params.omega_a <= params.gamma_20 else "out",
    )
