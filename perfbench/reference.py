"""Independent references for checking eitgate's outputs.

Nothing here imports eitgate.  Poisson weights come from lgamma rather than
scipy.stats; the weak-probe response W10 comes from the continued fraction of
the coherence chain (slave rho_40, then rho_30, then rho_20) rather than the
closed-form numerator/denominator; the chain's time evolution comes from the
matrix exponential rather than an adaptive integrator.

Units follow eitgate's design search: |Omega~_a| = 1, gamma_20 = 1, the
probe on two-photon resonance (nu_a = nu_b = 0), gamma_30 = 0 and
gamma_40 = suppression.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

LOG_FLOOR = -40.0       # weights below e^-40 (4e-18) of the peak are dropped
BLOCK_CELLS = 250_000   # cells per block of the one-qubit double sum


def poisson_weights(mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, P(n)) of Poisson(mu) wherever P(n) >= e^LOG_FLOOR times its peak."""
    if mu == 0.0:
        return np.array([0]), np.array([1.0])
    width = 20.0 * math.sqrt(mu) + 50.0
    n = np.arange(max(0, int(mu - width)), int(mu + width) + 1)
    log_mu = math.log(mu)
    logp = np.array([k * log_mu - mu - math.lgamma(k + 1.0) for k in n.tolist()])
    keep = logp >= logp.max() + LOG_FLOOR
    return n[keep], np.exp(logp[keep])


def w10_chain(omega_a, omega_b, omega_c, nu_c, gamma_10=0.0, gamma_20=1.0,
              gamma_30=0.0, gamma_40=1.0, nu_a=0.0, nu_b=0.0):
    """W10 = i |Omega_a|^2 / D from the continued fraction of the chain.

    D = (gamma_20 - i nu_a) + |Omega_b|^2 / ((gamma_30 - i d3)
        + |Omega_c|^2 / (gamma_40 - i d4)),  d3 = nu_a - nu_b, d4 = d3 + nu_c.
    Amplitudes broadcast.  gamma_10 does not enter W10.
    """
    d3 = nu_a - nu_b
    d4 = d3 + nu_c
    inner = (gamma_30 - 1j * d3) + np.asarray(omega_c) ** 2 / (gamma_40 - 1j * d4)
    den = (gamma_20 - 1j * nu_a) + np.asarray(omega_b) ** 2 / inner
    return 1j * np.asarray(omega_a) ** 2 / den


def _budget(m_full: complex, m_spread: complex, m_damp: float) -> dict:
    fid = min(abs(m_full), 1.0)
    return {
        "delta_total": 1.0 - fid ** 2,
        "delta_decoherence": max(0.0, 1.0 - min(m_damp, 1.0) ** 2),
        "delta_spread": max(0.0, 1.0 - min(abs(m_spread), 1.0) ** 2),
        "fidelity": fid,
    }


def time_norm(gamma_10, nu_c, omega_b, omega_c, suppression, phi=math.pi) -> float:
    """|Omega_a| N t that gives the mean drive component exactly phi."""
    w = complex(w10_chain(1.0, omega_b, omega_c, nu_c, gamma_10, gamma_40=suppression))
    return -phi / w.real


def budget_2q(gamma_10, nu_c, alpha_b, suppression, phi=math.pi) -> dict:
    """Two-qubit error budget: Poisson(alpha_b^2) average over drive photons."""
    tn = time_norm(gamma_10, nu_c, alpha_b, 1.0, suppression, phi)
    n, p = poisson_weights(alpha_b ** 2)
    w = w10_chain(1.0, np.sqrt(n), 1.0, nu_c, gamma_10, gamma_40=suppression)
    phase = -w.real * tn
    tau = (gamma_10 + w.imag) * tn
    total = p.sum()
    return _budget(complex(np.sum(p * np.exp(-1j * phase - tau)) / total),
                   complex(np.sum(p * np.exp(-1j * phase)) / total),
                   float(np.sum(p * np.exp(-tau)) / total))


def budget_1q(gamma_10, nu_c, alpha_b, alpha_c, suppression=1.0, phi=math.pi) -> dict:
    """One-qubit error budget: double Poisson average over modes b and c."""
    tn = time_norm(gamma_10, nu_c, alpha_b, alpha_c, suppression, phi)
    nb, pb = poisson_weights(alpha_b ** 2)
    nc, pc = poisson_weights(alpha_c ** 2)
    oc = np.sqrt(nc)[None, :]
    rows = max(1, BLOCK_CELLS // len(nc))
    m_full = m_spread = 0j
    m_damp = 0.0
    for i in range(0, len(nb), rows):
        w = w10_chain(1.0, np.sqrt(nb[i:i + rows])[:, None], oc, nu_c, gamma_10,
                      gamma_40=suppression)
        weight = pb[i:i + rows, None] * pc[None, :]
        phase = -w.real * tn
        tau = (gamma_10 + w.imag) * tn
        m_full += np.sum(weight * np.exp(-1j * phase - tau))
        m_spread += np.sum(weight * np.exp(-1j * phase))
        m_damp += float(np.sum(weight * np.exp(-tau)))
    total = pb.sum() * pc.sum()
    return _budget(m_full / total, m_spread / total, m_damp / total)


def decoherence_floor_1q(gamma_10, nu_c, alpha_c_over_alpha_b=10.0, suppression=1.0,
                         phi=math.pi) -> float:
    """1 - exp(-2 tau_eff) at the mean component, drives at the fixed ratio."""
    w = complex(w10_chain(1.0, 1.0, alpha_c_over_alpha_b, nu_c, gamma_10,
                          gamma_40=suppression))
    tau = -(gamma_10 + w.imag) / w.real * phi
    return 1.0 - math.exp(-2.0 * tau)


def chain_generator(omega_a, omega_b, omega_c, nu_c, gamma_10, gamma_20=1.0,
                    gamma_30=0.0, gamma_40=1.0) -> np.ndarray:
    """d/dt (rho_10, rho_20, rho_30, rho_40) = A v, probe on two-photon resonance."""
    return np.array([
        [-gamma_10, 1j * omega_a, 0, 0],
        [1j * omega_a, -gamma_20, 1j * omega_b, 0],
        [0, 1j * omega_b, -gamma_30, 1j * omega_c],
        [0, 0, 1j * omega_c, -(gamma_40 - 1j * nu_c)],
    ], dtype=complex)


def evolve(generator: np.ndarray, t: float, v0: np.ndarray) -> np.ndarray:
    """exp(A t) v0 for the linear chain dv/dt = A v."""
    return expm(generator * t) @ v0


def oracle_final(omega_a, omega_b, omega_c, nu_c, gamma_10, t_final) -> dict:
    """Final rho_10 from expm against the closed form 0.5 exp[(-gamma_10 + i W10) t].

    Returns the final magnitude ratio and phase error that check-oracle
    reports, and the final relative deviation (a lower bound on its maximum).
    """
    a = chain_generator(omega_a, omega_b, omega_c, nu_c, gamma_10)
    rho = evolve(a, t_final, np.array([0.5, 0, 0, 0], dtype=complex))[0]
    w = complex(w10_chain(omega_a, omega_b, omega_c, nu_c, gamma_10))
    qss = 0.5 * np.exp((-gamma_10 + 1j * w) * t_final)
    return {
        "final_magnitude_ratio": abs(rho) / abs(qss),
        "final_phase_error": abs(float(np.angle(rho / qss))),
        "final_rel_deviation": abs(rho - qss) / abs(qss),
        "t_final": -math.pi / w.real,
    }
