"""Coherent-drive gate model.

The drive mode b (and mode c for the one-qubit variant) is a coherent state,
so the gate acts component-by-component on its Poisson-distributed Fock
content.  Each component n picks up a phase phi_n and a damping tau_n from
the exact response evaluated at |Omega_b| = |Omega~_b| sqrt(n); the gate
fidelity is the Poisson-averaged overlap amplitude

    F = | sum_n P(n) exp(-i phi_n - tau_n) |,    delta_total = 1 - F^2.

Switching off the damping (tau_n -> 0) isolates the coherent-spread error,
switching off the spread (phi_n -> phi) isolates the decoherence error; each
component reproduces delta_total when the other mechanism is absent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic_design import _check_phase, gate_time
from .core_model import SystemParams, _w10_terms
from .errors import InvalidInput

EPS_TRUNC = 1e-10          # Poisson mass each Fock sum may leave out
GAUSS_ORDERS = (8, 16, 32, 64)   # Gauss-Charlier orders tried per axis, in turn
WINDOW_CACHE = 1024        # mode-b windows kept; two design --delta runs build 19, reuse 12

TWO_QUBIT = "two-qubit"
ONE_QUBIT = "one-qubit"


@dataclass(frozen=True)
class GateDesign:
    """An operating point: detuning, drive amplitudes, phase and duration.

    alpha_c > 0 makes it a one-qubit design (modes b and c coherent); None
    makes it a two-qubit design (mode c holds the Fock state n_c).
    """

    nu_c: float
    alpha_b: float
    phi: float
    time_norm: float          # |Omega_a| N t
    alpha_c: float | None = None

    def __post_init__(self):
        _check_finite(self)
        if self.alpha_b < 0:
            raise InvalidInput(f"alpha_b must be >= 0, got {self.alpha_b}")
        _check_phase(self.phi)
        _check_time(self.time_norm)
        _check_alpha_c(self.alpha_c)

    @property
    def mode(self) -> str:
        return TWO_QUBIT if self.alpha_c is None else ONE_QUBIT


def _check_finite(record) -> None:
    for name, value in vars(record).items():
        if value is not None and not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value}")


def _check_alpha_c(alpha_c: float | None) -> None:
    if alpha_c is not None and not alpha_c > 0:
        raise InvalidInput(f"alpha_c must be > 0, got {alpha_c}")


def _check_time(time_norm: float) -> None:
    if not math.isfinite(time_norm):
        raise InvalidInput(f"time_norm must be finite, got {time_norm}")
    if time_norm < 0:
        raise InvalidInput(f"time_norm must be >= 0, got {time_norm}")


def _check_fidelity(fidelity: float) -> None:
    if not 0.0 <= fidelity <= 1.0 + 1e-12:
        raise InvalidInput(f"fidelity out of [0, 1]: {fidelity}")


@dataclass(frozen=True)
class ErrorBudget:
    """Gate error 1 - F^2 split into decoherence and coherent-spread parts."""

    delta_decoherence: float
    delta_coherent_spread: float
    delta_total: float
    fidelity: float

    def __post_init__(self):
        _check_finite(self)
        _check_fidelity(self.fidelity)
        if abs(self.delta_total - (1.0 - self.fidelity ** 2)) > 1e-9:
            raise InvalidInput("delta_total inconsistent with 1 - fidelity^2")


_LN_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(2048)])   # ln k!


def _poisson_log_pmf(bottom: int, top: int, mu: float) -> np.ndarray:
    """ln P(k) of Poisson(mu), mu > 0, at k = bottom .. top.

    A grid inside the table reads ln k! off it: k ln mu - ln k! - mu.  Past
    the table's end, bottom > 1,000, and Stirling's series for ln k! =
    ln Gamma(z), z = k + 1, is folded into k ln(mu / z) + (z - mu)
    - ln(2 pi z) / 2 - S(z), with ln(mu / z) as log1p((mu - z) / z): the large
    terms cancel before they are rounded, so the error is of order
    eps_machine |mu - z| rather than eps_machine mu ln mu.
    S(z) = 1/(12 z) - 1/(360 z^3) leaves out less than 1/(1260 z^5) < 1e-18.
    """
    k = np.arange(bottom, top + 1, dtype=float)
    if top < len(_LN_FACTORIAL):
        return k * math.log(mu) - _LN_FACTORIAL[bottom:top + 1] - mu
    z = k + 1.0
    r = 1.0 / z
    return (k * np.log1p((mu - z) * r) + (z - mu) - 0.5 * np.log((2.0 * math.pi) * z)
            - (1.0 / 12.0 - r * r / 360.0) * r)


def _poisson_window(mu: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Fock indices covering all but <= EPS_TRUNC of Poisson(mu), with weights.

    Returns (indices, weights, missing) where missing is the mass outside the
    window, at most EPS_TRUNC / 2 on each side.  The weights are
    exp(_poisson_log_pmf) over a grid reaching 10 sqrt(mu) + 30 either side of
    the mean; the mass beyond the grid is below 1e-20, so the ends and both
    tails are read off the grid's own cumulative sums, each summed from its
    far end.  Each end takes one index of slack, so that the sums' rounding
    cannot leave a side above its bound; each tail is then checked.  missing
    is measured rather than taken as 1 - sum(pmf): the pmf bulk carries a
    rounding that would otherwise be mistaken for truncated mass.
    """
    if mu == 0.0:
        return np.array([0]), np.array([1.0]), 0.0
    side = EPS_TRUNC / 2.0
    reach = 10.0 * math.sqrt(mu) + 30.0
    bottom, top = max(0, int(mu - reach)), int(mu + reach)
    pmf = np.exp(_poisson_log_pmf(bottom, top, mu))
    below, above = np.cumsum(pmf), np.cumsum(pmf[::-1])
    cut_lo = int(np.searchsorted(below, side, "right"))
    cut_hi = int(np.searchsorted(above, side, "right"))
    lo, hi = max(0, bottom + cut_lo - 1), top - cut_hi + 1
    lower = float(below[cut_lo - 2]) if cut_lo > 1 else 0.0
    upper = float(above[cut_hi - 2]) if cut_hi > 1 else 0.0
    if not bottom <= lo <= hi <= top or upper > side or lower > side:
        raise ArithmeticError(f"Poisson window at mu = {mu} leaves out more than {EPS_TRUNC}")
    return np.arange(lo, hi + 1), pmf[lo - bottom:hi - bottom + 1], upper + lower


def _response_grid(params: SystemParams, omega_b, omega_c):
    """W10 over arrays of effective drive and signal amplitudes.

    omega_b is an array; omega_c an array or, for the one signal component
    of a two-qubit sum, a scalar, which keeps the signal terms of W10
    scalars.  Both are squared as x * x, which is what numpy's array square
    computes (Python's x ** 2 can differ in the last bit).  Components with
    a degenerate denominator (possible only in idealized zero-width
    configurations, e.g. the undriven vacuum component with gamma_20 = 0)
    are assigned zero response: without drive photons the dispersive
    mechanism is absent.  Where none is flagged, which _w10_terms' bound
    settles for a scalar omega_c without a per-component test, num / den is
    divided as it stands.
    """
    num, den, bad = _w10_terms(params, omega_b * omega_b, omega_c * omega_c)
    if bad is False or not bad.any():
        return num / den
    return np.where(bad, 0.0, num) / np.where(bad, 1.0, den)


def _overlap(params: SystemParams, nt: float, omega_b, omega_c, weights):
    """Weighted sum of exp(-i phi_n - tau_n) over a block of Fock components.

    The one Fock-sum kernel.  Component n has the exact response at drive
    omega_b[n] and signal omega_c[n] (broadcast against each other) and
    picks up the phase phi_n and the damping tau_n over nt = N t.  Returns
    the sum with the exponents z_n = -i phi_n - tau_n, from which _fock_sum
    adds the spread-only and damping-only sums; _two_qubit_delta needs the
    sum alone.  z is one complex product, (W10 + i gamma_10) (i nt): its
    imaginary part is Re W10 nt = -phi_n and its real part -(gamma_10 +
    Im W10) nt = -tau_n, the same bits as the two real products, since each
    extra product is an exact zero.
    """
    w = _response_grid(params, omega_b, omega_c)
    z = (w + 1j * params.gamma_10) * (1j * nt)
    return (weights * np.exp(z)).sum(), z


def _fidelity(m_full, wsum: float) -> float:
    # the builtins return their first argument when a comparison with NaN is
    # false, so the sum comes first and a NaN reaches _check_fidelity
    return min(float(np.abs(m_full / wsum)), 1.0)


def _fock_sum(params: SystemParams, time_norm: float, nb, pb, nc, pc) -> ErrorBudget:
    """Error budget from the Poisson-weighted sum over (n_b, n_c) components.

    Component (n_b, n_c) picks up the phase and damping of the exact response
    at (|Omega~_b| sqrt(n_b), |Omega~_c| sqrt(n_c)) over time_norm.  The sum
    is accumulated in fixed row blocks, so memory stays bounded at large
    amplitudes and the reduction order is deterministic, and it is
    normalized by the captured Poisson mass, so the truncated tail does not
    masquerade as decoherence.
    """
    omega_c = params.omega_c_tilde * np.sqrt(nc)[None, :]
    nt = time_norm / params.omega_a
    block = max(1, int(1_000_000 / len(nc)))
    m_full = 0.0 + 0.0j
    m_spread = 0.0 + 0.0j
    m_damp = 0.0
    wsum = 0.0
    for i in range(0, len(nb), block):
        rows = slice(i, min(i + block, len(nb)))
        omega_b = params.omega_b_tilde * np.sqrt(nb[rows])[:, None]
        weights = pb[rows][:, None] * pc[None, :]
        m, z = _overlap(params, nt, omega_b, omega_c, weights)
        m_full += m
        m_spread += np.sum(weights * np.exp(1j * z.imag))
        m_damp += float(np.sum(weights * np.exp(z.real)))
        wsum += float(np.sum(weights))
    fid = _fidelity(m_full, wsum)
    return ErrorBudget(
        delta_decoherence=max(1.0 - min(float(m_damp / wsum), 1.0) ** 2, 0.0),
        delta_coherent_spread=max(1.0 - min(float(np.abs(m_spread / wsum)), 1.0) ** 2, 0.0),
        delta_total=1.0 - fid ** 2,
        fidelity=fid,
    )


@functools.lru_cache(maxsize=WINDOW_CACHE)
def _window(alpha_b: float):
    """The Poisson window of mode b at alpha_b, built once and memoized.

    An entry is the window (n_b, P(n_b)) followed by what a two-qubit sum
    over it reads at every point: sqrt(n_b) and the weights as columns, and
    the weights' sum.  The arrays are shared by every caller, so they are
    read-only.  The window is built through the module name _poisson_window,
    so a tracer sees every build.
    """
    nb, pb, _ = _poisson_window(alpha_b ** 2)
    weights = pb[:, None]
    entry = nb, pb, np.sqrt(nb)[:, None], weights, float(np.sum(weights))
    for array in entry[:4]:
        array.flags.writeable = False
    return entry


def _two_qubit_budget(params: SystemParams, design: GateDesign) -> ErrorBudget:
    """Error budget at a two-qubit design.

    The interaction time is the design's, calibrated by design_point; mode c
    holds the single Fock component n_c.
    """
    nb, pb, *_ = _window(design.alpha_b)
    return _fock_sum(_system_at(params, design.nu_c, 1.0), design.time_norm, nb, pb,
                     np.array([params.n_c]), np.array([1.0]))


def _two_qubit_delta(params: SystemParams, nu_c: float, alpha_b: float, phi: float) -> float:
    """delta_total of _two_qubit_budget(params, design_point(params, nu_c,
    alpha_b, phi)), bit for bit, without the design or the budget.

    The design searches call this at every point.  It shares the full path's
    mean component, time calibration (gate_time), window and kernel
    (_overlap), and raises the same error class wherever the full path does:
    for a non-finite nu_c or alpha_b, a degenerate or zero phase rate at the
    mean component, a negative or non-finite time and a non-finite or
    out-of-range fidelity.
    """
    mean = _system_at(params, nu_c, alpha_b)
    time_norm = gate_time(mean, phi)
    _check_time(time_norm)
    _, _, sqrt_nb, weights, wsum = _window(alpha_b)
    # _overlap takes the amplitudes as arguments; of mean it reads only the
    # detunings, the widths and omega_a, which are params' own.  The signal
    # is one Fock component, passed as the scalar the full path's array holds
    m, _ = _overlap(mean, time_norm / params.omega_a,
                    params.omega_b_tilde * sqrt_nb,
                    params.omega_c_tilde * math.sqrt(params.n_c), weights)
    fid = _fidelity(m, wsum)
    _check_fidelity(fid)
    return 1.0 - fid ** 2


def _gauss_charlier(mu, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss rule for the Poisson(mu) measure.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Charlier polynomials (diagonal k + mu, off-diagonal sqrt(k mu)) and the
    weights the squared first components of its eigenvectors.  mu may be an
    array: the rules then stack along its axes, from one eigh call over the
    stacked matrices, each solved as it would be alone.
    """
    k = np.arange(m, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None]
    jacobi = np.zeros(mu.shape[:-1] + (m * m,))   # row-major, flattened
    jacobi[..., ::m + 1] = k + mu
    jacobi[..., m::m + 1] = np.sqrt(k[1:] * mu)   # the subdiagonal; eigh reads the lower half
    nodes, vectors = np.linalg.eigh(jacobi.reshape(mu.shape[:-1] + (m, m)))
    return nodes, vectors[..., 0, :] ** 2


def _quadrature_budget(params: SystemParams, time_norm: float, mu_b: float,
                       mu_c: float) -> ErrorBudget | None:
    """The one-qubit Fock double sum by Gauss-Charlier rules on both axes.

    The order runs through GAUSS_ORDERS and is accepted once no budget field
    moved by more than EPS_TRUNC from the order before.  None when the
    ladder ends unconverged or a rule has a negative or non-finite node
    (small mu, high order), where sqrt(n) would not be a drive amplitude.
    """
    previous = None
    for m in GAUSS_ORDERS:
        nodes, weights = _gauss_charlier((mu_b, mu_c), m)
        if not np.all(np.isfinite(nodes) & (nodes >= 0.0)):
            return None
        (nb, nc), (pb, pc) = nodes, weights
        budget = _fock_sum(params, time_norm, nb, pb, nc, pc)
        if previous is not None and all(
                abs(getattr(budget, f) - getattr(previous, f)) <= EPS_TRUNC
                for f in ("delta_total", "delta_decoherence", "delta_coherent_spread")):
            return budget
        previous = budget
    return None


def _one_qubit_budget(params: SystemParams, design: GateDesign) -> ErrorBudget:
    """Error budget for coherent drives in both modes b and c.

    The interaction time is the design's, calibrated by design_point.  The
    summand is smooth across each mode's Poisson window, so a converged
    Gauss-Charlier rule replaces the Fock double sum.  The product of the
    exact windows is summed instead when the rule does not converge, and
    when the vacuum, whose response is degenerate, carries more Poisson
    weight than a window may leave out on one side.
    """
    mu_b, mu_c = design.alpha_b ** 2, design.alpha_c ** 2
    p = _system_at(params, design.nu_c, 1.0, 1.0)
    if math.exp(-min(mu_b, mu_c)) <= EPS_TRUNC / 2.0:
        budget = _quadrature_budget(p, design.time_norm, mu_b, mu_c)
        if budget is not None:
            return budget
    nb, pb, _ = _poisson_window(mu_b)
    nc, pc, _ = _poisson_window(mu_c)
    return _fock_sum(p, design.time_norm, nb, pb, nc, pc)


def design_point(params: SystemParams, nu_c: float, alpha_b: float, phi: float,
                 alpha_c: float | None = None) -> GateDesign:
    """Build a GateDesign with its interaction time calibrated to phi.

    params carries per-photon amplitudes.  The time is fixed so the mean
    Fock component of each coherent mode acquires exactly the target phase;
    alpha_c > 0 makes mode c coherent too (one-qubit gate).
    """
    time_norm = gate_time(_system_at(params, nu_c, alpha_b, alpha_c), phi)
    return GateDesign(nu_c=nu_c, alpha_b=alpha_b, phi=phi, time_norm=time_norm,
                      alpha_c=alpha_c)


def _system_at(params: SystemParams, nu_c: float, alpha_b: float,
               alpha_c: float | None = None) -> SystemParams:
    """params at nu_c, with alpha_b and a one-qubit point's alpha_c (n_c = 1)
    folded into the amplitudes: the mean Fock component's system, and at
    alpha_b = 1 the per-photon one that the Fock sums scale by sqrt(n).  A
    view that skips SystemParams' checks, which params passed when it was
    built; InvalidInput for a non-finite nu_c or amplitude, alpha_b < 0 or alpha_c <= 0.
    """
    _check_alpha_c(alpha_c)
    changes = {"nu_c": nu_c, "omega_b_tilde": params.omega_b_tilde * alpha_b}
    if alpha_c is not None:
        changes.update(omega_c_tilde=params.omega_c_tilde * alpha_c, n_c=1)
    if not (alpha_b >= 0 and all(map(math.isfinite, changes.values()))):
        raise InvalidInput(f"nu_c and the amplitudes must be finite and alpha_b >= 0, "
                           f"got nu_c={nu_c}, alpha_b={alpha_b}, alpha_c={alpha_c}")
    view = object.__new__(SystemParams)
    view.__dict__.update(vars(params), **changes)
    return view
