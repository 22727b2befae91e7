"""EIT cross-Kerr phase gate: response model, design formulas, optimizer, oracle."""

from .analytic_design import (AuxiliaryFactors, asymptotic_design, aux_factors,
                              decoherence_error, fock_dephasing_bound, gate_time,
                              optimal_detuning, tau_eff, tau_eff_at_optimum)
from .coherent_gate import ONE_QUBIT, TWO_QUBIT, ErrorBudget, GateDesign, design_point
from .core_model import SystemParams, kerr_approximation, w10
from .design_optimizer import (OptimizationConstraints, SweepRow, SweepSpec,
                               base_params, max_dephasing, min_alpha_b, optimize_design,
                               sweep)
from .errors import (ConfigError, DegenerateDenominator, DegenerateParams,
                     DivisionByZero, GateModelError, InvalidInput,
                     MonotonicityViolation, NearExceptionalPoint, NoConvergence,
                     NotAttainable, RegimeWarning, ZeroPhaseRate)
from .lindblad_oracle import OracleReport, integrate, steady_chain_rate, verify_qss

__version__ = "0.1.0"
