"""Exception and warning types shared across the package."""


class GateModelError(Exception):
    """Base class for math-domain failures of the gate model."""


class DegenerateDenominator(GateModelError):
    """Response denominator vanished; the parameter point is singular."""


class DegenerateParams(GateModelError):
    """A closed-form design expression is undefined at these parameters."""


class DivisionByZero(GateModelError):
    """A required amplitude or detuning is zero."""


class ZeroPhaseRate(GateModelError):
    """Re(W10) = 0: no phase accumulates, the gate cannot reach its target."""


class InvalidInput(GateModelError):
    """An argument is outside its documented domain."""


class NoConvergence(GateModelError):
    """A search range was exhausted without bracketing an optimum."""


class NotAttainable(GateModelError):
    """The requested error target lies below the coherent-spread floor."""


class StepSizeUnderflow(GateModelError):
    """Integrator cannot resolve the dynamics at this tolerance; rescale units."""


class MonotonicityViolation(GateModelError):
    """A sweep produced an optimized error that decreases with dephasing."""


class ConfigError(Exception):
    """Run configuration is malformed (unknown key, bad type, bad value)."""


class RegimeWarning(UserWarning):
    """Parameters are outside the separation-of-scales regime of a formula."""
