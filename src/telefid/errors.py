"""Exception types shared across the package."""


class TelefidError(Exception):
    """Base class for all package errors."""


class ParameterError(TelefidError, ValueError):
    """A parameter is outside its declared domain."""


class PhaseSpecializationError(ParameterError):
    """Closed-form fidelity requested at unsupported phases.

    The closed forms hold at phi = pi, theta = 0, real gamma only;
    anything else must go through fidelity_quadrature.
    """


class NumericalError(TelefidError, RuntimeError):
    """A computation failed numerically or gave a non-finite value."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class DegeneracyError(NumericalError):
    """A conditioning covariance is numerically singular."""
