"""Exception types shared across the toolkit."""


class BvpError(Exception):
    """Base class for all toolkit errors."""


class NegativeCoefficient(BvpError):
    """A boundary-condition coefficient is negative."""


class DegenerateGamma(BvpError):
    """The combination gamma*beta + alpha*gamma + alpha*delta is not positive."""


class DomainError(BvpError):
    """An argument lies outside the domain an operation is defined on."""


class QuadratureError(BvpError):
    """Base class for integration failures."""


class MaxDepthExceeded(QuadratureError):
    """Adaptive subdivision hit the depth cap before meeting the tolerance."""


class NonFiniteIntegrand(QuadratureError):
    """The integrand returned NaN/inf away from a declared singular endpoint."""


class BallViolation(BvpError):
    """A grid function left the ball ||u|| <= R it was required to stay in."""


class ConfigError(BvpError):
    """A run configuration failed to parse or validate."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
