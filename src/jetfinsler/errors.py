"""Exception types shared across the package."""


class JetFinslerError(Exception):
    """Base class for all package errors."""


class DomainError(JetFinslerError):
    """A field or tensor was evaluated outside its domain (e.g. a fractional
    power of a non-positive base, or a non-positive fiber coordinate)."""


class NonFiniteOutput(DomainError):
    """A field-theory output left the double range (an Einstein constant near
    the ends of the float range); the run counts its point as failed."""


class OrderTooHigh(JetFinslerError):
    """Requested differentiation order exceeds the supported maximum (4)."""


class NonPositiveMetric(JetFinslerError):
    """The temporal metric h11(t) is not positive at the evaluated t."""


class SingularChange(JetFinslerError):
    """Coordinate change with vanishing time rate or singular spatial Jacobian."""


class DegenerateCubic(JetFinslerError):
    """The contracted cubic matrix G_ij1 is (numerically) singular."""


class DegenerateMetric(JetFinslerError):
    """The fundamental metric tensor g_ij is (numerically) singular."""


class SingularDenominator(JetFinslerError):
    """G111 - script_G111 is too close to zero for the inverse-metric formula."""


class ZeroEinsteinConstant(JetFinslerError):
    """The Einstein constant K must be nonzero."""


class ConfigError(JetFinslerError):
    """Scenario file or expression does not conform to the accepted grammar."""
