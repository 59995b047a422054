"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class ConfigError(EngineError):
    """Invalid or inconsistent configuration (bad types, unknown keys, out-of-range values)."""


class InvalidModelError(ConfigError):
    """Model parameters violate their constraints (negative volatility, nonpositive spot, ...)."""


class GridMismatchError(EngineError):
    """Objects built on different time grids were combined."""


class ContractViolation(EngineError):
    """An internal invariant that should hold by construction was observed to fail."""


class NoCpsConstructibleError(EngineError):
    """The requested price-system construction is not available for this model."""


class ConjugateUnboundedError(EngineError):
    """The convex conjugate is +infinity at the requested point."""


class AssumptionViolationError(EngineError):
    """The utility function fails a structural assumption required by the caller."""


class IndeterminateError(EngineError):
    """A diagnostic could not be evaluated on the supplied data."""


class NoFeasiblePointError(EngineError):
    """The brute-force oracle found no admissible point on its grid."""


class OracleTooLargeError(EngineError):
    """A brute-force enumeration request exceeds the supported budget."""
