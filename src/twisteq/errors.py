"""Exception types shared across the package."""


class TwisteqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGrid(TwisteqError):
    """Grid parameters violate the construction preconditions."""


class NonFiniteSample(TwisteqError):
    """Samples, or a transform or defect of finite samples, hold NaN or Inf."""


class GridMismatch(TwisteqError):
    """Two functions that must share a grid do not."""


class NotAdmissible(TwisteqError):
    """A function lacks the decay required by the requested weight or line."""


class MissingParams(TwisteqError):
    """Representation parameters required by the operation are absent."""


class DegenerateBump(TwisteqError):
    """The bump used to project out the obstruction has (near-)zero obstruction."""


class PoleOnLine(TwisteqError):
    """A requested inversion line passes too close to the resolvent pole."""


class ZeroTwist(TwisteqError):
    """The spectral-division solver needs a nonzero twist."""


class IncompatibleCocycle(TwisteqError):
    """The cocycle compatibility defect exceeds tolerance."""


class ObstructionNonzero(TwisteqError):
    """A nonzero obstruction where the theory guarantees zero (discretization failure)."""


class ConfigError(TwisteqError):
    """An experiment configuration failed to parse or validate."""
