"""Exception types shared across the package."""


class ConfigError(Exception):
    """A configuration file could not be parsed; the message names the key."""


class TagFileError(ValueError):
    """A time-tag file is malformed or cannot hold the tags; the message names the file."""


class PhysicsError(ValueError):
    """A physical precondition (positive lifetime, voltage limit, ...) was violated."""


class FitError(RuntimeError):
    """Base class for curve-fit failures."""


class FitConvergenceError(FitError):
    """The least-squares optimizer did not converge."""


class InsufficientDataError(FitError):
    """Too few samples, or the samples do not span the peak."""
