"""Exception types shared across the package."""


class PartSketchError(Exception):
    """Base class for package-specific failures."""


class ConfigError(PartSketchError):
    """Invalid configuration, flags, or argument combinations."""


class NumericError(PartSketchError):
    """A numeric procedure could not produce a trustworthy result."""


class ZeroProductError(NumericError):
    """The exact product is zero, so no sampling distribution is defined."""


class MatrixFileError(PartSketchError, ValueError):
    """A matrix file that does not hold a valid matrix; the message names the file once."""
