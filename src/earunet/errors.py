"""Exception hierarchy shared across the package."""


class EarUnetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EarUnetError):
    """Array dimensions do not satisfy an operation's contract."""


class ParameterError(EarUnetError):
    """A numeric parameter is outside its valid range."""


class ConfigError(EarUnetError):
    """A configuration value is inconsistent or unsupported."""


class DegenerateBatchError(EarUnetError):
    """Batch statistics are undefined (single-element reduction)."""


class FormatError(EarUnetError):
    """A file does not conform to its on-disk format."""


class VersionError(FormatError):
    """A file declares a format version this build does not understand."""


class InputError(EarUnetError):
    """Input data violates a pipeline precondition."""
