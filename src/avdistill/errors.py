"""Error classes shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EngineError):
    """Operands have incompatible or invalid dimensions."""


class ConfigError(EngineError):
    """A configuration value is missing, unknown, or out of bounds."""


class DataError(EngineError):
    """A dataset file or record is malformed."""


class FormatError(EngineError):
    """A checkpoint file is malformed or unsupported."""


class StateError(EngineError):
    """An operation was called in the wrong order (e.g. backward before forward)."""


class DeterminismError(EngineError):
    """A closure expected to be deterministic produced differing values."""


class NormalizationError(EngineError):
    """A zero vector, or one whose norm overflows, reached a unit-normalization step."""


class NumericError(EngineError):
    """A numeric computation failed (non-finite loss, failed gradient check)."""


class RangeError(EngineError):
    """An index such as an epoch lies outside its valid range."""
