"""Semantic exception hierarchy.

Validation problems (bad parameters, malformed files) and numerical
problems (singular or ill-conditioned matrices) are kept distinct so the
CLI can map them to different exit codes.
"""


class DTClassifyError(Exception):
    """Base class for all package errors. ``fields`` names the parameters
    at fault when they span more than the raising object's own."""

    def __init__(self, message: str = "", fields: tuple[str, ...] = ()):
        super().__init__(message)
        self.fields = fields


class ValidationError(DTClassifyError):
    """Bad user input: parameter ranges, config keys, file schemas."""


class DomainError(ValidationError):
    """A numeric argument is outside the mathematical domain of a formula."""


class StructureError(ValidationError):
    """A supplied matrix does not have the required structure (e.g. not PD)."""


class CalibrationError(ValidationError):
    """Delocalized mean calibration requested for an unsupported covariance."""


class ConfigError(ValidationError):
    """Config file problems; message carries the offending key path."""


class DataError(ValidationError):
    """Malformed dataset input (ragged CSV, >2 labels, non-finite values)."""


class NumericalError(DTClassifyError):
    """Base class for runtime numerical failures."""


class ConditioningError(NumericalError):
    """A matrix is too ill-conditioned to invert reliably."""


class SingularityError(NumericalError):
    """A matrix that must be invertible is singular (e.g. p >= n1+n2-2)."""


class DegenerateFeatureError(NumericalError):
    """A feature has zero pooled variance, so the independence rule breaks."""
