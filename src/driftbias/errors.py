"""Exception types shared across the package.

Plain ``ValueError`` is raised for invalid arguments (bad parameter values,
malformed flags); the classes below cover the domain failures that callers
may want to handle separately from argument mistakes.
"""

__all__ = [
    "DriftBiasError",
    "InsufficientDataError",
    "DegenerateConditionError",
    "DegenerateVarianceError",
    "ParseError",
]


class DriftBiasError(Exception):
    """Base class for domain errors raised by this package."""


class InsufficientDataError(DriftBiasError):
    """A computation needs more observations than the input provides."""


class DegenerateConditionError(DriftBiasError):
    """A conditioning event has zero probability in double precision."""


class DegenerateVarianceError(DriftBiasError):
    """A series is constant where positive sample variance is required."""


class ParseError(DriftBiasError):
    """An input file does not conform to its documented format."""
