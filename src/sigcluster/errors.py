"""Exception types raised by sigcluster.

Each condition gets its own class so callers can catch precisely. All
inherit from :class:`SigclusterError`, and from ``ValueError`` where the
cause is a bad argument.
"""


class SigclusterError(Exception):
    """Base class for all sigcluster errors."""


class DegenerateInputError(SigclusterError, ValueError):
    """Sample cannot be normalized: fewer than two values, zero spread, or a
    magnitude whose squared deviations overflow."""


class NegativeInputError(SigclusterError, ValueError):
    """Argument must be nonnegative."""


class TooFewSamplesError(SigclusterError, ValueError):
    """Sample shorter than the minimum the operation supports."""


class LengthMismatchError(SigclusterError, ValueError):
    """Paired sequences have different lengths."""


class NonFiniteInputError(SigclusterError, ValueError):
    """Sample contains NaN or infinity."""


class KTooLargeError(SigclusterError, ValueError):
    """Requested more clusters than there are points."""


class IdenticalCentroidsError(SigclusterError, ValueError):
    """Projection axis is undefined because the two centroids coincide."""


class ParseError(SigclusterError, ValueError):
    """A delimited-text cell could not be parsed.

    Carries the 1-based ``row`` and ``column`` of the offending cell.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingLabelColumnError(SigclusterError, ValueError):
    """The configured label column is absent from the file."""


class EmptyDatasetError(SigclusterError, ValueError):
    """File contained headers but no data rows."""
