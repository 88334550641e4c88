"""Exception types raised across the package."""


class QsepError(Exception):
    """Base class for all package errors."""


class NotHermitian(QsepError, ValueError):
    """Input matrix has a NaN or infinite entry or fails linalg.HERMITICITY_RTOL."""


class NoConvergence(QsepError):
    """The eigensolver failed to converge."""


class DimensionMismatch(QsepError):
    """Matrix shape is inconsistent with the declared subsystem dimensions."""


class RankCollapse(QsepError):
    """Sampling met RETRY_LIMIT consecutive irregular attempts (pivot or QR)."""


class UnsupportedDimensions(QsepError, ValueError):
    """Dimensions other than 2x2 and 2x3, where PPT is not conclusive."""


class ConfigMismatch(QsepError):
    """Statistics from different run configurations cannot be merged."""


class EmptyRun(QsepError):
    """A report was requested for statistics with no samples."""


class RunAborted(QsepError):
    """A Monte-Carlo run failed part way through.

    Carries the partial, invalid statistics accumulated before the failure.
    """

    def __init__(self, message, partial_statistics=None):
        super().__init__(message)
        self.partial_statistics = partial_statistics
