"""Exception types raised across the package."""


class QsepError(Exception):
    """Base class for all package errors."""


class NotHermitian(QsepError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(QsepError):
    """The eigensolver failed to converge."""


class DimensionMismatch(QsepError):
    """Matrix shape is inconsistent with the declared subsystem dimensions."""


class RankCollapse(QsepError):
    """Sampling met RETRY_LIMIT consecutive irregular attempts (pivot or QR)."""


class UnsupportedDimensions(QsepError):
    """The PPT test is only sound for 2x2 and 2x3 systems."""


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
