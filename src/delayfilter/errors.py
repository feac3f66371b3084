"""Structured exceptions shared across the package."""


class DelayFilterError(Exception):
    """Base class for every error raised by this package."""


# --- model validation ---

class DimensionMismatch(DelayFilterError):
    """Matrix or vector shapes are inconsistent with each other."""


class RankDeficientH(DelayFilterError):
    """Unknown-input map has linearly dependent columns."""


class TooManyOutputs(DelayFilterError):
    """More outputs than states (l > n) is not supported."""


class TooManyInputs(DelayFilterError):
    """Unknown-input dimension must satisfy p < n."""


class NotSymmetric(DelayFilterError):
    pass


class QIndefinite(DelayFilterError):
    """Process-noise covariance has a significantly negative eigenvalue."""


class RNotPositiveDefinite(DelayFilterError):
    pass


class ModelFileError(DelayFilterError):
    """Model file missing, unparseable, or carrying unknown keys."""


class MeasurementFileError(DelayFilterError):
    """Measurement file missing, unreadable, or carrying non-finite samples."""


# --- delay / rank analysis ---

class DelayOutOfRange(DelayFilterError):
    """A delay that is not an integer >= 0, or one past an accessor's blocks (n-1; n for
    markov_blocks). A gain at a well-formed r >= n is InfeasibleDelay."""


class InfeasibleDelay(DelayFilterError):
    """No unbiased gain exists at the delay: rank S_r - rank S_(r-1) != p, as at any r >= n."""


# --- invariant zeros ---

class PencilDegenerate(DelayFilterError):
    """System pencil has normal rank below n + p; zero analysis and the
    unbiasedness theory make no claims for such systems."""


# --- gain synthesis ---

class NotSquare(DelayFilterError):
    """Operation requires equally many outputs and unknown inputs."""


class InnovationCovarianceSingular(DelayFilterError):
    pass


class PreconditionViolated(DelayFilterError):
    pass


class ConstraintViolated(DelayFilterError):
    """Gain does not satisfy the unbiasedness constraint to tolerance."""


# --- filtering ---

class NonFiniteSample(DelayFilterError):
    """A measurement or known input that the filter reads is NaN or infinite."""


class EstimatesNotFinite(DelayFilterError):
    """A divergent filter's estimates overflowed before the record ended.

    Non-finite samples are rejected before the filter runs.
    """


# --- simulation / registry ---

class BadCoefficient(DelayFilterError):
    pass


class BadIndices(DelayFilterError):
    pass


class UnknownExample(DelayFilterError):
    pass
