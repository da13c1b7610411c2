"""Exception hierarchy for precondition and input failures.

Every operation that rejects its input raises a subclass of
:class:`FramekitError`, so callers (and the CLI) can distinguish usage
errors from genuine numerical property violations.
"""


class FramekitError(Exception):
    """Base class for all framekit errors."""


class NotAFrameError(FramekitError):
    """The vector system does not span its ambient space."""


class IllConditionedError(FramekitError):
    """The frame is too ill-conditioned for the requested computation."""


class NotParsevalError(FramekitError):
    """The frame operator is not the identity within tolerance."""


class DimensionMismatchError(FramekitError):
    """Operands disagree on dimension or vector count."""


class NotDualError(FramekitError):
    """The pair is not an exact dual pair."""


class NotPseudoDualError(FramekitError):
    """The cross operator V*U is not invertible within tolerance."""


class NotLeftInverseError(FramekitError):
    """S T differs from the identity beyond tolerance."""


class NotSurjectiveError(FramekitError):
    """The transform matrix does not have full row rank."""


class NotComplementaryError(FramekitError):
    """The two subspaces do not form a direct-sum decomposition."""


class NotAProjectionError(FramekitError):
    """The matrix is not idempotent within tolerance."""


class WrongRangeError(FramekitError):
    """The projection range differs from the required subspace."""


class NoParsevalDualError(FramekitError):
    """No Parseval dual exists for the given frame."""


class ZeroVectorError(FramekitError):
    """A nonzero vector was required."""


class ZeroEntryError(FramekitError):
    """Every coefficient must be nonzero."""


class NotUnitError(FramekitError):
    """The coefficient vector must have unit norm."""


class TooLargeError(FramekitError):
    """The instance exceeds the exhaustive-search size limit."""


class PrefixNotContainedError(FramekitError):
    """The index set must contain the leading threshold indices."""


class BadParametersError(FramekitError):
    """Invalid generator or command parameters."""


class FrameFileError(FramekitError):
    """A frame or matrix file failed to parse or validate."""
