"""Exception hierarchy shared by every module in the package.

All errors raised by this package derive from AdamError so callers can
catch one type at the CLI boundary.
"""

from __future__ import annotations


class AdamError(Exception):
    """Base class for all package errors."""


class FormatError(AdamError):
    """Malformed input document (CSV row, JSONL line, config file)."""


class SchemaError(AdamError):
    """Column/role schema is inconsistent with the data it describes."""


class EmptyInputError(AdamError):
    """An operation received an empty sequence where values are required."""


class StratificationError(AdamError):
    """A label stratum is too small to be represented in both partitions."""


class CohortError(AdamError):
    """Not enough samples of a class to draw the requested evaluation cohort."""


class DegenerateCommunityError(AdamError):
    """An abundance vector has no positive entries."""


class AlignmentError(AdamError):
    """Two vectors that must share a feature/taxon axis do not."""


class DegenerateFitError(AdamError):
    """A model cannot be fitted on the given data (e.g. single-class labels)."""


class ModelIntegrityError(AdamError):
    """A fitted or deserialized model violates a structural invariant."""


class SizeGuardError(AdamError):
    """An exponential-cost oracle was invoked beyond its guarded size."""


class WindowError(AdamError):
    """Segmentation window parameters violate 0 <= overlap < segment length."""


class WeightError(AdamError):
    """Aggregation weights are all zero or otherwise unusable."""


class BackendError(AdamError):
    """A remote backend failed after the configured retries."""


class DimensionError(AdamError):
    """A vector's dimension does not match the collection/store dimension."""


class NonFiniteVectorError(AdamError):
    """A record vector holds NaN or an infinity, which has no cosine
    similarity."""


class DuplicateRecordError(AdamError):
    """Two records share the same (publication, segment) identity."""


class IntegrityError(AdamError):
    """A persisted file is truncated or corrupt; carries the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class VerdictParseError(AdamError):
    """A model reply did not start with a parseable verdict line."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class TokenBudgetError(AdamError):
    """A prompt cannot be reduced below its token budget."""


class AgentError(AdamError):
    """An agent stage failed; carries the per-step transcript so far."""

    def __init__(self, message: str, transcript: tuple = ()):
        super().__init__(message)
        self.transcript = tuple(transcript)


class DegenerateStatisticError(AdamError):
    """A statistic is undefined for the given input (e.g. zero variance)."""
