"""Exception types raised across the library.

Everything derives from MusickingError so callers can catch the whole
family with one clause; the leaf classes exist because most operations
have a small, documented error surface and tests assert on the type.

InsufficientData (too short or too flat for the statistic) is the base of
EmptySeries, AllMissing, TooFewValues, TooFewRecords, TooFewPairs,
DegenerateSeries, MissingChorusIds, TooFewBeats, NoValidPoints, TooFewGroups
and DegenerateVariance: ``analyze`` and ``compare`` write its message as a
section's "insufficient data" reason and go on.  Any other error refuses.
"""

from __future__ import annotations


class MusickingError(Exception):
    """Base class for all errors raised by this package."""


# -- ingest ---------------------------------------------------------------

class MalformedDocument(MusickingError):
    """Input bytes are not a parseable document of the expected format."""


class SchemaError(MusickingError):
    """Document parsed but violates the session schema.

    Carries the 0-based row index of the first offending record when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class InvariantError(MusickingError):
    """Parsed values violate a structural invariant (e.g. bar not on a beat)."""


class InsufficientData(MusickingError):
    """The data is too short or too flat for the statistic asked of it."""


# -- series preconditions -------------------------------------------------

class EmptySeries(InsufficientData):
    """Series has no non-null values."""


class AllMissing(InsufficientData):
    """Every value in the series is null."""


class TooFewValues(InsufficientData):
    """Series has fewer non-null values than the operation requires."""


class TooFewRecords(InsufficientData):
    """Session has fewer records than the operation requires."""


class TooFewPairs(InsufficientData):
    """Fewer than the minimum pairwise-complete (x, y) pairs."""


class DegenerateSeries(InsufficientData):
    """Zero variance where a correlation needs spread."""


# -- timing ---------------------------------------------------------------

class MissingChorusIds(InsufficientData):
    """chorus_id absent on one or more records; impute before segmenting."""


class TooFewBeats(InsufficientData):
    """Beat grid has fewer than two beats."""


class OutOfTrack(MusickingError):
    """Timestamp falls outside the backing track [0, duration]."""


class UnknownColumn(MusickingError):
    """Column name does not resolve to a numeric session column."""


class UnknownPart(MusickingError):
    """Body-part name not in the skeleton part set."""


class NoValidPoints(InsufficientData):
    """All (x, y) samples are sentinels or null."""


# -- stats ----------------------------------------------------------------

class TooFewGroups(InsufficientData):
    """Fewer than two groups, or a group too small to contribute variance."""


class DegenerateVariance(InsufficientData):
    """All observations identical within every group; F undefined."""


# -- clustering -----------------------------------------------------------

class TooFewRows(MusickingError):
    """Fewer feature rows than requested clusters."""


class NonFinite(MusickingError):
    """A feature matrix, a computed statistic or an output value is NaN or infinite."""


class InvalidK(MusickingError):
    """Cluster count outside [2, rows) for silhouette scoring."""


class InvalidRange(MusickingError):
    """k range is empty or outside [2, rows - 1]."""


# -- cli ------------------------------------------------------------------

class UnknownSession(MusickingError):
    """Session id not found in the dataset."""


class TooFewSessions(MusickingError):
    """Cross-session comparison needs at least two sessions."""
