"""Exception hierarchy shared by every module in the package, the
reading and shape checks that every reader of outside input uses, and
``replacing``, the one writer of every file a command writes.

Every error that input or flags can cause derives from AdamError: the CLI
reports an AdamError or an OSError as one line, and anything else is a fault.
"""

from __future__ import annotations

import json
import os
import reprlib
import sys
from contextlib import contextmanager, suppress
from pathlib import Path


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
    """A persisted file is truncated or corrupt; carries the byte offset,
    and its message ends with it when there is one."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} at byte {offset}")
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


# ---------------------------------------------------------------------------
# Shapes used by several readers, as (predicate, shape) entries of a spec:
STRING = (lambda v: isinstance(v, str), "a string")
INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
# Compared exactly, so an integer past the float range is not finite, not an OverflowError.
FINITE = (lambda v: NUMBER[0](v) and abs(v) <= sys.float_info.max, "a finite number")
STRINGS = (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
           "a list of strings")
OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
# Shows a value in a message: nested containers elided, long ones cut.
_shown = reprlib.Repr()
_shown.maxlevel = 1


def is_file_name(name: str) -> bool:
    """True if name can name one file inside a directory: not empty, not
    "." or "..", and free of "/", "\\", NUL and lone surrogates (which a
    JSON escape can make and no UTF-8 file name holds). Sample ids name
    report files, so ids failing this are rejected wherever they are read."""
    return name not in ("", ".", "..") and not any(
        c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in name)


def check_fields(doc, spec: dict, where, error=FormatError) -> None:
    """Raise error (a type, or a callable making the exception from the
    message) unless doc is a JSON object holding each key of spec with a
    value its predicate accepts. spec maps each required key to
    (predicate, shape); a reader merges optional keys' defaults in first.
    where names the document's place: file, line, sample or record."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {_shown.repr(doc)}")
    for key, (valid, shape) in spec.items():
        if key not in doc:
            raise error(f"{where}: {key!r} must be {shape}, but it is missing")
        if not valid(doc[key]):
            raise error(f"{where}: {key!r} must be {shape}, got {_shown.repr(doc[key])}")


def read_text(path) -> str:
    """The text of the UTF-8 file path, line endings as written."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: byte {exc.start} is not "
                          f"UTF-8 ({exc.reason})") from None


def parse_object(text: str, where, error=FormatError) -> dict:
    """The JSON object in text (FormatError if not JSON, nested too deep, or
    holding an integer over Python's digit limit; error if no object)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: invalid JSON: {exc}") from exc
    check_fields(doc, {}, where, error)
    return doc


def read_csv(path):
    """Yield (line number, record) for each record of a UTF-8 CSV file as
    csv reads it; a record over several lines has the number of its last."""
    import csv
    import io

    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc


@contextmanager
def replacing(path, binary=False):
    """A handle (UTF-8 text, newlines as written, or bytes) on ``<path>.tmp``,
    renamed over path when the block completes. On an error the .tmp goes, path
    keeps its bytes and an OSError names path. No fsync: a power loss is not covered."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_text(path, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text)


def json_text(doc) -> str:
    """The text of every JSON artifact: keys sorted, indent 2, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
