"""Exception types shared across the package, and the text-file opener that raises one.

Every error raised by perfcast derives from :class:`PerfcastError`, so callers
(and the CLI) can catch one base class.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, TextIO


class PerfcastError(Exception):
    """Base class for all perfcast errors."""


# corpus features
class EmptyCorpus(PerfcastError):
    pass


class InvalidTTR(PerfcastError):
    pass


class DimMismatch(PerfcastError):
    pass


class ZeroVector(PerfcastError):
    pass


# tabular inputs
class ParseError(PerfcastError):
    pass


class RangeError(PerfcastError):
    pass


class AsymmetryError(PerfcastError):
    """Conflicting duplicate entries for the same language pair and kind."""


class SelfDistanceNonzero(AsymmetryError):
    """A (lang, lang, kind) row carried a nonzero distance."""


class MissingPair(PerfcastError):
    def __init__(self, lang_a: str, lang_b: str, kinds: list[str]):
        self.lang_a = lang_a
        self.lang_b = lang_b
        self.kinds = list(kinds)
        super().__init__(f"no distance for ({lang_a}, {lang_b}); missing kinds: {', '.join(kinds)}")


# records / design matrix
class DuplicateId(PerfcastError):
    pass


class KeyMismatch(PerfcastError):
    pass


class MissingFeature(PerfcastError):
    def __init__(self, record_id: str, column: str):
        self.record_id = record_id
        self.column = column
        super().__init__(f"record {record_id!r}: feature column {column!r} is unresolvable")


class SchemaMismatch(PerfcastError):
    pass


# regressors
class EmptyTrainingSet(PerfcastError):
    pass


class NoSplits(PerfcastError):
    pass


class NotManyToMany(PerfcastError):
    pass


class UnknownLanguage(PerfcastError):
    pass


# experiments
class TooFewRecords(PerfcastError):
    pass


class TooFewLanguages(PerfcastError):
    pass


class DegenerateSplit(PerfcastError):
    pass


class LengthMismatch(PerfcastError):
    pass


class EmptyInput(PerfcastError):
    pass


class TooFewPoints(PerfcastError):
    pass


class ZeroVariance(PerfcastError):
    pass


class ConfigError(PerfcastError):
    pass


@contextlib.contextmanager
def open_text(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file to read; a byte that is not UTF-8 raises ParseError at file:line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ParseError:
    # the reader decodes in chunks, so exc.start counts from a chunk's start: decode the whole file again
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    line = data.count(b"\n", 0, exc.start) + 1
    return ParseError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})")
