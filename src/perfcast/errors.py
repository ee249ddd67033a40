"""Exception types shared across the package, and the text-file readers that raise them.

Every error raised by perfcast derives from :class:`PerfcastError`, so callers
(and the CLI) can catch one base class.
"""

from __future__ import annotations

import contextlib
import csv
from typing import Any, Iterator, Literal, TextIO


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

    def __reduce__(self):  # args holds only the message; pickle rebuilds from the fields
        return type(self), (self.lang_a, self.lang_b, self.kinds)


# records / design matrix
class DuplicateId(PerfcastError):
    pass


class NoProxies(PerfcastError):
    """The proxy feature group is enabled, but no proxy id is named or found in the records."""


class MissingFeature(PerfcastError):
    """A record's feature cell that no table gives; where is the record's file:line, source what lacks the row."""

    def __init__(self, record_id: str, column: str, where: str = "", source: str = ""):
        self.record_id = record_id
        self.column = column
        self.where = where
        self.source = source
        message = f"record {record_id!r}: feature column {column!r} is unresolvable"
        if where:
            message = f"{where}: {message}"
        if source:
            message += f": not in {source}"
        super().__init__(message)

    def __reduce__(self):  # args holds only the message; pickle rebuilds from the fields
        return type(self), (self.record_id, self.column, self.where, self.source)


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
    """Open a UTF-8 text file to read, dropping a leading byte-order mark.

    A byte that is not UTF-8 raises ParseError at file:line.
    """
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def numbered_rows(path: str, form: Literal["csv", "jsonl"]) -> Iterator[tuple[int, Any]]:
    """Yield (line, row) for each non-blank row of a CSV or JSON-lines file: the one place inputs number lines.

    line is the physical line the row starts on, counted from 1. "\\n", "\\r\\n"
    and a lone "\\r" each end a line, a blank line is skipped but counted, and
    a CSV row whose quoted cell spans lines is numbered by its first line.
    A "jsonl" row is the line's text, stripped. A "csv" row is its list of
    cells: the header, the first physical row, comes first as (1, header),
    or nothing comes from an empty file, and a later row whose number of
    cells is not the header's is a ParseError at file:line. Checking the
    header is the caller's part. A byte that is not UTF-8 is a ParseError
    at file:line.
    """
    with open_text(path, newline="" if form == "csv" else None) as fh:
        if form == "jsonl":
            line = 0
            for text in fh:
                line += 1
                text = text.strip()
                if text:
                    yield line, text
            return
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        yield 1, header
        width = len(header)
        line = reader.line_num + 1
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):  # a blank line reads as no cell or one blank cell
                if len(row) != width:
                    raise ParseError(f"{path}:{line}: expected {width} cells, got {len(row)}")
                yield line, row
            line = reader.line_num + 1


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ParseError:
    # the reader decodes in chunks, so exc.start counts from a chunk's start: decode the whole file again
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    # "\r\n", "\n" and a lone "\r" each end one line, as the readers split lines
    ends = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start) - data.count(b"\r\n", 0, exc.start)
    return ParseError(f"{path}:{ends + 1}: not UTF-8 text ({exc.reason} at byte {exc.start})")
