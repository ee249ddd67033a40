"""Exception types shared across the package.

Every error raised by perfcast derives from :class:`PerfcastError`, so callers
(and the CLI) can catch one base class.
"""

from __future__ import annotations


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

