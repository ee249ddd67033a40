"""Typological language distances, loaded from a user-provided CSV.

The table stores six distance kinds per unordered language pair. It is
symmetric by construction (closure applied on load), immutable afterwards,
and self-distances are identically zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import AsymmetryError, MissingPair, ParseError, RangeError, SelfDistanceNonzero, open_text

DISTANCE_KINDS = ("geographic", "genetic", "inventory", "syntactic", "phonological", "featural")

CSV_HEADER = ("lang_a", "lang_b", "kind", "distance")


@dataclass(frozen=True)
class LanguageFeatureBlock:
    """Six distances for one language pair, in DISTANCE_KINDS order."""

    geographic: float
    genetic: float
    inventory: float
    syntactic: float
    phonological: float
    featural: float

    def as_row(self) -> list[float]:
        return [getattr(self, k) for k in DISTANCE_KINDS]


@dataclass(frozen=True)
class LanguageDistanceTable:
    entries: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def languages(self) -> list[str]:
        return sorted({lang for key in self.entries for lang in key[:2]})

    def lookup(self, lang_a: str, lang_b: str, kind: str) -> float | None:
        if lang_a == lang_b:
            return 0.0
        return self.entries.get((lang_a, lang_b, kind))


def load_distance_table(path: str) -> LanguageDistanceTable:
    """Parse the distance CSV and apply symmetric closure.

    Raises ParseError on malformed rows, RangeError on distances outside
    [0, 1], SelfDistanceNonzero on nonzero (L, L) rows, and AsymmetryError
    when duplicate rows for the same pair and kind disagree.
    """
    entries: dict[tuple[str, str, str], float] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ParseError(f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 cells, got {len(row)}")
            lang_a, lang_b, kind, raw = (cell.strip() for cell in row)
            if not lang_a or not lang_b:
                raise ParseError(f"{path}:{lineno}: empty language code")
            if kind not in DISTANCE_KINDS:
                raise ParseError(f"{path}:{lineno}: unknown distance kind {kind!r}")
            try:
                value = float(raw)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad distance {raw!r}") from exc
            if not (0.0 <= value <= 1.0):
                raise RangeError(f"{path}:{lineno}: distance {value} outside [0, 1]")
            if lang_a == lang_b:
                if value != 0.0:
                    raise SelfDistanceNonzero(f"{path}:{lineno}: self-distance ({lang_a}, {kind}) must be 0, got {value}")
                continue
            for key in ((lang_a, lang_b, kind), (lang_b, lang_a, kind)):
                if key in entries and entries[key] != value:
                    raise AsymmetryError(
                        f"{path}:{lineno}: conflicting values for ({key[0]}, {key[1]}, {kind}): "
                        f"{entries[key]} vs {value}"
                    )
                entries[key] = value
    return LanguageDistanceTable(entries=entries)


def save_distance_table(table: LanguageDistanceTable, path: str) -> None:
    """Write each unordered pair once, in sorted order; loading back is idempotent."""
    rows = sorted(
        (min(a, b), max(a, b), kind, value)
        for (a, b, kind), value in table.entries.items()
        if a <= b
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for a, b, kind, value in rows:
            writer.writerow((a, b, kind, repr(value)))


def language_features(table: LanguageDistanceTable, ls: str, lt: str) -> LanguageFeatureBlock:
    """Six distances for (ls, lt), in fixed kind order; self-pairs are all zero."""
    values: dict[str, float] = {}
    missing: list[str] = []
    for kind in DISTANCE_KINDS:
        v = table.lookup(ls, lt, kind)
        if v is None:
            missing.append(kind)
        else:
            values[kind] = v
    if missing:
        raise MissingPair(ls, lt, missing)
    return LanguageFeatureBlock(**values)
