"""Typological language distances, loaded from a user-provided CSV.

The table stores six distance kinds per unordered language pair. It is
symmetric by construction (closure applied on load), immutable afterwards,
and self-distances are identically zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import AsymmetryError, MissingPair, ParseError, RangeError, SelfDistanceNonzero, numbered_rows

DISTANCE_KINDS = ("geographic", "genetic", "inventory", "syntactic", "phonological", "featural")

CSV_HEADER = ("lang_a", "lang_b", "kind", "distance")


@dataclass(frozen=True)
class LanguageDistanceTable:
    entries: dict[tuple[str, str, str], float] = field(default_factory=dict)

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
    rows = numbered_rows(path, "csv")
    header = next(rows, (1, None))[1]
    if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(f"{path}:1: expected header {','.join(CSV_HEADER)}, got {header}")
    for lineno, row in rows:
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


def language_features(table: LanguageDistanceTable, ls: str, lt: str) -> list[float]:
    """The six distances for (ls, lt), in DISTANCE_KINDS order; self-pairs are all zero.

    Raises MissingPair naming every kind the table lacks for the pair.
    """
    values = [table.lookup(ls, lt, kind) for kind in DISTANCE_KINDS]
    missing = [kind for kind, value in zip(DISTANCE_KINDS, values) if value is None]
    if missing:
        raise MissingPair(ls, lt, missing)
    return values
