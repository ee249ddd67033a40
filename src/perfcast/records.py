"""Performance records and design-matrix assembly.

A PerformanceRecord is one observed (model, train set, test set, language
pair) -> score outcome plus the proxy scores observed on the same setup.
Records become rows of a DesignMatrix whose columns follow a FeatureSchema:
six language distances, ten dataset features, then one column per enabled
proxy. Missing proxy scores and missing embedding cosines stay NaN, not
imputed, at this layer: NaN is the one marker of a missing cell.

A records file is a CSV with one proxy:<id> column per proxy, or JSONL with
one JSON object per line. Each format is a row decoder that yields a row's
fields, already parsed. A JSONL line is read through the field table of
`perfcast.fields`, so each value must have its field's JSON type, nothing
is coerced, and an absent optional key takes the field's default; the one
leniency is a seen_by_estimated_model string, read like the CSV cell.
load_records is the one loop that builds every record from its fields,
checks its task, corpus group, Joshi class and scores, and checks its id
against the earlier lines'. Every error names file:line. Within one loaded
file, equal cells of the string fields other than record_id, and equal
JSONL proxy ids, are one shared str; strings are immutable, so only the
memory a loaded file holds changes.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import MISSING, dataclass, field, fields
from math import isfinite
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import DATASET_FEATURE_COLUMNS, DatasetFeatureBlock
from .errors import (
    DuplicateId, EmptyTrainingSet, MissingFeature, MissingPair, NoProxies, ParseError, RangeError, SchemaMismatch,
    numbered_rows,
)
from .fields import read
from .langdist import DISTANCE_KINDS, LanguageDistanceTable, language_features

TASKS = ("mt", "intent", "slot")
CORPUS_GROUPS = ("english_centric", "many_to_many", "other")
FEATURE_GROUPS = ("language", "dataset", "proxy")

PROXY_PREFIX = "proxy:"

# Inclusive score ranges for metrics the loader knows how to validate.
METRIC_RANGES = {
    "spbleu": (0.0, 100.0),
    "accuracy": (0.0, 1.0),
    "f1": (0.0, 1.0),
    "micro_f1": (0.0, 1.0),
    "comet": (0.0, 1.0),
    "comet22": (0.0, 1.0),
}
_NO_RANGE = (-math.inf, math.inf)

_BASE_COLUMNS = (
    "record_id",
    "task",
    "estimated_model",
    "train_dataset",
    "test_dataset",
    "src_lang",
    "tgt_lang",
    "metric_name",
    "score",
    "seen_by_estimated_model",
    "corpus_group",
    "joshi_class",
)


@dataclass
class PerformanceRecord:
    """One observed outcome with its proxy scores.

    A plain mutable dataclass: a frozen one sets each field through
    object.__setattr__, which costs several times as much per record, and a
    record is not hashable anyway, since proxy_scores is a dict.
    """

    record_id: str
    task: str
    estimated_model: str
    train_dataset: str
    test_dataset: str
    src_lang: str
    tgt_lang: str
    metric_name: str
    score: float
    proxy_scores: dict[str, float | None] = field(default_factory=dict)
    seen_by_estimated_model: bool = True
    corpus_group: str = "other"
    joshi_class: int | None = None


def validate_record(rec: PerformanceRecord, path: str, lineno: int,
                    bounds_of: dict[str, tuple[float, float]]) -> PerformanceRecord:
    """Check the task, corpus group, Joshi class, score and proxy scores, in that order.

    Every error starts with the record's path:lineno. bounds_of maps each
    metric name met so far in the file to its METRIC_RANGES entry, or to
    (-inf, inf) for a metric with no range, so that each name is looked up
    once; a name it lacks is looked up and added.
    """
    if rec.task not in TASKS:
        raise ParseError(f"{path}:{lineno}: record {rec.record_id!r}: unknown task {rec.task!r}")
    if rec.corpus_group not in CORPUS_GROUPS:
        raise ParseError(f"{path}:{lineno}: record {rec.record_id!r}: unknown corpus_group {rec.corpus_group!r}")
    joshi = rec.joshi_class
    if joshi is not None and not (0 <= joshi <= 5):
        raise ParseError(f"{path}:{lineno}: record {rec.record_id!r}: joshi_class {joshi} outside 0-5")
    score = rec.score
    if not isfinite(score):
        raise RangeError(f"{path}:{lineno}: record {rec.record_id!r}: non-finite score {score}")
    try:
        low, high = bounds_of[rec.metric_name]
    except KeyError:
        low, high = bounds_of[rec.metric_name] = METRIC_RANGES.get(rec.metric_name.lower(), _NO_RANGE)
    if not low <= score <= high:
        raise RangeError(f"{path}:{lineno}: record {rec.record_id!r}: {rec.metric_name} score {score}"
                         f" outside [{low}, {high}]")
    for proxy_id, value in rec.proxy_scores.items():
        if value is not None and not isfinite(value):
            raise RangeError(f"{path}:{lineno}: record {rec.record_id!r}: non-finite proxy score for {proxy_id!r}")
    return rec


def _check_new_id(records: list[PerformanceRecord], lines: array, ids: set[str], path: str) -> None:
    """Raise DuplicateId naming both lines if the last record repeats an earlier record's id.

    lines holds the line of each record. It is an array of C longs, not a
    dict of ints: an int object kept alive per record raised the CLI's peak
    memory by about 1 MB for 8000 records.
    """
    record_id = records[-1].record_id
    if record_id in ids:
        first = next(i for i, rec in enumerate(records) if rec.record_id == record_id)
        raise DuplicateId(f"{path}:{lines[-1]}: duplicate record_id {record_id!r}, first given on line {lines[first]}")
    ids.add(record_id)


_BOOLS = {"true": True, "1": True, "false": False, "0": False}


def _parse_bool(raw: str, path: str, lineno: int) -> bool:
    value = _BOOLS.get(raw)
    if value is None:
        value = _BOOLS.get(raw.strip().lower())
    if value is None:
        raise ParseError(f"{path}:{lineno}: bad boolean {raw!r}")
    return value


def load_records(path: str) -> list[PerformanceRecord]:
    """Load records from CSV (proxy:<id> columns) or JSONL (proxy_scores object).

    The one loop over a file's decoded rows: each record is built with its
    repeated strings shared, checked by validate_record, and its id checked
    against the earlier lines'. Every error names the file and line, and a
    repeated record_id is a DuplicateId at the line that repeats it.
    """
    records: list[PerformanceRecord] = []
    lines = array("l")
    ids: set[str] = set()
    bounds_of: dict[str, tuple[float, float]] = {}
    # one str per distinct value of the fields that repeat from record to record, so 8000 records with
    # a few dozen distinct cells hold a few dozen strings, not 64000; record_id is left out: ids are unique
    shared: dict[str, str] = {}
    share = shared.setdefault
    for lineno, (record_id, task, estimated_model, train_dataset, test_dataset, src_lang, tgt_lang, metric_name,
                 score, proxies, seen, corpus_group, joshi) in _record_rows(path):
        rec = PerformanceRecord(record_id, share(task, task), share(estimated_model, estimated_model),
                                share(train_dataset, train_dataset), share(test_dataset, test_dataset),
                                share(src_lang, src_lang), share(tgt_lang, tgt_lang),
                                share(metric_name, metric_name), score, proxies, seen,
                                share(corpus_group, corpus_group), joshi)
        records.append(validate_record(rec, path, lineno, bounds_of))
        lines.append(lineno)
        _check_new_id(records, lines, ids, path)
    return records


def record_line(path: str, record_id: str) -> int | None:
    """The physical line a records file gives record_id on, or None.

    It decodes the file again as load_records does, so the line agrees with
    the loader's; it is for error messages only.
    """
    return next((lineno for lineno, row in _record_rows(path) if row[0] == record_id), None)


def _record_rows(path: str) -> Iterator[tuple[int, Sequence]]:
    """Each record's (line, fields in PerformanceRecord order), decoded from a CSV or a JSONL file."""
    return _jsonl_rows(path) if path.endswith((".jsonl", ".json")) else _csv_rows(path)


def _csv_rows(path: str) -> Iterator[tuple[int, tuple]]:
    """Check the header, then per row parse score, joshi_class, the proxy cells and the boolean, in that order."""
    rows = numbered_rows(path, "csv")
    header = next(rows, (1, None))[1]
    if header is None:
        return
    header = [h.strip() for h in header]
    if tuple(header[: len(_BASE_COLUMNS)]) != _BASE_COLUMNS:
        raise ParseError(f"{path}:1: unexpected records header (first columns must be {','.join(_BASE_COLUMNS)})")
    proxy_ids = []
    for col in header[len(_BASE_COLUMNS):]:
        if not col.startswith(PROXY_PREFIX):
            raise ParseError(f"{path}:1: unexpected column {col!r} (proxy columns must start with {PROXY_PREFIX!r})")
        proxy_ids.append(col[len(PROXY_PREFIX):])
    for lineno, row in rows:
        (record_id, task, estimated_model, train_dataset, test_dataset, src_lang, tgt_lang, metric_name,
         score, seen, corpus_group, joshi, *cells) = row
        try:
            score = float(score)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad score {score!r}") from exc
        try:  # int() and float() ignore the whitespace round a number; a cell of whitespace alone is empty
            joshi = int(joshi) if joshi else None
        except ValueError as exc:
            if joshi.strip():
                raise ParseError(f"{path}:{lineno}: bad joshi_class {joshi.strip()!r}") from exc
            joshi = None
        proxies: dict[str, float | None] = {}
        for proxy_id, cell in zip(proxy_ids, cells):
            try:
                proxies[proxy_id] = float(cell) if cell else None
            except ValueError as exc:
                if cell.strip():
                    raise ParseError(f"{path}:{lineno}: bad proxy score {cell.strip()!r}") from exc
                proxies[proxy_id] = None
        yield lineno, (record_id, task, estimated_model, train_dataset, test_dataset, src_lang, tgt_lang,
                       metric_name, score, proxies, _parse_bool(seen, path, lineno), corpus_group, joshi)


# Each record field's name, annotation and the value an absent JSONL key takes (MISSING: the key is
# required), read once at import rather than through dataclasses.fields on every line. proxy_scores'
# default is one empty dict, which _jsonl_rows copies like any other proxy map.
_JSON_FIELDS = tuple((f.name, f.type, f.default if f.default_factory is MISSING else f.default_factory())
                     for f in fields(PerformanceRecord))
_JSON_NAMES = frozenset(name for name, _, _ in _JSON_FIELDS)
_PROXIES = [name for name, _, _ in _JSON_FIELDS].index("proxy_scores")


def _jsonl_rows(path: str) -> Iterator[tuple[int, list]]:
    """Read each line's JSON object through the field table of perfcast.fields.

    A string seen_by_estimated_model is read first, as in the CSV; then a key
    that names no field, and each field in order, is checked. Equal proxy ids
    of the file are one shared str.
    """
    proxy_ids: dict[str, str] = {}
    share = proxy_ids.setdefault
    for lineno, line in numbered_rows(path, "jsonl"):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"a PerformanceRecord must be a JSON object, not {obj!r}")
            seen = obj.get("seen_by_estimated_model")
            if isinstance(seen, str):
                obj["seen_by_estimated_model"] = _parse_bool(seen, path, lineno)
            if not _JSON_NAMES.issuperset(obj):
                raise ValueError(f"unknown key {next(key for key in obj if key not in _JSON_NAMES)!r}")
            values = []
            for name, annotation, default in _JSON_FIELDS:
                if name in obj:
                    values.append(read(annotation, obj[name], name))
                elif default is MISSING:
                    raise ValueError(f"{name} is missing")
                else:
                    values.append(default)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise ParseError(f"{path}:{lineno}: bad record: {exc}") from exc
        values[_PROXIES] = {share(key, key): value for key, value in values[_PROXIES].items()}
        yield lineno, values


def save_records(records: Sequence[PerformanceRecord], path: str) -> None:
    """Write records as CSV with one proxy:<id> column per roster entry."""
    roster = proxy_roster(records)
    for proxy_id in roster:
        if proxy_id != proxy_id.strip():  # the loader strips header cells
            raise ValueError(f"proxy id {proxy_id!r} has surrounding whitespace, which a CSV header does not keep")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BASE_COLUMNS + tuple(PROXY_PREFIX + p for p in roster))
        for rec in records:
            row = [
                rec.record_id,
                rec.task,
                rec.estimated_model,
                rec.train_dataset,
                rec.test_dataset,
                rec.src_lang,
                rec.tgt_lang,
                rec.metric_name,
                repr(rec.score),
                "true" if rec.seen_by_estimated_model else "false",
                rec.corpus_group,
                "" if rec.joshi_class is None else str(rec.joshi_class),
            ]
            for proxy_id in roster:
                value = rec.proxy_scores.get(proxy_id)
                row.append("" if value is None else repr(value))
            writer.writerow(row)


def proxy_roster(records: Iterable[PerformanceRecord]) -> list[str]:
    """Sorted union of proxy ids appearing in the records' proxy maps."""
    ids: set[str] = set()
    for rec in records:
        ids.update(rec.proxy_scores.keys())
    return sorted(ids)


# ---------------------------------------------------------------------------
# Feature schema and design matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column names; order is deterministic across runs.

    A column's group follows from its name: a DISTANCE_KINDS name is a
    language column, a DATASET_FEATURE_COLUMNS name a dataset column, and a
    name with the proxy: prefix a proxy column.
    """

    columns: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")

    def check_columns(self, feature_names: tuple[str, ...]) -> None:
        """Raise SchemaMismatch unless feature_names, a model's columns, are these columns.

        The message names the first column that differs, or the two counts.
        A model stores its columns only, as each column's group follows from
        its name.
        """
        if self.columns == feature_names:
            return
        for j, (ours, theirs) in enumerate(zip(self.columns, feature_names)):
            if ours != theirs:
                raise SchemaMismatch(f"design matrix column {j} is {ours!r}, but the model's is {theirs!r}")
        raise SchemaMismatch(f"the design matrix has {len(self.columns)} columns, but the model {len(feature_names)}")


def build_schema(feature_groups: Sequence[str], proxies: Sequence[str] = ()) -> FeatureSchema:
    """Columns in fixed order: language block, dataset block, one per proxy."""
    enabled = list(feature_groups)
    if not enabled:
        raise ValueError("at least one feature group must be enabled")
    for g in enabled:
        if g not in FEATURE_GROUPS:
            raise ValueError(f"unknown feature group {g!r}")
    columns: list[str] = []
    if "language" in enabled:
        columns.extend(DISTANCE_KINDS)
    if "dataset" in enabled:
        columns.extend(DATASET_FEATURE_COLUMNS)
    if "proxy" in enabled:
        if not proxies:
            raise NoProxies("proxy group enabled but no proxies supplied")
        columns.extend(PROXY_PREFIX + p for p in proxies)
    return FeatureSchema(columns=tuple(columns))


@dataclass
class DesignMatrix:
    """Feature rows in schema order; NaN marks a missing cell and nothing else."""

    schema: FeatureSchema
    rows: np.ndarray
    targets: np.ndarray
    row_ids: list[str]
    languages: list[tuple[str, str]] | None = None  # (src_lang, tgt_lang) per row, for MF; equal pairs share a tuple

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def subset(self, indices: Sequence[int]) -> "DesignMatrix":
        idx = np.asarray(indices, dtype=np.intp)
        return DesignMatrix(
            schema=self.schema,
            rows=self.rows[idx],
            targets=self.targets[idx],
            row_ids=[self.row_ids[i] for i in idx],
            languages=None if self.languages is None else [self.languages[i] for i in idx],
        )

    def training_targets(self) -> np.ndarray:
        """The targets, which every regressor's fit reads through this check.

        No rows is EmptyTrainingSet; a target that is not finite is a
        RangeError naming the first such row.
        """
        if self.n == 0:
            raise EmptyTrainingSet("cannot fit on an empty design matrix")
        bad = np.flatnonzero(~np.isfinite(self.targets))
        if bad.size:
            i = int(bad[0])
            raise RangeError(f"row {self.row_ids[i]!r}: target {float(self.targets[i])!r} is not finite")
        return self.targets


def build_design_matrix(
    records: Sequence[PerformanceRecord],
    schema: FeatureSchema,
    dataset_features: dict[tuple[str, str], DatasetFeatureBlock] | None = None,
    language_table: LanguageDistanceTable | None = None,
) -> DesignMatrix:
    """One row per record, columns in schema order.

    Missing proxy scores and missing embedding cosines are left NaN; any other
    unresolvable feature raises MissingFeature naming the first record, in
    order, that needs it. A schema column that names no feature, or a
    language or dataset block that the schema holds only in part, is a
    SchemaMismatch naming the column. The language block is resolved once
    per distinct (src_lang, tgt_lang) and the dataset block once per
    distinct (train_dataset, test_dataset); each record's row then copies
    them from a table with one row per pair. The matrix's languages hold one
    tuple per distinct pair, which every row with that pair refers to.
    """
    _check_feature_columns(schema)
    n = len(records)
    rows = np.full((n, len(schema.columns)), np.nan, dtype=np.float64)
    col_index = {c: j for j, c in enumerate(schema.columns)}
    lang_enabled = any(name in col_index for name in DISTANCE_KINDS)
    data_enabled = any(name in col_index for name in DATASET_FEATURE_COLUMNS)

    # index per distinct pair, the tables' rows, and each record's index; the language
    # pairs are indexed whether or not the block is enabled, as they fill languages
    lang_keys: dict[tuple[str, str], int] = {}
    data_keys: dict[tuple[str, str], int] = {}
    lang_table: list[list[float]] = []
    data_table: list[list[float]] = []
    lang_of: list[int] = []
    data_of: list[int] = []
    for rec in records:
        key = (rec.src_lang, rec.tgt_lang)
        if key not in lang_keys:
            lang_keys[key] = len(lang_keys)
            if lang_enabled:
                lang_table.append(_language_row(rec, language_table))
        lang_of.append(lang_keys[key])
        if data_enabled:
            key = (rec.train_dataset, rec.test_dataset)
            if key not in data_keys:
                data_keys[key] = len(data_table)
                data_table.append(_dataset_row(rec, dataset_features))
            data_of.append(data_keys[key])

    for enabled, names, table, index in (
        (lang_enabled, DISTANCE_KINDS, lang_table, lang_of),
        (data_enabled, DATASET_FEATURE_COLUMNS, data_table, data_of),
    ):
        if enabled:
            block = np.array(table, dtype=np.float64).reshape(len(table), len(names))
            rows[:, [col_index[name] for name in names]] = block[np.array(index, dtype=np.intp)]
    for column in schema.columns:
        if column.startswith(PROXY_PREFIX):
            proxy_id = column[len(PROXY_PREFIX):]
            scores = [rec.proxy_scores.get(proxy_id) for rec in records]
            rows[:, col_index[column]] = [np.nan if v is None else v for v in scores]

    pairs = list(lang_keys)
    return DesignMatrix(
        schema=schema,
        rows=rows,
        targets=np.array([rec.score for rec in records], dtype=np.float64),
        row_ids=[rec.record_id for rec in records],
        languages=[pairs[i] for i in lang_of],
    )


def _check_feature_columns(schema: FeatureSchema) -> None:
    """Raise SchemaMismatch for a column that names no feature, or for a block the schema holds only in part."""
    blocks = {"language": DISTANCE_KINDS, "dataset": DATASET_FEATURE_COLUMNS}
    for column in schema.columns:
        if not column.startswith(PROXY_PREFIX) and not any(column in names for names in blocks.values()):
            raise SchemaMismatch(f"schema column {column!r} names no feature: not a language distance,"
                                 f" a dataset feature or {PROXY_PREFIX}<id>")
    for group, names in blocks.items():
        held = [name for name in names if name in schema.columns]
        if held and len(held) < len(names):
            lacking = next(name for name in names if name not in held)
            raise SchemaMismatch(f"schema column {held[0]!r} is in the {group} block,"
                                 f" whose column {lacking!r} the schema lacks")


def _language_row(rec: PerformanceRecord, table: LanguageDistanceTable | None) -> list[float]:
    """The six distances of the record's language pair, in DISTANCE_KINDS order."""
    if table is None:
        raise MissingFeature(rec.record_id, "language (no distance table supplied)")
    try:
        return language_features(table, rec.src_lang, rec.tgt_lang)
    except MissingPair as exc:
        raise MissingFeature(rec.record_id, f"language:{'+'.join(exc.kinds)}") from exc


def _dataset_row(rec: PerformanceRecord, blocks: dict[tuple[str, str], DatasetFeatureBlock] | None) -> list[float]:
    """The record's dataset block in DATASET_FEATURE_COLUMNS order, NaN for an absent value."""
    if blocks is None:
        raise MissingFeature(rec.record_id, "dataset (no feature blocks supplied)")
    block = blocks.get((rec.train_dataset, rec.test_dataset))
    if block is None:
        raise MissingFeature(rec.record_id, f"dataset:({rec.train_dataset},{rec.test_dataset})")
    return [np.nan if value is None else float(value) for value in block.as_row()]
