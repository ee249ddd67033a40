"""Performance records, proxy-run averaging, and design-matrix assembly.

A PerformanceRecord is one observed (model, train set, test set, language
pair) -> score outcome plus the proxy scores observed on the same setup.
Records become rows of a DesignMatrix whose columns follow a FeatureSchema:
six language distances, ten dataset features, then one column per enabled
proxy. Missing proxy scores and missing embedding cosines stay NaN, not
imputed, at this layer: NaN is the one marker of a missing cell.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .corpus import DATASET_FEATURE_COLUMNS, DatasetFeatureBlock
from .errors import DuplicateId, KeyMismatch, MissingFeature, MissingPair, ParseError, RangeError
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

# Fields that must agree across runs being averaged (record_id excluded:
# repeated runs naturally carry distinct ids).
_KEY_FIELDS = (
    "task",
    "estimated_model",
    "train_dataset",
    "test_dataset",
    "src_lang",
    "tgt_lang",
    "metric_name",
    "seen_by_estimated_model",
    "corpus_group",
    "joshi_class",
)


@dataclass(frozen=True)
class PerformanceRecord:
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


def _check_score(record_id: str, metric_name: str, score: float) -> None:
    if not math.isfinite(score):
        raise RangeError(f"record {record_id!r}: non-finite score {score}")
    bounds = METRIC_RANGES.get(metric_name.lower())
    if bounds is not None and not (bounds[0] <= score <= bounds[1]):
        raise RangeError(
            f"record {record_id!r}: {metric_name} score {score} outside [{bounds[0]}, {bounds[1]}]"
        )


def validate_record(rec: PerformanceRecord) -> PerformanceRecord:
    if rec.task not in TASKS:
        raise ParseError(f"record {rec.record_id!r}: unknown task {rec.task!r}")
    if rec.corpus_group not in CORPUS_GROUPS:
        raise ParseError(f"record {rec.record_id!r}: unknown corpus_group {rec.corpus_group!r}")
    if rec.joshi_class is not None and not (0 <= rec.joshi_class <= 5):
        raise ParseError(f"record {rec.record_id!r}: joshi_class {rec.joshi_class} outside 0-5")
    _check_score(rec.record_id, rec.metric_name, rec.score)
    for proxy_id, value in rec.proxy_scores.items():
        if value is not None and not math.isfinite(value):
            raise RangeError(f"record {rec.record_id!r}: non-finite proxy score for {proxy_id!r}")
    return rec


def _parse_bool(raw: str, context: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ParseError(f"{context}: bad boolean {raw!r}")


def _json_bool(value, context: str) -> bool:
    """A JSON bool as is; a string by the CSV loader's rules; anything else is an error."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return _parse_bool(value, context)
    raise ParseError(f"{context}: bad boolean {value!r}")


def load_records(path: str) -> list[PerformanceRecord]:
    """Load records from CSV (proxy:<id> columns) or JSONL (proxy_scores object)."""
    records = _load_records_jsonl(path) if path.endswith((".jsonl", ".json")) else _load_records_csv(path)
    seen: set[str] = set()
    for rec in records:
        if rec.record_id in seen:
            raise DuplicateId(f"duplicate record_id {rec.record_id!r} in {path}")
        seen.add(rec.record_id)
    return records


def _load_records_csv(path: str) -> list[PerformanceRecord]:
    records: list[PerformanceRecord] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        header = [h.strip() for h in header]
        if tuple(header[: len(_BASE_COLUMNS)]) != _BASE_COLUMNS:
            raise ParseError(f"{path}: unexpected records header (first columns must be {','.join(_BASE_COLUMNS)})")
        proxy_ids = []
        for col in header[len(_BASE_COLUMNS):]:
            if not col.startswith(PROXY_PREFIX):
                raise ParseError(f"{path}: unexpected column {col!r} (proxy columns must start with {PROXY_PREFIX!r})")
            proxy_ids.append(col[len(PROXY_PREFIX):])
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            context = f"{path}:{lineno}"
            try:
                score = float(row[8])
            except ValueError as exc:
                raise ParseError(f"{context}: bad score {row[8]!r}") from exc
            joshi_raw = row[11].strip()
            try:
                joshi = int(joshi_raw) if joshi_raw else None
            except ValueError as exc:
                raise ParseError(f"{context}: bad joshi_class {joshi_raw!r}") from exc
            proxies: dict[str, float | None] = {}
            for proxy_id, cell in zip(proxy_ids, row[len(_BASE_COLUMNS):]):
                cell = cell.strip()
                if cell == "":
                    proxies[proxy_id] = None
                else:
                    try:
                        proxies[proxy_id] = float(cell)
                    except ValueError as exc:
                        raise ParseError(f"{context}: bad proxy score {cell!r}") from exc
            rec = PerformanceRecord(
                record_id=row[0],
                task=row[1],
                estimated_model=row[2],
                train_dataset=row[3],
                test_dataset=row[4],
                src_lang=row[5],
                tgt_lang=row[6],
                metric_name=row[7],
                score=score,
                proxy_scores=proxies,
                seen_by_estimated_model=_parse_bool(row[9], context),
                corpus_group=row[10],
                joshi_class=joshi,
            )
            records.append(validate_record(rec))
    return records


def _load_records_jsonl(path: str) -> list[PerformanceRecord]:
    records: list[PerformanceRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            context = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ParseError(f"{context}: a record must be a JSON object")
                proxy_obj = obj.get("proxy_scores", {})
                if not isinstance(proxy_obj, dict):
                    raise ParseError(f"{context}: proxy_scores must be a JSON object")
                proxies = {str(k): (None if v is None else float(v)) for k, v in proxy_obj.items()}
                rec = PerformanceRecord(
                    record_id=str(obj["record_id"]),
                    task=str(obj["task"]),
                    estimated_model=str(obj["estimated_model"]),
                    train_dataset=str(obj["train_dataset"]),
                    test_dataset=str(obj["test_dataset"]),
                    src_lang=str(obj["src_lang"]),
                    tgt_lang=str(obj["tgt_lang"]),
                    metric_name=str(obj["metric_name"]),
                    score=float(obj["score"]),
                    proxy_scores=proxies,
                    seen_by_estimated_model=_json_bool(obj.get("seen_by_estimated_model", True), context),
                    corpus_group=str(obj.get("corpus_group", "other")),
                    joshi_class=None if obj.get("joshi_class") is None else int(obj["joshi_class"]),
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ParseError(f"{context}: bad record: {exc}") from exc
            records.append(validate_record(rec))
    return records


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


def average_proxy_scores(runs: Sequence[PerformanceRecord]) -> PerformanceRecord:
    """Collapse repeated runs of one setup into a single averaged record.

    The score and each proxy score become the arithmetic mean over the runs
    where they are present; a proxy missing in every run stays missing.
    """
    if not runs:
        raise KeyMismatch("no runs to average")
    first = runs[0]
    for other in runs[1:]:
        for field_name in _KEY_FIELDS:
            if getattr(other, field_name) != getattr(first, field_name):
                raise KeyMismatch(
                    f"runs disagree on {field_name}: {getattr(first, field_name)!r} vs {getattr(other, field_name)!r}"
                )
    score = math.fsum(r.score for r in runs) / len(runs)
    proxies: dict[str, float | None] = {}
    for proxy_id in proxy_roster(runs):
        present = [r.proxy_scores[proxy_id] for r in runs if r.proxy_scores.get(proxy_id) is not None]
        proxies[proxy_id] = math.fsum(present) / len(present) if present else None
    return replace(first, score=score, proxy_scores=proxies)


# ---------------------------------------------------------------------------
# Feature schema and design matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSchema:
    """Ordered, grouped column names; order is deterministic across runs."""

    columns: tuple[str, ...]
    groups: tuple[str, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.groups):
            raise ValueError("columns and groups must be parallel")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")

    def fingerprint(self) -> str:
        payload = ";".join(f"{c}|{g}" for c, g in zip(self.columns, self.groups))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_schema(feature_groups: Sequence[str], proxies: Sequence[str] = ()) -> FeatureSchema:
    """Columns in fixed order: language block, dataset block, one per proxy."""
    enabled = list(feature_groups)
    if not enabled:
        raise ValueError("at least one feature group must be enabled")
    for g in enabled:
        if g not in FEATURE_GROUPS:
            raise ValueError(f"unknown feature group {g!r}")
    columns: list[str] = []
    groups: list[str] = []
    if "language" in enabled:
        columns.extend(DISTANCE_KINDS)
        groups.extend(["language"] * len(DISTANCE_KINDS))
    if "dataset" in enabled:
        columns.extend(DATASET_FEATURE_COLUMNS)
        groups.extend(["dataset"] * len(DATASET_FEATURE_COLUMNS))
    if "proxy" in enabled:
        if not proxies:
            raise ValueError("proxy group enabled but no proxies supplied")
        columns.extend(PROXY_PREFIX + p for p in proxies)
        groups.extend(["proxy"] * len(proxies))
    return FeatureSchema(columns=tuple(columns), groups=tuple(groups))


@dataclass
class DesignMatrix:
    """Feature rows in schema order; NaN marks a missing cell and nothing else."""

    schema: FeatureSchema
    rows: np.ndarray
    targets: np.ndarray
    row_ids: list[str]
    languages: list[tuple[str, str]] | None = None  # (src_lang, tgt_lang) per row, for MF

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


def build_design_matrix(
    records: Sequence[PerformanceRecord],
    schema: FeatureSchema,
    dataset_features: dict[tuple[str, str], DatasetFeatureBlock] | None = None,
    language_table: LanguageDistanceTable | None = None,
) -> DesignMatrix:
    """One row per record, columns in schema order.

    Missing proxy scores and missing embedding cosines are left NaN; any other
    unresolvable feature raises MissingFeature naming the record and column.
    """
    n = len(records)
    d = len(schema.columns)
    rows = np.full((n, d), np.nan, dtype=np.float64)
    targets = np.empty(n, dtype=np.float64)
    col_index = {c: j for j, c in enumerate(schema.columns)}

    lang_enabled = "language" in schema.groups
    data_enabled = "dataset" in schema.groups
    proxy_cols = [(c, c[len(PROXY_PREFIX):]) for c, g in zip(schema.columns, schema.groups) if g == "proxy"]

    for i, rec in enumerate(records):
        targets[i] = rec.score
        if lang_enabled:
            if language_table is None:
                raise MissingFeature(rec.record_id, "language (no distance table supplied)")
            try:
                block = language_features(language_table, rec.src_lang, rec.tgt_lang)
            except MissingPair as exc:
                raise MissingFeature(rec.record_id, f"language:{'+'.join(exc.kinds)}") from exc
            for kind, value in zip(DISTANCE_KINDS, block.as_row()):
                rows[i, col_index[kind]] = value
        if data_enabled:
            if dataset_features is None:
                raise MissingFeature(rec.record_id, "dataset (no feature blocks supplied)")
            block = dataset_features.get((rec.train_dataset, rec.test_dataset))
            if block is None:
                raise MissingFeature(rec.record_id, f"dataset:({rec.train_dataset},{rec.test_dataset})")
            for name, value in zip(DATASET_FEATURE_COLUMNS, block.as_row()):
                if value is not None:
                    rows[i, col_index[name]] = float(value)
        for column, proxy_id in proxy_cols:
            value = rec.proxy_scores.get(proxy_id)
            if value is not None:
                rows[i, col_index[column]] = value

    return DesignMatrix(
        schema=schema,
        rows=rows,
        targets=targets,
        row_ids=[rec.record_id for rec in records],
        languages=[(rec.src_lang, rec.tgt_lang) for rec in records],
    )
