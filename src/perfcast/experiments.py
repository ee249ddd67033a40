"""Evaluation protocols: splits, cross-validated model selection, repeats.

Four split protocols (random 7:3, leave-one-language-out, seen/unseen,
cross-dataset), k-fold grid search on the training side, and the repeated
experiment driver that reports mean and population standard deviation of the
test RMSE over `repeats` runs. Repeat r derives its seed as config.seed + r;
that seed drives the split shuffle, the CV fold shuffle, and the regressor's
own randomness, so reruns with identical config are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpus import DatasetFeatureBlock
from .errors import (
    DegenerateSplit,
    EmptyInput,
    LengthMismatch,
    SchemaMismatch,
    TooFewLanguages,
    TooFewRecords,
)
from .langdist import LanguageDistanceTable
from .records import (
    DesignMatrix,
    FEATURE_GROUPS,
    PerformanceRecord,
    build_design_matrix,
    build_schema,
    proxy_roster,
)
from .regressors import (
    AnyParams,
    GbtModel,
    check_languages,
    fit_model,
    params_kind,
    predict_model,
    with_seed,
)

DEFAULT_ABLATION_SETS: tuple[tuple[str, ...], ...] = (
    ("proxy",),
    ("proxy", "language"),
    ("proxy", "dataset"),
    ("proxy", "language", "dataset"),
    ("language", "dataset"),
)


def rmse(predictions: Sequence[float], targets: Sequence[float]) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise LengthMismatch(f"length {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyInput("rmse of empty vectors")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def iqm(values: Sequence[float]) -> float:
    """Interquartile mean: drop floor(n/4) smallest and largest, average the rest."""
    if len(values) == 0:
        raise EmptyInput("iqm of empty list")
    ordered = sorted(values)
    drop = len(ordered) // 4
    kept = ordered[drop: len(ordered) - drop]
    return math.fsum(kept) / len(kept)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def split_random(
    records: Sequence[PerformanceRecord], ratio: float, seed: int
) -> tuple[list[PerformanceRecord], list[PerformanceRecord]]:
    """Seeded shuffle; train takes the first floor(ratio * n) records."""
    n = len(records)
    if n < 2:
        raise TooFewRecords(f"need >= 2 records, got {n}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio {ratio} outside (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    # tiny epsilon so float products like 0.7 * 90 floor to the exact value
    n_train = int(math.floor(ratio * n + 1e-9))
    train = [records[i] for i in perm[:n_train]]
    test = [records[i] for i in perm[n_train:]]
    return train, test


def split_lolo(
    records: Sequence[PerformanceRecord],
) -> list[tuple[str, list[PerformanceRecord], list[PerformanceRecord]]]:
    """One (language, train, test) split per holdable language.

    A record is on the test side iff the held-out language is its source or
    target. Languages appearing in every record (English in English-centric
    data) cannot be held out: doing so would empty the training side.
    """
    langs = sorted({r.src_lang for r in records} | {r.tgt_lang for r in records})
    holdable = [
        lang for lang in langs
        if not all(lang in (r.src_lang, r.tgt_lang) for r in records)
    ]
    if len(holdable) < 2:
        raise TooFewLanguages(f"need >= 2 holdable languages, got {len(holdable)}")
    splits = []
    for lang in holdable:
        test = [r for r in records if lang in (r.src_lang, r.tgt_lang)]
        train = [r for r in records if lang not in (r.src_lang, r.tgt_lang)]
        splits.append((lang, train, test))
    return splits


def split_unseen(
    records: Sequence[PerformanceRecord],
) -> tuple[list[PerformanceRecord], list[PerformanceRecord]]:
    """Train on records the estimated model has seen, test on the rest."""
    train = [r for r in records if r.seen_by_estimated_model]
    test = [r for r in records if not r.seen_by_estimated_model]
    if not train or not test:
        raise DegenerateSplit("unseen split needs both seen and unseen records")
    return train, test


def split_cross_dataset(
    train_records: Sequence[PerformanceRecord],
    test_records: Sequence[PerformanceRecord],
) -> tuple[list[PerformanceRecord], list[PerformanceRecord]]:
    """Identity passthrough after checking the two sources are schema-compatible."""
    if not train_records or not test_records:
        raise TooFewRecords("cross-dataset split needs non-empty train and test record lists")
    roster_train = proxy_roster(train_records)
    roster_test = proxy_roster(test_records)
    if roster_train != roster_test:
        raise SchemaMismatch(
            f"proxy rosters differ: {roster_train} vs {roster_test}"
        )
    return list(train_records), list(test_records)


# ---------------------------------------------------------------------------
# Cross-validated grid search
# ---------------------------------------------------------------------------

@dataclass
class CvResult:
    best_index: int
    best_params: AnyParams
    scores: list[float]  # mean validation RMSE per grid point, in grid order


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle of range(n) cut into k folds whose sizes differ by <= 1."""
    if k < 2:
        raise ValueError("cv_folds must be >= 2")
    if n < k:
        raise TooFewRecords(f"need >= {k} records for {k}-fold CV, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    folds: list[np.ndarray] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(perm[start:start + size])
        start += size
    return folds


def kfold_cv(
    matrix: DesignMatrix,
    k: int,
    grid: Sequence[AnyParams],
    seed: int,
) -> CvResult:
    """Seeded k-fold grid search; ties break to the earlier grid point."""
    n = matrix.n
    if not grid:
        raise ValueError("empty hyperparameter grid")
    folds = kfold_indices(n, k, seed)
    splits = [
        (matrix.subset(np.concatenate([folds[j] for j in range(k) if j != i])), matrix.subset(folds[i]))
        for i in range(k)
    ]

    scores: list[float] = []
    for params in grid:
        fold_rmse = [
            rmse(predict_model(fit_model(with_seed(params, seed), train), val), val.targets)
            for train, val in splits
        ]
        scores.append(float(np.mean(fold_rmse)))

    best = min(range(len(grid)), key=lambda i: (scores[i], i))
    return CvResult(best_index=best, best_params=grid[best], scores=scores)


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    kind: str = "random"
    ratio: float | None = None
    held_out_language: str | None = None

    def __post_init__(self):
        if self.kind not in ("random", "lolo", "unseen", "cross_dataset"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        if self.kind == "random":
            if self.ratio is None or not (0.0 < self.ratio < 1.0):
                raise ValueError("random split requires ratio in (0, 1)")
        elif self.ratio is not None:
            raise ValueError(f"ratio only applies to random splits, not {self.kind}")
        if self.held_out_language is not None and self.kind != "lolo":
            raise ValueError("held_out_language only applies to lolo splits")


@dataclass
class ExperimentConfig:
    records: list[PerformanceRecord]
    grid: list[AnyParams]
    split: SplitSpec
    feature_groups: tuple[str, ...] = ("language", "dataset", "proxy")
    proxies: Sequence[str] | None = None
    repeats: int = 5
    cv_folds: int = 10
    seed: int = 0
    estimated_model: str | None = None
    dataset_features: dict[tuple[str, str], DatasetFeatureBlock] | None = None
    language_table: LanguageDistanceTable | None = None
    test_records: list[PerformanceRecord] | None = None

    def validate(self) -> None:
        if not self.grid:
            raise ValueError("config needs at least one hyperparameter candidate")
        kinds = {params_kind(p) for p in self.grid}
        if len(kinds) != 1:
            raise ValueError(f"grid mixes regressor kinds: {sorted(kinds)}")
        if not self.feature_groups:
            raise ValueError("at least one feature group must be enabled")
        for g in self.feature_groups:
            if g not in FEATURE_GROUPS:
                raise ValueError(f"unknown feature group {g!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.split.kind == "cross_dataset" and not self.test_records:
            raise ValueError("cross_dataset split requires test_records")


@dataclass
class ExperimentResult:
    per_repeat_rmse: list[float]
    mean_rmse: float
    std_rmse: float
    chosen_params: dict
    predictions: list[tuple[str, float, float]]  # (record_id, true, predicted)
    per_language_rmse: dict[str, float] | None = None
    importance: dict[str, float] | None = None
    cv_scores: dict = field(default_factory=dict)


def _filtered_records(config: ExperimentConfig) -> list[PerformanceRecord]:
    records = config.records
    if config.estimated_model is not None:
        records = [r for r in records if r.estimated_model == config.estimated_model]
    if not records:
        raise TooFewRecords("no records left after estimated_model filter")
    return records


def _split_units(config: ExperimentConfig, records, seed: int):
    """Each unit is (label, train_records, test_records); labels are LOLO languages."""
    kind = config.split.kind
    if kind == "random":
        train, test = split_random(records, config.split.ratio, seed)
        return [(None, train, test)]
    if kind == "lolo":
        splits = split_lolo(records)
        if config.split.held_out_language is not None:
            splits = [s for s in splits if s[0] == config.split.held_out_language]
            if not splits:
                raise TooFewLanguages(f"language {config.split.held_out_language!r} is not holdable")
        return splits
    if kind == "unseen":
        train, test = split_unseen(records)
        return [(None, train, test)]
    train, test = split_cross_dataset(records, config.test_records)
    return [(None, train, test)]


def _language_pairs(records) -> list[tuple[str, str]]:
    return [(rec.src_lang, rec.tgt_lang) for rec in records]


def _check_plan_languages(config: ExperimentConfig, plan) -> None:
    """Refuse, before any fit, a test side or CV fold the regressor could not predict from its training side."""
    for r, (seed_r, units) in enumerate(plan):
        for label, train_recs, test_recs in units:
            unit = f"repeat {r}" if label is None else f"repeat {r}, LOLO unit {label!r}"
            train_pairs = _language_pairs(train_recs)
            check_languages(config.grid[0], train_pairs, _language_pairs(test_recs), f"the test side of {unit}")
            if len(config.grid) == 1:
                continue
            folds = kfold_indices(len(train_pairs), config.cv_folds, seed_r)
            for i, fold in enumerate(folds):
                held = set(fold.tolist())
                check_languages(
                    config.grid[0],
                    [pair for j, pair in enumerate(train_pairs) if j not in held],
                    [train_pairs[j] for j in fold.tolist()],
                    f"CV fold {i} of {unit}",
                )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Repeat the full select-fit-evaluate protocol and aggregate test RMSE.

    Per repeat: derive the repeat seed, build the split, grid-search with
    k-fold CV on the training side (skipped when the grid has one candidate),
    refit on the full training side, and score the test side. LOLO pools the
    predictions of all per-language splits before computing the repeat RMSE.
    Every repeat's split units and CV folds are drawn, and checked for
    languages the regressor could not predict, before the first fit.
    """
    config.validate()
    records = _filtered_records(config)
    roster = sorted(config.proxies) if config.proxies is not None else proxy_roster(
        records + (config.test_records or [])
    )
    schema = build_schema(config.feature_groups, roster)

    per_repeat: list[float] = []
    final_predictions: list[tuple[str, float, float]] = []
    final_chosen: dict = {}
    final_per_lang: dict[str, float] | None = None
    final_gains: dict[str, float] = {}
    final_cv: dict = {}

    plan = [(config.seed + r, _split_units(config, records, config.seed + r)) for r in range(config.repeats)]
    _check_plan_languages(config, plan)

    for r, (seed_r, units) in enumerate(plan):
        all_pred: list[np.ndarray] = []
        all_true: list[np.ndarray] = []
        all_ids: list[str] = []
        chosen: dict = {}
        per_lang: dict[str, float] = {}
        gains: dict[str, float] = {}
        cv_scores: dict = {}

        for label, train_recs, test_recs in units:
            m_train = build_design_matrix(train_recs, schema, config.dataset_features, config.language_table)
            m_test = build_design_matrix(test_recs, schema, config.dataset_features, config.language_table)

            if len(config.grid) == 1:
                best = config.grid[0]
            else:
                cv = kfold_cv(m_train, config.cv_folds, config.grid, seed_r)
                best = cv.best_params
                cv_scores[label or "all"] = cv.scores
            model = fit_model(with_seed(best, seed_r), m_train)
            pred = predict_model(model, m_test)

            all_pred.append(pred)
            all_true.append(m_test.targets)
            all_ids.extend(m_test.row_ids)
            chosen[label or "all"] = _params_dict(best)
            if label is not None:
                per_lang[label] = rmse(pred, m_test.targets)
            if isinstance(model, GbtModel):
                for name, val in model.gain_totals.items():
                    gains[name] = gains.get(name, 0.0) + val

        pooled_pred = np.concatenate(all_pred)
        pooled_true = np.concatenate(all_true)
        per_repeat.append(rmse(pooled_pred, pooled_true))

        if r == config.repeats - 1:
            final_predictions = [
                (rid, float(t), float(p))
                for rid, t, p in zip(all_ids, pooled_true, pooled_pred)
            ]
            final_chosen = chosen
            final_per_lang = per_lang if config.split.kind == "lolo" else None
            final_gains = gains
            final_cv = cv_scores

    total_gain = sum(final_gains.values())
    importance = (
        {k: v / total_gain for k, v in sorted(final_gains.items())} if total_gain > 0 else None
    )
    return ExperimentResult(
        per_repeat_rmse=per_repeat,
        mean_rmse=float(np.mean(per_repeat)),
        std_rmse=float(np.std(per_repeat)),
        chosen_params=final_chosen,
        predictions=final_predictions,
        per_language_rmse=final_per_lang,
        importance=importance,
        cv_scores=final_cv,
    )


def _params_dict(params: AnyParams) -> dict:
    out = asdict(params)
    out["kind"] = params_kind(params)
    return out


def run_ablation(
    config: ExperimentConfig,
    group_sets: Sequence[Sequence[str]] | None = None,
) -> dict[tuple[str, ...], ExperimentResult]:
    """run_experiment once per feature-group subset, identical seeds throughout."""
    sets = tuple(tuple(s) for s in (group_sets if group_sets is not None else DEFAULT_ABLATION_SETS))
    for s in sets:
        if not s:
            raise ValueError("feature-group subsets must be non-empty")
    results: dict[tuple[str, ...], ExperimentResult] = {}
    for s in sets:
        results[s] = run_experiment(replace(config, feature_groups=s))
    return results
