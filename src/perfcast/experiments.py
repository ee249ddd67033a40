"""Evaluation protocols: splits, cross-validated model selection, repeats.

Four split protocols (random 7:3, leave-one-language-out, seen/unseen,
cross-dataset), each returning index arrays into the records it is given,
k-fold grid search on the training side, and the repeated experiment driver
that reports mean and population standard deviation of the test RMSE over
`repeats` runs. The driver builds one design matrix per experiment; split
units and CV folds select rows of it. Repeat r derives its seed as
config.seed + r; that seed drives the split shuffle, the CV fold shuffle,
and the regressor's own randomness, so reruns with identical config are
bit-identical.
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
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle of the indices; train takes the first floor(ratio * n)."""
    n = len(records)
    if n < 2:
        raise TooFewRecords(f"need >= 2 records, got {n}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio {ratio} outside (0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    # tiny epsilon so float products like 0.7 * 90 floor to the exact value
    n_train = int(math.floor(ratio * n + 1e-9))
    return perm[:n_train], perm[n_train:]


def split_lolo(
    records: Sequence[PerformanceRecord],
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """One (language, train indices, test indices) split per holdable language.

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
        held = np.array([lang in (r.src_lang, r.tgt_lang) for r in records])
        splits.append((lang, np.flatnonzero(~held), np.flatnonzero(held)))
    return splits


def split_unseen(records: Sequence[PerformanceRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Train on the indices of records the estimated model has seen, test on the rest."""
    seen = np.array([r.seen_by_estimated_model for r in records], dtype=bool)
    if seen.all() or not seen.any():
        raise DegenerateSplit("unseen split needs both seen and unseen records")
    return np.flatnonzero(seen), np.flatnonzero(~seen)


def split_cross_dataset(
    train_records: Sequence[PerformanceRecord],
    test_records: Sequence[PerformanceRecord],
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of each side into train_records + test_records, once the two are schema-compatible."""
    if not train_records or not test_records:
        raise TooFewRecords("cross-dataset split needs non-empty train and test record lists")
    roster_train = proxy_roster(train_records)
    roster_test = proxy_roster(test_records)
    if roster_train != roster_test:
        raise SchemaMismatch(
            f"proxy rosters differ: {roster_train} vs {roster_test}"
        )
    n = len(train_records)
    return np.arange(n, dtype=np.intp), np.arange(n, n + len(test_records), dtype=np.intp)


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
    """Each unit is (label, train indices, test indices) into the experiment's matrix; labels are LOLO languages."""
    kind = config.split.kind
    if kind == "random":
        return [(None, *split_random(records, config.split.ratio, seed))]
    if kind == "lolo":
        splits = split_lolo(records)
        if config.split.held_out_language is not None:
            splits = [s for s in splits if s[0] == config.split.held_out_language]
            if not splits:
                raise TooFewLanguages(f"language {config.split.held_out_language!r} is not holdable")
        return splits
    if kind == "unseen":
        return [(None, *split_unseen(records))]
    return [(None, *split_cross_dataset(records, config.test_records))]


def _check_plan_languages(config: ExperimentConfig, matrix: DesignMatrix, plan) -> None:
    """Refuse, before any fit, a test side or CV fold the regressor could not predict from its training side."""
    def pairs(idx):
        return [matrix.languages[j] for j in idx]

    for r, (seed_r, units) in enumerate(plan):
        for label, train, test in units:
            unit = f"repeat {r}" if label is None else f"repeat {r}, LOLO unit {label!r}"
            check_languages(config.grid[0], pairs(train), pairs(test), f"the test side of {unit}")
            if len(config.grid) == 1:
                continue
            for i, fold in enumerate(kfold_indices(len(train), config.cv_folds, seed_r)):
                check_languages(config.grid[0], pairs(np.delete(train, fold)), pairs(train[fold]), f"CV fold {i} of {unit}")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Repeat the full select-fit-evaluate protocol and aggregate test RMSE.

    One design matrix holds the filtered records, followed by test_records
    under a cross-dataset split; every split unit and CV fold is an index
    array into it. Per repeat: derive the repeat seed, build the split,
    grid-search with k-fold CV on the training side (skipped when the grid
    has one candidate), refit on the full training side, and score the test
    side. LOLO pools the predictions of all per-language splits before
    computing the repeat RMSE, each record once: a record on the test side
    of several units (a many-to-many record whose source and target are both
    holdable) keeps its prediction from the first unit in sorted-language
    order. Every repeat's split units and CV folds are drawn, and checked
    for languages the regressor could not predict, before the first fit.
    """
    config.validate()
    records = _filtered_records(config)
    test_records = config.test_records or []
    roster = sorted(config.proxies) if config.proxies is not None else proxy_roster(records + test_records)
    plan = [(config.seed + r, _split_units(config, records, config.seed + r)) for r in range(config.repeats)]
    matrix = build_design_matrix(
        records + test_records if config.split.kind == "cross_dataset" else records,
        build_schema(config.feature_groups, roster), config.dataset_features, config.language_table,
    )
    _check_plan_languages(config, matrix, plan)

    per_repeat: list[float] = []
    for seed_r, units in plan:
        tested: list[np.ndarray] = []
        predicted: list[np.ndarray] = []
        chosen: dict = {}
        per_lang: dict[str, float] = {}
        gains: dict[str, float] = {}
        cv_scores: dict = {}

        for label, train, test in units:
            m_train, m_test = matrix.subset(train), matrix.subset(test)
            if len(config.grid) == 1:
                best = config.grid[0]
            else:
                cv = kfold_cv(m_train, config.cv_folds, config.grid, seed_r)
                best = cv.best_params
                cv_scores[label or "all"] = cv.scores
            model = fit_model(with_seed(best, seed_r), m_train)
            pred = predict_model(model, m_test)

            tested.append(test)
            predicted.append(pred)
            chosen[label or "all"] = _params_dict(best)
            if label is not None:
                per_lang[label] = rmse(pred, m_test.targets)
            if isinstance(model, GbtModel):
                for name, val in model.gain_totals.items():
                    gains[name] = gains.get(name, 0.0) + val

        # each record once, from the first unit whose test side holds it
        pooled = np.concatenate(tested)
        first = np.sort(np.unique(pooled, return_index=True)[1])
        pooled, pooled_pred = pooled[first], np.concatenate(predicted)[first]
        per_repeat.append(rmse(pooled_pred, matrix.targets[pooled]))

    total_gain = sum(gains.values())
    importance = (
        {k: v / total_gain for k, v in sorted(gains.items())} if total_gain > 0 else None
    )
    return ExperimentResult(
        per_repeat_rmse=per_repeat,
        mean_rmse=float(np.mean(per_repeat)),
        std_rmse=float(np.std(per_repeat)),
        chosen_params=chosen,
        predictions=[(matrix.row_ids[i], float(matrix.targets[i]), float(p)) for i, p in zip(pooled, pooled_pred)],
        per_language_rmse=per_lang or None,
        importance=importance,
        cv_scores=cv_scores,
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
