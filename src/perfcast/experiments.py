"""Evaluation protocols: splits, cross-validated model selection, repeats.

Four split protocols (random 7:3, leave-one-language-out, seen/unseen,
cross-dataset), each returning index arrays into the records it is given,
k-fold grid search on the training side, and the repeated experiment driver
that reports mean and population standard deviation of the test RMSE over
`repeats` runs. The driver builds one design matrix per experiment; split
units and CV folds select rows of it. Repeat r derives its seed as
config.seed + r; that seed drives the split shuffle, the CV fold shuffle,
and the regressor's own randomness, so reruns with identical config are
bit-identical. The (repeat, split unit) jobs of an experiment run in up to
`workers` processes through perfcast.pool, and their results merge in plan
order, so the result is the same for every worker count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import NamedTuple, Sequence

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
from .pool import map_jobs
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
    gbt_gain_totals,
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
    # array_split gives the first n % k folds one index more than the rest
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


def kfold_cv(
    matrix: DesignMatrix,
    k: int,
    grid: Sequence[AnyParams],
    seed: int,
    *,
    folds: Sequence[np.ndarray] | None = None,
) -> CvResult:
    """Seeded k-fold grid search; ties break to the earlier grid point.

    folds, when given, are the folds kfold_indices(matrix.n, k, seed) draws,
    which the caller has drawn already.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if folds is None:
        folds = kfold_indices(matrix.n, k, seed)
    splits = [
        (matrix.subset(np.concatenate([folds[j] for j in range(k) if j != i])), matrix.subset(folds[i]))
        for i in range(k)
    ]

    scores: list[float] = []
    for params in grid:
        seeded = with_seed(params, seed)
        fold_rmse = [rmse(predict_model(fit_model(seeded, train), val), val.targets) for train, val in splits]
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
        check_protocol(self.grid, self)


def check_protocol(grid: Sequence[AnyParams], settings, group_sets: Sequence[Sequence[str]] = ()) -> None:
    """Raise ValueError naming the first setting of the protocol no experiment can run.

    settings is an ExperimentConfig or the CLI's config: its split,
    feature_groups, proxies, repeats, cv_folds and test_records are read;
    grid is the hyperparameter candidates, and group_sets an ablation's
    feature-group subsets. The library and the CLI refuse the same settings with the same
    message, which the CLI prints after the config path.
    """
    if not grid:
        raise ValueError("grid: needs at least one hyperparameter set")
    kinds = sorted({params_kind(p) for p in grid})
    if len(kinds) > 1:
        raise ValueError(f"grid: mixes regressor kinds {kinds}")
    if not settings.feature_groups:
        raise ValueError("feature_groups: at least one feature group must be enabled")
    for where, subset in [("feature_groups", settings.feature_groups),
                          *((f"group_sets[{i}]", s) for i, s in enumerate(group_sets))]:
        if not subset:
            raise ValueError(f"{where}: feature-group subsets must be non-empty")
        for group in subset:
            if group not in FEATURE_GROUPS:
                raise ValueError(f"{where}: unknown feature group {group!r}")
        if "proxy" in subset and settings.proxies is not None and not settings.proxies:
            raise ValueError(f"{where}: the proxy group is enabled, but 'proxies' is empty")
    if settings.repeats < 1:
        raise ValueError(f"'repeats' must be >= 1, not {settings.repeats!r}")
    if settings.cv_folds < 2:
        raise ValueError(f"'cv_folds' must be >= 2, not {settings.cv_folds!r}")
    if settings.split.kind == "cross_dataset" and not settings.test_records:
        raise ValueError("a cross_dataset split needs 'test_records'")


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


class _UnitResult(NamedTuple):
    """What one (repeat, split unit) job hands back to the merge."""

    predictions: np.ndarray  # of the unit's test side, in its index order
    params: dict  # the chosen grid point, as _params_dict gives it
    unit_rmse: float | None  # the unit's test RMSE, for a LOLO unit
    gains: dict[str, float]  # GBT gain totals per feature; empty for other kinds
    cv_scores: list[float] | None  # None when the grid has one point


def _plan(config: ExperimentConfig, records) -> list[tuple[int, list]]:
    """(repeat seed, split units) per repeat; a unit is (label, train indices, test indices) into the matrix.

    Labels are LOLO languages. Only a random split reads the seed, so every
    other kind draws its units once and all repeats share them.
    """
    seeds = [config.seed + r for r in range(config.repeats)]
    kind = config.split.kind
    if kind == "random":
        return [(seed, [(None, *split_random(records, config.split.ratio, seed))]) for seed in seeds]
    if kind == "lolo":
        units = split_lolo(records)
        if config.split.held_out_language is not None:
            units = [u for u in units if u[0] == config.split.held_out_language]
            if not units:
                raise TooFewLanguages(f"language {config.split.held_out_language!r} is not holdable")
    elif kind == "unseen":
        units = [(None, *split_unseen(records))]
    else:
        units = [(None, *split_cross_dataset(records, config.test_records))]
    return [(seed, units) for seed in seeds]


def _jobs(config: ExperimentConfig, matrix: DesignMatrix, plan) -> list:
    """One (repeat seed, label, train, test, CV folds) job per (repeat, split unit), in plan order.

    The CV folds, index arrays into train, are drawn here once when the grid
    has several points, and are None when it has one. Every test side and
    CV fold the regressor could not predict from its training side is
    refused here, before any fit.
    """
    def pairs(idx):
        return [matrix.languages[j] for j in idx]

    jobs = []
    for r, (seed_r, units) in enumerate(plan):
        for label, train, test in units:
            unit = f"repeat {r}" if label is None else f"repeat {r}, LOLO unit {label!r}"
            check_languages(config.grid[0], pairs(train), pairs(test), f"the test side of {unit}")
            folds = None
            if len(config.grid) > 1:
                folds = kfold_indices(len(train), config.cv_folds, seed_r)
                for i, fold in enumerate(folds):
                    check_languages(config.grid[0], pairs(np.delete(train, fold)), pairs(train[fold]),
                                    f"CV fold {i} of {unit}")
            jobs.append((seed_r, label, train, test, folds))
    return jobs


def _run_unit(grid: list[AnyParams], matrix: DesignMatrix, job) -> _UnitResult:
    """One (repeat seed, label, train, test, CV folds) job: CV when there are folds, the refit, the test predict."""
    seed, label, train, test, folds = job
    m_train, m_test = matrix.subset(train), matrix.subset(test)
    scores = None
    if folds is None:
        best = grid[0]
    else:
        cv = kfold_cv(m_train, len(folds), grid, seed, folds=folds)
        best, scores = cv.best_params, cv.scores
    model = fit_model(with_seed(best, seed), m_train)
    pred = predict_model(model, m_test)
    return _UnitResult(
        predictions=pred,
        params=_params_dict(best),
        unit_rmse=rmse(pred, m_test.targets) if label is not None else None,
        gains=gbt_gain_totals(model) if isinstance(model, GbtModel) else {},
        cv_scores=scores,
    )


def run_experiment(config: ExperimentConfig, workers: int = 0) -> ExperimentResult:
    """Repeat the full select-fit-evaluate protocol and aggregate test RMSE.

    One design matrix holds the filtered records, followed by test_records
    under a cross-dataset split; every split unit and CV fold is an index
    array into it. Every repeat's split units and CV folds are drawn, and
    checked for languages the regressor could not predict, before the first
    fit; split units that do not read the seed (all but a random split's)
    are drawn once and shared by the repeats, and each unit's CV folds are
    drawn once per repeat, for the check and the CV. Each (repeat, split unit) is
    one job: grid search with k-fold CV on the training side (skipped when
    the grid has one candidate), refit on the full training side with the
    repeat seed, and predict the test side.

    The jobs run in `workers` processes (0: one per CPU this process may run
    on; never more than there are jobs): the caller and the forked workers
    of perfcast.pool. Their results merge in plan order, so the result is the
    same, repr for repr, for every `workers` value, and so is the error
    raised when a job fails. LOLO pools the predictions of all per-language
    units before computing the repeat RMSE, each record once: a record on
    the test side of several units (a many-to-many record whose source and
    target are both holdable) keeps its prediction from the first unit in
    sorted-language order. Every field but per_repeat_rmse, mean_rmse and
    std_rmse describes the last repeat.
    """
    config.validate()
    records = _filtered_records(config)
    plan = _plan(config, records)
    rows = records + config.test_records if config.split.kind == "cross_dataset" else records
    roster = sorted(config.proxies) if config.proxies is not None else proxy_roster(rows)
    matrix = build_design_matrix(
        rows, build_schema(config.feature_groups, roster), config.dataset_features, config.language_table,
    )
    jobs = _jobs(config, matrix, plan)
    results = iter(map_jobs(partial(_run_unit, config.grid, matrix), jobs, workers))

    per_repeat: list[float] = []
    for _, units in plan:
        outs = [next(results) for _ in units]
        # each record once, from the first unit whose test side holds it
        pooled = np.concatenate([test for _, _, test in units])
        first = np.sort(np.unique(pooled, return_index=True)[1])
        pooled, pooled_pred = pooled[first], np.concatenate([out.predictions for out in outs])[first]
        per_repeat.append(rmse(pooled_pred, matrix.targets[pooled]))

    # every field below describes the last repeat, whose units and outs the loop left
    keys = [label or "all" for label, _, _ in units]
    gains: dict[str, float] = {}
    for out in outs:
        for name, val in out.gains.items():
            gains[name] = gains.get(name, 0.0) + val
    total_gain = sum(gains.values())
    importance = (
        {k: v / total_gain for k, v in sorted(gains.items())} if total_gain > 0 else None
    )
    return ExperimentResult(
        per_repeat_rmse=per_repeat,
        mean_rmse=float(np.mean(per_repeat)),
        std_rmse=float(np.std(per_repeat)),
        chosen_params={key: out.params for key, out in zip(keys, outs)},
        predictions=[(matrix.row_ids[i], float(matrix.targets[i]), float(p)) for i, p in zip(pooled, pooled_pred)],
        per_language_rmse={label: out.unit_rmse for (label, _, _), out in zip(units, outs) if label is not None} or None,
        importance=importance,
        cv_scores={key: out.cv_scores for key, out in zip(keys, outs) if out.cv_scores is not None},
    )


def _params_dict(params: AnyParams) -> dict:
    """The grid point's settings and kind; not its seed, which with_seed replaces on every fit."""
    out = asdict(params)
    out.pop("seed", None)
    out["kind"] = params_kind(params)
    return out


def run_ablation(
    config: ExperimentConfig,
    group_sets: Sequence[Sequence[str]] | None = None,
    workers: int = 0,
) -> dict[tuple[str, ...], ExperimentResult]:
    """run_experiment once per feature-group subset, identical seeds and `workers` throughout.

    Every subset is checked, with the rest of the config, before the first fit.
    """
    sets = tuple(tuple(s) for s in (group_sets if group_sets is not None else DEFAULT_ABLATION_SETS))
    check_protocol(config.grid, config, sets)
    return {s: run_experiment(replace(config, feature_groups=s), workers) for s in sets}
