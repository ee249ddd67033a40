import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfcast.errors
from perfcast import pool
from perfcast.errors import (
    DegenerateSplit,
    EmptyInput,
    EmptyTrainingSet,
    LengthMismatch,
    PerfcastError,
    SchemaMismatch,
    TooFewLanguages,
    TooFewRecords,
    UnknownLanguage,
)
from perfcast.experiments import (
    DEFAULT_ABLATION_SETS,
    ExperimentConfig,
    SplitSpec,
    kfold_cv,
    rmse,
    run_ablation,
    run_experiment,
    split_cross_dataset,
    split_lolo,
    split_random,
    split_unseen,
)
import perfcast.experiments
from perfcast.records import PerformanceRecord, build_design_matrix, build_schema, proxy_roster
from perfcast.regressors import GbtParams, MfParams, PolyParams, get_preset

from conftest import LANGS, make_language_table, synthetic_setup
from oracles import oracle_kfold_cv, oracle_rmse, oracle_run_experiment
from test_gbt import matrix_from


def ids(records):
    return sorted(r.record_id for r in records)


def picked(records, idx):
    """The records an index array selects, in its order."""
    return [records[i] for i in idx]


class TestSplitRandom:
    def test_floor_rule(self):
        records, _, _ = synthetic_setup(10, seed=0)
        train, test = split_random(records, 0.7, seed=1)
        assert (len(train), len(test)) == (7, 3)

    def test_partition(self):
        records, _, _ = synthetic_setup(25, seed=1)
        train, test = (picked(records, idx) for idx in split_random(records, 0.7, seed=2))
        assert ids(train + test) == ids(records)
        assert not set(ids(train)) & set(ids(test))

    def test_same_seed_reproducible(self):
        records, _, _ = synthetic_setup(20, seed=2)
        a = picked(records, split_random(records, 0.7, seed=5)[0])
        b = picked(records, split_random(records, 0.7, seed=5)[0])
        assert ids(a) == ids(b) and [r.record_id for r in a] == [r.record_id for r in b]

    def test_different_seeds_differ(self):
        records, _, _ = synthetic_setup(12, seed=3)
        trains = {tuple(r.record_id for r in picked(records, split_random(records, 0.7, seed=s)[0])) for s in range(20)}
        assert len(trains) > 1

    def test_too_few(self):
        records, _, _ = synthetic_setup(1, seed=4)
        with pytest.raises(TooFewRecords):
            split_random(records, 0.7, seed=0)

    def test_bad_ratio(self):
        records, _, _ = synthetic_setup(5, seed=5)
        for ratio in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                split_random(records, ratio, seed=0)

    def test_float_floor_guard(self):
        # 0.7 * 90 rounds below 63.0 in float arithmetic; floor must still be 63
        records, _, _ = synthetic_setup(90, seed=6)
        train, _ = split_random(records, 0.7, seed=0)
        assert len(train) == 63


class TestSplitLolo:
    def test_one_split_per_language(self):
        records, _, _ = synthetic_setup(12, seed=0, languages=("aar", "bel", "ces"))
        splits = split_lolo(records)
        assert [s[0] for s in splits] == ["aar", "bel", "ces"]

    def test_membership_property(self):
        records, _, _ = synthetic_setup(20, seed=1)
        for lang, train_idx, test_idx in split_lolo(records):
            train, test = picked(records, train_idx), picked(records, test_idx)
            assert all(lang in (r.src_lang, r.tgt_lang) for r in test)
            assert all(lang not in (r.src_lang, r.tgt_lang) for r in train)
            assert ids(train + test) == ids(records)

    def test_english_not_held_out_in_english_centric(self):
        records, _, _ = synthetic_setup(10, seed=2)
        assert all(r.src_lang == "eng" for r in records)
        assert "eng" not in [s[0] for s in split_lolo(records)]

    def test_intent_style_51_languages(self):
        langs = [f"l{i:02d}" for i in range(50)] + ["eng"]
        records = [
            PerformanceRecord(
                record_id=f"r{i}", task="intent", estimated_model="m", train_dataset="tr",
                test_dataset="te", src_lang=lang, tgt_lang=lang, metric_name="accuracy",
                score=0.5, proxy_scores={"p0": 0.4},
            )
            for i, lang in enumerate(langs)
        ]
        splits = split_lolo(records)
        assert len(splits) == 51
        assert "eng" in [s[0] for s in splits]

    def test_too_few_languages(self):
        records, _, _ = synthetic_setup(4, seed=3, languages=("aar",))
        with pytest.raises(TooFewLanguages):
            split_lolo(records)


class TestSplitUnseen:
    def test_partition_by_flag(self):
        records, _, _ = synthetic_setup(30, seed=4)
        train, test = (picked(records, idx) for idx in split_unseen(records))
        assert all(r.seen_by_estimated_model for r in train)
        assert all(not r.seen_by_estimated_model for r in test)
        assert ids(train + test) == ids(records)

    def test_all_seen_degenerate(self):
        records, _, _ = synthetic_setup(5, seed=5)
        flipped = [PerformanceRecord(**{**r.__dict__, "seen_by_estimated_model": True}) for r in records]
        with pytest.raises(DegenerateSplit):
            split_unseen(flipped)

    def test_flag_flip_swaps_sides(self):
        records, _, _ = synthetic_setup(30, seed=6)
        train, test = (picked(records, idx) for idx in split_unseen(records))
        flipped = [
            PerformanceRecord(**{**r.__dict__, "seen_by_estimated_model": not r.seen_by_estimated_model})
            for r in records
        ]
        train_f, test_f = (picked(flipped, idx) for idx in split_unseen(flipped))
        assert ids(train) == ids(test_f)
        assert ids(test) == ids(train_f)


class TestSplitCrossDataset:
    def test_passthrough_sizes(self):
        a, _, _ = synthetic_setup(19, seed=7)
        b, _, _ = synthetic_setup(8, seed=8)
        b = [PerformanceRecord(**{**r.__dict__, "record_id": "x" + r.record_id}) for r in b]
        train, test = (picked(a + b, idx) for idx in split_cross_dataset(a, b))
        assert (len(train), len(test)) == (19, 8)
        assert ids(train) == ids(a) and ids(test) == ids(b)

    def test_roster_mismatch(self):
        a, _, _ = synthetic_setup(5, seed=9, n_proxies=2)
        b, _, _ = synthetic_setup(5, seed=10, n_proxies=1)
        with pytest.raises(SchemaMismatch):
            split_cross_dataset(a, b)

    def test_empty_side(self):
        a, _, _ = synthetic_setup(5, seed=11)
        with pytest.raises(TooFewRecords):
            split_cross_dataset(a, [])
        with pytest.raises(TooFewRecords):
            split_cross_dataset([], a)


def test_splits_return_index_arrays():
    records, _, _ = synthetic_setup(20, seed=1)
    sides = [*split_random(records, 0.7, seed=0), *split_unseen(records), *split_cross_dataset(records, records),
             *split_lolo(records)[0][1:]]
    assert all(isinstance(side, np.ndarray) and side.dtype == np.intp for side in sides)


class TestKfold:
    def test_even_fold_sizes(self):
        rng = np.random.default_rng(0)
        m = matrix_from(rng.normal(size=(100, 2)), rng.normal(size=100))
        result = kfold_cv(m, 10, [PolyParams(degree=1, alpha=0.0)], seed=0)
        assert result.best_index == 0

    def test_fold_size_balance_and_partition(self):
        # reach into the same fold construction via a rigged 2-point grid run
        rng = np.random.default_rng(1)
        for n, k, expected in ((100, 10, [10] * 10), (23, 10, [3, 3, 3, 2, 2, 2, 2, 2, 2, 2])):
            perm = np.random.default_rng(42).permutation(n)
            base, extra = divmod(n, k)
            sizes = [base + (1 if i < extra else 0) for i in range(k)]
            assert sizes == expected
            assert sum(sizes) == n

    def test_rigged_grid_selected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        y = 3.0 * X[:, 0] - 1.0 * X[:, 1] + 2.0  # noiseless linear
        m = matrix_from(X, y)
        grid = [
            PolyParams(degree=1, alpha=1e6),  # shrinks everything, large error
            PolyParams(degree=1, alpha=0.0, max_iterations=20000, tolerance=1e-13),
        ]
        result = kfold_cv(m, 10, grid, seed=3)
        assert result.best_index == 1
        assert result.scores[1] < 1e-6 < result.scores[0]

    def test_tie_breaks_to_first(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 1))
        y = np.full(20, 5.0)
        params = PolyParams(degree=1, alpha=0.1)
        result = kfold_cv(matrix_from(X, y), 4, [params, params], seed=0)
        assert result.best_index == 0
        assert result.scores[0] == result.scores[1]

    def test_seed_set_once_per_grid_point(self, monkeypatch):
        rng = np.random.default_rng(5)
        m = matrix_from(rng.normal(size=(24, 2)), rng.normal(size=24))
        grid = [GbtParams(n_estimators=2, max_depth=2), GbtParams(n_estimators=3, max_depth=1)]
        seeded, fitted = [], []
        with_seed, fit = perfcast.experiments.with_seed, perfcast.experiments.fit_model
        monkeypatch.setattr(perfcast.experiments, "with_seed", lambda *a: seeded.append(a) or with_seed(*a))
        monkeypatch.setattr(perfcast.experiments, "fit_model", lambda p, t: fitted.append(p) or fit(p, t))
        kfold_cv(m, 4, grid, seed=7)
        assert seeded == [(grid[0], 7), (grid[1], 7)]
        assert fitted == [replace(grid[0], seed=7), replace(grid[1], seed=7)] * 4  # fold by fold

    def test_too_few_records(self):
        rng = np.random.default_rng(4)
        m = matrix_from(rng.normal(size=(5, 1)), rng.normal(size=5))
        with pytest.raises(TooFewRecords):
            kfold_cv(m, 10, [PolyParams(degree=1)], seed=0)


def counting_fits(monkeypatch):
    """The params of every fit_model call perfcast.experiments makes from now on, in call order."""
    fitted, fit = [], perfcast.experiments.fit_model
    monkeypatch.setattr(perfcast.experiments, "fit_model", lambda p, m: fitted.append(p) or fit(p, m))
    return fitted


def shallow_gbt_matrix():
    """40 rows, a tenth of their cells missing.

    Under min_child_samples=8 a node needs 16 rows to split, so a tree fitted
    on a CV fold's training side stops by depth 2.
    """
    rng = np.random.default_rng(8)
    return matrix_from(rng.normal(size=(40, 3)), rng.normal(size=40), rng.uniform(size=(40, 3)) < 0.1)


class TestSharedFits:
    """kfold_cv reads a grid point off the previous point's model on the same fold when fitted_from can."""

    def test_lolo_gbt_cv_shape_makes_15_fits_not_25(self, monkeypatch):
        # 5 LOLO units x (2 folds x 1 fit + the refit): the depth-3 point is read off each depth-5 CV fit
        records, blocks, table = synthetic_setup(100, seed=3, n_proxies=2)
        base = replace(get_preset("mt_english_m2m100"), n_estimators=2)
        config = ExperimentConfig(records=records, grid=[base, replace(base, max_depth=3)], split=SplitSpec("lolo"),
                                  repeats=1, cv_folds=2, seed=3, dataset_features=blocks, language_table=table)
        expected = oracle_run_experiment(config)
        fitted = counting_fits(monkeypatch)
        got = run_experiment(config, workers=1)
        assert len(fitted) == 15
        assert {p.max_depth for p in fitted} == {5}
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("growth, between, fits", [
        ("depth_wise", [], 3), ("leaf_wise", [], 6), ("depth_wise", [dict(eta=0.2)], 9),
    ])
    def test_only_depth_wise_shares_and_only_with_the_point_before(self, monkeypatch, growth, between, fits):
        m = shallow_gbt_matrix()
        base = GbtParams(n_estimators=3, max_depth=6, min_child_samples=8, growth=growth,
                         num_leaves=4 if growth == "leaf_wise" else None)
        grid = [base] + [replace(base, **kw) for kw in between] + [replace(base, max_depth=4)]
        expected = oracle_kfold_cv(m, 3, grid, seed=1)
        fitted = counting_fits(monkeypatch)
        assert repr(kfold_cv(m, 3, grid, seed=1)) == repr(expected)
        assert len(fitted) == fits


@st.composite
def cv_cases(draw, regressor):
    """(matrix, k, grid, seed) for kfold_cv: grids that repeat points and, for GBT, vary max_depth and more.

    The draws come from a numpy generator seeded by hypothesis. GBT matrices
    have missing cells, and their floors let trees stop short of the cap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if regressor == "mf":
        records = many_to_many_records(LANGS[:int(rng.integers(3, 5))], int(rng.integers(3, 5)), int(rng.integers(99)))
        matrix = build_design_matrix(records, build_schema(("proxy",), proxy_roster(records)))
        base = MfParams(latent_dim=int(rng.integers(1, 3)), iterations=int(rng.integers(2, 8)))
        points = [base, replace(base, alpha=0.02), replace(base, iterations=base.iterations + 1)]
    else:
        n, d = int(rng.integers(12, 41)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        X[:, 0] = rng.choice([-1.0, 0.0, 2.0], n)  # tied values
        matrix = matrix_from(X, rng.normal(scale=3.0, size=n), rng.uniform(size=(n, d)) < 0.15)
        if regressor == "poly":
            base = PolyParams(degree=int(rng.integers(1, 3)), alpha=float(rng.choice([0.01, 0.1, 1.0])),
                              max_iterations=30)
            points = [base, replace(base, alpha=base.alpha * 10), replace(base, degree=3 - base.degree)]
        else:
            growth = str(rng.choice(["depth_wise", "leaf_wise"]))
            base = GbtParams(
                n_estimators=int(rng.integers(1, 5)), eta=0.3, min_child_samples=int(rng.choice([1, 2, 4, 8])),
                growth=growth, subsample=float(rng.choice([0.6, 1.0])), colsample_bytree=float(rng.choice([0.5, 1.0])),
                num_leaves=int(rng.integers(2, 9)) if growth == "leaf_wise" else None,
            )
            points = [replace(base, max_depth=int(depth)) for depth in rng.integers(1, 7, size=3)]
            points += [replace(points[0], n_estimators=base.n_estimators + 1), replace(points[0], reg_lambda=0.5)]
    grid = [points[i] for i in rng.integers(len(points), size=int(rng.integers(1, 6)))]
    return matrix, int(rng.integers(2, 5)), grid, int(rng.integers(0, 100))


class TestKfoldMatchesOracle:
    """kfold_cv against the grid-major search that fits every grid point on every fold."""

    @pytest.mark.parametrize("regressor", ["gbt", "poly", "mf"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_result(self, regressor, data):
        matrix, k, grid, seed = data.draw(cv_cases(regressor))
        assert repr(kfold_cv(matrix, k, grid, seed)) == repr(oracle_kfold_cv(matrix, k, grid, seed))


class TestMetrics:
    def test_rmse_trivials(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-15)

    def test_rmse_oracle(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=100)
        t = rng.normal(size=100)
        assert rmse(p, t) == pytest.approx(oracle_rmse(p, t), abs=1e-12)

    def test_rmse_errors(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(EmptyInput):
            rmse([], [])


def many_to_many_records(langs, per_pair, seed):
    """per_pair records for every ordered pair of distinct languages, with one proxy score."""
    rng = np.random.default_rng(seed)
    records = []
    for src in langs:
        for tgt in langs:
            if src == tgt:
                continue
            for _ in range(per_pair):
                records.append(PerformanceRecord(
                    record_id=f"m{len(records)}", task="mt", estimated_model="m", train_dataset="tr",
                    test_dataset="te", src_lang=src, tgt_lang=tgt, metric_name="synthetic",
                    score=float(10 + rng.normal()), proxy_scores={"p0": float(rng.uniform())},
                    corpus_group="many_to_many",
                ))
    return records


def poly_config(records, split, grid=None, **kw):
    return ExperimentConfig(
        records=records,
        grid=grid or [PolyParams(degree=1, alpha=0.0, max_iterations=20000, tolerance=1e-13)],
        split=split,
        feature_groups=("proxy",),
        **kw,
    )


class TestRunExperiment:
    def test_noiseless_proxy_recovered(self):
        records, _, _ = synthetic_setup(40, seed=0, dataset_coef=0.0, noise=0.0)
        config = poly_config(records, SplitSpec("random", ratio=0.7), repeats=3, seed=1)
        result = run_experiment(config)
        assert result.mean_rmse < 1e-6
        assert len(result.per_repeat_rmse) == 3

    def test_default_five_repeats(self):
        records, _, _ = synthetic_setup(30, seed=1)
        result = run_experiment(poly_config(records, SplitSpec("random", ratio=0.7), seed=2))
        assert len(result.per_repeat_rmse) == 5

    def test_mean_and_std_consistent(self):
        records, _, _ = synthetic_setup(30, seed=2)
        result = run_experiment(poly_config(records, SplitSpec("random", ratio=0.7), seed=3))
        assert result.mean_rmse == pytest.approx(float(np.mean(result.per_repeat_rmse)), abs=1e-12)
        assert result.std_rmse == pytest.approx(float(np.std(result.per_repeat_rmse)), abs=1e-12)

    def test_deterministic(self):
        records, blocks, table = synthetic_setup(36, seed=3)
        config = ExperimentConfig(
            records=records,
            grid=[GbtParams(n_estimators=8, max_depth=2, subsample=0.8, eta=0.3)],
            split=SplitSpec("random", ratio=0.7),
            feature_groups=("language", "dataset", "proxy"),
            repeats=2,
            seed=7,
            dataset_features=blocks,
            language_table=table,
        )
        r1 = run_experiment(config)
        r2 = run_experiment(config)
        assert r1.per_repeat_rmse == r2.per_repeat_rmse
        assert r1.predictions == r2.predictions

    def test_split_membership_independent_of_features(self):
        records, blocks, table = synthetic_setup(30, seed=4)
        base = dict(split=SplitSpec("random", ratio=0.7), repeats=1, seed=11,
                    dataset_features=blocks, language_table=table)
        grid = [PolyParams(degree=1, alpha=0.1)]
        small = run_experiment(ExperimentConfig(records=records, grid=grid,
                                                feature_groups=("proxy",), **base))
        large = run_experiment(ExperimentConfig(records=records, grid=grid,
                                                feature_groups=("language", "dataset", "proxy"), **base))
        assert sorted(p[0] for p in small.predictions) == sorted(p[0] for p in large.predictions)

    def test_lolo_pools_predictions(self):
        records, _, _ = synthetic_setup(24, seed=5, languages=("aar", "bel", "ces"))
        config = poly_config(records, SplitSpec("lolo"), repeats=1, seed=0)
        result = run_experiment(config)
        assert sorted(p[0] for p in result.predictions) == ids(records)
        assert set(result.per_language_rmse) == {"aar", "bel", "ces"}

    def test_lolo_scores_many_to_many_record_once(self):
        # with four holdable languages every record sits on the test side of two LOLO units
        records = many_to_many_records(("aar", "bel", "ces", "dan"), per_pair=3, seed=0)
        result = run_experiment(poly_config(records, SplitSpec("lolo"), repeats=1, seed=0))
        got = [p[0] for p in result.predictions]
        assert len(records) == 36 and len(got) == len(set(got)) == 36
        assert sorted(got) == ids(records)
        true = [p[1] for p in result.predictions]
        assert result.per_repeat_rmse == [rmse([p[2] for p in result.predictions], true)]
        assert set(result.per_language_rmse) == {"aar", "bel", "ces", "dan"}

    def test_lolo_single_language_restriction(self):
        records, _, _ = synthetic_setup(24, seed=6, languages=("aar", "bel", "ces"))
        config = poly_config(records, SplitSpec("lolo", held_out_language="bel"), repeats=1, seed=0)
        result = run_experiment(config)
        assert set(result.per_language_rmse) == {"bel"}

    def test_estimated_model_filter(self):
        records, _, _ = synthetic_setup(20, seed=7)
        config = poly_config(records, SplitSpec("random", ratio=0.7), repeats=1,
                             estimated_model="no-such-model")
        with pytest.raises(TooFewRecords):
            run_experiment(config)

    def test_grid_search_inside_experiment(self):
        records, _, _ = synthetic_setup(40, seed=8, dataset_coef=0.0, noise=0.0)
        grid = [
            PolyParams(degree=1, alpha=1e6),
            PolyParams(degree=1, alpha=0.0, max_iterations=20000, tolerance=1e-13),
        ]
        config = poly_config(records, SplitSpec("random", ratio=0.7), grid=grid, repeats=1, seed=2)
        result = run_experiment(config)
        assert result.chosen_params["all"]["alpha"] == 0.0
        assert result.mean_rmse < 1e-6

    def test_mf_many_to_many(self):
        records = many_to_many_records(("aar", "bel", "ces", "dan"), per_pair=3, seed=9)
        grid = [MfParams(latent_dim=2, alpha=0.02, beta_w=0.01, beta_h=0.01, beta_z=0.01,
                         beta_s=0.01, beta_t=0.01, iterations=200)]
        config = ExperimentConfig(records=records, grid=grid,
                                  split=SplitSpec("random", ratio=0.7),
                                  feature_groups=("proxy",), repeats=1, seed=3)
        result = run_experiment(config)
        assert result.mean_rmse < 5.0

    @staticmethod
    def lone_source_config(grid, seed, monkeypatch, **kw):
        """Records in which one only has the source "dan": the split unit or CV fold scoring it trains without it."""
        records = many_to_many_records(("aar", "bel", "ces", "dan"), per_pair=3, seed=0)
        lone = next(r for r in records if r.src_lang == "dan")
        records = [r for r in records if r.src_lang != "dan" or r is lone]
        monkeypatch.setattr(perfcast.experiments, "fit_model", lambda *a: pytest.fail("a fit started"))
        return ExperimentConfig(records=records, grid=grid, split=SplitSpec("random", ratio=0.7),
                                feature_groups=("proxy",), seed=seed, **kw)

    def test_each_units_cv_folds_drawn_once(self, monkeypatch):
        draws = []
        draw = perfcast.experiments.kfold_indices
        monkeypatch.setattr(perfcast.experiments, "kfold_indices", lambda *args: draws.append(args) or draw(*args))
        records, _, _ = synthetic_setup(40, seed=5)
        config = ExperimentConfig(records=records, grid=[PolyParams(degree=1, alpha=0.1), PolyParams(degree=1)],
                                  split=SplitSpec("lolo"), feature_groups=("proxy",), repeats=2, cv_folds=3, seed=1)
        run_experiment(config, 1)
        assert len(draws) == 2 * 5  # one per (repeat, LOLO unit), for the language check and the CV

    @pytest.mark.parametrize("seed", range(4))
    def test_mf_unseen_language_in_cv_fold_refused_before_any_fit(self, seed, monkeypatch):
        grid = [MfParams(latent_dim=1, iterations=2), MfParams(latent_dim=2, iterations=2)]
        config = self.lone_source_config(grid, seed, monkeypatch, repeats=2, cv_folds=3)
        with pytest.raises(UnknownLanguage, match=r"source language 'dan' in CV fold \d of repeat 0"):
            run_experiment(config)

    def test_mf_unseen_language_on_test_side_refused_before_any_fit(self, monkeypatch):
        # with seed 2 the lone record first lands on the test side in the last repeat
        config = self.lone_source_config([MfParams(iterations=2)], 2, monkeypatch, repeats=3)
        with pytest.raises(UnknownLanguage, match="source language 'dan' in the test side of repeat 2"):
            run_experiment(config)

    def test_mf_under_lolo_refused_naming_the_unit(self):
        records = many_to_many_records(("aar", "bel", "ces"), per_pair=2, seed=0)
        config = ExperimentConfig(records=records, grid=[MfParams(iterations=2)], split=SplitSpec("lolo"),
                                  feature_groups=("proxy",), repeats=1)
        with pytest.raises(UnknownLanguage, match="language 'aar' in the test side of repeat 0, LOLO unit 'aar'"):
            run_experiment(config)

    def test_unseen_split_protocol(self):
        records, _, _ = synthetic_setup(40, seed=10)
        config = poly_config(records, SplitSpec("unseen"), repeats=1, seed=0)
        result = run_experiment(config)
        unseen_ids = ids([r for r in records if not r.seen_by_estimated_model])
        assert sorted(p[0] for p in result.predictions) == unseen_ids

    def test_cross_dataset_protocol(self):
        a, _, _ = synthetic_setup(30, seed=11)
        b, _, _ = synthetic_setup(9, seed=12)
        b = [PerformanceRecord(**{**r.__dict__, "record_id": "x" + r.record_id}) for r in b]
        config = poly_config(a, SplitSpec("cross_dataset"), repeats=1, seed=0, test_records=b)
        result = run_experiment(config)
        assert sorted(p[0] for p in result.predictions) == ids(b)

    def test_one_design_matrix_per_experiment(self, monkeypatch):
        calls = []
        build = perfcast.experiments.build_design_matrix
        monkeypatch.setattr(perfcast.experiments, "build_design_matrix", lambda *a: calls.append(a) or build(*a))
        records, blocks, table = synthetic_setup(24, seed=5, languages=("aar", "bel", "ces"))
        config = poly_config(records, SplitSpec("lolo"), repeats=3, seed=0, dataset_features=blocks,
                             language_table=table)
        run_experiment(config)
        assert len(calls) == 1
        calls.clear()
        run_ablation(config, [("proxy",), ("language", "proxy"), ("dataset",)])
        assert len(calls) == 3

    def test_test_records_widen_the_proxy_roster_only_under_cross_dataset(self, monkeypatch):
        schemas = []
        build = perfcast.experiments.build_design_matrix
        monkeypatch.setattr(perfcast.experiments, "build_design_matrix",
                            lambda records, schema, *a: schemas.append(schema) or build(records, schema, *a))
        records, _, _ = synthetic_setup(30, seed=14)
        unused, _, _ = synthetic_setup(5, seed=15)
        unused = [replace(r, record_id="x" + r.record_id, proxy_scores={"q9": 1.0}) for r in unused]
        config = poly_config(records, SplitSpec("random", ratio=0.7), repeats=2, seed=0)
        alone = run_experiment(config)
        with_unused = run_experiment(replace(config, test_records=unused))
        assert [s.columns for s in schemas] == [("proxy:p0",), ("proxy:p0",)]
        assert repr(with_unused) == repr(alone)

    def test_seed_independent_units_drawn_once(self, monkeypatch):
        calls = []
        split = perfcast.experiments.split_lolo
        monkeypatch.setattr(perfcast.experiments, "split_lolo", lambda records: calls.append(1) or split(records))
        records, _, _ = synthetic_setup(24, seed=5, languages=("aar", "bel", "ces"))
        result = run_experiment(poly_config(records, SplitSpec("lolo"), repeats=3, seed=0))
        assert len(calls) == 1 and len(result.per_repeat_rmse) == 3

    @pytest.mark.parametrize("test_records", [None, []], ids=["none", "empty"])
    def test_cross_dataset_without_test_records_refused_before_any_fit(self, monkeypatch, test_records):
        fits = []
        fit = perfcast.experiments.fit_model
        monkeypatch.setattr(perfcast.experiments, "fit_model", lambda *a: fits.append(1) or fit(*a))
        records, _, _ = synthetic_setup(20, seed=13)
        config = poly_config(records, SplitSpec("cross_dataset"), repeats=1, test_records=test_records)
        with pytest.raises(ValueError, match="a cross_dataset split needs 'test_records'"):
            run_experiment(config, workers=1)
        assert fits == []

    def test_validation(self):
        records, _, _ = synthetic_setup(10, seed=13)
        with pytest.raises(ValueError):
            poly_config(records, SplitSpec("random", ratio=0.7), repeats=0).validate()
        with pytest.raises(ValueError):
            poly_config(records, SplitSpec("random", ratio=0.7), cv_folds=1).validate()
        with pytest.raises(ValueError) as exc:
            poly_config(records, SplitSpec("random", ratio=0.7), grid=[PolyParams(), GbtParams()]).validate()
        assert str(exc.value) == "grid: mixes regressor kinds ['gbt', 'poly']"
        with pytest.raises(ValueError):
            SplitSpec("random")  # missing ratio
        with pytest.raises(ValueError):
            SplitSpec("lolo", ratio=0.5)

    def test_empty_proxies_refused_while_the_proxy_group_is_on(self, monkeypatch):
        fits = []
        fit = perfcast.experiments.fit_model
        monkeypatch.setattr(perfcast.experiments, "fit_model", lambda *a: fits.append(1) or fit(*a))
        records, blocks, table = synthetic_setup(20, seed=13)
        config = poly_config(records, SplitSpec("random", ratio=0.7), repeats=1, proxies=[],
                             dataset_features=blocks, language_table=table)
        with pytest.raises(ValueError, match=r"^feature_groups: the proxy group is enabled, but 'proxies' is empty$"):
            run_experiment(config, workers=1)
        without_proxy = replace(config, feature_groups=("language", "dataset"))
        without_proxy.validate()
        with pytest.raises(ValueError, match=r"^group_sets\[1\]: the proxy group is enabled, but 'proxies' is empty$"):
            run_ablation(without_proxy, [("language",), ("dataset", "proxy")], workers=1)
        assert fits == []


class TestAblation:
    def test_default_subsets(self):
        records, blocks, table = synthetic_setup(30, seed=0)
        config = ExperimentConfig(
            records=records, grid=[PolyParams(degree=1, alpha=0.1)],
            split=SplitSpec("random", ratio=0.7), repeats=1, seed=5,
            dataset_features=blocks, language_table=table,
        )
        results = run_ablation(config)
        assert tuple(results) == DEFAULT_ABLATION_SETS
        assert len(results) == 5

    def test_baseline_subset_identical_to_direct_run(self):
        records, blocks, table = synthetic_setup(30, seed=1)
        config = ExperimentConfig(
            records=records, grid=[PolyParams(degree=1, alpha=0.1)],
            split=SplitSpec("random", ratio=0.7), repeats=2, seed=9,
            dataset_features=blocks, language_table=table,
        )
        ablated = run_ablation(config, [("language", "dataset")])[("language", "dataset")]
        from dataclasses import replace
        direct = run_experiment(replace(config, feature_groups=("language", "dataset")))
        assert ablated.per_repeat_rmse == direct.per_repeat_rmse
        assert ablated.predictions == direct.predictions

    def test_proxy_signal_detected(self):
        records, blocks, table = synthetic_setup(60, seed=2, proxy_coef=2.0, dataset_coef=0.0, noise=0.5)
        config = ExperimentConfig(
            records=records, grid=[GbtParams(n_estimators=25, max_depth=2, eta=0.3)],
            split=SplitSpec("random", ratio=0.7), repeats=1, seed=3,
            dataset_features=blocks, language_table=table,
        )
        results = run_ablation(config, [("proxy",), ("language", "dataset")])
        assert results[("proxy",)].mean_rmse < results[("language", "dataset")].mean_rmse

    def test_every_subset_checked_before_any_fit(self, monkeypatch):
        fits = []
        fit = perfcast.experiments.fit_model
        monkeypatch.setattr(perfcast.experiments, "fit_model", lambda *a: fits.append(1) or fit(*a))
        records, blocks, table = synthetic_setup(30, seed=3)
        config = ExperimentConfig(
            records=records, grid=[PolyParams(degree=1, alpha=0.1)],
            split=SplitSpec("random", ratio=0.7), repeats=1, seed=5,
            dataset_features=blocks, language_table=table,
        )
        with pytest.raises(ValueError) as exc:
            run_ablation(config, [("proxy",), ("language", "dataset"), ("proxy", "lang")], workers=1)
        assert str(exc.value) == "group_sets[2]: unknown feature group 'lang'"
        assert fits == []

    def test_rejects_empty_subset(self):
        records, _, _ = synthetic_setup(10, seed=3)
        config = poly_config(records, SplitSpec("random", ratio=0.7), repeats=1)
        with pytest.raises(ValueError):
            run_ablation(config, [()])


def oracle_outcome(config):
    """The parent driver's result, or the type and message of what it raised.

    The oracle scores a many-to-many record once per LOLO unit whose test
    side holds it; the driver keeps only its first prediction. Where the
    oracle's predictions repeat a record, each repeat r is rerun alone (its
    seed is config.seed + r, so it draws the same split, folds and fits)
    and its predictions deduplicated by first occurrence.
    """
    try:
        result = oracle_run_experiment(config)
    except PerfcastError as exc:
        return type(exc), str(exc)
    if len({p[0] for p in result.predictions}) == len(result.predictions):
        return result
    per_repeat = []
    for r in range(config.repeats):
        last = oracle_run_experiment(replace(config, seed=config.seed + r, repeats=1))
        first: dict = {}
        for p in last.predictions:
            first.setdefault(p[0], p)
        kept = list(first.values())
        per_repeat.append(rmse([p[2] for p in kept], [p[1] for p in kept]))
    return replace(last, per_repeat_rmse=per_repeat, mean_rmse=float(np.mean(per_repeat)),
                   std_rmse=float(np.std(per_repeat)), predictions=kept)


@st.composite
def experiment_configs(draw, kind, regressor):
    """Configs over English-centric or many-to-many records, with every driver option drawn."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    langs = LANGS[:draw(st.integers(3, 4))]
    if regressor == "mf" or draw(st.booleans()):
        def make(prefix, s):
            recs = many_to_many_records(langs, draw(st.integers(1, 2)), s)
            return [replace(r, record_id=prefix + r.record_id, seen_by_estimated_model=bool(rng.uniform() < 0.7))
                    for r in recs]
        records, test_records = make("", seed), make("x", seed + 1)
        blocks, table, groups = None, make_language_table(langs, seed=seed), ("language", "proxy")
    else:
        records, blocks, table = synthetic_setup(draw(st.integers(16, 30)), seed=seed, languages=langs)
        test_records, test_blocks, _ = synthetic_setup(draw(st.integers(4, 10)), seed=seed + 1, languages=langs)
        test_records = [replace(r, record_id="x" + r.record_id) for r in test_records]
        blocks = {**blocks, **test_blocks}
        groups = ("language", "dataset", "proxy")
    feature_groups = tuple(g for g in groups if draw(st.booleans())) or groups[-1:]
    estimated_model = None
    if draw(st.booleans()):
        estimated_model = records[0].estimated_model
        records = [replace(r, estimated_model="other") if rng.uniform() < 0.2 else r for r in records]

    if regressor == "gbt":
        point = GbtParams(n_estimators=draw(st.integers(1, 3)), max_depth=draw(st.integers(1, 3)), eta=0.3,
                          subsample=draw(st.sampled_from([1.0, 0.7])))
        other = replace(point, max_depth=point.max_depth % 3 + 1)
    elif regressor == "poly":
        point = PolyParams(degree=draw(st.integers(1, 2)), alpha=draw(st.sampled_from([0.01, 0.1, 1.0])),
                           max_iterations=50)
        other = replace(point, alpha=point.alpha * 10)
    else:
        point = MfParams(latent_dim=draw(st.integers(1, 2)), iterations=draw(st.integers(2, 10)))
        other = replace(point, alpha=0.02)
    grid = [point, other][:draw(st.integers(1, 2))]

    held_out = draw(st.sampled_from([None, *langs])) if kind == "lolo" else None
    split = SplitSpec(kind, ratio=draw(st.sampled_from([0.6, 0.7])) if kind == "random" else None,
                      held_out_language=held_out)
    return ExperimentConfig(
        records=records, grid=grid, split=split, feature_groups=feature_groups,
        repeats=draw(st.integers(1, 3)), cv_folds=draw(st.integers(2, 3)), seed=seed,
        estimated_model=estimated_model, dataset_features=blocks, language_table=table,
        test_records=test_records if kind == "cross_dataset" else None,
    )


class TestDriverMatchesOracle:
    """run_experiment on one design matrix against the parent driver, which built two per split unit."""

    @pytest.mark.parametrize("regressor", ["gbt", "poly", "mf"])
    @pytest.mark.parametrize("kind", ["random", "lolo", "unseen", "cross_dataset"])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_result(self, kind, regressor, data):
        config = data.draw(experiment_configs(kind, regressor))
        expected = oracle_outcome(config)
        try:
            got = run_experiment(config)
        except PerfcastError as exc:
            got = type(exc), str(exc)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("grid", [
        [PolyParams(degree=1, alpha=0.1)],
        [GbtParams(n_estimators=3, max_depth=2, subsample=0.7), GbtParams(n_estimators=3, max_depth=3, subsample=0.7)],
    ], ids=["poly", "gbt_grid"])
    def test_many_to_many_lolo(self, grid):
        records = many_to_many_records(("aar", "bel", "ces", "dan"), per_pair=2, seed=1)
        config = ExperimentConfig(records=records, grid=grid, split=SplitSpec("lolo"), feature_groups=("proxy",),
                                  repeats=2, cv_folds=2, seed=4)
        expected = oracle_outcome(config)
        assert len(expected.predictions) == len(records)  # the oracle's two predictions per record, deduplicated
        assert repr(run_experiment(config)) == repr(expected)


def outcome(config, workers):
    """run_experiment's result, or the type and message of the PerfcastError it raised."""
    try:
        return run_experiment(config, workers)
    except PerfcastError as exc:
        return type(exc), str(exc)


def fit_failing_at(seeds, error=EmptyTrainingSet):
    """perfcast.experiments.fit_model, raising error for a fit whose params carry one of seeds.

    GBT reads its seed, so with_seed gives each repeat's fit the repeat seed.
    """
    fit = perfcast.experiments.fit_model

    def fit_or_fail(params, matrix):
        if params.seed in seeds:
            raise error(f"no fit at seed {params.seed}")
        return fit(params, matrix)

    return fit_or_fail


def gbt_config(records, split, **kw):
    return ExperimentConfig(records=records, grid=[GbtParams(n_estimators=2, max_depth=2)], split=split,
                            feature_groups=("proxy",), **kw)


def all_subclasses(cls):
    """Every class of perfcast.errors that derives from cls, cls included."""
    found = {cls}
    for sub in cls.__subclasses__():
        found |= all_subclasses(sub)
    return {c for c in found if c.__module__ == perfcast.errors.__name__}


class TestWorkers:
    """(repeat, split unit) jobs over the worker pool: the serial loop's result or error, and workers that end."""

    @pytest.mark.parametrize("regressor", ["gbt", "poly", "mf"])
    @pytest.mark.parametrize("kind", ["random", "lolo", "unseen", "cross_dataset"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_outcome_for_every_worker_count(self, kind, regressor, data):
        config = data.draw(experiment_configs(kind, regressor))
        serial = repr(outcome(config, 1))
        assert repr(outcome(config, 2)) == serial
        assert repr(outcome(config, 3)) == serial

    # job r is repeat r and runs in process r mod workers; process 0 is the caller
    @pytest.mark.parametrize("workers, failing, first", [
        (3, {1}, 1), (3, {1, 2}, 1), (3, {2, 0}, 0), (2, {1, 2}, 1), (2, {0, 1}, 0),
    ])
    def test_earliest_failing_job_raised(self, monkeypatch, workers, failing, first):
        monkeypatch.setattr(perfcast.experiments, "fit_model", fit_failing_at(failing))
        records, _, _ = synthetic_setup(30, seed=16)
        config = gbt_config(records, SplitSpec("random", ratio=0.7), repeats=3, seed=0)
        for w in (1, workers):
            with pytest.raises(EmptyTrainingSet, match=f"^no fit at seed {first}$"):
                run_experiment(config, w)

    def test_failure_in_a_child_carries_its_traceback(self, monkeypatch):
        monkeypatch.setattr(perfcast.experiments, "fit_model", fit_failing_at({1}))
        records, _, _ = synthetic_setup(30, seed=16)
        config = gbt_config(records, SplitSpec("random", ratio=0.7), repeats=2, seed=0)
        with pytest.raises(EmptyTrainingSet, match="^no fit at seed 1$") as exc:
            run_experiment(config, 2)  # repeat 1 runs in the forked process
        assert "in fit_or_fail" in str(exc.value.__cause__)

    @pytest.mark.parametrize("error", sorted(all_subclasses(PerfcastError), key=lambda e: e.__name__),
                             ids=lambda e: e.__name__)
    def test_every_error_survives_pickling(self, error):
        args = {"MissingPair": ("aar", "bel", ["syntactic", "genetic"]),
                "MissingFeature": ("r1", "proxy:p0", "r.csv:3", "t.csv")}
        exc = error(*args.get(error.__name__, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), str(back), vars(back)) == (error, str(exc), vars(exc))

    def test_workers_stay_idle_until_close_or_an_interrupt(self, monkeypatch):
        records, _, _ = synthetic_setup(30, seed=17)
        config = gbt_config(records, SplitSpec("random", ratio=0.7), repeats=3, seed=0)

        def idle_workers():
            pids = [worker.pid for worker in pool._workers]
            assert [os.waitpid(pid, os.WNOHANG) for pid in pids] == [(0, 0)] * len(pids)
            return pids

        run_experiment(config, 3)
        assert len(idle_workers()) == 2
        pool.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # set before the next map forks, so job 2 fails in worker 2
        monkeypatch.setattr(perfcast.experiments, "fit_model", fit_failing_at({2}))
        with pytest.raises(EmptyTrainingSet):
            run_experiment(config, 3)
        pids = idle_workers()
        assert len(pids) == 2
        with pytest.raises(EmptyTrainingSet):
            run_experiment(config, 3)
        assert idle_workers() == pids  # the same workers ran the second map
        # job 0 runs in the caller, which sees this patch
        monkeypatch.setattr(perfcast.experiments, "fit_model", fit_failing_at({0}, KeyboardInterrupt))
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert pool._workers == []

    def test_unflushed_stdout_written_once(self, capfd):
        records, _, _ = synthetic_setup(30, seed=18)
        print("marker", end="")
        run_experiment(poly_config(records, SplitSpec("random", ratio=0.7), repeats=3, seed=0), 3)
        assert capfd.readouterr().out == "marker"

    def test_without_fork_the_caller_runs_every_job(self, monkeypatch):
        records, _, _ = synthetic_setup(30, seed=20)
        config = poly_config(records, SplitSpec("random", ratio=0.7), repeats=3, seed=0)
        serial = repr(run_experiment(config, 1))
        monkeypatch.delattr(os, "fork")
        assert repr(run_experiment(config, 3)) == serial

    def test_negative_workers_rejected(self):
        records, _, _ = synthetic_setup(10, seed=19)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            run_experiment(poly_config(records, SplitSpec("random", ratio=0.7), repeats=1), -1)
