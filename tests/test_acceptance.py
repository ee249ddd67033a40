"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned in the assertions below.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from perfcast.cli import main
from perfcast.corpus import (
    EmbeddingSet,
    TokenDistribution,
    dataset_features,
    embedding_cosine,
    jsd,
    profile,
)
from perfcast.errors import NotManyToMany, TooFewRecords
from perfcast.experiments import (
    ExperimentConfig,
    SplitSpec,
    iqm,
    kfold_cv,
    kfold_indices,
    rmse,
    run_experiment,
    split_cross_dataset,
    split_lolo,
    split_random,
    split_unseen,
)
from perfcast.regressors import (
    GbtParams,
    MfParams,
    PolyParams,
    gbt_fit,
    gbt_predict,
    get_preset,
    mf_fit,
    mf_predict,
    poly_fit,
)
from perfcast.report import lowess, r_squared

from conftest import synthetic_setup
from oracles import (
    oracle_best_depth1_split,
    oracle_cosine,
    oracle_jsd,
    oracle_lowess,
    oracle_ols,
    oracle_profile,
    oracle_rmse,
    oracle_tfidf_cosine,
    oracle_ttr_distance,
    oracle_word_overlap,
)
from test_cli import dir_bytes, write_experiment_fixture
from test_corpus import random_corpus
from test_gbt import matrix_from
from test_mf import context_matrix, rank1_grid


def passed(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} ({name}): PASS")


def test_criterion_01_feature_formula_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    for trial in range(200):
        s1 = random_corpus(rng, max_tokens=50)
        s2 = random_corpus(rng, max_tokens=50)
        p1, p2 = profile("a", s1), profile("b", s2)
        o1, o2 = oracle_profile(s1), oracle_profile(s2)
        block = dataset_features(p1, p2)
        assert abs(block.word_overlap - oracle_word_overlap(o1["counts"], o2["counts"])) <= 1e-12
        assert abs(block.ttr_train - o1["ttr"]) <= 1e-12
        assert abs(block.ttr_test - o2["ttr"]) <= 1e-12
        assert abs(block.ttr_distance - oracle_ttr_distance(o1["ttr"], o2["ttr"])) <= 1e-12
        assert abs(block.jsd - oracle_jsd(o1["counts"], o2["counts"])) <= 1e-12
        assert abs(block.tfidf_cosine - oracle_tfidf_cosine(o1["counts"], o2["counts"])) <= 1e-12
        dim = int(rng.integers(1, 6))
        va = rng.normal(size=dim)
        vb = rng.normal(size=dim)
        got = embedding_cosine(
            EmbeddingSet("a", dim, tuple(float(v) for v in va)),
            EmbeddingSet("b", dim, tuple(float(v) for v in vb)),
        )
        assert abs(got - oracle_cosine(va, vb)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"feature oracle suite took {elapsed:.1f}s"
    passed(1, "feature formulas vs brute-force oracle, 200 corpora")


def test_criterion_02_jsd_properties():
    rng = np.random.default_rng(7)

    def random_distribution():
        size = int(rng.integers(1, 9))
        raw = rng.uniform(0.01, 1.0, size=size)
        raw /= raw.sum()
        toks = rng.choice(20, size=size, replace=False)
        return TokenDistribution({f"t{t}": float(v) for t, v in zip(toks, raw)})

    for _ in range(1000):
        p = random_distribution()
        q = random_distribution()
        v = jsd(p, q)
        assert v == jsd(q, p)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert jsd(p, p) == 0.0

    for _ in range(50):
        size = int(rng.integers(1, 9))
        raw_p = rng.uniform(0.01, 1.0, size=size)
        raw_q = rng.uniform(0.01, 1.0, size=size)
        p = TokenDistribution({f"p{i}": float(v) for i, v in enumerate(raw_p / raw_p.sum())})
        q = TokenDistribution({f"q{i}": float(v) for i, v in enumerate(raw_q / raw_q.sum())})
        assert abs(jsd(p, q) - 1.0) <= 1e-12
    passed(2, "JSD symmetry, bounds, identity, disjoint-support = 1")


def test_criterion_03_split_size_reproduction():
    sizes = {}
    for n, expected in ((1954, (1367, 587)), (224, (156, 68)), (2601, (1820, 781))):
        records, _, _ = synthetic_setup(n, seed=n)
        train, test = split_random(records, 0.7, seed=0)
        assert (len(train), len(test)) == expected
        sizes[n] = (len(train), len(test))

    records, _, _ = synthetic_setup(1954, seed=1)
    flagged = [replace(r, seen_by_estimated_model=(i >= 101)) for i, r in enumerate(records)]
    train, test = split_unseen(flagged)
    assert (len(train), len(test)) == (1853, 101)

    english, _, _ = synthetic_setup(1954, seed=2)
    many, _, _ = synthetic_setup(224, seed=3)
    many = [replace(r, record_id="m" + r.record_id) for r in many]
    train, test = split_cross_dataset(english, many)
    assert (len(train), len(test)) == (1954, 224)
    passed(3, "paper split sizes 1367/587, 156/68, 1820/781, 1853/101, 1954/224")


def test_criterion_04_gbt_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(99)

    # (a) depth-1 split equals brute force on 100 random datasets
    for _ in range(100):
        n = int(rng.integers(4, 51))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = gbt_fit(
            matrix_from(X, y),
            GbtParams(n_estimators=1, max_depth=1, eta=1.0, reg_lambda=0.0,
                      reg_alpha=0.0, gamma=0.0, min_child_weight=0.0),
        )
        root = model.trees[0][0]
        _, feat, thr = oracle_best_depth1_split(X, y)
        assert root.feature == feat
        assert root.threshold == thr

    # (b) training RMSE non-increasing per round on 20 random datasets
    for seed in range(20):
        r = np.random.default_rng(seed)
        X = r.normal(size=(35, 4))
        y = r.normal(size=35)
        model = gbt_fit(matrix_from(X, y),
                        GbtParams(n_estimators=25, eta=0.3, max_depth=3, gamma=0.0,
                                  subsample=1.0, colsample_bytree=1.0, seed=seed))
        for prev, cur in zip(model.train_rmse, model.train_rmse[1:]):
            assert cur <= prev + 1e-12

    # (c) the hand-derived example, exactly
    m = matrix_from([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 3.0, 3.0])
    model = gbt_fit(m, GbtParams(n_estimators=1, max_depth=1, eta=1.0,
                                 reg_lambda=0.0, reg_alpha=0.0, gamma=0.0))
    root = model.trees[0][0]
    assert root.threshold == 2.5
    assert root.gain == 2.0
    assert gbt_predict(model, m).tolist() == [1.0, 1.0, 3.0, 3.0]

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gbt correctness took {elapsed:.1f}s"
    passed(4, "GBT split oracle x100, monotone loss x20, hand example")


def test_criterion_05_elastic_net_correctness():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(25, 80))
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + rng.normal() + 0.05 * rng.normal(size=n)
        model = poly_fit(matrix_from(X, y),
                         PolyParams(degree=1, alpha=0.0, max_iterations=50000, tolerance=1e-13))
        Z = (X - model.mean) / model.std
        oracle_b, oracle_w = oracle_ols(Z, y)
        assert np.max(np.abs(model.coef - oracle_w)) <= 1e-6
        assert abs(model.intercept - oracle_b) <= 1e-6
        hist = model.objective_history
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev + 1e-12 * max(1.0, hist[0])
    passed(5, "elastic net vs normal equations x50, monotone objective")


def test_criterion_06_mf_recovery():
    # rank-1 4x4 many-to-many matrix, default preset
    u = np.array([1.94, 1.98, 2.02, 2.06])
    v = np.array([1.93, 1.99, 2.03, 2.05])
    sources, targets, y = rank1_grid(u, v)
    m = context_matrix(y, sources, targets)
    model = mf_fit(m, get_preset("mf_default"))
    pred = mf_predict(model, m)
    train_rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
    assert train_rmse < 1e-2, f"training RMSE {train_rmse}"

    # factor machinery sanity: strong interaction recovered once unregularized
    u2 = np.array([-2.0, -1.0, 1.0, 2.0])
    v2 = np.array([-1.5, -0.5, 0.5, 1.5])
    s2, t2, y2 = rank1_grid(u2, v2)
    m2 = context_matrix(y2, s2, t2)
    strong = mf_fit(m2, MfParams(latent_dim=2, alpha=0.05, beta_w=0.0, beta_h=0.0,
                                          beta_z=0.0, beta_s=0.0, beta_t=0.0,
                                          lr_decay=0.001, iterations=3000, seed=1))
    pred2 = mf_predict(strong, m2)
    assert float(np.sqrt(np.mean((pred2 - y2) ** 2))) < 1e-2

    # English-centric shape: one language pinned as the source side
    with pytest.raises(NotManyToMany):
        mf_fit(context_matrix([1.0, 2.0, 3.0], ["eng"] * 3, ["deu", "fra", "ces"]), get_preset("mf_default"))
    passed(6, "MF rank-1 recovery < 1e-2, NotManyToMany on English-centric")


def test_criterion_07_proxy_beats_baseline():
    start = time.monotonic()
    grid = [GbtParams(n_estimators=20, max_depth=2, eta=0.3)]
    wins = {"random": 0, "lolo": 0}
    trials = 20
    for trial in range(trials):
        records, blocks, table = synthetic_setup(
            80, seed=3000 + trial, proxy_coef=2.0, dataset_coef=5.0, noise=1.0
        )
        for kind in ("random", "lolo"):
            split = SplitSpec(kind, ratio=0.7) if kind == "random" else SplitSpec(kind)
            scores = {}
            for name, groups in (("proxy", ("language", "dataset", "proxy")),
                                 ("baseline", ("language", "dataset"))):
                cfg = ExperimentConfig(
                    records=records, grid=grid, split=split, feature_groups=groups,
                    repeats=2, seed=17 + trial, dataset_features=blocks, language_table=table,
                )
                scores[name] = run_experiment(cfg).mean_rmse
            if scores["proxy"] < scores["baseline"]:
                wins[kind] += 1
    assert wins["random"] >= 19, f"random wins: {wins['random']}/20"
    assert wins["lolo"] >= 19, f"lolo wins: {wins['lolo']}/20"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"directional reproduction took {elapsed:.1f}s"
    passed(7, f"proxy beats language+dataset baseline ({wins['random']}/20 random, {wins['lolo']}/20 lolo)")


def test_criterion_08_end_to_end_determinism(tmp_path):
    cfg = write_experiment_fixture(tmp_path)
    out = [tmp_path / f"o{i}" for i in range(3)]
    assert main(["experiment", "--config", cfg, "--out", str(out[0])]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(out[1])]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(out[2]), "--threads", "8"]) == 0
    base = dir_bytes(out[0])
    assert base == dir_bytes(out[1]), "identical config+seed must be byte-identical"
    assert base == dir_bytes(out[2]), "--threads must not change any output byte"
    assert set(base) >= {"results.json", "predictions.csv", "summary.csv", "scatter.csv"}
    passed(8, "byte-identical reruns; --threads has no effect")


def test_criterion_09_protocol_fidelity():
    # LOLO: one split per language, membership property
    records, _, _ = synthetic_setup(40, seed=31)
    splits = split_lolo(records)
    held = [lang for lang, _, _ in splits]
    assert held == sorted({r.tgt_lang for r in records})
    for lang, train_idx, test_idx in splits:
        train, test = [records[i] for i in train_idx], [records[i] for i in test_idx]
        assert all(lang in (r.src_lang, r.tgt_lang) for r in test)
        assert all(lang not in (r.src_lang, r.tgt_lang) for r in train)
        assert len(train) + len(test) == len(records)

    # 10-fold CV partitions exactly, sizes differ by <= 1
    for n in (100, 23, 57):
        folds = kfold_indices(n, 10, seed=3)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate(folds).tolist()) == list(range(n))
    with pytest.raises(TooFewRecords):
        kfold_indices(5, 10, seed=0)

    # rigged grid: the candidate that nails noiseless data must win
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 2))
    y = 2.0 * X[:, 0] - X[:, 1] + 1.0
    grid = [
        PolyParams(degree=1, alpha=1e6),
        PolyParams(degree=1, alpha=0.0, max_iterations=20000, tolerance=1e-13),
    ]
    cv = kfold_cv(matrix_from(X, y), 10, grid, seed=5)
    assert cv.best_index == 1

    # run_experiment emits exactly 5 per-repeat RMSEs by default
    records, _, _ = synthetic_setup(30, seed=37)
    config = ExperimentConfig(
        records=records, grid=[PolyParams(degree=1, alpha=0.1)],
        split=SplitSpec("random", ratio=0.7), feature_groups=("proxy",), seed=0,
    )
    result = run_experiment(config)
    assert len(result.per_repeat_rmse) == 5
    passed(9, "LOLO membership, exact CV partition, rigged grid, 5 repeats")


def test_criterion_10_metric_helpers():
    # IQM exact trivial cases
    assert iqm([1, 2, 3, 4]) == 2.5
    assert iqm(list(range(1, 9))) == 4.5
    assert iqm([3.3] * 7) == 3.3

    # RMSE trivial + oracle
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) <= 1e-12
    rng = np.random.default_rng(6)
    p, t = rng.normal(size=100), rng.normal(size=100)
    assert abs(rmse(p, t) - oracle_rmse(p, t)) <= 1e-9

    # R^2 trivial + oracle
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    targets = [1.0, 2.0, 3.0, 6.0]
    assert abs(r_squared([np.mean(targets)] * 4, targets)) <= 1e-12
    pr = t + 0.2 * rng.normal(size=100)
    ss_res = float(np.sum((t - pr) ** 2))
    ss_tot = float(np.sum((t - np.mean(t)) ** 2))
    assert abs(r_squared(pr, t) - (1 - ss_res / ss_tot)) <= 1e-9

    # LOWESS trivial + oracle
    x = np.sort(rng.uniform(0, 5, size=30))
    line = 1.5 * x + 2.0
    np.testing.assert_allclose(lowess(list(zip(x, line)), frac=0.5), line, atol=1e-9)
    np.testing.assert_allclose(lowess(list(zip(x, np.full(30, 2.0))), frac=0.5), 2.0, atol=1e-9)
    noisy = x ** 2 + 0.2 * rng.normal(size=30)
    np.testing.assert_allclose(
        lowess(list(zip(x, noisy)), frac=0.4), oracle_lowess(x, noisy, 0.4), atol=1e-9
    )
    passed(10, "IQM, RMSE, R-squared, LOWESS trivial + oracle cases")
