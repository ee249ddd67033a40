import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from perfcast.errors import EmptyTrainingSet, NoSplits, SchemaMismatch
from perfcast.records import DesignMatrix, build_schema
from perfcast.regressors import (
    GbtModel,
    GbtParams,
    PolyParams,
    fitted_from,
    gbt_fit,
    gbt_gain_totals,
    gbt_importance,
    gbt_predict,
    load_model,
    poly_fit,
    save_model,
)
from perfcast.regressors.gbt import NODE_DTYPE, _column_cells, _split_search, make_tree, predict_rows, tree_depth

from conftest import rejects_model_file
from oracles import oracle_best_depth1_split, oracle_best_split, oracle_forest_predict, oracle_gbt_fit


def matrix_from(X, y, mask=None):
    """A design matrix over X whose cells under mask are missing (NaN)."""
    rows = np.array(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    schema = build_schema(("proxy",), [f"f{i}" for i in range(rows.shape[1])])
    if mask is not None:
        rows[mask] = np.nan
    return DesignMatrix(schema, rows, y, [f"r{i}" for i in range(len(y))])


def depth_of(tree, node_id=0, depth=0):
    """The depth of the subtree at node_id, by recursion from it."""
    node = tree[node_id]
    if node.feature < 0:
        return depth
    return max(depth_of(tree, node.left, depth + 1), depth_of(tree, node.right, depth + 1))


def plain_params(**kw):
    base = dict(n_estimators=1, max_depth=1, eta=1.0, reg_lambda=0.0, reg_alpha=0.0, gamma=0.0)
    base.update(kw)
    return GbtParams(**base)


class TestFitBasics:
    def test_constant_targets_predict_exactly(self):
        m = matrix_from(np.arange(12).reshape(6, 2), np.full(6, 4.25))
        model = gbt_fit(m, GbtParams(n_estimators=20, seed=3))
        np.testing.assert_array_equal(gbt_predict(model, m), np.full(6, 4.25))

    def test_hand_derived_depth1_example(self):
        m = matrix_from([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 3.0, 3.0])
        model = gbt_fit(m, plain_params())
        root = model.trees[0][0]
        assert root.feature == 0
        assert root.threshold == 2.5
        assert root.gain == 2.0
        leaves = {model.trees[0][root.left].weight, model.trees[0][root.right].weight}
        assert leaves == {-1.0, 1.0}  # base_score 2.0 shifted to predictions 1 and 3
        np.testing.assert_array_equal(gbt_predict(model, m), [1.0, 1.0, 3.0, 3.0])

    def test_params_take_numpy_scalars_but_not_bools(self):
        params = GbtParams(n_estimators=np.int64(3), eta=np.float32(0.5), num_leaves=np.int32(4), growth="leaf_wise")
        assert (params.n_estimators, params.num_leaves) == (3, 4)
        with pytest.raises(ValueError, match="seed must be of type int, not True"):
            GbtParams(seed=True)
        with pytest.raises(ValueError, match="gamma must be of type float, not "):
            GbtParams(gamma=np.True_)

    def test_empty_training_set(self):
        m = matrix_from(np.empty((0, 2)), np.empty(0))
        with pytest.raises(EmptyTrainingSet):
            gbt_fit(m, plain_params())

    def test_depth1_split_equals_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(4, 51))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            model = gbt_fit(matrix_from(X, y), plain_params(min_child_weight=0.0))
            root = model.trees[0][0]
            _, feat, thr = oracle_best_depth1_split(X, y)
            assert root.feature == feat
            assert root.threshold == pytest.approx(thr, abs=0.0)

    def test_training_rmse_non_increasing(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = gbt_fit(matrix_from(X, y), GbtParams(n_estimators=30, eta=0.3, max_depth=3, seed=0))
        for prev, cur in zip(model.train_rmse, model.train_rmse[1:]):
            assert cur <= prev + 1e-12

    def test_monotone_feature_transform_keeps_structure(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0.1, 3.0, size=(30, 3))
        y = rng.normal(size=30)
        params = GbtParams(n_estimators=10, eta=0.3, max_depth=3, seed=5)
        model_a = gbt_fit(matrix_from(X, y), params)
        X2 = X.copy()
        X2[:, 1] = np.exp(X2[:, 1])  # strictly monotone transform of one column
        model_b = gbt_fit(matrix_from(X2, y), params)
        feats_a = [[n.feature for n in tree] for tree in model_a.trees]
        feats_b = [[n.feature for n in tree] for tree in model_b.trees]
        assert feats_a == feats_b
        assert model_a.train_rmse == model_b.train_rmse

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        params = GbtParams(n_estimators=15, subsample=0.7, colsample_bytree=0.6, max_depth=3, seed=9)
        m = matrix_from(X, y)
        p1 = gbt_predict(gbt_fit(m, params), m)
        p2 = gbt_predict(gbt_fit(m, params), m)
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ_under_subsampling(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        m = matrix_from(X, y)
        preds = set()
        for seed in range(5):
            params = GbtParams(n_estimators=10, subsample=0.5, max_depth=2, seed=seed)
            preds.add(tuple(gbt_predict(gbt_fit(m, params), m)))
        assert len(preds) > 1

    def test_min_child_weight_blocks_small_children(self):
        # each side would carry hessian 1 < 2, so no split is admissible
        m = matrix_from([[1.0], [2.0]], [0.0, 10.0])
        model = gbt_fit(m, plain_params(min_child_weight=2.0))
        assert model.trees[0][0].feature < 0

    def test_min_child_samples(self):
        m = matrix_from([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 3.0, 3.0])
        model = gbt_fit(m, plain_params(min_child_samples=3))
        assert model.trees[0][0].feature < 0

    @pytest.mark.parametrize("growth", ["depth_wise", "leaf_wise"])
    def test_min_child_weight_is_a_row_count_floor(self, growth):
        # every hessian is 1, so a weight floor of 4.2 admits exactly the children of 5 or more rows
        rng = np.random.default_rng(61)
        X = rng.normal(size=(80, 3))
        m = matrix_from(X, X[:, 0] + rng.normal(size=80), rng.random((80, 3)) < 0.15)
        base = dict(n_estimators=6, eta=0.5, max_depth=6, subsample=0.9, seed=3, growth=growth,
                    num_leaves=16 if growth == "leaf_wise" else None)

        def forest(**kw):
            model = gbt_fit(m, GbtParams(**base, **kw))
            return [tree.tobytes() for tree in model.trees], model.train_rmse

        by_weight = forest(min_child_weight=4.2)
        assert by_weight == forest(min_child_weight=0.0, min_child_samples=5)
        assert by_weight != forest(min_child_weight=0.0, min_child_samples=4)

    @pytest.mark.parametrize(
        "floor, n_rows, splits",
        [
            (dict(min_child_samples=3), 6, True),  # exactly 2 x floor rows, cut 3/3
            (dict(min_child_samples=3), 5, False),  # 2 x floor - 1 rows
            (dict(min_child_weight=2.5), 6, True),
            (dict(min_child_weight=2.5), 5, False),  # 2 x floor rows, but no cut leaves 2.5 on both sides
            (dict(min_child_weight=2.5), 4, False),
        ],
    )
    def test_splittable_row_floor_boundary(self, floor, n_rows, splits):
        # the first half of the rows (rounded up) target 0 and the rest 10: one clean cut
        y = np.where(np.arange(n_rows) < (n_rows + 1) // 2, 0.0, 10.0)
        model = gbt_fit(matrix_from(np.arange(n_rows, dtype=float)[:, None], y), plain_params(**floor))
        assert (model.trees[0][0].feature >= 0) == splits

    def test_level_of_nodes_at_exactly_twice_the_floor_splits(self):
        # a 6/6 root cut, then both 6-row children cut 3/3 in one level
        m = matrix_from(np.arange(12, dtype=float)[:, None], np.repeat([0.0, 10.0, 100.0, 110.0], 3))
        model = gbt_fit(m, plain_params(max_depth=2, min_child_samples=3))
        tree = model.trees[0]
        assert tree.feature.tolist() == [0, 0, 0, -1, -1, -1, -1]
        assert tree.threshold[:3].tolist() == [5.5, 2.5, 8.5]
        np.testing.assert_array_equal(gbt_predict(model, m), m.targets)

    def test_gamma_blocks_low_gain_splits(self):
        m = matrix_from([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 3.0, 3.0])
        model = gbt_fit(m, plain_params(gamma=3.0))  # best gain is 2.0
        assert model.trees[0][0].feature < 0

    def test_depth_wise_respects_max_depth(self):
        rng = np.random.default_rng(59)
        X = rng.normal(size=(120, 2))
        y = rng.normal(size=120)
        model = gbt_fit(matrix_from(X, y), GbtParams(n_estimators=2, max_depth=3, eta=0.5, seed=0))

        def depth_of(tree, node_id=0, depth=0):
            node = tree[node_id]
            if node.feature < 0:
                return depth
            return max(depth_of(tree, node.left, depth + 1), depth_of(tree, node.right, depth + 1))

        for tree in model.trees:
            assert depth_of(tree) <= 3


class TestMissingValues:
    def test_default_direction_learned_and_used(self):
        # y is driven by f0; rows with missing f0 behave like the high group,
        # so the learned default direction must send missing to the right.
        X = np.array([[1.0], [2.0], [3.0], [4.0], [0.0], [0.0]])
        mask = np.zeros_like(X, dtype=bool)
        mask[4:, 0] = True
        y = np.array([1.0, 1.0, 3.0, 3.0, 3.0, 3.0])
        m = matrix_from(X, y, mask)
        model = gbt_fit(m, plain_params())
        root = model.trees[0][0]
        assert not root.default_left
        fresh = np.array([[np.nan]])
        np.testing.assert_allclose(predict_rows(model, fresh), [3.0])

    def test_no_missing_defaults_left(self):
        m = matrix_from([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 3.0, 3.0])
        model = gbt_fit(m, plain_params())
        assert model.trees[0][0].default_left


class TestLeafWise:
    def test_leaf_count_capped(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        params = GbtParams(n_estimators=3, growth="leaf_wise", num_leaves=5, max_depth=10, eta=0.5, seed=0)
        model = gbt_fit(matrix_from(X, y), params)
        for tree in model.trees:
            leaves = sum(1 for n in tree if n.feature < 0)
            assert 1 <= leaves <= 5

    def test_requires_num_leaves(self):
        with pytest.raises(ValueError):
            GbtParams(growth="leaf_wise")

    def test_depth_cap_still_applies(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(64, 1))
        y = rng.normal(size=64)
        params = GbtParams(n_estimators=1, growth="leaf_wise", num_leaves=60, max_depth=2, eta=1.0, seed=0)
        model = gbt_fit(matrix_from(X, y), params)
        assert depth_of(model.trees[0]) <= 2

    def test_max_bin_caps_thresholds(self):
        rng = np.random.default_rng(37)
        X = rng.normal(size=(100, 1))
        y = (X[:, 0] > 0).astype(float)
        model = gbt_fit(matrix_from(X, y), plain_params(max_bin=4))
        root = model.trees[0][0]
        assert root.feature >= 0
        # candidates are the 3 interior quartiles of the feature values
        quartiles = np.quantile(X[:, 0], [0.25, 0.5, 0.75])
        assert any(abs(root.threshold - q) < 1e-12 for q in quartiles)


class TestPredict:
    def test_zero_tree_model_returns_base(self):
        schema = build_schema(("proxy",), ["f0"])
        model = GbtModel(base_score=7.5, trees=[], feature_names=schema.columns, params=GbtParams(eta=0.3))
        m = matrix_from([[1.0], [2.0]], [0.0, 0.0])
        np.testing.assert_array_equal(gbt_predict(model, m), [7.5, 7.5])

    def test_single_leaf_weight_scaled_by_eta(self):
        schema = build_schema(("proxy",), ["f0"])
        model = GbtModel(
            base_score=1.0, trees=[make_tree([(-1, 0.0, True, -1, -1, 5.0, 0.0)])],
            feature_names=schema.columns, params=GbtParams(eta=0.1),
        )
        np.testing.assert_allclose(predict_rows(model, np.array([[0.0]])), [1.5])

    def test_path_tracing_oracle(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        mask = rng.uniform(size=X.shape) < 0.15
        m = matrix_from(X, y, mask)
        model = gbt_fit(m, GbtParams(n_estimators=6, max_depth=3, eta=0.4, seed=2))
        expected = oracle_forest_predict(model, m.rows, np.isnan(m.rows))
        np.testing.assert_allclose(gbt_predict(model, m), expected, rtol=0, atol=0)

    def test_schema_mismatch(self):
        m = matrix_from([[1.0], [2.0]], [1.0, 2.0])
        model = gbt_fit(m, plain_params())
        other = matrix_from([[1.0, 2.0], [2.0, 3.0]], [1.0, 2.0])
        with pytest.raises(SchemaMismatch, match="^the design matrix has 2 columns, but the model 1$"):
            gbt_predict(model, other)
        with pytest.raises(SchemaMismatch):
            predict_rows(model, other.rows)
        model.feature_names = ("proxy:f9",)
        renamed = "^design matrix column 0 is 'proxy:f0', but the model's is 'proxy:f9'$"
        with pytest.raises(SchemaMismatch, match=renamed):
            gbt_predict(model, m)


class TestImportance:
    def test_single_feature(self):
        m = matrix_from([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 3.0, 3.0])
        model = gbt_fit(m, plain_params())
        assert gbt_importance(model) == {"proxy:f0": 1.0}

    def test_sums_to_one(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(50, 5))
        y = X[:, 0] + 0.5 * X[:, 3] + rng.normal(scale=0.1, size=50)
        model = gbt_fit(matrix_from(X, y), GbtParams(n_estimators=10, max_depth=3, seed=0))
        scores = gbt_importance(model)
        assert abs(sum(scores.values()) - 1.0) < 1e-9

    def test_matches_hand_accumulated_gains(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        model = gbt_fit(matrix_from(X, y), GbtParams(n_estimators=2, max_depth=2, eta=0.5, seed=1))
        totals = {}
        for tree in model.trees:
            for node in tree:
                if node.feature >= 0:
                    name = model.feature_names[node.feature]
                    totals[name] = totals.get(name, 0.0) + node.gain
        total = sum(totals.values())
        expected = {k: v / total for k, v in totals.items()}
        got = gbt_importance(model)
        assert got.keys() == expected.keys()
        for k in expected:
            assert got[k] == pytest.approx(expected[k], abs=1e-12)

    def test_no_splits_raises(self):
        m = matrix_from([[1.0], [2.0]], [3.0, 3.0])
        model = gbt_fit(m, plain_params())
        with pytest.raises(NoSplits):
            gbt_importance(model)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        mask = rng.uniform(size=X.shape) < 0.2
        m = matrix_from(X, y, mask)
        model = gbt_fit(m, GbtParams(n_estimators=8, max_depth=3, subsample=0.8, seed=4))
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(gbt_predict(loaded, m), gbt_predict(model, m))
        assert [t.tobytes() for t in loaded.trees] == [t.tobytes() for t in model.trees]
        with open(path) as fh:
            obj = json.load(fh)
        assert obj["kind"] == "gbt"
        assert obj["params"]["n_estimators"] == 8

    def test_integer_eta_round_trips_byte_stable(self, tmp_path):
        m = matrix_from([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 3.0, 3.0])
        model = gbt_fit(m, GbtParams(n_estimators=2, eta=1, max_depth=1))
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        save_model(model, first)
        save_model(load_model(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_equal_trees_are_byte_equal(self):
        nodes = [(0, 0.5, True, 1, 2, 0.0, 1.5), (-1, 0.0, True, -1, -1, 0.25, 0.0), (-1, 0.0, False, -1, -1, -0.5, 0.0)]
        nodes = nodes * 20
        first = make_tree(nodes).tobytes()
        junk = np.full(len(first), 0xAB, dtype=np.uint8)  # freed nonzero memory for the next tree to land in
        del junk
        second = make_tree(nodes).tobytes()
        assert first == second
        fields = set()
        for dtype, offset in (NODE_DTYPE.fields[name][:2] for name in NODE_DTYPE.names):
            fields.update(range(offset, offset + dtype.itemsize))
        padding = [b for b in range(NODE_DTYPE.itemsize) if b not in fields]
        assert padding  # the aligned dtype has padding after default_left
        assert not np.frombuffer(second, np.uint8).reshape(len(nodes), -1)[:, padding].any()


class TestModelFileValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        rng = np.random.default_rng(7)
        m = matrix_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        path = tmp_path / "model.json"
        save_model(gbt_fit(m, GbtParams(n_estimators=2, max_depth=2)), str(path))
        return path, json.loads(path.read_text())

    def test_unknown_format_version(self, saved):
        path, obj = saved
        obj["format_version"] = 99
        rejects_model_file(path, obj, "format_version 99")

    def test_format_1_rejected(self, saved):
        path, obj = saved
        # a format 1 file also held eta and the gain totals
        obj.update(format_version=1, eta=obj["params"]["eta"], gain_totals=gbt_gain_totals(load_model(str(path))))
        rejects_model_file(path, obj, r"unsupported format_version 1 \(expected 3\)")

    def test_format_2_rejected(self, saved):
        path, obj = saved
        # a format 2 file also held a hash of the columns and their groups
        obj.update(format_version=2, fingerprint="0123456789abcdef")
        rejects_model_file(path, obj, r"unsupported format_version 2 \(expected 3\)")

    def test_format_3_stores_no_derived_field(self, saved):
        _, obj = saved
        assert sorted(obj) == ["base_score", "feature_names", "format_version", "kind", "params", "train_rmse", "trees"]

    def test_renamed_feature_name_is_refused_by_predict(self, saved):
        path, obj = saved
        obj["feature_names"][1] = "proxy:renamed"
        path.write_text(json.dumps(obj))
        rng = np.random.default_rng(7)
        m = matrix_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        with pytest.raises(SchemaMismatch, match="column 1 is 'proxy:f1', but the model's is 'proxy:renamed'"):
            gbt_predict(load_model(str(path)), m)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_of_another_type(self, saved, version):
        path, obj = saved
        obj["format_version"] = version
        rejects_model_file(path, obj, f"format_version {version!r}")

    def test_missing_key(self, saved):
        path, obj = saved
        del obj["base_score"]
        rejects_model_file(path, obj, "base_score is missing")

    def test_non_object_model(self, saved):
        path, _ = saved
        rejects_model_file(path, [1, 2], "not a valid model file")

    def test_child_pointing_back_at_its_node(self, saved):
        path, obj = saved
        root = obj["trees"][0][0]
        assert root["feature"] >= 0
        root["left"] = 0
        rejects_model_file(path, obj, "node 0: child 0")

    def test_child_past_the_tree(self, saved):
        path, obj = saved
        obj["trees"][1][0]["right"] = len(obj["trees"][1])
        rejects_model_file(path, obj, "node 0: child")

    def test_feature_out_of_range(self, saved):
        path, obj = saved
        obj["trees"][0][0]["feature"] = len(obj["feature_names"])
        rejects_model_file(path, obj, "feature 2 outside")

    def test_node_missing_a_field(self, saved):
        path, obj = saved
        del obj["trees"][0][1]["gain"]
        rejects_model_file(path, obj, "node 1: keys")

    def test_node_with_an_unknown_field(self, saved):
        path, obj = saved
        obj["trees"][1][0]["depth"] = 0
        rejects_model_file(path, obj, "node 0: keys")

    def test_fractional_node_index(self, saved):
        path, obj = saved
        obj["trees"][0][0]["feature"] = 0.5
        rejects_model_file(path, obj, "node 0: feature 0.5 is not of type int64")

    def test_string_default_direction(self, saved):
        path, obj = saved
        obj["trees"][0][2]["default_left"] = "false"
        rejects_model_file(path, obj, "node 2: default_left 'false' is not of type bool")

    def test_param_of_wrong_type(self, saved):
        path, obj = saved
        obj["params"]["max_depth"] = 2.5
        rejects_model_file(path, obj, "max_depth must be of type int, not 2.5")

    def test_empty_tree(self, saved):
        path, obj = saved
        obj["trees"][0] = []
        rejects_model_file(path, obj, "empty tree")

    def test_non_finite_base_score(self, saved):
        path, obj = saved
        obj["base_score"] = float("nan")
        rejects_model_file(path, obj, "base_score must be finite, not nan")

    @pytest.mark.parametrize("trees, count", [([], 0), (None, 3)], ids=["none", "one_extra"])
    def test_tree_count_other_than_n_estimators(self, saved, trees, count):
        path, obj = saved
        obj["trees"] = trees if trees is not None else obj["trees"] + obj["trees"][:1]
        rejects_model_file(path, obj, f"trees has {count} entries, but params.n_estimators is 2")

    def test_train_rmse_entry_per_tree(self, saved):
        path, obj = saved
        obj["train_rmse"] = [0.5]
        rejects_model_file(path, obj, "train_rmse has 1 entries, but there are 2 trees")

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_bad_train_rmse(self, saved, value):
        path, obj = saved
        obj["train_rmse"][1] = value
        rejects_model_file(path, obj, rf"train_rmse\[1\] must be finite and >= 0, not {value!r}")

    def test_tree_deeper_than_max_depth(self, saved):
        path, obj = saved
        obj["params"]["max_depth"] = 1
        rejects_model_file(path, obj, r"trees\[0\] has depth 2, but params.max_depth is 1")

    def test_leaf_wise_tree_with_more_than_num_leaves(self, tmp_path):
        rng = np.random.default_rng(29)
        m = matrix_from(rng.normal(size=(40, 3)), rng.normal(size=40))
        path = tmp_path / "model.json"
        save_model(gbt_fit(m, GbtParams(n_estimators=2, growth="leaf_wise", num_leaves=4)), str(path))
        obj = json.loads(path.read_text())
        obj["params"]["num_leaves"] = 3
        rejects_model_file(path, obj, r"trees\[0\] has 4 leaves, but params.num_leaves is 3")

    @pytest.mark.parametrize("name, node, value", [
        ("threshold", 0, float("inf")), ("weight", -1, float("nan")), ("gain", 0, float("-inf")),
    ])
    def test_non_finite_node_field(self, saved, name, node, value):
        path, obj = saved
        tree = obj["trees"][1]
        tree[node][name] = value
        rejects_model_file(path, obj, rf"trees\[1\]: node {node % len(tree)}: {name} must be finite, not {value!r}")


@st.composite
def forests(draw):
    """A random matrix with a random missing mask, and random GbtParams for it."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    # a few repeated values make ties between rows and between thresholds likely
    values = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0]) | st.floats(-5.0, 5.0)
    X = draw(arrays(np.float64, (n, d), elements=values))
    mask = draw(arrays(np.bool_, (n, d), elements=st.sampled_from([False, False, False, True])))
    y = draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    growth = draw(st.sampled_from(["depth_wise", "leaf_wise"]))
    params = GbtParams(
        n_estimators=draw(st.integers(1, 4)),
        eta=draw(st.sampled_from([0.3, 1.0])),
        max_depth=draw(st.integers(1, 5)),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 2.0])),
        subsample=draw(st.sampled_from([0.6, 1.0])),
        colsample_bytree=draw(st.sampled_from([0.5, 1.0])),
        reg_alpha=draw(st.sampled_from([0.0, 0.2])),
        growth=growth,
        num_leaves=draw(st.integers(2, 8)) if growth == "leaf_wise" else None,
        max_bin=draw(st.none() | st.integers(2, 6)),
        seed=draw(st.integers(0, 3)),
    )
    return matrix_from(X, y, mask), params


class TestTreeFormatProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(forests())
    def test_predict_walks_paths_and_model_file_round_trips(self, case):
        m, params = case
        model = gbt_fit(m, params)
        expected = oracle_forest_predict(model, m.rows, np.isnan(m.rows))
        np.testing.assert_array_equal(predict_rows(model, m.rows), expected)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
            save_model(model, first)
            loaded = load_model(first)
            save_model(loaded, second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        np.testing.assert_array_equal(gbt_predict(loaded, m), gbt_predict(model, m))


@st.composite
def split_nodes(draw):
    """One node's split search inputs: a block with tied, duplicated and missing columns, and blocking params.

    The draws come from a numpy generator seeded by hypothesis, so that every
    case has the weights below rather than hypothesis's bias to its simplest
    values (one row, every column alike).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 4)) if rng.random() < 0.2 else int(rng.integers(4, 31))
    d = int(rng.integers(1, 6))
    X = np.empty((n, d))
    mask = np.zeros((n, d), dtype=bool)
    for j in range(d):
        kind = rng.choice(["tied", "distinct", "part", "full", "duplicate"], p=[0.3, 0.2, 0.3, 0.1, 0.1])
        if kind == "duplicate" and j > 0:  # equal to an earlier column, mask included, so it ties on every split
            source = int(rng.integers(j))
            X[:, j], mask[:, j] = X[:, source], mask[:, source]
            continue
        X[:, j] = rng.choice([-1.0, 0.0, 0.5, 2.0], n) if kind == "tied" else rng.normal(size=n)
        mask[:, j] = kind == "full" or (kind == "part" and rng.random(n) < 0.3)
    X[mask] = np.nan
    g = rng.choice([-1.0, 1.0], n) if rng.random() < 0.3 else rng.normal(scale=3.0, size=n)
    rows = np.flatnonzero((rng.random(n) < 0.8) | (np.arange(n) == 0))
    cols = sorted(rng.choice(d, int(rng.integers(1, d + 1)), replace=False).tolist())
    # each of these values, when drawn, blocks every split on its own
    block = rng.choice([None, "min_child_weight", "min_child_samples", "gamma"], p=[0.7, 0.1, 0.1, 0.1])
    params = GbtParams(
        min_child_weight=1e3 if block == "min_child_weight" else float(rng.choice([0.0, 1.0, 2.0, 2.5])),
        min_child_samples=1000 if block == "min_child_samples" else int(rng.choice([1, 2])),
        gamma=1e6 if block == "gamma" else float(rng.choice([0.0, 0.5])),
        reg_lambda=float(rng.choice([1.0, 0.0])),
        reg_alpha=float(rng.choice([0.0, 0.2])),
        max_bin=None if rng.random() < 0.5 else int(rng.integers(2, 5)),
    )
    return X, g, rows, cols, params


class TestSplitSearchProperties:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(split_nodes())
    def test_block_scan_matches_per_feature_oracle(self, case):
        X, g, rows, cols, params = case
        # the oracle keeps general hessians; squared loss has every hessian 1
        expected = oracle_best_split(X, np.isnan(X), g, np.ones(X.shape[0]), rows, cols, params)
        cells = _column_cells(X, g, np.argsort(X.T, axis=1, kind="stable"), np.isin(np.arange(len(X)), rows), cols)
        got = _split_search(X, cells, [rows], cols, params)[0]
        if expected is None:
            assert got is None
            return
        assert got is not None
        assert (got.gain, got.feature, got.threshold, got.default_left) == (
            expected["gain"], expected["feature"], expected["threshold"], expected["default_left"]
        )
        np.testing.assert_array_equal(got.left_rows, expected["left_rows"])
        np.testing.assert_array_equal(got.right_rows, expected["right_rows"])


@st.composite
def grower_cases(draw):
    """A design matrix and params for whole forests: tied, duplicated and missing columns, and floors that block levels.

    As in split_nodes, the draws come from a numpy generator seeded by
    hypothesis.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 61))
    d = int(rng.integers(1, 6))
    X = np.empty((n, d))
    for j in range(d):
        kind = rng.choice(["tied", "distinct", "part", "full", "duplicate"], p=[0.3, 0.25, 0.3, 0.05, 0.1])
        if kind == "duplicate" and j > 0:
            X[:, j] = X[:, int(rng.integers(j))]
            continue
        X[:, j] = rng.choice([-1.0, 0.0, 0.5, 2.0], n) if kind == "tied" else rng.normal(size=n)
        X[(kind == "full") | ((kind == "part") & (rng.random(n) < 0.3)), j] = np.nan
    y = rng.choice([0.0, 1.0, 5.0], n) if rng.random() < 0.2 else rng.normal(scale=3.0, size=n)
    growth = str(rng.choice(["depth_wise", "leaf_wise"]))
    # a floor near n / 4 or above stops growth a level or two down, or at the root
    floor = int(rng.integers(1, n // 2 + 2)) if rng.random() < 0.25 else int(rng.choice([1, 2, 3]))
    params = GbtParams(
        n_estimators=int(rng.integers(1, 5)),
        eta=float(rng.choice([0.3, 1.0])),
        max_depth=int(rng.integers(1, 7)),
        min_child_weight=float(rng.choice([0.0, 1.0, 2.5])),
        min_child_samples=floor,
        gamma=float(rng.choice([0.0, 0.0, 0.5])),
        subsample=float(rng.choice([0.6, 1.0])),
        colsample_bytree=float(rng.choice([0.5, 1.0])),
        reg_alpha=float(rng.choice([0.0, 0.2])),
        reg_lambda=float(rng.choice([1.0, 0.1, 0.0])),
        growth=growth,
        num_leaves=int(rng.integers(2, 17)) if growth == "leaf_wise" else None,
        max_bin=None if rng.random() < 0.6 else int(rng.integers(2, 8)),
        seed=int(rng.integers(0, 4)),
    )
    return matrix_from(X, y), params


class TestGrowerProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grower_cases())
    def test_batched_forest_matches_per_node_oracle(self, case):
        m, params = case
        model = gbt_fit(m, params)
        trees, gain_totals, train_rmse = oracle_gbt_fit(m, params)
        assert [tree.tobytes() for tree in model.trees] == [tree.tobytes() for tree in trees]
        assert gbt_gain_totals(model) == gain_totals
        assert model.train_rmse == train_rmse


@st.composite
def binned_batches(draw):
    """A block of 1 to 4 disjoint nodes whose columns hold from a few to about 200 distinct values, and max_bin 2-40.

    So one batch mixes (node, column) pairs that are binned with pairs that
    are not. As in split_nodes, the draws come from a numpy generator seeded
    by hypothesis. No cell is -0.0 (see TestSignedZeroBins).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(4, 251))
    d = int(rng.integers(1, 6))
    X = np.empty((n, d))
    for j in range(d):
        kind = rng.choice(["distinct", "scaled", "rounded", "integers", "tied", "part"],
                          p=[0.2, 0.2, 0.15, 0.15, 0.1, 0.2])
        if kind == "scaled":  # neighbours of unlike magnitude, whose difference rounds, so lerp's two sides differ
            X[:, j] = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
        elif kind == "rounded":  # + 0.0 turns a rounded -0.0 into 0.0
            X[:, j] = np.round(rng.normal(size=n), 1) + 0.0
        elif kind == "integers":
            X[:, j] = rng.integers(0, int(rng.integers(2, 80)), n)
        else:
            X[:, j] = rng.choice([-1.0, 0.0, 0.5, 2.0], n) if kind == "tied" else rng.normal(size=n)
        X[(kind == "part") & (rng.random(n) < 0.3), j] = np.nan
    g = rng.choice([-1.0, 1.0], n) if rng.random() < 0.3 else rng.normal(scale=3.0, size=n)
    # each row joins one of the nodes or none; the rows of no node are in the cells or not
    node_of = rng.integers(0, int(rng.integers(1, 5)) + 1, n)
    batch = [rows for rows in (np.flatnonzero(node_of == b) for b in range(node_of.max())) if rows.size]
    in_rows = (node_of < node_of.max()) | (rng.random(n) < 0.5)
    cols = sorted(rng.choice(d, int(rng.integers(1, d + 1)), replace=False).tolist())
    params = GbtParams(
        min_child_weight=float(rng.choice([0.0, 1.0, 2.5])),
        min_child_samples=int(rng.choice([0, 1, 2, 5])),
        gamma=float(rng.choice([0.0, 0.5])),
        reg_lambda=float(rng.choice([1.0, 0.0])),
        reg_alpha=float(rng.choice([0.0, 0.2])),
        # max_bin 2 and 4 put a quantile at index (n - 1) / 2, whose lerp fraction is 0.5 for an even n
        max_bin=int(rng.choice([2, 4])) if rng.random() < 0.3 else int(rng.integers(2, 41)),
    )
    return X, g, batch, in_rows, cols, params


class TestBinnedBatchProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(binned_batches())
    def test_each_node_of_a_binned_batch_matches_the_oracle(self, case):
        X, g, batch, in_rows, cols, params = case
        cells = _column_cells(X, g, np.argsort(X.T, axis=1, kind="stable"), in_rows, cols)
        for rows, got in zip(batch, _split_search(X, cells, batch, cols, params), strict=True):
            expected = oracle_best_split(X, np.isnan(X), g, np.ones(X.shape[0]), rows, cols, params)
            if expected is None:
                assert got is None
                continue
            assert got is not None
            assert (got.gain, got.feature, got.threshold, got.default_left) == (
                expected["gain"], expected["feature"], expected["threshold"], expected["default_left"]
            )
            np.testing.assert_array_equal(got.left_rows, expected["left_rows"])
            np.testing.assert_array_equal(got.right_rows, expected["right_rows"])


class TestSignedZeroBins:
    """Binned columns that hold both -0.0 and 0.0.

    The split search takes each node's quantiles from its values sorted
    stably, where np.quantile partitions them and may swap a -0.0 with a
    0.0. So a zero threshold's sign may differ from the per-node oracle's,
    and nothing else may: every comparison treats -0.0 as 0.0.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_trees_differ_at_most_in_a_zero_thresholds_sign(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        X = np.round(rng.normal(scale=1.5, size=(n, 3)))
        X[X == 0.0] = rng.choice([-0.0, 0.0], np.count_nonzero(X == 0.0))
        y = rng.normal(size=n) + X[:, 0]
        X[rng.random((n, 3)) < 0.1] = np.nan
        m = matrix_from(X, y)
        params = GbtParams(n_estimators=3, eta=0.5, max_depth=4, min_child_weight=0.0, reg_lambda=0.1,
                           subsample=0.8, max_bin=int(rng.integers(2, 6)), seed=seed)
        model = gbt_fit(m, params)
        trees, gain_totals, train_rmse = oracle_gbt_fit(m, params)
        for got, expected in zip(model.trees, trees, strict=True):
            for name in NODE_DTYPE.names:
                if name != "threshold":
                    assert got[name].tobytes() == expected[name].tobytes()
            moved = got.threshold.view(np.int64) != expected.threshold.view(np.int64)
            assert (got.threshold[moved] == 0.0).all() and (expected.threshold[moved] == 0.0).all()
        assert (gbt_gain_totals(model), model.train_rmse) == (gain_totals, train_rmse)
        oracle_model = replace(model, trees=trees)
        expected = oracle_forest_predict(oracle_model, m.rows, np.isnan(m.rows))
        assert predict_rows(model, m.rows).tobytes() == expected.tobytes()
        assert oracle_forest_predict(model, m.rows, np.isnan(m.rows)).tobytes() == expected.tobytes()


class TestFittedFrom:
    """fitted_from reads a forest off a fit only where the fit with the other params would give that forest."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grower_cases(), st.data())
    def test_a_forest_read_off_a_fit_is_that_fit(self, case, data):
        m, params = case
        model = gbt_fit(m, params)
        assert [tree_depth(tree) for tree in model.trees] == [depth_of(tree) for tree in model.trees]
        deepest = max(map(tree_depth, model.trees))
        other = replace(
            params, n_estimators=data.draw(st.sampled_from([params.n_estimators] * 3 + [params.n_estimators + 1, 1])),
            max_depth=data.draw(st.sampled_from([max(deepest, 1), deepest + 1, params.max_depth + 1, 1])),
        )
        got = fitted_from(other, model)
        # a depth_wise fit gives the forest of each cap from its deepest tree up, and of every cap above its own
        # when no tree reached that
        caps = range(max(deepest, 1), params.max_depth + 1 if deepest == params.max_depth else other.max_depth + 1)
        assert (got is not None) == (
            params.growth == "depth_wise" and other.n_estimators == params.n_estimators and other.max_depth in caps)
        if got is None:
            return
        fit = gbt_fit(m, other)
        assert got.params == other
        assert [tree.tobytes() for tree in got.trees] == [tree.tobytes() for tree in fit.trees]
        assert (got.base_score, got.train_rmse) == (fit.base_score, fit.train_rmse)
        assert got.feature_names == fit.feature_names
        with tempfile.TemporaryDirectory() as tmp:
            save_model(got, os.path.join(tmp, "model.json"))

    def test_other_settings_need_a_fit(self):
        rng = np.random.default_rng(3)
        m = matrix_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        model = gbt_fit(m, GbtParams(n_estimators=3))
        for other in (GbtParams(n_estimators=2), GbtParams(n_estimators=4), GbtParams(n_estimators=3, eta=0.2),
                      GbtParams(n_estimators=3, seed=1), PolyParams(degree=1)):
            assert fitted_from(other, model) is None
        leaf_wise = GbtParams(n_estimators=3, growth="leaf_wise", num_leaves=4)
        for fit in (gbt_fit(m, leaf_wise), poly_fit(m, PolyParams(degree=1))):
            assert fitted_from(fit.params, fit) is None  # not even for its own params
