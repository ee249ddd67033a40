import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast.errors import NotManyToMany, ParseError, SchemaMismatch, UnknownLanguage
from perfcast.records import DesignMatrix, FeatureSchema, build_schema
from perfcast.regressors import (
    MfParams,
    fit_model,
    get_preset,
    load_model,
    mf_fit,
    mf_predict,
    save_model,
)
from perfcast.regressors.mf import MfModel
from perfcast.regressors.poly import impute_and_standardize

from conftest import assert_round_trip, rejects_model_file
from oracles import oracle_mf_sgd


def context_matrix(y, sources, targets, n_context=1):
    """Design matrix of the given language pairs whose context columns are constant zero."""
    schema = build_schema(("proxy",), [f"c{i}" for i in range(n_context)])
    n = len(y)
    rows = np.zeros((n, n_context))
    return DesignMatrix(schema, rows, np.asarray(y, dtype=np.float64), [f"r{i}" for i in range(n)],
                        list(zip(sources, targets)))


def one_row(columns, source, target, context):
    """A one-row design matrix of the given columns: the language pair and the context cells, as given."""
    schema = FeatureSchema(columns=tuple(columns))
    return DesignMatrix(schema, np.asarray(context, dtype=np.float64).reshape(1, -1), np.zeros(1), ["r0"],
                        [(source, target)])


def rank1_grid(u, v, const=5.0):
    sources, targets, y = [], [], []
    for i, us in enumerate(u):
        for j, vt in enumerate(v):
            sources.append(f"s{i}")
            targets.append(f"t{j}")
            y.append(us * vt + const)
    return sources, targets, np.asarray(y)


def no_reg_params(**kw):
    base = dict(latent_dim=2, alpha=0.05, beta_w=0.0, beta_h=0.0, beta_z=0.0,
                beta_s=0.0, beta_t=0.0, lr_decay=0.001, iterations=3000, seed=1)
    base.update(kw)
    return MfParams(**base)


class TestFit:
    def test_constant_scores_recovered_via_biases(self):
        # 2x2 grid, every cell scored 7: the mean/bias terms absorb it
        sources = ["sa", "sa", "sb", "sb"]
        targets = ["ta", "tb", "ta", "tb"]
        y = [7.0, 7.0, 7.0, 7.0]
        m = context_matrix(y, sources, targets)
        model = mf_fit(m, no_reg_params(iterations=500))
        pred = mf_predict(model, m)
        np.testing.assert_allclose(pred, 7.0, atol=1e-3)

    def test_rank1_recovery_without_regularization(self):
        u = np.array([-2.0, -1.0, 1.0, 2.0])
        v = np.array([-1.5, -0.5, 0.5, 1.5])
        sources, targets, y = rank1_grid(u, v)
        m = context_matrix(y, sources, targets)
        model = mf_fit(m, no_reg_params())
        pred = mf_predict(model, m)
        assert float(np.sqrt(np.mean((pred - y) ** 2))) < 1e-2

    def test_rank1_recovery_with_default_preset(self):
        u = np.array([1.94, 1.98, 2.02, 2.06])
        v = np.array([1.93, 1.99, 2.03, 2.05])
        sources, targets, y = rank1_grid(u, v)
        m = context_matrix(y, sources, targets)
        model = mf_fit(m, get_preset("mf_default"))
        pred = mf_predict(model, m)
        assert float(np.sqrt(np.mean((pred - y) ** 2))) < 1e-2

    def test_english_centric_rejected(self):
        sources = ["eng"] * 4
        targets = ["deu", "fra", "ces", "dan"]
        y = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(NotManyToMany):
            mf_fit(context_matrix(y, sources, targets), no_reg_params())

    def test_single_cell_rejected(self):
        with pytest.raises(NotManyToMany):
            mf_fit(context_matrix([7.0, 7.0], ["sa", "sa"], ["ta", "ta"]), no_reg_params())

    def test_context_weight_learned(self):
        # score depends only on the context feature
        rng = np.random.default_rng(0)
        n = 60
        sources = [f"s{i % 3}" for i in range(n)]
        targets = [f"t{i % 4}" for i in range(n)]
        c = rng.uniform(-1, 1, size=(n, 1))
        y = 3.0 * c[:, 0] + 2.0
        schema = build_schema(("proxy",), ["c0"])
        m = DesignMatrix(schema, c.copy(), y, [f"r{i}" for i in range(n)], list(zip(sources, targets)))
        model = mf_fit(m, no_reg_params(latent_dim=0, iterations=1500))
        pred = mf_predict(model, m)
        assert float(np.sqrt(np.mean((pred - y) ** 2))) < 1e-2

    def test_latent_dim_zero_is_pure_bias_model(self):
        sources = ["sa", "sa", "sb", "sb"]
        targets = ["ta", "tb", "ta", "tb"]
        y = [1.0, 2.0, 3.0, 4.0]
        m = context_matrix(y, sources, targets)
        model = mf_fit(m, no_reg_params(latent_dim=0, iterations=200))
        for s, t in zip(sources, targets):
            manual = model.mu + model.b_s[s] + model.b_t[t]
            assert mf_predict(model, one_row(model.feature_names, s, t, [0.0]))[0] == manual

    def test_fit_model_needs_language_pairs(self):
        sources, targets, y = rank1_grid(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        m = context_matrix(y, sources, targets)
        params = MfParams(iterations=5)
        model = fit_model(params, m)
        np.testing.assert_array_equal(mf_predict(model, m), mf_predict(mf_fit(m, params), m))
        m.languages = None
        with pytest.raises(ValueError, match="language pairs"):
            fit_model(params, m)
        with pytest.raises(ValueError, match="language pairs"):
            mf_predict(model, m)

    def test_deterministic(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, 1.5, 2.5])
        sources, targets, y = rank1_grid(u, v)
        m = context_matrix(y, sources, targets)
        p1 = mf_predict(mf_fit(m, no_reg_params(iterations=50)), m)
        p2 = mf_predict(mf_fit(m, no_reg_params(iterations=50)), m)
        np.testing.assert_array_equal(p1, p2)


LANGUAGE_CODES = ("aar", "bel", "ces", "ñan", "ελλ", "рус", "日本")


@st.composite
def mf_problems(draw):
    """MF inputs: an unbalanced language grid, 0, 1 or 3 context columns with NaN cells, and SGD params.

    The draws come from a numpy generator seeded by hypothesis, so that every
    case has the weights below rather than hypothesis's bias to its simplest
    values (one epoch, no context, all-zero betas).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(4, 41))
    sides = []
    for _ in ("source", "target"):
        codes = rng.permutation(LANGUAGE_CODES)[: int(rng.integers(2, 6))].tolist()
        picks = rng.choice(len(codes), n, p=rng.dirichlet(np.full(len(codes), 0.5)))
        picks[:2] = [0, 1]  # at least two distinct languages per side
        sides.append([codes[i] for i in picks])
    c_dim = int(rng.choice([0, 1, 3]))
    rows = rng.normal(size=(n, c_dim)) * rng.uniform(0.1, 10.0, size=c_dim)
    rows[rng.uniform(size=rows.shape) < rng.choice([0.0, 0.3])] = np.nan
    schema = FeatureSchema(columns=tuple(f"c{j}" for j in range(c_dim)))
    y = rng.normal(20.0, 5.0, size=n)
    matrix = DesignMatrix(schema, rows, y, [f"r{i}" for i in range(n)], list(zip(*sides)))
    betas = rng.choice([0.0, 0.01, 0.1], 5) * (rng.random() < 0.75)
    params = MfParams(
        latent_dim=int(rng.choice([0, 1, 8])),
        alpha=float(rng.choice([0.001, 0.01, 0.05])),
        **{name: float(b) for name, b in zip(("beta_w", "beta_h", "beta_z", "beta_s", "beta_t"), betas)},
        lr_decay=float(rng.choice([0.0, 0.001, 0.1])),
        iterations=int(rng.integers(1, 51)),
        seed=int(rng.integers(2**16)),
    )
    return matrix, sides[0], sides[1], params


class TestConstantColumn:
    def test_a_value_unseen_in_a_constant_column_moves_no_prediction(self):
        # 0.1 repeated standardizes to 0 in training, so its theta stays 0
        sources, targets, y = rank1_grid(np.linspace(1.0, 2.0, 15), np.linspace(1.0, 2.0, 20))
        matrix = context_matrix(y, sources, targets)
        matrix.rows[:] = 0.1
        model = mf_fit(matrix, no_reg_params(iterations=20))
        assert model.theta[0] == 0.0
        seen = one_row(matrix.schema.columns, "s0", "t0", [0.1])
        unseen = one_row(matrix.schema.columns, "s0", "t0", [0.2])
        assert mf_predict(model, unseen).tobytes() == mf_predict(model, seen).tobytes()
        assert mf_predict(model, seen)[0] == pytest.approx(y[0], abs=0.5)


class TestSgdOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mf_problems())
    def test_matches_numpy_per_record_updates(self, problem):
        matrix, sources, targets, params = problem
        model = mf_fit(matrix, params)
        Xs, _, mean, std = impute_and_standardize(matrix.rows)
        src_set, tgt_set = sorted(set(sources)), sorted(set(targets))
        W, H, b_s, b_t, theta, mu = oracle_mf_sgd(
            (Xs - mean) / std, matrix.targets,
            [src_set.index(s) for s in sources], [tgt_set.index(t) for t in targets],
            len(src_set), len(tgt_set), params,
        )
        assert model.mu == mu
        # only the two dot products round differently: plain loops here, numpy's `@` in the oracle
        close = dict(rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(np.array([model.w[s] for s in src_set]), W, **close)
        np.testing.assert_allclose(np.array([model.h[t] for t in tgt_set]), H, **close)
        np.testing.assert_allclose([model.b_s[s] for s in src_set], b_s, **close)
        np.testing.assert_allclose([model.b_t[t] for t in tgt_set], b_t, **close)
        np.testing.assert_allclose(model.theta, theta, **close)


class TestPredict:
    def _toy_model(self, mu=3.0, k=0, c_dim=1):
        return MfModel(
            params=MfParams(latent_dim=k),
            mu=mu,
            w={"sa": np.zeros(k)},
            h={"ta": np.zeros(k)},
            b_s={"sa": 0.0},
            b_t={"ta": 0.0},
            theta=np.zeros(c_dim),
            impute=np.zeros(c_dim),
            mean=np.zeros(c_dim),
            std=np.ones(c_dim),
            feature_names=tuple(f"c{i}" for i in range(c_dim)),
        )

    def test_zero_parameters_give_mu(self):
        model = self._toy_model(mu=3.0)
        assert mf_predict(model, one_row(model.feature_names, "sa", "ta", [0.0]))[0] == 3.0

    def test_unknown_language(self):
        model = self._toy_model()
        with pytest.raises(UnknownLanguage):
            mf_predict(model, one_row(model.feature_names, "zz", "ta", [0.0]))
        with pytest.raises(UnknownLanguage):
            mf_predict(model, one_row(model.feature_names, "sa", "zz", [0.0]))

    def test_hand_evaluated_dot_product(self):
        model = MfModel(
            params=MfParams(latent_dim=2),
            mu=1.0,
            w={"sa": np.array([0.5, -1.0])},
            h={"ta": np.array([2.0, 0.25])},
            b_s={"sa": 0.3},
            b_t={"ta": -0.1},
            theta=np.array([1.5, -0.5]),
            impute=np.zeros(2),
            mean=np.zeros(2),
            std=np.ones(2),
            feature_names=("c0", "c1"),
        )
        context = np.array([2.0, 4.0])
        expected = 1.0 + 0.3 - 0.1 + (0.5 * 2.0 + -1.0 * 0.25) + (1.5 * 2.0 + -0.5 * 4.0)
        pred = mf_predict(model, one_row(model.feature_names, "sa", "ta", context))
        assert pred[0] == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mf_problems())
    def test_rows_sum_in_the_fits_order(self, problem):
        matrix, sources, targets, params = problem
        model = mf_fit(matrix, params)
        C = (np.where(np.isnan(matrix.rows), model.impute, matrix.rows) - model.mean) / model.std
        expected = []
        for s, t, c in zip(sources, targets, C.tolist()):
            wh = 0.0
            for w, h in zip(model.w[s].tolist(), model.h[t].tolist()):
                wh += w * h
            tc = 0.0
            for theta, x in zip(model.theta.tolist(), c):
                tc += theta * x
            expected.append(model.mu + model.b_s[s] + model.b_t[t] + wh + tc)
        pred = mf_predict(model, matrix)
        assert pred.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("cells", [1, 3])
    def test_context_of_another_length(self, cells):
        model = self._toy_model(c_dim=2)
        columns = [f"c{i}" for i in range(cells)]
        with pytest.raises(SchemaMismatch, match=f"^the design matrix has {cells} columns, but the model 2$"):
            mf_predict(model, one_row(columns, "sa", "ta", np.zeros(cells)))

    def test_schema_mismatch(self):
        sources = ["sa", "sa", "sb", "sb"]
        targets = ["ta", "tb", "ta", "tb"]
        m = context_matrix([1.0, 2.0, 3.0, 4.0], sources, targets)
        model = mf_fit(m, no_reg_params(iterations=10))
        other = context_matrix([1.0, 2.0, 3.0, 4.0], sources, targets, n_context=2)
        with pytest.raises(SchemaMismatch, match="^the design matrix has 2 columns, but the model 1$"):
            mf_predict(model, other)
        model.feature_names = ("proxy:c9",)
        renamed = "^design matrix column 0 is 'proxy:c0', but the model's is 'proxy:c9'$"
        with pytest.raises(SchemaMismatch, match=renamed):
            mf_predict(model, m)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, 1.5, 2.5])
        sources, targets, y = rank1_grid(u, v)
        m = context_matrix(y, sources, targets)
        model = mf_fit(m, no_reg_params(iterations=100))
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            mf_predict(loaded, m),
            mf_predict(model, m),
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mf_problems())
    def test_round_trip_property(self, problem):
        matrix, sources, targets, params = problem
        model = mf_fit(matrix, replace(params, iterations=min(params.iterations, 3)))
        assert_round_trip(model, lambda m: mf_predict(m, matrix))


class TestModelFileValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        sources, targets, y = rank1_grid(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        path = tmp_path / "model.json"
        save_model(mf_fit(context_matrix(y, sources, targets), no_reg_params(iterations=10)), str(path))
        return path, json.loads(path.read_text())

    def test_source_factor_cut_short(self, saved):
        path, obj = saved
        obj["w"]["s0"] = obj["w"]["s0"][:1]
        rejects_model_file(path, obj, r"w\['s0'\] has shape \(1,\), latent_dim is 2")

    def test_target_factor_too_long(self, saved):
        path, obj = saved
        obj["h"]["t1"].append(0.0)
        rejects_model_file(path, obj, r"h\['t1'\] has shape \(3,\)")

    def test_bias_languages_differ_from_factors(self, saved):
        path, obj = saved
        obj["b_t"]["t9"] = obj["b_t"].pop("t1")
        rejects_model_file(path, obj, "b_s/b_t do not match")

    def test_theta_and_column_statistics_lengths_differ(self, saved):
        path, obj = saved
        obj["theta"].append(0.0)
        rejects_model_file(path, obj, "lengths differ.*theta")

    def test_feature_names_and_column_statistics_lengths_differ(self, saved):
        path, obj = saved
        obj["feature_names"].append("proxy:c1")
        rejects_model_file(path, obj, "lengths differ.*feature_names")

    @pytest.mark.parametrize("where, value, match", [
        (("mu",), float("inf"), r"mu must be finite, not inf"),
        (("w", "s1", 1), float("nan"), r"w\['s1'\]\[1\] must be finite, not nan"),
        (("h", "t0", 0), float("-inf"), r"h\['t0'\]\[0\] must be finite, not -inf"),
        (("b_s", "s0"), float("nan"), r"b_s\['s0'\] must be finite, not nan"),
        (("b_t", "t1"), float("inf"), r"b_t\['t1'\] must be finite, not inf"),
        (("theta", 0), float("nan"), r"theta\[0\] must be finite, not nan"),
        (("impute", 0), float("nan"), r"impute\[0\] must be finite, not nan"),
        (("mean", 0), float("-inf"), r"mean\[0\] must be finite, not -inf"),
        (("std", 0), float("inf"), r"std\[0\] must be finite and > 0, not inf"),
        (("std", 0), 0.0, r"std\[0\] must be finite and > 0, not 0.0"),
    ], ids=["mu", "w", "h", "b_s", "b_t", "theta", "impute", "mean", "std_not_finite", "std_zero"])
    def test_bad_number(self, saved, where, value, match):
        path, obj = saved
        *keys, last = where
        container = obj
        for key in keys:
            container = container[key]
        container[last] = value
        rejects_model_file(path, obj, match)

    def test_diverged_fit_is_not_saved(self, tmp_path):
        sources, targets, y = rank1_grid(np.array([-2.0, -1.0, 1.0, 2.0]), np.array([-1.5, -0.5, 0.5, 1.5]))
        model = mf_fit(context_matrix(y, sources, targets), MfParams(latent_dim=2, alpha=50.0, iterations=50))
        assert np.isnan(model.theta).all()
        path = tmp_path / "model.json"
        with pytest.raises(ParseError, match=r"model\.json: not a valid model, not written: theta\[0\] must be finite"):
            save_model(model, str(path))
        assert not path.exists()
