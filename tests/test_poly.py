import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast.errors import EmptyTrainingSet, SchemaMismatch
from perfcast.records import build_schema
from perfcast.regressors import PolyParams, load_model, poly_fit, poly_predict, save_model
from perfcast.regressors.poly import PolyModel, _expand, expansion_terms, impute_and_standardize

from conftest import assert_round_trip, rejects_model_file
from oracles import oracle_expand, oracle_ols, oracle_poly_cd, oracle_poly_cd_cyclic
from test_gbt import matrix_from


class TestExpansion:
    def test_term_order_documented(self):
        assert expansion_terms(2, 3) == [
            (0,), (1,),
            (0, 0), (0, 1), (1, 1),
            (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1),
        ]

    def test_counts(self):
        # C(d + k, k) - 1 monomials of total degree 1..k
        assert len(expansion_terms(3, 2)) == 9
        assert len(expansion_terms(4, 3)) == 34

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 6),
        degree=st.integers(1, 3),
        shuffle=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_term_loop_to_the_bit(self, n, d, degree, shuffle, seed):
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        terms = expansion_terms(d, degree)
        if shuffle:  # a loaded model's terms come in its file's order
            terms = [terms[k] for k in rng.permutation(len(terms))]
        assert _expand(Z, terms).tobytes() == oracle_expand(Z, terms).tobytes()


class TestFit:
    def test_constant_targets(self):
        m = matrix_from(np.random.default_rng(0).normal(size=(20, 3)), np.full(20, 6.5))
        model = poly_fit(m, PolyParams(degree=2, alpha=0.1, l1_ratio=0.9))
        assert model.intercept == pytest.approx(6.5, abs=1e-12)
        np.testing.assert_allclose(model.coef, 0.0, atol=1e-12)

    def test_alpha_zero_degree1_matches_ols(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(20, 60))
            d = int(rng.integers(2, 5))
            X = rng.normal(size=(n, d))
            y = X @ rng.normal(size=d) + rng.normal() + 0.1 * rng.normal(size=n)
            m = matrix_from(X, y)
            model = poly_fit(m, PolyParams(degree=1, alpha=0.0, max_iterations=20000, tolerance=1e-13))
            Z = (X - model.mean) / model.std
            oracle_b, oracle_w = oracle_ols(Z, y)
            np.testing.assert_allclose(model.coef, oracle_w, atol=1e-8)
            assert model.intercept == pytest.approx(oracle_b, abs=1e-8)

    def test_huge_alpha_kills_coefficients(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = poly_fit(matrix_from(X, y), PolyParams(degree=2, alpha=1e6))
        assert np.all(np.abs(model.coef) < 1e-6)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = X[:, 0] - 2 * X[:, 2] + rng.normal(size=40)
        model = poly_fit(matrix_from(X, y), PolyParams(degree=2, alpha=0.05, l1_ratio=0.5))
        hist = model.objective_history
        assert len(hist) >= 2
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev + 1e-12 * max(1.0, hist[0])

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        model = poly_fit(matrix_from(X, y), PolyParams(degree=2, alpha=0.0, max_iterations=1, tolerance=1e-16))
        assert not model.converged

    def test_empty(self):
        with pytest.raises(EmptyTrainingSet):
            poly_fit(matrix_from(np.empty((0, 2)), np.empty(0)), PolyParams())

    def test_missing_cells_imputed_with_column_mean(self):
        X = np.array([[1.0, 5.0], [2.0, 7.0], [3.0, 0.0]])
        mask = np.zeros_like(X, dtype=bool)
        mask[2, 1] = True
        m = matrix_from(X, [1.0, 2.0, 3.0], mask)
        model = poly_fit(m, PolyParams(degree=1, alpha=0.0))
        assert model.impute[1] == pytest.approx(6.0)  # mean of the observed 5 and 7

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            PolyParams(degree=0)
        with pytest.raises(ValueError):
            PolyParams(degree=4)


@st.composite
def elastic_net_problems(draw):
    """A design matrix and params; some columns constant or with NaN cells, some caps small."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(3, 30)), draw(st.integers(1, 4))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    X[:, constant] = rng.integers(-3, 4, size=int(constant.sum()))  # an exact mean, so col_sq is 0
    y = X @ rng.normal(size=d) + rng.normal(scale=draw(st.sampled_from([0.01, 1.0])), size=n)
    mask = rng.uniform(size=X.shape) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    params = PolyParams(
        degree=draw(st.integers(1, 3)),
        alpha=draw(st.sampled_from([0.0, 0.01, 0.1, 1.0])),
        l1_ratio=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        max_iterations=draw(st.sampled_from([1, 2, 5, 300])),
    )
    return matrix_from(X, y, mask), params


class TestCoordinateDescentOracle:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(elastic_net_problems())
    def test_matches_per_column_residual_descent(self, problem):
        matrix, params = problem
        model = poly_fit(matrix, params)
        Xs, _, mean, std = impute_and_standardize(matrix.rows)
        P = _expand((Xs - mean) / std, expansion_terms(Xs.shape[1], params.degree))
        intercept, coef, converged, sweeps, history = oracle_poly_cd(P, matrix.targets, params)
        assert (model.n_sweeps, model.converged) == (sweeps, converged)
        np.testing.assert_array_equal(np.flatnonzero(model.coef), np.flatnonzero(coef))
        scale = float(np.abs(coef).max(initial=0.0))
        np.testing.assert_allclose(model.coef, coef, rtol=1e-9, atol=1e-9 * scale)
        assert model.intercept == pytest.approx(intercept, rel=1e-9)
        # an objective at the rounding floor is compared against the first sweep's
        np.testing.assert_allclose(model.objective_history, history, rtol=1e-9, atol=1e-12 * history[0])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(elastic_net_problems())
    def test_same_minimum_as_passes_over_every_coordinate(self, problem):
        matrix, params = problem
        Xs, _, mean, std = impute_and_standardize(matrix.rows)
        P = _expand((Xs - mean) / std, expansion_terms(Xs.shape[1], params.degree))
        assert_same_minimum(P, matrix.targets, params)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("l1_ratio", [0.5, 0.9, 1.0])
    def test_same_minimum_on_a_wider_expansion(self, seed, l1_ratio):
        # 55 terms, where a zero coordinate often leaves the l1 band partway through a pass
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 5))
        y = X @ rng.normal(size=5) + X[:, 0] * X[:, 1] + rng.normal(size=50)
        Xs, _, mean, std = impute_and_standardize(X)
        P = _expand((Xs - mean) / std, expansion_terms(5, 3))
        assert_same_minimum(P, y, PolyParams(degree=3, alpha=0.05, l1_ratio=l1_ratio, max_iterations=3000))


def assert_same_minimum(P, y, params):
    """Where both converge, the visit rule and every-coordinate passes reach the same minimum."""
    _, coef, converged, _, history = oracle_poly_cd(P, y, params)
    _, coef_cyclic, converged_cyclic, _, history_cyclic = oracle_poly_cd_cyclic(P, y, params)
    if not (converged and converged_cyclic):
        return
    assert history[-1] == pytest.approx(history_cyclic[-1], rel=1e-9)
    if params.l1_ratio < 1.0 and params.alpha > 0.0:  # a strictly convex objective has one minimizer
        scale = float(np.abs(coef_cyclic).max(initial=0.0))
        np.testing.assert_allclose(coef, coef_cyclic, rtol=0.0, atol=1e-6 * scale)


class TestPredict:
    def test_zero_coefficients_give_intercept(self):
        m = matrix_from([[1.0], [2.0]], [3.0, 3.0])
        model = poly_fit(m, PolyParams(degree=2, alpha=0.1))
        np.testing.assert_allclose(poly_predict(model, m), [3.0, 3.0], atol=1e-12)

    def test_pure_square_term(self):
        schema = build_schema(("proxy",), ["f0"])
        model = PolyModel(
            params=PolyParams(degree=2),
            terms=expansion_terms(1, 2),
            intercept=0.0,
            coef=np.array([0.0, 1.0]),  # x then x^2; coefficient only on x^2
            impute=np.zeros(1),
            mean=np.zeros(1),
            std=np.ones(1),
            fingerprint=schema.fingerprint(),
            converged=True,
            n_sweeps=0,
        )
        m = matrix_from([[3.0]], [0.0])
        np.testing.assert_allclose(poly_predict(model, m), [9.0])

    def test_matches_manual_expansion(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        m = matrix_from(X, y)
        model = poly_fit(m, PolyParams(degree=3, alpha=0.01))
        Z = (X - model.mean) / model.std
        expected = np.full(25, model.intercept)
        for coef, term in zip(model.coef, model.terms):
            col = np.ones(25)
            for j in term:
                col = col * Z[:, j]
            expected += coef * col
        np.testing.assert_allclose(poly_predict(model, m), expected, atol=1e-12)

    def test_schema_mismatch(self):
        m = matrix_from([[1.0], [2.0]], [1.0, 2.0])
        model = poly_fit(m, PolyParams(degree=1))
        other = matrix_from([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        with pytest.raises(SchemaMismatch):
            poly_predict(model, other)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        mask = rng.uniform(size=X.shape) < 0.1
        m = matrix_from(X, y, mask)
        model = poly_fit(m, PolyParams(degree=2, alpha=0.02))
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(poly_predict(loaded, m), poly_predict(model, m))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(elastic_net_problems())
    def test_round_trip_property(self, problem):
        matrix, params = problem
        model = poly_fit(matrix, params)
        assert_round_trip(model, lambda m: poly_predict(m, matrix))


class TestModelFileValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        rng = np.random.default_rng(8)
        m = matrix_from(rng.normal(size=(30, 3)), rng.normal(size=30))
        path = tmp_path / "model.json"
        save_model(poly_fit(m, PolyParams(degree=2, alpha=0.02)), str(path))
        return path, json.loads(path.read_text())

    def test_term_index_outside_the_columns(self, saved):
        path, obj = saved
        obj["terms"][0] = [999]
        rejects_model_file(path, obj, r"term \[999\] indexes a column outside \[0, 3\)")

    def test_negative_term_index(self, saved):
        path, obj = saved
        obj["terms"][0] = [-1]
        rejects_model_file(path, obj, r"term \[-1\]")

    def test_coef_and_terms_lengths_differ(self, saved):
        path, obj = saved
        obj["coef"].pop()
        rejects_model_file(path, obj, "lengths differ.*coef")

    def test_empty_term(self, saved):
        path, obj = saved
        obj["terms"][0] = []
        rejects_model_file(path, obj, r"terms\[0\] is empty")

    def test_column_statistics_lengths_differ(self, saved):
        path, obj = saved
        obj["std"].pop()
        rejects_model_file(path, obj, "lengths differ.*std")
