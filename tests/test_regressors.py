"""The regressor-kind dispatch: fit_model and predict_model."""

import numpy as np
import pytest

import perfcast.regressors as regressors
from perfcast.regressors import GbtParams, MfParams, PolyParams, fit_model, predict_model

from test_mf import context_matrix, rank1_grid


@pytest.mark.parametrize("kind, params", [
    ("gbt", GbtParams(n_estimators=2)),
    ("poly", PolyParams(degree=1)),
    ("mf", MfParams(iterations=2)),
], ids=["gbt", "poly", "mf"])
def test_fit_and_predict_call_the_solvers_bound_at_call_time(monkeypatch, kind, params):
    # a tracer rebinds the solvers in perfcast.regressors, and must see every fit and predict
    sources, targets, y = rank1_grid(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    matrix = context_matrix(y, sources, targets)
    calls = []
    for name in (f"{kind}_fit", f"{kind}_predict"):
        def traced(*args, name=name, solver=getattr(regressors, name)):
            calls.append((name, args))
            return solver(*args)
        monkeypatch.setattr(regressors, name, traced)
    model = fit_model(params, matrix)
    pred = predict_model(model, matrix)
    assert [name for name, _ in calls] == [f"{kind}_fit", f"{kind}_predict"]
    (_, (fit_matrix, fit_params)), (_, (predict_model_arg, predict_matrix)) = calls
    assert fit_matrix is matrix and fit_params is params
    assert predict_model_arg is model and predict_matrix is matrix
    assert pred.shape == (matrix.n,)


@pytest.mark.parametrize("params_cls", [GbtParams, MfParams], ids=["gbt", "mf"])
def test_a_seeded_kind_refuses_a_negative_seed(params_cls):
    # numpy's default_rng takes no negative seed, so the fit would fail with numpy's own ValueError
    assert params_cls(seed=0).seed == 0
    with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
        params_cls(seed=-1)
