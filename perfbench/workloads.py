"""The benchmark's workloads: seeded inputs, one timed operation, and its checks.

Each workload builds `variants` input sets from the run's seed and cycles its
ops over them. Op time and test error both depend on the draw, so a run's op
time (the mean over variants of each variant's median) and its pooled error
cover several draws rather than one.

`op` is the timed part. `check` runs after the timer stops; it raises
`CheckFailed` when an output is wrong and otherwise returns what the op did.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

import gen
import perfcast.cli as cli
import perfcast.experiments as experiments
from perfcast.corpus import load_feature_csv
from perfcast.experiments import ExperimentConfig, SplitSpec
from perfcast.langdist import load_distance_table
from perfcast.records import build_design_matrix, build_schema, load_records, proxy_roster
from perfcast.regressors import get_preset, load_model, predict_model, save_model

class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Outcome:
    """What one checked op did: model fits, predicted rows, and its squared test errors."""

    fits: int
    rows: int
    sq_err: float
    n_err: int

    def __add__(self, other: "Outcome") -> "Outcome":
        return Outcome(self.fits + other.fits, self.rows + other.rows,
                       self.sq_err + other.sq_err, self.n_err + other.n_err)


class Capture:
    """Wrap `module.attr` to keep its last call's arguments and result, for checks.

    The wrapper stays installed for the whole run, traced or not; it costs one
    extra Python call per wrapped call.
    """

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.last = None

        def keep(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.last = (args, result)
            return result

        setattr(module, attr, keep)

    def close(self) -> None:
        setattr(self.module, self.attr, self.original)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_round_trip(call, path: str) -> None:
    """save_model/load_model, then predict again: the result must be bit-identical."""
    (model, matrix, *languages), pred = call
    save_model(model, path)
    again = predict_model(load_model(path), matrix, *languages)
    _require(again.dtype == pred.dtype and again.tobytes() == pred.tobytes(),
             f"{type(model).__name__} predicts differently after a save/load round trip")


def _check_experiment(result, config: ExperimentConfig, expected_ids: list[str], reference) -> Outcome:
    """Finite predictions, one per expected test row, consistent RMSE, same as the reference run."""
    ids = [rid for rid, _, _ in result.predictions]
    _require(ids == expected_ids, f"predicted record ids differ from the split's {len(expected_ids)} test rows")
    true = np.array([t for _, t, _ in result.predictions])
    pred = np.array([p for _, _, p in result.predictions])
    _require(bool(np.all(np.isfinite(pred))), "non-finite prediction")
    pooled = math.sqrt(float(np.mean((pred - true) ** 2)))
    _require(math.isclose(pooled, result.per_repeat_rmse[-1], rel_tol=1e-9),
             "reported RMSE disagrees with the returned predictions")
    _require(len(result.per_repeat_rmse) == config.repeats, "wrong number of repeats")
    if reference is not None:
        _require(result.predictions == reference.predictions, "predictions differ from the first run on these inputs")
    units = len(result.chosen_params)
    grid = len(config.grid)
    fits = config.repeats * units * (config.cv_folds * grid + 1 if grid > 1 else 1)
    sq = float(sum(r * r for r in result.per_repeat_rmse)) * len(ids)
    return Outcome(fits=fits, rows=len(ids) * config.repeats, sq_err=sq, n_err=len(ids) * config.repeats)


def _lolo_test_ids(records) -> list[str]:
    """Record ids in the order LOLO pools them: per holdable language, in sorted order."""
    langs = sorted({r.src_lang for r in records} | {r.tgt_lang for r in records})
    holdable = [lang for lang in langs if not all(lang in (r.src_lang, r.tgt_lang) for r in records)]
    return [r.record_id for lang in holdable for r in records if lang in (r.src_lang, r.tgt_lang)]


def _random_test_ids(records, ratio: float, seed: int) -> list[str]:
    """Ids of the test side of a seeded random split, recomputed by the documented rule."""
    perm = np.random.default_rng(seed).permutation(len(records))
    n_train = int(math.floor(ratio * len(records) + 1e-9))
    return [records[i].record_id for i in perm[n_train:]]


class ExperimentWorkload:
    """Shared base for workloads whose op is one or more `run_experiment` calls."""

    variants = 8

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.capture = Capture(experiments, "predict_model")
        self.inputs = [self.make_configs(seed * 1000 + v) for v in range(self.variants)]
        self.references: dict[int, list] = {}

    def make_configs(self, seed: int) -> list[tuple[ExperimentConfig, list[str]]]:
        raise NotImplementedError

    def op(self, v: int) -> list:
        out = []
        for config, _ in self.inputs[v]:
            result = experiments.run_experiment(config)
            out.append((result, self.capture.last))
        return out

    def check(self, v: int, out: list) -> Outcome:
        reference = self.references.get(v)
        total = Outcome(0, 0, 0.0, 0)
        for i, ((config, expected_ids), (result, call)) in enumerate(zip(self.inputs[v], out)):
            total += _check_experiment(result, config, expected_ids, reference[i][0] if reference else None)
            _check_round_trip(call, os.path.join(self.workdir, "model.json"))
        self.references.setdefault(v, out)
        return total

    def close(self) -> None:
        self.capture.close()


class LoloGbtCv(ExperimentWorkload):
    """LOLO over English-centric records, 2-point GBT grid under k-fold CV."""

    name = "lolo_gbt_cv"
    n_records, n_languages, n_estimators, cv_folds = 100, 5, 2, 2

    def make_configs(self, seed):
        records, blocks, table = gen.english_centric(seed, self.n_records, self.n_languages)
        base = replace(get_preset("mt_english_m2m100"), n_estimators=self.n_estimators)
        config = ExperimentConfig(
            records=records, grid=[base, replace(base, max_depth=3)], split=SplitSpec("lolo"),
            repeats=1, cv_folds=self.cv_folds, seed=seed, dataset_features=blocks, language_table=table,
        )
        return [(config, _lolo_test_ids(records))]


class M2mSolvers(ExperimentWorkload):
    """Dense many-to-many grid: poly3 elastic net with an alpha grid under CV, then MF."""

    name = "m2m_solvers"
    n_languages, n_datasets, repeats, mf_epochs = 6, 6, 2, 40
    # Sweeps to convergence vary by 20% from draw to draw, enough to move a
    # run's mean op time by 10% from one seed to the next. Under this cap
    # nearly every fit runs the same number of sweeps, so op time follows
    # the cost of a sweep, not the draw; poly.sweeps and poly.unconverged
    # report what the cap did.
    poly_sweeps = 100
    variants = 16  # pooled test error varies with the draw; more draws steady it

    def make_configs(self, seed):
        records, blocks, table = gen.many_to_many(seed, self.n_languages, self.n_datasets)
        poly3 = get_preset("poly3_default")
        common = dict(records=records, split=SplitSpec("random", 0.7), feature_groups=("language", "proxy"),
                      repeats=self.repeats, cv_folds=2, seed=seed, dataset_features=blocks,
                      language_table=table)
        poly3 = replace(poly3, max_iterations=self.poly_sweeps)
        poly = ExperimentConfig(grid=[replace(poly3, alpha=1.0), replace(poly3, alpha=2.0)], **common)
        mf = ExperimentConfig(grid=[replace(get_preset("mf_default"), iterations=self.mf_epochs)], **common)
        # run_experiment keeps only the last repeat's predictions
        ids = _random_test_ids(records, 0.7, seed + self.repeats - 1)
        return [(poly, ids), (mf, ids)]


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

_STEPS = ("features", "train", "predict", "experiment", "importance")

# Leaf-wise booster in the style of lgbm_default, cut small so that fitting
# stays a minor share of the pipeline; max_bin is low enough to bin.
_TRAIN_PARAMS = {
    "n_estimators": 8, "eta": 0.3, "min_child_weight": 0.001, "max_depth": 10,
    "reg_alpha": 0.1, "reg_lambda": 0.1, "growth": "leaf_wise", "num_leaves": 8,
    "min_child_samples": 10, "max_bin": 32,
}


# poly_default, with its coordinate descent capped: sweeps to convergence ranged
# from under 200 to over 900 between draws, which alone moved the op time by 20%.
_EXPERIMENT_PARAMS = {"degree": 2, "alpha": 0.1, "l1_ratio": 0.9, "max_iterations": 200}


def _read_predictions(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return ([r[0] for r in rows], np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows]))


class CliPipeline:
    """features -> train -> predict -> experiment (with scatter report) -> importance, via cli.main.

    Ops cycle over `variants` input sets drawn from the seed, each in its own
    directory. Every op on a variant runs on the same files, so its outputs
    must match that variant's first op byte for byte.
    """

    name = "cli_pipeline"
    variants = 3
    n_datasets, n_sentences, n_records, n_heldout, n_candidates, n_languages = 6, 4000, 300, 1500, 8000, 6

    def __init__(self, seed: int, workdir: str):
        self.inputs = [self._prepare(seed * 1000 + v, os.path.join(workdir, f"v{v}")) for v in range(self.variants)]
        self.reference: dict[int, dict[str, bytes]] = {}
        self.expected: dict[int, tuple] = {}  # candidate records, their design matrix, held-out ids
        self.capture = Capture(cli, "fit_model")

    def _prepare(self, seed: int, workdir: str) -> dict:
        """Write one variant's input files and step configs; return where they are."""
        inputs = os.path.join(workdir, "inputs")
        files = gen.cli_inputs(seed, inputs, self.n_datasets, self.n_sentences, self.n_records,
                               self.n_heldout, self.n_candidates, self.n_languages)
        out = {step: os.path.join(workdir, "out", step) for step in _STEPS}
        features_csv = os.path.join(out["features"], "features.csv")
        model_json = os.path.join(out["train"], "model.json")
        sources = {"dataset_features": features_csv, "language_distances": files["distances"]}
        all_groups = ["language", "dataset", "proxy"]
        configs = {
            "features": {"corpora": [{"dataset_id": ds, "path": path} for ds, path in files["corpora"].items()],
                         "pairs": [{"train": a, "test": b} for a, b in files["pairs"]]},
            "train": {"records": files["records"], "regressor": "gbt", "params": _TRAIN_PARAMS,
                      "seed": 1, "feature_groups": all_groups, **sources},
            "predict": {"model": model_json, "records": files["candidates"], "feature_groups": all_groups,
                        **sources},
            # the dataset columns of 30 corpus pairs are near-collinear, which can stall
            # poly_default's coordinate descent for thousands of sweeps on some seeds
            "experiment": {"records": files["records"], "test_records": files["heldout"],
                           "language_families": files["families"], "regressor": "poly",
                           "params": _EXPERIMENT_PARAMS, "split": {"kind": "cross_dataset"},
                           "repeats": 1, "seed": 1, "feature_groups": ["language", "proxy"],
                           "language_distances": files["distances"]},
            "importance": {"model": model_json},
        }
        paths = {}
        for step, cfg in configs.items():
            path = os.path.join(inputs, f"{step}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2)
            paths[step] = path
        return {"root": workdir, "configs": paths, "out": out, "files": files}

    def op(self, v: int) -> list[int]:
        inputs = self.inputs[v]
        shutil.rmtree(os.path.join(inputs["root"], "out"), ignore_errors=True)
        return [cli.main([step, "--config", inputs["configs"][step], "--out", inputs["out"][step]])
                for step in _STEPS]

    def _outputs(self, v: int) -> dict[str, bytes]:
        outputs = {}
        for step, path in self.inputs[v]["out"].items():
            for name in sorted(os.listdir(path)):
                if name != "manifest.json":
                    with open(os.path.join(path, name), "rb") as fh:
                        outputs[f"{step}/{name}"] = fh.read()
        return outputs

    def _expected(self, v: int):
        """What the checks compare with, built once per variant through the public API."""
        files, out = self.inputs[v]["files"], self.inputs[v]["out"]
        records = load_records(files["candidates"])
        schema = build_schema(("language", "dataset", "proxy"), proxy_roster(records))
        blocks = load_feature_csv(os.path.join(out["features"], "features.csv"))
        table = load_distance_table(files["distances"])
        heldout = [r.record_id for r in load_records(files["heldout"])]
        return records, build_design_matrix(records, schema, blocks, table), heldout

    def check(self, v: int, codes: list[int]) -> Outcome:
        _require(codes == [0] * len(_STEPS), f"cli exit codes {codes}")
        out = self.inputs[v]["out"]
        outputs = self._outputs(v)
        reference = self.reference.setdefault(v, outputs)
        _require(outputs == reference, "cli outputs differ from the first run's bytes")
        ids, true, pred = _read_predictions(os.path.join(out["predict"], "predictions.csv"))
        if v not in self.expected:
            self.expected[v] = self._expected(v)
        records, matrix, heldout_ids = self.expected[v]
        _require(ids == [r.record_id for r in records], "predict did not score every candidate once, in order")
        _require(bool(np.all(np.isfinite(pred))), "non-finite prediction")
        in_memory = predict_model(self.capture.last[1], matrix)
        _require(in_memory.tobytes() == pred.tobytes(),
                 "predictions from model.json differ from the in-memory model's")
        exp_ids, exp_true, exp_pred = _read_predictions(os.path.join(out["experiment"], "predictions.csv"))
        _require(exp_ids == heldout_ids,
                 "experiment did not predict every held-out record once, in order")
        _require(bool(np.all(np.isfinite(exp_pred))), "non-finite experiment prediction")
        with open(os.path.join(out["experiment"], "scatter.csv"), encoding="utf-8") as fh:
            _require(fh.readline().startswith("# r_squared="), "scatter report lacks its header")
        with open(os.path.join(out["experiment"], "results.json"), encoding="utf-8") as fh:
            results = json.load(fh)
        fits = 1 + len(results["per_repeat_rmse"])
        errors = np.concatenate([pred - true, exp_pred - exp_true])
        return Outcome(fits=fits, rows=len(pred) + len(exp_pred),
                       sq_err=float(np.sum(errors ** 2)), n_err=errors.size)

    def close(self) -> None:
        self.capture.close()


WORKLOADS = {w.name: w for w in (LoloGbtCv, M2mSolvers, CliPipeline)}
