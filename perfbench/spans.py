"""Spans and counters recorded from outside perfcast, by wrapping its public functions.

`from x import f` binds `f` in the importing module when that module is
loaded, so a function is wrapped in the namespace of each module that calls
it (for example `perfcast.regressors.gbt_fit`, which `fit_model` calls, and
`perfcast.cli.load_records`). Spans (name, start, end, parent, op) stay in
memory until the run ends. Counts are read from the values the wrapped
functions return or receive, never from inside the program.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

import perfcast.cli as cli
import perfcast.corpus as corpus
import perfcast.experiments as experiments
import perfcast.regressors as regressors
import perfcast.report as report


def _count_gbt_fit(c, args, model):
    c["gbt.trees"] += len(model.trees)
    c["gbt.nodes"] += sum(len(nodes) for nodes in model.trees)


def _count_gbt_predict(c, args, pred):
    c["gbt.predict_rows"] += len(pred)
    c["gbt.predict_row_trees"] += len(pred) * len(args[0].trees)


def _count_poly_fit(c, args, model):
    c["poly.sweeps"] += model.n_sweeps
    c["poly.terms"] += len(model.terms)
    c["poly.nonzero_coef"] += int(np.count_nonzero(model.coef))
    c["poly.unconverged"] += not model.converged


def _count_mf_fit(c, args, model):
    c["mf.epochs"] += model.params.iterations


def _count_experiment(c, args, result):
    c["experiments.units"] += len(result.chosen_params) * len(result.per_repeat_rmse)


def _count(key, size):
    def count(c, args, result):
        c[key] += size(args, result)
    return count


# (module, attribute, span name, counter): every call site the benchmark traces.
POINTS = (
    (experiments, "run_experiment", "experiments.run_experiment", _count_experiment),
    (cli, "run_experiment", "experiments.run_experiment", _count_experiment),
    (experiments, "kfold_cv", "experiments.kfold_cv", None),
    (experiments, "build_design_matrix", "records.build_design_matrix",
     _count("records.design_rows", lambda a, r: r.n)),
    (cli, "build_design_matrix", "records.build_design_matrix",
     _count("records.design_rows", lambda a, r: r.n)),
    (regressors, "gbt_fit", "gbt.fit", _count_gbt_fit),
    (regressors, "gbt_predict", "gbt.predict", _count_gbt_predict),
    (regressors, "poly_fit", "poly.fit", _count_poly_fit),
    (regressors, "poly_predict", "poly.predict", None),
    (regressors, "mf_fit", "mf.fit", _count_mf_fit),
    (regressors, "mf_predict", "mf.predict", None),
    (cli, "main", "cli.main", None),
    (cli, "read_corpus", "corpus.read_corpus", _count("corpus.sentences", lambda a, r: len(r))),
    (cli, "profile", "corpus.profile", _count("corpus.tokens", lambda a, r: r.total_tokens)),
    (cli, "dataset_features", "corpus.dataset_features", _count("corpus.pairs", lambda a, r: 1)),
    (corpus, "jsd", "corpus.jsd", None),
    (corpus, "tfidf_cosine", "corpus.tfidf_cosine", None),
    (cli, "load_feature_csv", "corpus.load_feature_csv", None),
    (cli, "load_distance_table", "langdist.load_distance_table", None),
    (cli, "load_records", "records.load_records", _count("records.loaded", lambda a, r: len(r))),
    (cli, "save_model", "serialize.save_model",
     _count("serialize.model_bytes", lambda a, r: os.path.getsize(a[1]))),
    (cli, "load_model", "serialize.load_model", None),
    (cli, "emit_report", "report.emit_report", None),
    (report, "lowess", "report.lowess", _count("report.points", lambda a, r: len(a[0]))),
)

FIT_SPANS = ("gbt.fit", "poly.fit", "mf.fit")


class Tracer:
    """Install wrappers on POINTS, record spans and counts, and restore the originals.

    Wrappers record only while `active` is set, which the runner does for the
    duration of each timed op, so the checks that follow an op leave no trace.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in POINTS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total time, self time (span time minus child time) and call count per span name."""
        total: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return total, own, calls

    def cv_fits(self) -> int:
        """Fits whose span lies inside a kfold_cv span."""
        n = 0
        for name, _, _, parent, _ in self.spans:
            if name not in FIT_SPANS:
                continue
            while parent >= 0 and self.spans[parent][0] != "experiments.kfold_cv":
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics as {name: (value, unit)}; a ratio over zero work reads 0."""
        total, own, calls = self.totals()
        c = self.counts

        def per_op(value):
            return value / n_ops

        def ratio(num, den, scale):
            return num * scale / den if den else 0.0

        return {
            "gbt.fit_s": (per_op(total["gbt.fit"]), "s"),
            "gbt.fits": (per_op(calls["gbt.fit"]), "count"),
            "gbt.trees": (per_op(c["gbt.trees"]), "count"),
            "gbt.nodes": (per_op(c["gbt.nodes"]), "count"),
            "gbt.fit_us_per_node": (ratio(total["gbt.fit"], c["gbt.nodes"], 1e6), "us"),
            "gbt.predict_s": (per_op(total["gbt.predict"]), "s"),
            "gbt.predict_rows": (per_op(c["gbt.predict_rows"]), "count"),
            "gbt.predict_ns_per_row_tree": (ratio(total["gbt.predict"], c["gbt.predict_row_trees"], 1e9), "ns"),
            "experiments.kfold_cv_s": (per_op(total["experiments.kfold_cv"]), "s"),
            "experiments.cv_fits": (per_op(self.cv_fits()), "count"),
            "experiments.units": (per_op(c["experiments.units"]), "count"),
            "experiments.self_s": (per_op(own["experiments.run_experiment"] + own["experiments.kfold_cv"]), "s"),
            "records.design_matrix_s": (per_op(total["records.build_design_matrix"]), "s"),
            "records.design_rows": (per_op(c["records.design_rows"]), "count"),
            "records.load_s": (per_op(total["records.load_records"]), "s"),
            "records.loaded": (per_op(c["records.loaded"]), "count"),
            "poly.fit_s": (per_op(total["poly.fit"]), "s"),
            "poly.fits": (per_op(calls["poly.fit"]), "count"),
            "poly.sweeps": (per_op(c["poly.sweeps"]), "count"),
            "poly.terms": (ratio(c["poly.terms"], calls["poly.fit"], 1.0), "count"),
            "poly.nonzero_coef": (ratio(c["poly.nonzero_coef"], calls["poly.fit"], 1.0), "count"),
            "poly.unconverged": (per_op(c["poly.unconverged"]), "count"),
            "poly.ms_per_sweep": (ratio(total["poly.fit"], c["poly.sweeps"], 1e3), "ms"),
            "poly.predict_s": (per_op(total["poly.predict"]), "s"),
            "mf.fit_s": (per_op(total["mf.fit"]), "s"),
            "mf.fits": (per_op(calls["mf.fit"]), "count"),
            "mf.epochs": (per_op(c["mf.epochs"]), "count"),
            "mf.ms_per_epoch": (ratio(total["mf.fit"], c["mf.epochs"], 1e3), "ms"),
            "mf.predict_s": (per_op(total["mf.predict"]), "s"),
            "corpus.read_s": (per_op(total["corpus.read_corpus"]), "s"),
            "corpus.sentences": (per_op(c["corpus.sentences"]), "count"),
            "corpus.tokens": (per_op(c["corpus.tokens"]), "count"),
            "corpus.profile_s": (per_op(total["corpus.profile"]), "s"),
            "corpus.pair_features_s": (per_op(total["corpus.dataset_features"]), "s"),
            "corpus.jsd_s": (per_op(total["corpus.jsd"]), "s"),
            "corpus.tfidf_s": (per_op(total["corpus.tfidf_cosine"]), "s"),
            "corpus.pairs": (per_op(c["corpus.pairs"]), "count"),
            "corpus.feature_csv_load_s": (per_op(total["corpus.load_feature_csv"]), "s"),
            "langdist.load_s": (per_op(total["langdist.load_distance_table"]), "s"),
            "serialize.save_s": (per_op(total["serialize.save_model"]), "s"),
            "serialize.load_s": (per_op(total["serialize.load_model"]), "s"),
            "serialize.model_bytes": (ratio(c["serialize.model_bytes"], calls["serialize.save_model"], 1.0), "bytes"),
            "report.emit_s": (per_op(total["report.emit_report"]), "s"),
            "report.lowess_s": (per_op(total["report.lowess"]), "s"),
            "report.points": (per_op(c["report.points"]), "count"),
            "cli.main_s": (per_op(total["cli.main"]), "s"),
            "cli.self_s": (per_op(own["cli.main"]), "s"),
        }
