"""The names the benchmark in perfbench/ looks up in perfcast still exist and still see the work.

perfbench/spans.py wraps perfcast functions by (module, attribute), and
perfbench/workloads.py captures two more for its checks. A missing name stops
every traced run with AttributeError; a name the program no longer calls
leaves its span reading 0. These tests read the benchmark's files and change
none of them.
"""

import re
import sys
from pathlib import Path

import perfcast.cli as cli
import perfcast.corpus as corpus
import perfcast.experiments as experiments
from perfcast.corpus import profile

from test_cli import write_experiment_fixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402


def capture_targets() -> list[tuple[str, str]]:
    """The (module name, attribute) of every Capture(...) in workloads.py."""
    source = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    return re.findall(r'Capture\((\w+), "(\w+)"\)', source)


def test_every_traced_and_captured_name_exists_and_is_restored():
    assert sorted(capture_targets()) == [("cli", "fit_model"), ("experiments", "predict_model")]
    modules = {"cli": cli, "experiments": experiments}
    for name, attr in capture_targets():
        assert callable(getattr(modules[name], attr))
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in spans.POINTS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} was not restored"


def test_a_traced_pair_records_its_statistic_spans():
    train, test = profile("a", [["x", "y", "y"]]), profile("b", [["y", "z"]])
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced = cli.dataset_features(train, test, None)
    finally:
        tracer.uninstall()
    assert [(name, parent) for name, _, _, parent, _ in tracer.spans] == [
        ("corpus.dataset_features", -1), ("corpus.jsd", 0), ("corpus.tfidf_cosine", 0)]
    assert repr(traced) == repr(corpus.dataset_features(train, test))


def test_a_traced_experiment_records_its_report_spans(tmp_path):
    cfg = write_experiment_fixture(tmp_path)
    out = tmp_path / "out"
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active, tracer.op = True, 0
        assert cli.main(["experiment", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    finally:
        tracer.uninstall()
    names = [name for name, _, _, _, _ in tracer.spans]
    assert names.count("report.emit_report") == 1
    emit = names.index("report.emit_report")
    assert [parent for name, _, _, parent, _ in tracer.spans if name == "report.lowess"] == [emit]
    data_rows = len((out / "scatter.csv").read_text(encoding="utf-8").splitlines()) - 2  # less comment and header
    assert data_rows > 0 and tracer.counts["report.points"] == data_rows
