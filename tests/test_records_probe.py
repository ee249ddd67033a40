import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("records_probe", Path(__file__).parents[1] / "tools" / "records_probe.py")
records_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(records_probe)


def test_prints_sizes_stage_times_and_the_ratio(capsys):
    assert records_probe.main(["--records", "40", "--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["records"] == 40 and report["jsonl_bytes"] > report["csv_bytes"] > 0
    stages = {"csv", "jsonl", "json_loads"}
    assert set(report["median_cpu_s"]) == set(report["median_s"]) == set(report["median_wall_s"]) == stages
    wall_s = report["median_wall_s"]
    assert report["jsonl_over_csv"] == pytest.approx(wall_s["jsonl"] / wall_s["csv"], rel=0.01)  # of unrounded medians

