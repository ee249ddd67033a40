import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("lowess_probe", Path(__file__).parents[1] / "tools" / "lowess_probe.py")
lowess_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lowess_probe)


def test_prints_sizes_times_and_the_error_against_the_exact_fit(capsys):
    assert lowess_probe.main(["--points", "60", "--repeats", "1", "--seeds", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["points"], report["repeats"], report["exact_seeds"]) == (60, 1, 1)
    assert report["median_wall_s"] > 0 and report["median_s"] > 0 and report["median_cpu_s"] >= 0
    assert 0 <= report["max_relative_error"] < 1e-13
