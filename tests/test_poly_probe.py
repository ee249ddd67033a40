import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("poly_probe", Path(__file__).parents[1] / "tools" / "poly_probe.py")
poly_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(poly_probe)


def test_prints_each_presets_passes_objective_and_time_per_pass(capsys):
    assert poly_probe.main(["--records", "40", "--repeats", "1", "--max-iterations", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["records"], report["columns"], report["repeats"]) == (40, 18, 1)
    assert set(report["fits"]) == {"poly_default", "poly3_default"}
    for name, terms in (("poly_default", 189), ("poly3_default", 1329)):
        fit = report["fits"][name]
        assert (fit["max_iterations"], fit["terms"]) == (3, terms)
        assert 1 <= fit["passes"] <= 3 and fit["converged"] == (fit["passes"] < 3)
        assert 0 <= fit["nonzero"] <= terms and fit["objective"] > 0.0
        for key in ("median_cpu_ms_per_pass", "median_ms_per_pass", "median_wall_ms_per_pass"):
            assert fit[key] >= 0.0
        assert fit["median_wall_ms_per_pass"] > 0.0
