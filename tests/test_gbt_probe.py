import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("gbt_probe", Path(__file__).parents[1] / "tools" / "gbt_probe.py")
gbt_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gbt_probe)


def test_prints_each_fits_times_and_the_binned_over_unbinned_ratios(capsys):
    assert gbt_probe.main(["--records", "40", "--repeats", "1", "--m2m-trees", "2", "--lgbm-trees", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["records"], report["repeats"]) == (40, 1)
    assert report["trees"] == {"mt_english_m2m100": 2, "lgbm_default": 2}
    for key in ("median_cpu_s", "median_s", "median_wall_s"):
        assert {name: set(fits) for name, fits in report[key].items()} == {
            "mt_english_m2m100": {"None", "32", "255"}, "lgbm_default": {"None", "32", "255"}}
    scaled = report["median_s"]
    for name, ratios in report["binned_over_unbinned"].items():
        for max_bin, ratio in ratios.items():  # of unrounded medians
            assert ratio == pytest.approx(scaled[name][max_bin] / scaled[name]["None"], rel=0.01, abs=1e-3)
