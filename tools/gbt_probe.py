"""Time whole gbt_fit calls with quantile binning off and on.

    python tools/gbt_probe.py [--records N] [--languages L] [--repeats R] [--seed S]
                              [--m2m-trees T] [--lgbm-trees T]

builds the design matrix of perfbench's gen.english_centric(S, N, L) with
every feature group, then, R rounds over, fits the mt_english_m2m100 preset
cut to --m2m-trees trees and the lgbm_default preset cut to --lgbm-trees
trees, each with max_bin None, 32 and 255, one after the other in each
round. Each fit is timed through perfbench/speed.Meter, so that its seconds
are scaled to the benchmark's reference host speed. It prints one JSON
line: the sizes, each fit's median scaled CPU, scaled wall and measured
wall seconds, and each binned fit's median scaled wall seconds over the
same preset's unbinned fit. max_bin 32 is what the cli_pipeline benchmark
trains with; 255 is LightGBM's default. lgbm_default itself sets 200000,
which bins no column of a few hundred records. It then saves the unbinned
mt_english_m2m100 fit R times and loads the file back R times, and also
prints the file's size, model_bytes, and the median scaled wall seconds of
one save_model, save_s, and of one load_model, load_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import english_centric  # noqa: E402
from perfcast.records import build_design_matrix, build_schema, proxy_roster  # noqa: E402
from perfcast.regressors.gbt import gbt_fit  # noqa: E402
from perfcast.regressors.presets import get_preset  # noqa: E402
from perfcast.regressors.serialize import load_model, save_model  # noqa: E402
from speed import Meter  # noqa: E402

MAX_BINS = (None, 32, 255)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--records", type=int, default=300)
    parser.add_argument("--languages", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--m2m-trees", type=int, default=300)
    parser.add_argument("--lgbm-trees", type=int, default=30)
    args = parser.parse_args(argv)

    records, blocks, table = english_centric(args.seed, args.records, args.languages)
    schema = build_schema(("language", "dataset", "proxy"), proxy_roster(records))
    matrix = build_design_matrix(records, schema, blocks, table)
    trees = {"mt_english_m2m100": args.m2m_trees, "lgbm_default": args.lgbm_trees}
    fits = {(name, max_bin): replace(get_preset(name), n_estimators=n, max_bin=max_bin)
            for name, n in trees.items() for max_bin in MAX_BINS}
    meter = Meter()
    seconds: dict[tuple, list[tuple[float, float, float]]] = {fit: [] for fit in fits}
    models = {}
    for _ in range(args.repeats):
        for fit, params in fits.items():
            models[fit], wall_s, cpu_s, measured_s = meter.measure(lambda: gbt_fit(matrix, params))
            seconds[fit].append((cpu_s, wall_s, measured_s))
    medians = {fit: [statistics.median(run[k] for run in runs) for k in range(3)] for fit, runs in seconds.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.json")
        model = models["mt_english_m2m100", None]
        save_s = statistics.median(meter.measure(lambda: save_model(model, path))[1] for _ in range(args.repeats))
        load_s = statistics.median(meter.measure(lambda: load_model(path))[1] for _ in range(args.repeats))
        model_bytes = Path(path).stat().st_size

    def by_fit(k: int) -> dict:
        return {name: {str(max_bin): round(medians[name, max_bin][k], 6) for max_bin in MAX_BINS} for name in trees}

    print(json.dumps({
        "seed": args.seed,
        "records": len(records),
        "columns": len(schema.columns),
        "repeats": args.repeats,
        "trees": trees,
        "median_cpu_s": by_fit(0),
        "median_s": by_fit(1),
        "median_wall_s": by_fit(2),
        "binned_over_unbinned": {name: {str(max_bin): round(medians[name, max_bin][1] / medians[name, None][1], 3)
                                        for max_bin in MAX_BINS[1:]} for name in trees},
        "model_bytes": model_bytes,
        "save_s": round(save_s, 6),
        "load_s": round(load_s, 6),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
