"""Time whole poly_fit calls at the poly_default and poly3_default presets.

    python tools/poly_probe.py [--records N] [--languages L] [--repeats R] [--seed S]
                               [--max-iterations K]

builds the design matrix of perfbench's gen.english_centric(S, N, L) with
every feature group (18 columns: 189 terms at degree 2, 1329 at degree 3),
then, R rounds over, fits poly_default and poly3_default, one after the
other in each round, each with its pass cap set to K if given. Each fit is
timed through perfbench/speed.Meter, so that its seconds are scaled to the
benchmark's reference host speed; run as a script, BLAS runs on one
thread, as in the benchmark. It prints one JSON line: the sizes, and per
preset the passes of the fit (n_sweeps), whether it converged, its terms,
its nonzero coefficients, its final objective, and the median scaled CPU,
scaled wall and measured wall milliseconds per pass. A pass's cost is the
fit's time over its passes, so the Gram matrix and the expansion, formed
once per fit, are spread over the passes.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # before numpy loads; an importing process keeps its own setting
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from gen import english_centric  # noqa: E402
from perfcast.records import build_design_matrix, build_schema, proxy_roster  # noqa: E402
from perfcast.regressors.poly import poly_fit  # noqa: E402
from perfcast.regressors.presets import get_preset  # noqa: E402
from speed import Meter  # noqa: E402

PRESETS = ("poly_default", "poly3_default")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--records", type=int, default=300)
    parser.add_argument("--languages", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=None)
    args = parser.parse_args(argv)

    records, blocks, table = english_centric(args.seed, args.records, args.languages)
    schema = build_schema(("language", "dataset", "proxy"), proxy_roster(records))
    matrix = build_design_matrix(records, schema, blocks, table)
    fits = {name: get_preset(name) for name in PRESETS}
    if args.max_iterations is not None:
        fits = {name: replace(params, max_iterations=args.max_iterations) for name, params in fits.items()}
    meter = Meter()
    seconds: dict[str, list[tuple[float, float, float]]] = {name: [] for name in fits}
    models = {}
    for _ in range(args.repeats):
        for name, params in fits.items():
            models[name], wall_s, cpu_s, measured_s = meter.measure(lambda: poly_fit(matrix, params))
            seconds[name].append((cpu_s, wall_s, measured_s))

    def ms_per_pass(name: str, k: int) -> float:
        return round(1e3 * statistics.median(run[k] for run in seconds[name]) / models[name].n_sweeps, 6)

    print(json.dumps({
        "seed": args.seed,
        "records": len(records),
        "columns": len(schema.columns),
        "repeats": args.repeats,
        "fits": {name: {
            "max_iterations": params.max_iterations,
            "passes": models[name].n_sweeps,
            "converged": models[name].converged,
            "terms": len(models[name].coef),
            "nonzero": int(np.count_nonzero(models[name].coef)),
            "objective": models[name].objective,
            "median_cpu_ms_per_pass": ms_per_pass(name, 0),
            "median_ms_per_pass": ms_per_pass(name, 1),
            "median_wall_ms_per_pass": ms_per_pass(name, 2),
        } for name, params in fits.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
