"""Time single fits at the shapes of the ROADMAP baseline, for comparison in README.md.

From the repository root (takes about a minute):

    python3 perfbench/shapes.py

Shapes: GBT `mt_english_m2m100` cut to 50 trees and `poly3_default`, each on
300 English-centric records x 18 columns; MF with 200 epochs on the
240-record dense grid of 6 languages x 8 datasets. Prints one JSON object.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
from perfcast.records import FEATURE_GROUPS, build_design_matrix, build_schema  # noqa: E402
from perfcast.regressors import gbt_fit, get_preset, mf_fit, poly_fit  # noqa: E402


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def main() -> None:
    records, blocks, table = gen.english_centric(0, 300, 5)
    matrix = build_design_matrix(records, build_schema(FEATURE_GROUPS, ["medium", "small"]), blocks, table)
    model, gbt_s = _timed(gbt_fit, matrix, replace(get_preset("mt_english_m2m100"), n_estimators=50))
    poly, poly_s = _timed(poly_fit, matrix, get_preset("poly3_default"))

    records, blocks, table = gen.many_to_many(0, 6, 8)
    grid = build_design_matrix(records, build_schema(FEATURE_GROUPS, ["medium", "small"]), blocks, table)
    sources = [r.src_lang for r in records]
    targets = [r.tgt_lang for r in records]
    _, mf_s = _timed(mf_fit, grid, sources, targets, replace(get_preset("mf_default"), iterations=200))

    print(json.dumps({
        "gbt_rows_x_cols": list(matrix.rows.shape),
        "gbt_ms_per_tree": 1e3 * gbt_s / len(model.trees),
        "poly3_fit_s": poly_s,
        "poly3_sweeps": poly.n_sweeps,
        "poly3_terms": len(poly.terms),
        "poly3_nonzero": int((poly.coef != 0).sum()),
        "poly3_ms_per_sweep": 1e3 * poly_s / poly.n_sweeps,
        "mf_rows": grid.n,
        "mf_ms_per_epoch": 1e3 * mf_s / 200,
    }))


if __name__ == "__main__":
    main()
