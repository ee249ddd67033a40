"""Time report.lowess on seeded points, and measure its error against the exact fit.

    python tools/lowess_probe.py [--points N] [--frac F] [--repeats R] [--seed S] [--seeds K]

draws N points near y = x, x uniform on [0, 100), from numpy's generator
seeded with S, and times report.lowess on them at span F, R times, each
through perfbench/speed.Meter, so that its seconds are scaled to the
benchmark's reference host speed. Then, for seeds 0 to K - 1, it draws 80
points with x uniform on [-50, 50] and y = x plus standard normal noise,
fits them at span 0.05 (windows of 4 points, often within 0.05 of each
other, at |x| up to 50) and compares each fitted value with
tests/oracles.oracle_lowess_exact, the same fit in rational arithmetic. It
prints one JSON line: the sizes, the median scaled CPU, scaled wall and
measured wall seconds, and the largest relative error over those fits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from oracles import oracle_lowess_exact  # noqa: E402
from perfcast.report import lowess  # noqa: E402
from speed import Meter  # noqa: E402


def narrow_windows(seed: int) -> list[tuple[float, float]]:
    """80 points with x uniform on [-50, 50] and y = x plus standard normal noise."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50, 50, 80)
    return list(zip(x.tolist(), (x + rng.normal(size=80)).tolist()))


def largest_relative_error(seeds: int) -> float:
    """The largest |lowess - exact| / |exact| over the narrow_windows inputs of seeds 0 to seeds - 1, at span 0.05."""
    worst = Fraction(0)
    for seed in range(seeds):
        points = narrow_windows(seed)
        for got, exact in zip(lowess(points, 0.05), oracle_lowess_exact(points, 0.05)):
            worst = max(worst, abs(Fraction(got) - exact) / abs(exact))
    return float(worst)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--points", type=int, default=1500)
    parser.add_argument("--frac", type=float, default=0.5)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    x = rng.uniform(0, 100, args.points)
    points = list(zip(x.tolist(), (x + rng.normal(size=args.points)).tolist()))
    meter = Meter()
    runs = [meter.measure(lambda: lowess(points, args.frac))[1:] for _ in range(args.repeats)]
    print(json.dumps({
        "seed": args.seed,
        "points": args.points,
        "frac": args.frac,
        "repeats": args.repeats,
        "median_cpu_s": round(statistics.median(cpu for _, cpu, _ in runs), 6),
        "median_s": round(statistics.median(wall for wall, _, _ in runs), 6),
        "median_wall_s": round(statistics.median(measured for _, _, measured in runs), 6),
        "exact_seeds": args.seeds,
        "max_relative_error": largest_relative_error(args.seeds),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
