"""Time load_records on the same seeded records written as CSV and as JSON lines.

    python tools/records_probe.py [--records N] [--languages L] [--repeats R] [--seed S]

writes the N records of perfbench's gen.english_centric(S, N, L) to a
temporary directory, as a CSV through save_records and as JSON lines of
dataclasses.asdict, and checks that both files load to equal records. Then,
R rounds over, it times records.load_records on the CSV, load_records on the
JSON lines, and json.loads alone on each line of the JSON-lines file, one
after the other in each round, each through perfbench/speed.Meter, so that
its seconds are scaled to the benchmark's reference host speed. It prints
one JSON line: the sizes, each stage's median scaled CPU, scaled wall and
measured wall seconds, and the JSON-lines load's median measured wall
seconds over the CSV load's. The ratio is of measured seconds because a
section shorter than speed.INTERVAL is scaled by its edge probes alone, and
a longer one by the probes taken inside it too, which run slower: on one
2-vCPU host the 40 ms CSV load was scaled by 2.4 and the 170 ms JSON-lines
load by 1.5, so the scaled seconds put the ratio at 2.8 where it was 4.5.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import english_centric  # noqa: E402
from perfcast.records import load_records, save_records  # noqa: E402
from speed import Meter  # noqa: E402


def json_lines(path: str) -> list:
    """Each line of path decoded by json.loads: the part of a JSON-lines load that no loader avoids."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--records", type=int, default=8000)
    parser.add_argument("--languages", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    records = english_centric(args.seed, args.records, args.languages)[0]
    meter = Meter()
    seconds: dict[str, list[tuple[float, float, float]]] = {"csv": [], "jsonl": [], "json_loads": []}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, jsonl_path = os.path.join(tmp, "records.csv"), os.path.join(tmp, "records.jsonl")
        save_records(records, csv_path)
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(asdict(rec)) + "\n" for rec in records)
        sizes = {"records": len(records), "csv_bytes": os.path.getsize(csv_path),
                 "jsonl_bytes": os.path.getsize(jsonl_path)}
        if load_records(csv_path) != load_records(jsonl_path):
            print(json.dumps({"error": "the CSV and the JSON lines load to different records"}), file=sys.stderr)
            return 1
        stages = {"csv": lambda: load_records(csv_path), "jsonl": lambda: load_records(jsonl_path),
                  "json_loads": lambda: json_lines(jsonl_path)}
        for _ in range(args.repeats):
            for stage, fn in stages.items():
                _, wall_s, cpu_s, measured_s = meter.measure(fn)
                seconds[stage].append((cpu_s, wall_s, measured_s))
    medians = {stage: [statistics.median(run[k] for run in runs) for k in range(3)] for stage, runs in seconds.items()}
    print(json.dumps({
        "seed": args.seed,
        "repeats": args.repeats,
        **sizes,
        "median_cpu_s": {stage: round(m[0], 6) for stage, m in medians.items()},
        "median_s": {stage: round(m[1], 6) for stage, m in medians.items()},
        "median_wall_s": {stage: round(m[2], 6) for stage, m in medians.items()},
        "jsonl_over_csv": round(medians["jsonl"][2] / medians["csv"][2], 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
