"""Write the golden inputs, run every golden config through the CLI, and print each output's sha256.

    python tests/golden/run.py WORKDIR

The inputs come from a seeded generator here, not from perfbench/gen.py, so
the benchmark and the suite stay apart. Each golden config, <name>.json in
this directory, is copied next to the inputs and run as the command in
RUNS, in order: later runs read the outputs of earlier ones (features.csv,
the models). stdout is one JSON object mapping "<name>/<file>" to the
sha256 of every output but manifest.json. tests/test_golden.py and
tools/golden.py run this in a subprocess with one BLAS thread, because
poly's bits depend on the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from perfcast.cli import main  # noqa: E402

# (config name, command), in run order
RUNS = (
    ("features", "features"),
    ("train_depth_wise", "train"),
    ("train_leaf_wise", "train"),
    ("predict_depth_wise", "predict"),
    ("predict_leaf_wise", "predict"),
    ("experiment_lolo_cv", "experiment"),
    ("experiment_poly2", "experiment"),
    ("experiment_poly3", "experiment"),
    ("experiment_mf", "experiment"),
    ("ablate", "ablate"),
    ("importance", "importance"),
)

LANGS = ("aar", "bel", "ces", "dan")
KINDS = ("geographic", "genetic", "inventory", "syntactic", "phonological", "featural")
DATASETS = ("d0", "d1", "d2", "d3")
HEADER = ("record_id", "task", "estimated_model", "train_dataset", "test_dataset", "src_lang", "tgt_lang",
          "metric_name", "score", "seen_by_estimated_model", "corpus_group", "joshi_class", "proxy:p0", "proxy:p1")


def _corpus_lines(rng, n: int, vocab: int) -> list[str]:
    """n sentences of Zipfian draws from a vocabulary of `vocab` words."""
    weights = 1.0 / np.arange(1, vocab + 1)
    weights /= weights.sum()
    lines = []
    for _ in range(n):
        words = rng.choice(vocab, size=int(rng.integers(3, 12)), p=weights)
        lines.append(" ".join(f"w{w}" for w in words) + ("." if rng.uniform() < 0.5 else ""))
    return lines


def _record(rng, i: int, src: str, tgt: str, group: str) -> dict:
    train, test = DATASETS[i % 4], DATASETS[(i + 1 + (i // 4) % 3) % 4]  # never the train corpus
    p0 = round(float(rng.uniform(0, 40)), 3)
    p1 = None if i % 5 == 0 else round(float(rng.uniform(0, 1)), 4)  # every fifth cell missing
    score = 0.8 * p0 + 10.0 * (p1 if p1 is not None else 0.5) + 3.0 * LANGS.index(tgt if tgt != "eng" else src)
    return {
        "record_id": f"{group[:3]}{i:03d}", "task": "mt", "estimated_model": "big", "train_dataset": train,
        "test_dataset": test, "src_lang": src, "tgt_lang": tgt, "metric_name": "spbleu",
        "score": round(min(100.0, max(0.0, score + float(rng.normal(0, 2)))), 3),
        "seen_by_estimated_model": bool(rng.uniform() < 0.7), "corpus_group": group,
        "joshi_class": None if i % 7 == 3 else int(rng.integers(0, 6)),
        "proxy_scores": {"p0": p0, "p1": p1},
    }


def _write_csv_records(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for rec in records:
            cells = [rec[name] for name in HEADER[:12]]
            cells[8] = repr(cells[8])
            cells[9] = "true" if cells[9] else "false"
            cells[11] = "" if cells[11] is None else str(cells[11])
            proxies = ["" if v is None else repr(v) for v in rec["proxy_scores"].values()]
            writer.writerow(cells + proxies)


def write_inputs(root: Path, seed: int = 20261021) -> None:
    """Corpora, embeddings, distances, families and records files, all drawn from seed."""
    rng = np.random.default_rng(seed)
    corpora = root / "corpora"
    corpora.mkdir(parents=True)
    for k, ds in enumerate(DATASETS):
        (corpora / f"{ds}.txt").write_text("\n".join(_corpus_lines(rng, 120 + 40 * k, 60 + 30 * k)) + "\n",
                                           encoding="utf-8")
    # d3 has no embedding, so every pair with d3 has an empty embedding_cosine cell
    (root / "embeddings.jsonl").write_text("".join(
        json.dumps({"dataset_id": ds, "dim": 3, "mean_vector": [round(float(v), 4) for v in rng.normal(size=3)]})
        + "\n" for ds in DATASETS[:3]), encoding="utf-8")

    languages = ("eng",) + LANGS
    with open(root / "distances.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("lang_a", "lang_b", "kind", "distance"))
        for i, a in enumerate(languages):
            for b in languages[i + 1:]:
                for kind in KINDS:
                    writer.writerow((a, b, kind, repr(round(float(rng.uniform()), 4))))
    # dan has no family, so its scatter rows fall in the "unknown" family group
    (root / "families.csv").write_text("lang,family\naar,afroasiatic\nbel,slavic\nces,slavic\n", encoding="utf-8")

    english = [_record(rng, i, "eng", LANGS[i % 4], "english_centric") for i in range(64)]
    _write_csv_records(root / "records.csv", english)
    pairs = [(a, b) for a in LANGS for b in LANGS if a != b]
    m2m = [_record(rng, i, *pairs[i % len(pairs)], "many_to_many") for i in range(48)]
    with open(root / "m2m.jsonl", "w", encoding="utf-8") as fh:
        for rec in m2m:
            fh.write(json.dumps(rec) + "\n")


def run(root: Path) -> dict[str, str]:
    """Run every golden config in root; the sha256 of each non-manifest output, by "<name>/<file>"."""
    digests = {}
    for name, command in RUNS:
        config = root / f"{name}.json"
        shutil.copyfile(HERE / f"{name}.json", config)
        out = root / "out" / name
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(config), "--out", str(out), "--threads", "1"])
        if code != 0:
            raise SystemExit(f"{command} {name}.json exited {code}: {stderr.getvalue().strip()}")
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


if __name__ == "__main__":
    workdir = Path(sys.argv[1])
    write_inputs(workdir)
    json.dump(run(workdir), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
