"""Command-line entry point wiring ingestion, features, experiments, reports.

Subcommands:
    features    tokenized corpora -> pairwise dataset-feature CSV
    train       records + feature sources -> serialized model JSON
    predict     model + records -> per-record predictions CSV
    experiment  config -> repeated evaluation + full report directory
    ablate      experiment once per feature-group subset
    importance  serialized model -> feature-importance CSV

Every run writes a manifest.json recording the config hash, input file
digests, tool version, master seed and timestamps. All other outputs are
byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys
from typing import Any, Sequence, get_args

from . import __version__
from .corpus import (
    TokenizeMode,
    dataset_features,
    load_embeddings,
    load_feature_csv,
    profile,
    read_corpus,
    write_feature_csv,
)
from .errors import ConfigError, ParseError, PerfcastError, open_text
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    SplitSpec,
    run_ablation,
    run_experiment,
)
from .fields import FIELD_TYPES
from .langdist import load_distance_table
from .records import (
    PerformanceRecord,
    build_design_matrix,
    build_schema,
    load_records,
    proxy_roster,
)
from .regressors import (
    KINDS,
    AnyParams,
    GbtModel,
    fit_model,
    gbt_importance,
    get_preset,
    load_model,
    params_kind,
    predict_model,
    save_model,
    with_seed,
)
from .report import ScatterSeries, emit_report, scatter_from_predictions


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_config(path: str) -> dict:
    try:
        with open_text(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


class _Run:
    """Tracks consumed inputs and writes the manifest at the end."""

    def __init__(self, command: str, config_path: str, out_dir: str, seed: int | None, threads: int):
        self.command = command
        self.config_path = config_path
        self.out_dir = out_dir
        self.seed = seed
        self.threads = threads
        self.inputs: dict[str, str] = {config_path: _sha256(config_path)}
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        os.makedirs(out_dir, exist_ok=True)

    def track(self, path: str) -> str:
        self.inputs[path] = _sha256(path)
        return path

    def resolve(self, rel: str) -> str:
        if not isinstance(rel, str):
            raise ConfigError(f"expected a file path, got {rel!r}")
        if os.path.isabs(rel):
            return rel
        return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(self.config_path)), rel))

    def write_manifest(self) -> None:
        manifest = {
            "tool": "perfcast",
            "version": __version__,
            "command": self.command,
            "config": self.config_path,
            "config_sha256": self.inputs[self.config_path],
            "inputs": dict(sorted(self.inputs.items())),
            "master_seed": self.seed,
            "threads": self.threads,
            "started_at": self.started,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        _write_json(os.path.join(self.out_dir, "manifest.json"), manifest)


def _write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Config materialization
# ---------------------------------------------------------------------------

def _string_list(cfg: dict, key: str, default: list[str] | None = None) -> list[str] | None:
    value = cfg.get(key, default)
    if value is not None and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"'{key}' must be a list of strings, not {value!r}")
    return value


def _entries(cfg: dict, key: str) -> list[tuple[str, dict]]:
    """The objects listed under cfg[key], each with a label naming the key and its index."""
    value = cfg[key]
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list of objects, not {value!r}")
    labeled = [(f"'{key}' entry {i}", entry) for i, entry in enumerate(value)]
    for label, entry in labeled:
        if not isinstance(entry, dict):
            raise ConfigError(f"{label} must be an object, not {entry!r}")
    return labeled


def _text(entry: dict, name: str, label: str) -> str:
    if name not in entry:
        raise ConfigError(f"{label} is missing {name!r}")
    if not isinstance(entry[name], str):
        raise ConfigError(f"{label}: {name!r} must be a string, not {entry[name]!r}")
    return entry[name]


def _parse_params(kind: str, obj: dict) -> AnyParams:
    try:
        return KINDS[kind][0](**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} params {obj}: {exc}") from exc


def _resolve_grid(cfg: dict, preset_override: str | None):
    kind = cfg.get("regressor", "gbt")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"unknown regressor kind {kind!r}")
    if preset_override is not None:
        grid = [get_preset(preset_override)]
    elif "grid" in cfg:
        if not isinstance(cfg["grid"], list):
            raise ConfigError(f"'grid' must be a list of params objects, not {cfg['grid']!r}")
        grid = [_parse_params(kind, obj) for obj in cfg["grid"]]
    elif "params" in cfg:
        grid = [_parse_params(kind, cfg["params"])]
    elif "preset" in cfg:
        grid = [get_preset(cfg["preset"])]
    else:
        grid = [KINDS[kind][0]()]
    for params in grid:
        if params_kind(params) != kind:
            raise ConfigError(
                f"preset/grid entry is a {params_kind(params)} configuration but regressor is {kind!r}"
            )
    return grid


def _load_record_sources(run: _Run, cfg: dict, key: str) -> list[PerformanceRecord]:
    paths = [cfg[key]] if isinstance(cfg[key], str) else cfg[key]
    if not isinstance(paths, list):
        raise ConfigError(f"'{key}' must be a path or a list of paths, not {paths!r}")
    records: list[PerformanceRecord] = []
    seen_ids: set[str] = set()
    for rel in paths:
        path = run.track(run.resolve(rel))
        for rec in load_records(path):
            if rec.record_id in seen_ids:
                raise ParseError(f"duplicate record_id {rec.record_id!r} across record files")
            seen_ids.add(rec.record_id)
            records.append(rec)
    return records


def _feature_sources(run: _Run, cfg: dict):
    """Records, feature groups, dataset feature blocks and language table named by a config.

    Dataset features come from a precomputed `dataset_features` CSV or are
    computed inline from `corpora` + `pairs`.
    """
    if "records" not in cfg:
        raise ConfigError("config is missing 'records'")
    records = _load_record_sources(run, cfg, "records")
    groups = tuple(_string_list(cfg, "feature_groups", ["language", "dataset", "proxy"]))
    dataset_blocks = None
    if "dataset" in groups:
        if "dataset_features" in cfg:
            dataset_blocks = load_feature_csv(run.track(run.resolve(cfg["dataset_features"])))
        elif "corpora" in cfg:
            dataset_blocks = {(tr, te): block for tr, te, block in _compute_feature_blocks(run, cfg)}
        else:
            raise ConfigError(
                "dataset feature group enabled but neither 'dataset_features' nor 'corpora'+'pairs' given"
            )
    language_table = None
    if "language" in groups:
        if "language_distances" not in cfg:
            raise ConfigError("language feature group enabled but no 'language_distances' path given")
        language_table = load_distance_table(run.track(run.resolve(cfg["language_distances"])))
    return records, groups, dataset_blocks, language_table


def _config_int(cfg: dict, key: str, default: int) -> int:
    value = cfg.get(key, default)
    if not FIELD_TYPES["int"].check(value):
        raise ValueError(f"'{key}' must be an integer, not {value!r}")
    return value


def _materialize_experiment(run: _Run, cfg: dict, seed_override: int | None, preset_override: str | None):
    records, groups, dataset_blocks, language_table = _feature_sources(run, cfg)
    split_cfg = cfg.get("split", {"kind": "random", "ratio": 0.7})
    if not isinstance(split_cfg, dict):
        raise ConfigError(f"'split' must be an object, not {split_cfg!r}")
    test_records = None
    if "test_records" in cfg:
        test_records = _load_record_sources(run, cfg, "test_records")
    try:
        config = ExperimentConfig(
            records=records,
            grid=_resolve_grid(cfg, preset_override),
            split=SplitSpec(
                kind=split_cfg.get("kind", "random"),
                ratio=split_cfg.get("ratio"),
                held_out_language=split_cfg.get("held_out_language"),
            ),
            feature_groups=groups,
            proxies=_string_list(cfg, "proxies"),
            repeats=_config_int(cfg, "repeats", 5),
            cv_folds=_config_int(cfg, "cv_folds", 10),
            seed=seed_override if seed_override is not None else _config_int(cfg, "seed", 0),
            estimated_model=cfg.get("estimated_model"),
            dataset_features=dataset_blocks,
            language_table=language_table,
            test_records=test_records,
        )
        config.validate()
    except (TypeError, ValueError) as exc:
        # a value of the wrong JSON type, such as "ratio": "0.7" or "repeats": [1]
        raise ConfigError(f"invalid experiment config: {exc}") from exc
    return config


def _load_families(run: _Run, cfg: dict) -> dict[str, str]:
    """The lang,family CSV as a map; a short, long or repeated row is a ParseError at file:line."""
    if "language_families" not in cfg:
        return {}
    path = run.track(run.resolve(cfg["language_families"]))
    families: dict[str, str] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["lang", "family"]:
            raise ParseError(f"{path}: expected header lang,family")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 cells, got {len(row)}")
            lang, family = (cell.strip() for cell in row)
            if not lang:
                raise ParseError(f"{path}:{lineno}: empty language code")
            if lang in families:
                raise ParseError(f"{path}:{lineno}: repeated language {lang!r}")
            families[lang] = family
    return families


def _record_language(rec: PerformanceRecord) -> str:
    if rec.src_lang == "eng" and rec.tgt_lang != "eng":
        return rec.tgt_lang
    if rec.tgt_lang == "eng" and rec.src_lang != "eng":
        return rec.src_lang
    return rec.tgt_lang


def _scatter_for(records: Sequence[PerformanceRecord], result: ExperimentResult,
                 families: dict[str, str]) -> ScatterSeries:
    info = {}
    for rec in records:
        lang = _record_language(rec)
        info[rec.record_id] = (lang, rec.joshi_class, families.get(lang, ""))
    return scatter_from_predictions(result.predictions, info)


def _result_json(result: ExperimentResult) -> dict:
    return {
        "per_repeat_rmse": result.per_repeat_rmse,
        "mean_rmse": result.mean_rmse,
        "std_rmse": result.std_rmse,
        "chosen_params": result.chosen_params,
        "per_language_rmse": result.per_language_rmse,
        "cv_scores": result.cv_scores,
        "n_predictions": len(result.predictions),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _compute_feature_blocks(run: _Run, cfg: dict) -> list[tuple[str, str, object]]:
    """Profile the configured corpora and compute one feature block per pair."""
    if not cfg.get("corpora") or not cfg.get("pairs"):
        raise ConfigError("feature computation needs 'corpora' and 'pairs'")
    side = cfg.get("side", "source")
    if side not in ("source", "target", "concat"):
        raise ConfigError(f"unknown side {side!r}")

    profiles = {}
    for label, entry in _entries(cfg, "corpora"):
        dataset_id = _text(entry, "dataset_id", label)
        mode = entry.get("mode", "unicode_words")
        if mode not in get_args(TokenizeMode):
            raise ConfigError(f"{label}: unknown tokenize mode {mode!r}")
        if "path" in entry:
            sentences = read_corpus(run.track(run.resolve(entry["path"])), mode)
        else:
            sides = []
            if side in ("source", "concat"):
                sides.append(_text(entry, "source_path", label))
            if side in ("target", "concat"):
                sides.append(_text(entry, "target_path", label))
            sentences = []
            for rel in sides:
                sentences.extend(read_corpus(run.track(run.resolve(rel)), mode))
        profiles[dataset_id] = profile(dataset_id, sentences)

    embeddings = {}
    if "embeddings" in cfg:
        embeddings = load_embeddings(run.track(run.resolve(cfg["embeddings"])))

    blocks = []
    for label, pair in _entries(cfg, "pairs"):
        train_id, test_id = _text(pair, "train", label), _text(pair, "test", label)
        for dataset_id in (train_id, test_id):
            if dataset_id not in profiles:
                raise ConfigError(f"pair references unknown corpus {dataset_id!r}")
        emb = None
        if train_id in embeddings and test_id in embeddings:
            emb = (embeddings[train_id], embeddings[test_id])
        blocks.append((train_id, test_id, dataset_features(profiles[train_id], profiles[test_id], emb)))
    return blocks


def _cmd_features(run: _Run, cfg: dict) -> None:
    blocks = _compute_feature_blocks(run, cfg)
    write_feature_csv(os.path.join(run.out_dir, "features.csv"), blocks)


def _design_matrix(run: _Run, cfg: dict):
    """The design matrix built from the config's records and feature sources."""
    records, groups, dataset_blocks, language_table = _feature_sources(run, cfg)
    proxies = _string_list(cfg, "proxies")
    roster = sorted(proxies) if proxies is not None else proxy_roster(records)
    return build_design_matrix(records, build_schema(groups, roster), dataset_blocks, language_table)


def _cmd_train(run: _Run, cfg: dict, seed_override: int | None, preset_override: str | None) -> None:
    matrix = _design_matrix(run, cfg)
    grid = _resolve_grid(cfg, preset_override)
    if len(grid) != 1:
        raise ConfigError("train expects exactly one hyperparameter set (preset or params)")
    params = grid[0]
    try:
        seed = seed_override if seed_override is not None else _config_int(cfg, "seed", params.seed)
    except ValueError as exc:
        raise ConfigError(f"invalid train config: {exc}") from exc
    model = fit_model(with_seed(params, seed), matrix)
    save_model(model, os.path.join(run.out_dir, "model.json"))


def _cmd_predict(run: _Run, cfg: dict) -> None:
    if "model" not in cfg:
        raise ConfigError("predict config needs 'model'")
    model = load_model(run.track(run.resolve(cfg["model"])))
    matrix = _design_matrix(run, cfg)
    preds = predict_model(model, matrix)
    rows = [(rid, repr(float(t)), repr(float(p)))
            for rid, t, p in zip(matrix.row_ids, matrix.targets, preds)]
    _write_csv(os.path.join(run.out_dir, "predictions.csv"), ("record_id", "true", "pred"), rows)


def _report_format(cfg: dict) -> str:
    """The configured report format, checked before any experiment runs."""
    fmt = cfg.get("report_format", "markdown")
    if fmt not in ("markdown", "csv"):
        raise ConfigError(f"'report_format' must be 'markdown' or 'csv', not {fmt!r}")
    return fmt


def _cmd_experiment(run: _Run, cfg: dict, seed_override: int | None, preset_override: str | None) -> None:
    config = _materialize_experiment(run, cfg, seed_override, preset_override)
    label = cfg.get("label", f"{cfg.get('regressor', 'gbt')}:{config.split.kind}")
    if not isinstance(label, str):
        raise ConfigError(f"'label' must be a string, not {label!r}")
    lowess_frac = cfg.get("lowess_frac", 0.5)
    if not FIELD_TYPES["float"].check(lowess_frac) or not 0 < lowess_frac <= 1:
        raise ConfigError(f"'lowess_frac' must be a number in (0, 1], not {lowess_frac!r}")
    fmt = _report_format(cfg)
    families = _load_families(run, cfg)
    result = run_experiment(config)
    _write_json(os.path.join(run.out_dir, "results.json"), _result_json(result))
    rows = [(rid, repr(t), repr(p)) for rid, t, p in result.predictions]
    _write_csv(os.path.join(run.out_dir, "predictions.csv"), ("record_id", "true", "pred"), rows)
    all_records = config.records + (config.test_records or [])
    scatter = _scatter_for(all_records, result, families)
    emit_report(
        [(label, result)],
        run.out_dir,
        scatter=scatter,
        fmt=fmt,
        lowess_frac=float(lowess_frac),
    )


def _cmd_ablate(run: _Run, cfg: dict, seed_override: int | None, preset_override: str | None) -> None:
    config = _materialize_experiment(run, cfg, seed_override, preset_override)
    group_sets = cfg.get("group_sets")
    if group_sets is not None and not (
        isinstance(group_sets, list)
        and all(isinstance(s, list) and all(isinstance(g, str) for g in s) for s in group_sets)
    ):
        raise ConfigError(f"'group_sets' must be a list of lists of feature groups, not {group_sets!r}")
    fmt = _report_format(cfg)
    results = run_ablation(config, group_sets)
    payload = {"+".join(subset): _result_json(res) for subset, res in results.items()}
    _write_json(os.path.join(run.out_dir, "results.json"), payload)
    emit_report(
        [("+".join(subset), res) for subset, res in results.items()],
        run.out_dir,
        fmt=fmt,
    )


def _cmd_importance(run: _Run, cfg: dict) -> None:
    if "model" not in cfg:
        raise ConfigError("importance config needs 'model'")
    model = load_model(run.track(run.resolve(cfg["model"])))
    if not isinstance(model, GbtModel):
        raise ConfigError("feature importance is only defined for gbt models")
    scores = gbt_importance(model)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    _write_csv(
        os.path.join(run.out_dir, "importance.csv"),
        ("feature", "importance"),
        [(name, repr(value)) for name, value in ordered],
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfcast", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"perfcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("features", "train", "predict", "experiment", "ablate", "importance"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--preset", default=None, help="named hyperparameter preset override")
        p.add_argument("--threads", type=int, default=0,
                       help="worker hint, 0 = auto; never affects results")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 0:
        print(json.dumps({"error": "ConfigError", "message": "--threads must be >= 0"}), file=sys.stderr)
        return 2
    try:
        cfg = _read_config(args.config)
        run = _Run(args.command, args.config, args.out, args.seed, args.threads)
        if args.command == "features":
            _cmd_features(run, cfg)
        elif args.command == "train":
            _cmd_train(run, cfg, args.seed, args.preset)
        elif args.command == "predict":
            _cmd_predict(run, cfg)
        elif args.command == "experiment":
            _cmd_experiment(run, cfg, args.seed, args.preset)
        elif args.command == "ablate":
            _cmd_ablate(run, cfg, args.seed, args.preset)
        elif args.command == "importance":
            _cmd_importance(run, cfg)
        run.write_manifest()
    except (PerfcastError, OSError, KeyError, ValueError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
