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
from dataclasses import dataclass, replace
from functools import partial
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
from .errors import ConfigError, DuplicateId, ParseError, PerfcastError, TooFewRecords, open_text
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    SplitSpec,
    check_protocol,
    run_ablation,
    run_experiment,
)
from .fields import FIELD_TYPES, FieldType, from_json, read
from .langdist import load_distance_table
from .pool import map_jobs
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


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One `corpora` entry: a text file, or the source and target files of a parallel corpus."""

    dataset_id: str
    path: str | None = None
    source_path: str | None = None
    target_path: str | None = None
    mode: str = "unicode_words"

    def __post_init__(self):
        if self.mode not in get_args(TokenizeMode):
            raise ValueError(f"unknown tokenize mode {self.mode!r}")


@dataclass(frozen=True)
class PairEntry:
    """One `pairs` entry: the dataset_ids of a (train, test) corpus pair."""

    train: str
    test: str


FIELD_TYPES.update({cls.__name__: FieldType(lambda value: isinstance(value, dict), partial(from_json, cls))
                    for cls in (SplitSpec, CorpusEntry, PairEntry)})
FIELD_TYPES.update({f"tuple[{name}, ...]": FieldType(lambda value: isinstance(value, list), tuple, name)
                    for name in ("CorpusEntry", "PairEntry")})

# the corpus files a side reads when a corpora entry has no `path`
_SIDES = {"source": ("source_path",), "target": ("target_path",), "concat": ("source_path", "target_path")}


@dataclass(frozen=True)
class Config:
    """The config file of every command, read by fields.from_json.

    One file may serve several commands, as train and then predict, so a
    key that some command reads is accepted by all; a key that names no
    field is an error. README.md lists the commands that read each field.
    """

    records: str | tuple[str, ...] | None = None
    test_records: str | tuple[str, ...] | None = None
    dataset_features: str | None = None
    corpora: tuple[CorpusEntry, ...] = ()
    pairs: tuple[PairEntry, ...] = ()
    side: str = "source"
    embeddings: str | None = None
    language_distances: str | None = None
    language_families: str | None = None
    feature_groups: tuple[str, ...] = ("language", "dataset", "proxy")
    proxies: tuple[str, ...] | None = None
    estimated_model: str | None = None
    regressor: str = "gbt"
    grid: list[dict] | None = None
    params: dict | None = None
    preset: str | None = None
    split: SplitSpec = SplitSpec("random", 0.7)
    repeats: int = 5
    cv_folds: int = 10
    seed: int | None = None
    model: str | None = None
    label: str | None = None
    lowess_frac: float = 0.5
    report_format: str = "markdown"
    group_sets: list[tuple[str, ...]] | None = None

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        dataset_ids = set()
        for i, entry in enumerate(self.corpora):
            if entry.dataset_id in dataset_ids:
                raise ValueError(f"corpora[{i}]: repeated dataset_id {entry.dataset_id!r}")
            dataset_ids.add(entry.dataset_id)
            if entry.path is None:
                for name in _SIDES[self.side]:
                    if getattr(entry, name) is None:
                        raise ValueError(f"corpora[{i}]: {name} is missing")
        if self.regressor not in KINDS:
            raise ValueError(f"unknown regressor kind {self.regressor!r}")
        if not 0 < self.lowess_frac <= 1:
            raise ValueError(f"'lowess_frac' must be a number in (0, 1], not {self.lowess_frac!r}")
        if self.report_format not in ("markdown", "csv"):
            raise ValueError(f"'report_format' must be 'markdown' or 'csv', not {self.report_format!r}")
        # candidates() refuses a params or grid entry its class rejects, or a preset of another kind
        check_protocol(self.candidates(), self, self.group_sets or ())

    def candidates(self) -> list[AnyParams]:
        """The hyperparameter sets to search: the grid, else params, else the preset, else the defaults.

        Each params object is built by its own class, through the field table
        entry serialize.py gives it, so {"eta": 1} keeps its bytes.
        """
        params_cls = KINDS[self.regressor][0]
        if self.grid is not None:
            return [read(params_cls.__name__, obj, f"grid[{i}]") for i, obj in enumerate(self.grid)]
        if self.params is not None:
            return [read(params_cls.__name__, self.params, "params")]
        if self.preset is None:
            return [params_cls()]
        params = get_preset(self.preset)
        if params_kind(params) != self.regressor:
            raise ConfigError(f"preset {self.preset!r} is a {params_kind(params)} configuration"
                              f" but regressor is {self.regressor!r}")
        return [params]


def _read_config(path: str) -> Config:
    try:
        with open_text(path) as fh:
            return from_json(Config, json.load(fh))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_MATRIX_COMMANDS = ("train", "predict", "experiment", "ablate")  # the commands that build a design matrix


def _check_command(path: str, command: str, cfg: Config) -> None:
    """Reject a config that lacks what the command reads, naming the config file.

    Runs before any input file is read or the output directory made. The
    corpora and pairs are checked when the command computes features from
    them: features always, a design-matrix command when the dataset group is
    on, no dataset_features CSV is given and corpora are.
    """
    if command in ("predict", "importance") and cfg.model is None:
        raise ConfigError(f"{path}: {command} config needs 'model'")
    matrix = command in _MATRIX_COMMANDS
    if matrix and cfg.records is None:
        raise ConfigError(f"{path}: config is missing 'records'")
    dataset_group = matrix and "dataset" in cfg.feature_groups and cfg.dataset_features is None
    if command == "features" or (dataset_group and cfg.corpora):
        if not cfg.corpora or not cfg.pairs:
            raise ConfigError(f"{path}: feature computation needs 'corpora' and 'pairs'")
        dataset_ids = {entry.dataset_id for entry in cfg.corpora}
        for i, pair in enumerate(cfg.pairs):
            for name in ("train", "test"):
                if getattr(pair, name) not in dataset_ids:
                    raise ConfigError(f"{path}: pairs[{i}]: {name} references unknown corpus {getattr(pair, name)!r}")
    elif dataset_group:
        raise ConfigError(f"{path}: dataset feature group enabled but neither 'dataset_features'"
                          " nor 'corpora'+'pairs' given")
    if matrix and "language" in cfg.feature_groups and cfg.language_distances is None:
        raise ConfigError(f"{path}: language feature group enabled but no 'language_distances' path given")
    if command == "train" and len(cfg.candidates()) != 1:
        raise ConfigError(f"{path}: train expects exactly one hyperparameter set (preset or params)")


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

def _load_record_sources(run: _Run, paths: tuple[str, ...]) -> list[PerformanceRecord]:
    """The records of every file, in order.

    A file with no records is TooFewRecords, and an id that an earlier file
    gave is a DuplicateId naming both.
    """
    records: list[PerformanceRecord] = []
    sources: list[str] = []
    # record_id -> index of the file that gave it; load_records rejects a repeat within one file
    source_of: dict[str, int] = {}
    for rel in paths:
        path = run.track(run.resolve(rel))
        sources.append(path)
        loaded = load_records(path)
        if not loaded:
            raise TooFewRecords(f"{path}: no records")
        for rec in loaded:
            first = source_of.setdefault(rec.record_id, len(sources) - 1)
            if first != len(sources) - 1:
                raise DuplicateId(f"{path}: duplicate record_id {rec.record_id!r}, first given in {sources[first]}")
            records.append(rec)
    return records


def _feature_sources(run: _Run, cfg: Config):
    """Records, dataset feature blocks and language table named by a config.

    Dataset features come from a precomputed `dataset_features` CSV or are
    computed inline from `corpora` + `pairs`. _check_command has checked
    that the config names every source its feature groups need.
    """
    records = _load_record_sources(run, cfg.records)
    dataset_blocks = None
    if "dataset" in cfg.feature_groups:
        if cfg.dataset_features is not None:
            dataset_blocks = load_feature_csv(run.track(run.resolve(cfg.dataset_features)))
        else:
            dataset_blocks = {(tr, te): block for tr, te, block in _compute_feature_blocks(run, cfg)}
    language_table = None
    if "language" in cfg.feature_groups:
        language_table = load_distance_table(run.track(run.resolve(cfg.language_distances)))
    return records, dataset_blocks, language_table


def _materialize_experiment(run: _Run, cfg: Config) -> ExperimentConfig:
    records, dataset_blocks, language_table = _feature_sources(run, cfg)
    return ExperimentConfig(
        records=records,
        grid=cfg.candidates(),
        split=cfg.split,
        feature_groups=cfg.feature_groups,
        proxies=cfg.proxies,
        repeats=cfg.repeats,
        cv_folds=cfg.cv_folds,
        seed=cfg.seed if cfg.seed is not None else 0,
        estimated_model=cfg.estimated_model,
        dataset_features=dataset_blocks,
        language_table=language_table,
        test_records=None if cfg.test_records is None else _load_record_sources(run, cfg.test_records),
    )


def _load_families(run: _Run, cfg: Config) -> dict[str, str]:
    """The lang,family CSV as a map; a short, long or repeated row is a ParseError at file:line."""
    if cfg.language_families is None:
        return {}
    path = run.track(run.resolve(cfg.language_families))
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

def _profile_corpus(job: tuple[str, list[str], str]):
    """The profile of one corpora entry's (dataset_id, resolved paths, mode): each file read once."""
    dataset_id, paths, mode = job
    first, *rest = (read_corpus(path, mode) for path in paths)
    return profile(dataset_id, sum(rest, first))  # no copy of a lone file's counts


def _pair_features(profiles: dict, embeddings: dict, pair: tuple[str, str]):
    """The feature block of one (train, test) pair of dataset_ids."""
    train, test = pair
    emb = (embeddings[train], embeddings[test]) if train in embeddings and test in embeddings else None
    return dataset_features(profiles[train], profiles[test], emb)


def _compute_feature_blocks(run: _Run, cfg: Config) -> list[tuple[str, str, object]]:
    """Profile the configured corpora, reading each file once, and compute one feature block per pair.

    Every path is resolved and tracked here; the profiles, then the pair
    blocks, are computed over --threads processes (perfcast.pool) and come
    back in config order. _check_command has checked that every pair names
    a corpora entry.
    """
    jobs = []
    for entry in cfg.corpora:
        rels = [entry.path] if entry.path is not None else [getattr(entry, name) for name in _SIDES[cfg.side]]
        jobs.append((entry.dataset_id, [run.track(run.resolve(rel)) for rel in rels], entry.mode))
    profiles = dict(zip((entry.dataset_id for entry in cfg.corpora), map_jobs(_profile_corpus, jobs, run.threads)))

    embeddings = {}
    if cfg.embeddings is not None:
        embeddings = load_embeddings(run.track(run.resolve(cfg.embeddings)))

    pairs = [(pair.train, pair.test) for pair in cfg.pairs]
    blocks = map_jobs(partial(_pair_features, profiles, embeddings), pairs, run.threads)
    return [(train, test, block) for (train, test), block in zip(pairs, blocks)]


def _cmd_features(run: _Run, cfg: Config) -> None:
    blocks = _compute_feature_blocks(run, cfg)
    write_feature_csv(os.path.join(run.out_dir, "features.csv"), blocks)


def _design_matrix(run: _Run, cfg: Config):
    """The design matrix built from the config's records and feature sources."""
    records, dataset_blocks, language_table = _feature_sources(run, cfg)
    roster = sorted(cfg.proxies) if cfg.proxies is not None else proxy_roster(records)
    return build_design_matrix(records, build_schema(cfg.feature_groups, roster), dataset_blocks, language_table)


def _cmd_train(run: _Run, cfg: Config) -> None:
    matrix = _design_matrix(run, cfg)
    (params,) = cfg.candidates()  # _check_command has checked there is one
    params = params if cfg.seed is None else with_seed(params, cfg.seed)
    model = fit_model(params, matrix)
    save_model(model, os.path.join(run.out_dir, "model.json"))


def _cmd_predict(run: _Run, cfg: Config) -> None:
    model = load_model(run.track(run.resolve(cfg.model)))
    matrix = _design_matrix(run, cfg)
    preds = predict_model(model, matrix)
    rows = [(rid, repr(float(t)), repr(float(p)))
            for rid, t, p in zip(matrix.row_ids, matrix.targets, preds)]
    _write_csv(os.path.join(run.out_dir, "predictions.csv"), ("record_id", "true", "pred"), rows)


def _cmd_experiment(run: _Run, cfg: Config) -> None:
    config = _materialize_experiment(run, cfg)
    families = _load_families(run, cfg)
    result = run_experiment(config, workers=run.threads)
    _write_json(os.path.join(run.out_dir, "results.json"), _result_json(result))
    rows = [(rid, repr(t), repr(p)) for rid, t, p in result.predictions]
    _write_csv(os.path.join(run.out_dir, "predictions.csv"), ("record_id", "true", "pred"), rows)
    all_records = config.records + (config.test_records or [])
    scatter = _scatter_for(all_records, result, families)
    label = cfg.label if cfg.label is not None else f"{cfg.regressor}:{cfg.split.kind}"
    emit_report(
        [(label, result)],
        run.out_dir,
        scatter=scatter,
        fmt=cfg.report_format,
        lowess_frac=cfg.lowess_frac,
    )


def _cmd_ablate(run: _Run, cfg: Config) -> None:
    config = _materialize_experiment(run, cfg)
    results = run_ablation(config, cfg.group_sets, workers=run.threads)
    payload = {"+".join(subset): _result_json(res) for subset, res in results.items()}
    _write_json(os.path.join(run.out_dir, "results.json"), payload)
    emit_report(
        [("+".join(subset), res) for subset, res in results.items()],
        run.out_dir,
        fmt=cfg.report_format,
    )


def _cmd_importance(run: _Run, cfg: Config) -> None:
    model = load_model(run.track(run.resolve(cfg.model)))
    if not isinstance(model, GbtModel):
        raise ConfigError("feature importance is only defined for gbt models")
    scores = gbt_importance(model)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    _write_csv(
        os.path.join(run.out_dir, "importance.csv"),
        ("feature", "importance"),
        [(name, repr(value)) for name, value in ordered],
    )


_COMMANDS = {"features": _cmd_features, "train": _cmd_train, "predict": _cmd_predict,
             "experiment": _cmd_experiment, "ablate": _cmd_ablate, "importance": _cmd_importance}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfcast", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"perfcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--preset", default=None, help="named hyperparameter preset override")
        p.add_argument("--threads", type=int, default=0,
                       help="worker processes, 0 = one per CPU; never changes outputs")
    return parser


_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.threads < 0:
        print(json.dumps({"error": "ConfigError", "message": "--threads must be >= 0"}), file=sys.stderr)
        return 2
    try:
        cfg = _read_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.preset is not None:  # the flag replaces the config's hyperparameters
            cfg = replace(cfg, grid=None, params=None, preset=args.preset)
        _check_command(args.config, args.command, cfg)
        run = _Run(args.command, args.config, args.out, args.seed, args.threads)
        _COMMANDS[args.command](run, cfg)
        run.write_manifest()
    except (PerfcastError, OSError, KeyError, ValueError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
