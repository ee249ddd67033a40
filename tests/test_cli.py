import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfcast import cli
from perfcast.cli import main
from perfcast.corpus import (
    EmbeddingSet,
    jsd,
    load_feature_csv,
    profile,
    read_corpus,
    token_distribution,
    tokenize,
    write_feature_csv,
)
from perfcast.experiments import ExperimentConfig, SplitSpec
from perfcast.langdist import save_distance_table
from perfcast.records import build_schema, proxy_roster, save_records
from perfcast.regressors import GbtParams

from conftest import synthetic_setup
from oracles import oracle_dataset_features, oracle_read_corpus


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


def write_experiment_fixture(tmp_path, n=36, seed=0, config_extra=None, **synth_kw):
    records, blocks, table = synthetic_setup(n, seed=seed, **synth_kw)
    save_records(records, str(tmp_path / "records.csv"))
    write_feature_csv(
        str(tmp_path / "features.csv"),
        [(tr, te, block) for (tr, te), block in blocks.items()],
    )
    save_distance_table(table, str(tmp_path / "distances.csv"))
    langs = sorted({r.tgt_lang for r in records})
    (tmp_path / "families.csv").write_text(
        "lang,family\n" + "\n".join(f"{l},family-{i % 2}" for i, l in enumerate(langs)) + "\n"
    )
    cfg = {
        "records": "records.csv",
        "dataset_features": "features.csv",
        "language_distances": "distances.csv",
        "language_families": "families.csv",
        "regressor": "gbt",
        "params": {"n_estimators": 8, "max_depth": 2, "eta": 0.3, "subsample": 0.9, "seed": 0},
        "feature_groups": ["language", "dataset", "proxy"],
        "split": {"kind": "random", "ratio": 0.7},
        "repeats": 2,
        "seed": 4,
    }
    if config_extra:
        cfg.update(config_extra)
    return write_json(tmp_path / "config.json", cfg)


def dir_bytes(path, skip=("manifest.json",)):
    out = {}
    for name in sorted(os.listdir(path)):
        if name in skip:
            continue
        out[name] = (path / name).read_bytes()
    return out


# Words of two overlapping pools, so corpora share some tokens, all or none
WORDS = st.sampled_from(["a", "b", "c", "Dd", "e_1", "ΟΔΟΣ"]) | st.sampled_from(["x", "y", "z9", "b"])
WORD_LINE = st.lists(WORDS, min_size=1, max_size=5).map(" ".join)
SIDE_FILES = {"source": ("source",), "target": ("target",), "concat": ("source", "target")}


@st.composite
def feature_runs(draw):
    """(side, [(source lines, target lines)], [mean embedding or None]) for 1-4 corpora.

    Each file's first line holds a token; the lines after it may hold none.
    """
    side = draw(st.sampled_from(sorted(SIDE_FILES)))
    lines = st.lists(WORD_LINE | st.sampled_from(["", "...", "a, b!"]), max_size=4)
    corpora = []
    for _ in range(draw(st.integers(1, 4))):
        if corpora and draw(st.integers(0, 4)) == 0:
            corpora.append(draw(st.sampled_from(corpora)))  # an identical corpus
        else:
            corpora.append(tuple([draw(WORD_LINE)] + draw(lines) for _ in range(2)))
    vectors = [draw(st.none() | st.tuples(st.sampled_from([0.5, 1.0, -2.0]), st.sampled_from([1.0, 3.0])))
               for _ in corpora]
    return side, corpora, vectors


class TestFeaturesCommand:
    def test_end_to_end(self, tmp_path):
        (tmp_path / "a.txt").write_text("Hello, world!\nThe world turns.\n")
        (tmp_path / "b.txt").write_text("hello there\nBig wide world!\n")
        (tmp_path / "emb.jsonl").write_text(
            '{"dataset_id": "corpus-a", "dim": 2, "mean_vector": [1.0, 0.0]}\n'
            '{"dataset_id": "corpus-b", "dim": 2, "mean_vector": [1.0, 1.0]}\n'
        )
        cfg = write_json(tmp_path / "features.json", {
            "corpora": [
                {"dataset_id": "corpus-a", "path": "a.txt"},
                {"dataset_id": "corpus-b", "path": "b.txt"},
            ],
            "pairs": [{"train": "corpus-a", "test": "corpus-b"}],
            "embeddings": "emb.jsonl",
        })
        out = tmp_path / "out"
        assert main(["features", "--config", cfg, "--out", str(out)]) == 0
        blocks = load_feature_csv(str(out / "features.csv"))
        block = blocks[("corpus-a", "corpus-b")]
        p_a = profile("corpus-a", [tokenize("Hello, world!"), tokenize("The world turns.")])
        assert block.train_size == 2
        assert block.vocab_size_train == p_a.vocab_size
        assert block.ttr_train == p_a.ttr
        assert block.embedding_cosine == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert (out / "manifest.json").exists()

    def test_each_corpus_file_read_and_profiled_once(self, tmp_path, monkeypatch):
        reads, profiled = [], []
        monkeypatch.setattr(cli, "read_corpus", lambda path, mode: reads.append(os.path.basename(path))
                            or read_corpus(path, mode))
        monkeypatch.setattr(cli, "profile", lambda dataset_id, counts: profiled.append(dataset_id)
                            or profile(dataset_id, counts))
        for name in "abc":
            (tmp_path / f"{name}.txt").write_text(f"{name} shared words\nmore {name} text\n")
        cfg = write_json(tmp_path / "features.json", {
            "corpora": [{"dataset_id": name, "path": f"{name}.txt"} for name in "abc"],
            "pairs": [{"train": tr, "test": te} for tr in "abc" for te in "abc"],
        })
        # --threads 1: the counters above see the calls the caller makes, not a worker's
        assert main(["features", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
        assert sorted(reads) == ["a.txt", "b.txt", "c.txt"]
        assert profiled == ["a", "b", "c"]  # nine pairs, three profiles
        blocks = load_feature_csv(str(tmp_path / "out" / "features.csv"))
        texts = {name: [tokenize(line) for line in (tmp_path / f"{name}.txt").read_text().splitlines()] for name in "abc"}
        for (tr, te), block in blocks.items():
            assert block.jsd == jsd(token_distribution(profile(tr, texts[tr])), token_distribution(profile(te, texts[te])))

    @pytest.mark.parametrize("bad", [None, b"", b"ok\n\xff\n"], ids=["none", "empty", "not_utf8"])
    def test_same_output_for_every_thread_count(self, tmp_path, capsys, bad):
        # the last corpus is profiled in a worker at --threads 3
        for name in "abc":
            (tmp_path / f"{name}.txt").write_text(f"{name} shared words\nmore {name} text\n")
        if bad is not None:
            (tmp_path / "c.txt").write_bytes(bad)
        cfg = write_json(tmp_path / "features.json", {
            "corpora": [{"dataset_id": name, "path": f"{name}.txt"} for name in "abc"],
            "pairs": [{"train": tr, "test": te} for tr in "abc" for te in "abc"],
        })
        outcomes = []
        for threads in ("1", "3"):
            out = tmp_path / f"out{threads}"
            code = main(["features", "--config", cfg, "--out", str(out), "--threads", threads])
            outcomes.append((code, dir_bytes(out), capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if bad is None else 1)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(feature_runs())
    @example(("source", [(["a b", "c"], ["x"]), (["Dd e_1"], ["x"])], [None, None]))  # disjoint: jsd 1
    @example(("concat", [(["a b", "b"], ["c"]), (["a b", "b"], ["c"])], [(1.0, 2.0), (3.0, -1.0)]))  # identical
    @example(("target", [(["x"], ["a a b."]), (["x"], ["b c, c"]), (["x"], ["ΟΔΟΣ a"])], [(1.0, 1.0), None, (0.0, 2.0)]))
    def test_all_pairs_match_per_pair_oracle(self, tmp_path_factory, run):
        side, corpora, vectors = run
        tmp = tmp_path_factory.mktemp("features")
        entries, sentences, embeddings = [], {}, []
        for i, (source, target) in enumerate(corpora):
            dataset_id = f"c{i}"
            for name, lines in (("source", source), ("target", target)):
                (tmp / f"{dataset_id}.{name}").write_text("\n".join(lines) + "\n" * (i % 2), encoding="utf-8")
            entries.append({"dataset_id": dataset_id, "source_path": f"{dataset_id}.source",
                            "target_path": f"{dataset_id}.target"})
            sentences[dataset_id] = [sent for name in SIDE_FILES[side]
                                     for sent in oracle_read_corpus(str(tmp / f"{dataset_id}.{name}"))]
            if vectors[i] is not None:
                embeddings.append(EmbeddingSet(dataset_id, 2, vectors[i]))
        (tmp / "emb.jsonl").write_text("".join(
            json.dumps({"dataset_id": e.dataset_id, "dim": e.dim, "mean_vector": list(e.mean_vector)}) + "\n"
            for e in embeddings))
        pairs = [(tr["dataset_id"], te["dataset_id"]) for tr in entries for te in entries]
        cfg = write_json(tmp / "features.json", {
            "corpora": entries, "side": side, "embeddings": "emb.jsonl",
            "pairs": [{"train": tr, "test": te} for tr, te in pairs],
        })
        assert main(["features", "--config", cfg, "--out", str(tmp / "out")]) == 0
        emb = {e.dataset_id: e for e in embeddings}
        write_feature_csv(str(tmp / "expected.csv"), [
            (tr, te, oracle_dataset_features(sentences[tr], sentences[te],
                                             (emb[tr], emb[te]) if tr in emb and te in emb else None))
            for tr, te in pairs
        ])
        assert (tmp / "out" / "features.csv").read_bytes() == (tmp / "expected.csv").read_bytes()

    def test_side_switch(self, tmp_path):
        (tmp_path / "src.txt").write_text("alpha beta\n")
        (tmp_path / "tgt.txt").write_text("gamma delta epsilon\n")
        cfg = write_json(tmp_path / "f.json", {
            "side": "target",
            "corpora": [{"dataset_id": "d", "source_path": "src.txt", "target_path": "tgt.txt"}],
            "pairs": [{"train": "d", "test": "d"}],
        })
        out = tmp_path / "out"
        assert main(["features", "--config", cfg, "--out", str(out)]) == 0
        block = load_feature_csv(str(out / "features.csv"))[("d", "d")]
        assert block.vocab_size_train == 3  # target side tokens


FEATURE_SOURCES = {"corpora": [{"dataset_id": "a", "path": "a.txt"}, {"dataset_id": "b", "path": "a.txt"}],
                   "pairs": [{"train": "a", "test": "b"}]}


class TestConfigShape:
    """A config value of the wrong JSON shape is a typed error naming the key, never a traceback."""

    @pytest.mark.parametrize("extra, match", [
        ({"corpora": ["a.txt"]}, "corpora[0] must be of type CorpusEntry, not 'a.txt'"),
        ({"pairs": [["a", "b"]]}, "pairs[0] must be of type PairEntry, not ['a', 'b']"),
        ({"corpora": [{"dataset_id": "a", "path": "a.txt"}, {"path": "a.txt"}]},
         "corpora[1]: dataset_id is missing"),
        ({"pairs": [{"train": "a", "test": "b"}, {"train": "a"}]}, "pairs[1]: test is missing"),
        ({"corpora": [{"dataset_id": "a", "path": 5}]}, "corpora[0]: path must be of type str | None, not 5"),
        ({"corpora": [{"dataset_id": "a", "path": "a.txt"}, {"dataset_id": "b", "path": "a.txt", "mode": 5}]},
         "corpora[1]: mode must be of type str, not 5"),
    ], ids=["corpus_string", "pair_list", "corpus_without_id", "pair_without_test", "path_number",
            "mode_number"])
    def test_features(self, tmp_path, capsys, extra, match):
        (tmp_path / "a.txt").write_text("hello world\n")
        cfg = write_json(tmp_path / "f.json", {**FEATURE_SOURCES, **extra})
        assert main(["features", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], match in err["message"]) == ("ConfigError", True), err

    @pytest.mark.parametrize("config, match", [
        ({}, "feature computation needs 'corpora' and 'pairs'"),
        ({"corpora": [{"dataset_id": "a", "path": "missing.txt"}]}, "feature computation needs 'corpora' and 'pairs'"),
        ({"pairs": [{"train": "a", "test": "a"}]}, "feature computation needs 'corpora' and 'pairs'"),
        ({"corpora": [{"dataset_id": "a", "path": "missing.txt"}, {"dataset_id": "b", "path": "missing.txt"}],
          "pairs": [{"train": "a", "test": "b"}, {"train": "b", "test": "zz"}]},
         "pairs[1]: test references unknown corpus 'zz'"),
    ], ids=["empty", "corpora_without_pairs", "pairs_without_corpora", "unknown_corpus"])
    def test_feature_sources_rejected_before_any_file(self, tmp_path, capsys, config, match):
        # the corpus files do not exist, so reading one first would be an OSError
        cfg = write_json(tmp_path / "f.json", config)
        out = tmp_path / "out"
        assert main(["features", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ConfigError", f"{cfg}: {match}")
        assert not out.exists()

    def test_train_rejects_a_pair_of_unknown_corpus_before_any_file(self, tmp_path, capsys):
        # dataset features come from the corpora when no dataset_features CSV is given
        obj = json.loads(Path(write_experiment_fixture(tmp_path)).read_text())
        del obj["dataset_features"]
        cfg = write_json(tmp_path / "train.json", {**obj, "corpora": [{"dataset_id": "a", "path": "missing.txt"}],
                                                  "pairs": [{"train": "a", "test": "zz"}]})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ConfigError", f"{cfg}: pairs[0]: test references unknown corpus 'zz'")
        assert not out.exists()

    def test_repeated_dataset_id_rejected_before_any_file(self, tmp_path, capsys):
        # the corpus files do not exist, so reading one first would be an OSError
        cfg = write_json(tmp_path / "f.json", {
            "corpora": [{"dataset_id": "x", "path": "a.txt"}, {"dataset_id": "x", "path": "b.txt"}],
            "pairs": [{"train": "x", "test": "x"}]})
        out = tmp_path / "out"
        assert main(["features", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ConfigError", f"{cfg}: corpora[1]: repeated dataset_id 'x'")
        assert not out.exists()

    @pytest.mark.parametrize("command, drop, extra, match", [
        ("train", ["records"], {}, "config is missing 'records'"),
        ("predict", [], {}, "predict config needs 'model'"),
        ("importance", [], {}, "importance config needs 'model'"),
        ("experiment", ["dataset_features"], {},
         "dataset feature group enabled but neither 'dataset_features' nor 'corpora'+'pairs' given"),
        ("ablate", ["language_distances"], {}, "language feature group enabled but no 'language_distances' path given"),
        ("train", ["params"], {"grid": [{"max_depth": 2}, {"max_depth": 3}]},
         "train expects exactly one hyperparameter set (preset or params)"),
    ], ids=["records", "predict_model", "importance_model", "dataset_source", "language_source", "train_grid"])
    def test_command_needs_rejected_before_any_file(self, tmp_path, capsys, command, drop, extra, match):
        obj = {**json.loads(Path(write_experiment_fixture(tmp_path)).read_text()), **extra}
        cfg = write_json(tmp_path / "c.json", {k: v for k, v in obj.items() if k not in drop})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ConfigError", f"{cfg}: {match}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "ablate"])
    @pytest.mark.parametrize("extra, match", [
        ({"repeats": 0}, "'repeats' must be >= 1, not 0"),
        ({"cv_folds": 1}, "'cv_folds' must be >= 2, not 1"),
        ({"split": {"kind": "cross_dataset"}}, "a cross_dataset split needs 'test_records'"),
        ({"split": {"kind": "cross_dataset"}, "test_records": []}, "a cross_dataset split needs 'test_records'"),
        ({"params": None, "grid": []}, "grid: needs at least one hyperparameter set"),
    ], ids=["no_repeats", "one_fold", "cross_dataset_without_test_records", "cross_dataset_empty_test_records",
            "empty_grid"])
    def test_experiment_settings_rejected_before_any_file(self, tmp_path, capsys, command, extra, match):
        obj = {**json.loads(Path(write_experiment_fixture(tmp_path)).read_text()), **extra}
        cfg = write_json(tmp_path / "c.json", {k: v for k, v in obj.items() if v is not None})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ConfigError", f"{cfg}: {match}")
        assert not out.exists()

    @pytest.mark.parametrize("extra, where", [
        ({"params": {"degree": 1, "seed": 3}}, "params"),
        ({"params": None, "grid": [{"degree": 1}, {"degree": 2, "seed": 0}]}, "grid[1]"),
    ], ids=["params", "grid"])
    def test_poly_params_have_no_seed(self, tmp_path, capsys, extra, where):
        obj = {**json.loads(Path(write_experiment_fixture(tmp_path)).read_text()), "regressor": "poly", **extra}
        cfg = write_json(tmp_path / "c.json", {k: v for k, v in obj.items() if v is not None})
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ConfigError", f"{cfg}: {where}: unknown key 'seed'")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        {"corpora": [{"dataset_id": "a", "path": "missing.txt"}]},
        {"corpora": [{"dataset_id": "a", "path": "missing.txt"}], "pairs": [{"train": "a", "test": "zz"}]},
        {"feature_groups": ["language", "proxy"], "dataset_features": None,
         "corpora": [{"dataset_id": "a", "path": "missing.txt"}], "pairs": [{"train": "a", "test": "zz"}]},
    ], ids=["csv_corpora_without_pairs", "csv_unknown_corpus", "no_dataset_group"])
    def test_train_ignores_corpora_it_computes_no_features_from(self, tmp_path, extra):
        obj = {**json.loads(Path(write_experiment_fixture(tmp_path)).read_text()), **extra}
        cfg = write_json(tmp_path / "train.json", {k: v for k, v in obj.items() if v is not None})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("extra, error, match", [
        ({"records": 5}, "ConfigError", "records must be of type str | tuple[str, ...] | None, not 5"),
        ({"records": ["records.csv", 5]}, "ConfigError", "records[1] must be of type str, not 5"),
        ({"feature_groups": 5}, "ConfigError", "feature_groups must be of type tuple[str, ...], not 5"),
        ({"proxies": 5}, "ConfigError", "proxies must be of type tuple[str, ...] | None, not 5"),
        ({"regressor": ["gbt"]}, "ConfigError", "regressor must be of type str, not ['gbt']"),
        ({"grid": 5}, "ConfigError", "grid must be of type list[dict] | None, not 5"),
        ({"params": None, "preset": ["lgbm_default"]}, "ConfigError",
         "preset must be of type str | None, not ['lgbm_default']"),
        ({"seed": 1.5}, "ConfigError", "seed must be of type int | None, not 1.5"),
    ], ids=["records_number", "records_list_number", "groups_number", "proxies_number", "regressor_list",
            "grid_number", "preset_list", "seed_float"])
    def test_train(self, tmp_path, capsys, extra, error, match):
        obj = {**json.loads(Path(write_experiment_fixture(tmp_path)).read_text()), **extra}
        cfg = write_json(tmp_path / "train.json", {k: v for k, v in obj.items() if v is not None})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], match in err["message"]) == (error, True), err

    @pytest.mark.parametrize("extra, match", [
        ({"lowess_frac": "x"}, "lowess_frac must be of type float, not 'x'"),
        ({"lowess_frac": 2}, "'lowess_frac' must be a number in (0, 1], not 2"),
        ({"label": 5}, "label must be of type str | None, not 5"),
        ({"report_format": "pdf"}, "'report_format' must be 'markdown' or 'csv', not 'pdf'"),
        ({"repeats": 2.7}, "repeats must be of type int, not 2.7"),
        ({"repeats": True}, "repeats must be of type int, not True"),
        ({"cv_folds": 3.0}, "cv_folds must be of type int, not 3.0"),
        ({"seed": 1.9}, "seed must be of type int | None, not 1.9"),
        ({"seed": "1"}, "seed must be of type int | None, not '1'"),
        ({"params": {"n_estimators": 2.5}}, "n_estimators must be of type int, not 2.5"),
        ({"params": {"eta": "0.1"}}, "eta must be of type float, not '0.1'"),
        ({"params": {"max_depth": True}}, "max_depth must be of type int, not True"),
        ({"params": {"reg_lambda": False}}, "reg_lambda must be of type float, not False"),
        ({"params": {"growth": 1}}, "growth must be of type str, not 1"),
        ({"params": {"growth": "leaf_wise", "num_leaves": 8.0}}, "num_leaves must be of type int | None, not 8.0"),
        ({"params": {"max_bin": "32"}}, "max_bin must be of type int | None, not '32'"),
        ({"regressor": "poly", "params": {"degree": 2.0}}, "degree must be of type int, not 2.0"),
        ({"regressor": "mf", "params": {"latent_dim": "8"}}, "latent_dim must be of type int, not '8'"),
        ({"regressor": "mf", "params": {"alpha": [0.1]}}, "alpha must be of type float, not [0.1]"),
        ({"params": {"min_child_weight": float("nan")}}, "params: min_child_weight must be finite, not nan"),
    ], ids=["lowess_frac_string", "lowess_frac_range", "label_number", "report_format_unknown", "repeats_float",
            "repeats_bool", "cv_folds_float", "seed_float", "seed_string", "n_estimators_float", "eta_string",
            "max_depth_bool", "reg_lambda_bool", "growth_number", "num_leaves_float", "max_bin_string",
            "poly_degree_float", "mf_latent_dim_string", "mf_alpha_list", "min_child_weight_nan"])
    def test_experiment(self, tmp_path, capsys, extra, match):
        cfg = write_experiment_fixture(tmp_path, config_extra=extra)
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], match in err["message"]) == ("ConfigError", True), err
        assert not (tmp_path / "out" / "results.json").exists()  # rejected before the experiment ran

    @pytest.mark.parametrize("extra, match", [
        ({"repeat": 3}, "unknown key 'repeat'"),
        ({"split": {"kind": "lolo", "held_out_langauge": "aar"}}, "split: unknown key 'held_out_langauge'"),
        ({"corpora": [{"dataset_id": "a", "pth": "a.txt"}]}, "corpora[0]: unknown key 'pth'"),
        ({"pairs": [{"train": "a", "tset": "b"}]}, "pairs[0]: unknown key 'tset'"),
        ({"params": {"n_estimators": 8, "max_dpeth": 2}}, "params: unknown key 'max_dpeth'"),
        ({"params": None, "regressor": "mf", "grid": [{}, {"latent_dim": 2, "iters": 5}]},
         "grid[1]: unknown key 'iters'"),
    ], ids=["repeats", "held_out_language", "corpus_path", "pair_test", "gbt_params", "mf_grid"])
    def test_misspelt_key(self, tmp_path, capsys, extra, match):
        cfg = write_experiment_fixture(tmp_path, config_extra=extra)
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": f"{cfg}: {match}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_unknown_preset_message_is_plain(self, tmp_path, capsys, where):
        obj = {**json.loads(Path(write_experiment_fixture(tmp_path)).read_text()), "params": None}
        if where == "config":
            obj["preset"] = "nope"
        cfg = write_json(tmp_path / "train.json", {k: v for k, v in obj.items() if v is not None})
        flag = ["--preset", "nope"] if where == "flag" else []
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out"), *flag]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        prefix = f"{cfg}: " if where == "config" else ""
        assert err["message"].startswith(prefix + "unknown preset 'nope'; available: "), err


class TestLanguageFamilies:
    @pytest.mark.parametrize("body, match", [
        ("aar,family-0\nbel\n", ":3: expected 2 cells, got 1"),
        ("aar,family-0,extra\n", ":2: expected 2 cells, got 3"),
        ("aar,family-0\nbel,family-1\naar,family-1\n", ":4: repeated language 'aar'"),
        (",family-0\n", ":2: empty language code"),
    ], ids=["short_row", "long_row", "repeated_language", "empty_language"])
    def test_bad_row_is_a_parse_error_at_its_line(self, tmp_path, capsys, body, match):
        cfg = write_experiment_fixture(tmp_path)
        (tmp_path / "families.csv").write_text("lang,family\n" + body)
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert str(tmp_path / "families.csv") + match in err["message"]

    def test_blank_lines_are_skipped(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path, config_extra={"repeats": 1})
        (tmp_path / "families.csv").write_text(
            "lang,family\n\naar,x\nbel,x\n\nces,y\ndan,y\newe,y\n\n"
        )
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "groups_family.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["x", "y"]


class TestExperimentCommand:
    def test_outputs_present(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        for name in ("results.json", "predictions.csv", "summary.csv", "summary.md",
                     "groups_joshi.csv", "groups_family.csv", "scatter.csv",
                     "importance.csv", "manifest.json"):
            assert (out / name).exists(), name
        results = json.loads((out / "results.json").read_text())
        assert len(results["per_repeat_rmse"]) == 2
        assert results["mean_rmse"] == pytest.approx(np.mean(results["per_repeat_rmse"]))

    def test_chosen_params_carry_no_seed(self, tmp_path):
        # the params say seed 0, but repeat r fits with the config seed 4 plus r
        cfg = write_experiment_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        chosen = json.loads((out / "results.json").read_text())["chosen_params"]["all"]
        assert (chosen["kind"], chosen["n_estimators"], chosen["subsample"]) == ("gbt", 8, 0.9)
        assert "seed" not in chosen

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out2)]) == 0
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_threads_flag_has_no_effect(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["experiment", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out2), "--threads", "8"]) == 0
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        r1 = json.loads((out1 / "results.json").read_text())
        r2 = json.loads((out2 / "results.json").read_text())
        assert r1["per_repeat_rmse"] != r2["per_repeat_rmse"]

    def test_missing_records_file_reports_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "records": "nope.csv",
            "feature_groups": ["proxy"],
            "regressor": "poly",
            "split": {"kind": "random", "ratio": 0.7},
        })
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "nope.csv" in err["message"]

    @pytest.mark.parametrize("extra, match", [
        ({"split": "lolo"}, "split must be of type SplitSpec, not 'lolo'"),
        ({"split": {"kind": "random", "ratio": "0.7"}}, "split: ratio must be of type float | None, not '0.7'"),
        ({"repeats": [1]}, "repeats must be of type int, not [1]"),
    ], ids=["split_string", "ratio_string", "repeats_list"])
    def test_config_value_of_wrong_type_is_a_config_error(self, tmp_path, capsys, extra, match):
        cfg = write_experiment_fixture(tmp_path, config_extra=extra)
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert match in err["message"]

    def test_inline_corpora_full_pipeline(self, tmp_path):
        # dataset features computed from raw text inside the experiment run
        (tmp_path / "a.txt").write_text("the quick brown fox\njumps over the dog\n" * 3)
        (tmp_path / "b.txt").write_text("a different corpus entirely\nwith other words\n" * 2)
        records, _, _ = synthetic_setup(14, seed=3)
        records = [
            r.__class__(**{**r.__dict__, "train_dataset": "corpus-a", "test_dataset": "corpus-b"})
            for r in records
        ]
        save_records(records, str(tmp_path / "records.csv"))
        cfg = write_json(tmp_path / "pipe.json", {
            "records": "records.csv",
            "corpora": [
                {"dataset_id": "corpus-a", "path": "a.txt"},
                {"dataset_id": "corpus-b", "path": "b.txt"},
            ],
            "pairs": [{"train": "corpus-a", "test": "corpus-b"}],
            "feature_groups": ["dataset", "proxy"],
            "regressor": "poly",
            "params": {"degree": 1, "alpha": 0.1},
            "split": {"kind": "random", "ratio": 0.7},
            "repeats": 1,
            "seed": 2,
        })
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "results.json").exists()

    def test_train_predict_with_inline_corpora(self, tmp_path):
        # train and predict take corpora + pairs in place of a dataset_features CSV
        (tmp_path / "a.txt").write_text("the quick brown fox\njumps over the dog\n" * 3)
        (tmp_path / "b.txt").write_text("a different corpus entirely\nwith other words\n" * 2)
        records, _, _ = synthetic_setup(14, seed=3)
        records = [
            r.__class__(**{**r.__dict__, "train_dataset": "corpus-a", "test_dataset": "corpus-b"})
            for r in records
        ]
        save_records(records, str(tmp_path / "records.csv"))
        cfg = {
            "records": "records.csv",
            "corpora": [
                {"dataset_id": "corpus-a", "path": "a.txt"},
                {"dataset_id": "corpus-b", "path": "b.txt"},
            ],
            "pairs": [{"train": "corpus-a", "test": "corpus-b"}],
            "feature_groups": ["dataset", "proxy"],
            "regressor": "poly",
            "params": {"degree": 1, "alpha": 0.1},
        }
        train_out = tmp_path / "train_out"
        assert main(["train", "--config", write_json(tmp_path / "train.json", cfg),
                     "--out", str(train_out)]) == 0
        model = json.loads((train_out / "model.json").read_text())
        schema = build_schema(("dataset", "proxy"), proxy_roster(records))
        assert tuple(model["feature_names"]) == schema.columns
        manifest = json.loads((train_out / "manifest.json").read_text())
        assert str(tmp_path / "a.txt") in manifest["inputs"]

        cfg["model"] = str(train_out / "model.json")
        pred_out = tmp_path / "pred_out"
        assert main(["predict", "--config", write_json(tmp_path / "predict.json", cfg),
                     "--out", str(pred_out)]) == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1 + 14

    def test_multiple_record_files(self, tmp_path):
        r1, _, _ = synthetic_setup(6, seed=4)
        r2, _, _ = synthetic_setup(6, seed=5)
        r2 = [x.__class__(**{**x.__dict__, "record_id": "b" + x.record_id}) for x in r2]
        save_records(r1, str(tmp_path / "one.csv"))
        save_records(r2, str(tmp_path / "two.csv"))
        cfg = write_json(tmp_path / "c.json", {
            "records": ["one.csv", "two.csv"],
            "feature_groups": ["proxy"],
            "regressor": "poly",
            "params": {"degree": 1, "alpha": 0.1},
            "split": {"kind": "random", "ratio": 0.7},
            "repeats": 1,
        })
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # 12 records, test side of the 7:3 split

    @pytest.mark.parametrize("twice", [False, True], ids=["two_files", "one_file_twice"])
    def test_id_in_two_record_files_names_both(self, tmp_path, capsys, twice):
        records, _, _ = synthetic_setup(6, seed=4)
        save_records(records[:4], str(tmp_path / "one.csv"))
        save_records(records[3:], str(tmp_path / "two.csv"))
        second = "one.csv" if twice else "two.csv"
        cfg = write_json(tmp_path / "c.json", {
            "records": ["one.csv", second], "feature_groups": ["proxy"], "regressor": "poly",
            "params": {"degree": 1, "alpha": 0.1}, "split": {"kind": "random", "ratio": 0.7}, "repeats": 1,
        })
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        repeated = records[0 if twice else 3].record_id
        message = f"{tmp_path / second}: duplicate record_id {repeated!r}, first given in {tmp_path / 'one.csv'}"
        assert (err["error"], err["message"]) == ("DuplicateId", message)

    @pytest.mark.parametrize("key", ["records", "test_records"])
    def test_records_file_without_records_named(self, tmp_path, capsys, key):
        records, _, _ = synthetic_setup(12, seed=4)
        save_records(records, str(tmp_path / "full.csv"))
        save_records([], str(tmp_path / "empty.csv"))
        # a header-only file after a full one, or alone
        empty = {"records": ["full.csv", "empty.csv"], "test_records": "empty.csv"}[key]
        cfg = write_json(tmp_path / "c.json", {
            "records": "full.csv", "test_records": "full.csv", "feature_groups": ["proxy"], "regressor": "poly",
            "split": {"kind": "cross_dataset"}, "repeats": 1, key: empty,
        })
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("TooFewRecords", f"{tmp_path / 'empty.csv'}: no records")

    def test_lolo_split(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path, config_extra={
            "split": {"kind": "lolo"},
            "repeats": 1,
            "regressor": "poly",
            "params": {"degree": 1, "alpha": 0.1},
        })
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert set(results["per_language_rmse"]) == {"aar", "bel", "ces", "dan", "ewe"}


class TestTrainPredictImportance:
    def test_flow(self, tmp_path):
        cfg_path = write_experiment_fixture(tmp_path)
        train_out = tmp_path / "train_out"
        assert main(["train", "--config", cfg_path, "--out", str(train_out)]) == 0
        model_path = train_out / "model.json"
        assert model_path.exists()

        cfg = json.loads((tmp_path / "config.json").read_text())
        cfg["model"] = str(model_path)
        predict_cfg = write_json(tmp_path / "predict.json", cfg)
        pred_out = tmp_path / "pred_out"
        assert main(["predict", "--config", predict_cfg, "--out", str(pred_out)]) == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "record_id,true,pred"
        assert len(lines) == 1 + 36

        imp_cfg = write_json(tmp_path / "imp.json", {"model": str(model_path)})
        imp_out = tmp_path / "imp_out"
        assert main(["importance", "--config", imp_cfg, "--out", str(imp_out)]) == 0
        imp_lines = (imp_out / "importance.csv").read_text().splitlines()
        assert imp_lines[0] == "feature,importance"
        total = sum(float(l.split(",")[1]) for l in imp_lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag, expected", [([], 5), (["--seed", "7"], 7)], ids=["config", "flag"])
    def test_train_seed(self, tmp_path, flag, expected):
        cfg = write_experiment_fixture(tmp_path, config_extra={"seed": 5})  # params carry subsample 0.9, seed 0
        out = tmp_path / "train_out"
        assert main(["train", "--config", cfg, "--out", str(out), *flag]) == 0
        assert json.loads((out / "model.json").read_text())["params"]["seed"] == expected

    def test_preset_override(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path, config_extra={"repeats": 1})
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--preset", "lgbm_default"]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["chosen_params"]["all"]["growth"] == "leaf_wise"

    def test_poly_model_with_a_coef_per_term_missing_is_a_parse_error(self, tmp_path, capsys):
        cfg_path = write_experiment_fixture(tmp_path, config_extra={"regressor": "poly", "params": {"degree": 1}})
        train_out = tmp_path / "train_out"
        assert main(["train", "--config", cfg_path, "--out", str(train_out)]) == 0
        model_path = train_out / "model.json"
        model = json.loads(model_path.read_text())
        n_terms = len(model["coef"])  # degree 1: one term per column
        model["coef"].pop()
        model_path.write_text(json.dumps(model))

        cfg = {**json.loads((tmp_path / "config.json").read_text()), "model": str(model_path)}
        rc = main(["predict", "--config", write_json(tmp_path / "predict.json", cfg),
                   "--out", str(tmp_path / "pred_out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert f"{model_path}: not a valid model file" in err["message"]
        assert f"coef has {n_terms - 1} entries, but degree 1 on {n_terms} columns has {n_terms} terms" in err["message"]

    def test_wrong_kind_preset_rejected(self, tmp_path, capsys):
        cfg = write_experiment_fixture(tmp_path, config_extra={"regressor": "poly",
                                                              "params": {"degree": 1}})
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--preset", "lgbm_default"])
        assert rc == 1
        assert "poly" in json.loads(capsys.readouterr().err)["message"]


def write_many_to_many_fixture(tmp_path):
    from perfcast.records import PerformanceRecord

    rng = np.random.default_rng(0)
    langs = ("aar", "bel", "ces", "dan")
    records = []
    i = 0
    for src in langs:
        for tgt in langs:
            if src == tgt:
                continue
            for _ in range(2):
                records.append(PerformanceRecord(
                    record_id=f"m{i}", task="mt", estimated_model="m", train_dataset="tr",
                    test_dataset="te", src_lang=src, tgt_lang=tgt, metric_name="synthetic",
                    score=float(10 + rng.normal()), proxy_scores={"p0": float(rng.uniform())},
                    corpus_group="many_to_many",
                ))
                i += 1
    save_records(records, str(tmp_path / "records.csv"))
    return write_json(tmp_path / "mf.json", {
        "records": "records.csv",
        "feature_groups": ["proxy"],
        "regressor": "mf",
        "params": {"latent_dim": 2, "alpha": 0.02, "beta_w": 0.01, "beta_h": 0.01,
                   "beta_z": 0.01, "beta_s": 0.01, "beta_t": 0.01, "iterations": 100},
        "split": {"kind": "random", "ratio": 0.7},
        "repeats": 1,
        "seed": 5,
    })


class TestMfCommand:
    def test_mf_experiment(self, tmp_path):
        cfg = write_many_to_many_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["chosen_params"]["all"]["kind"] == "mf"
        assert results["mean_rmse"] < 5.0

    def test_mf_train_predict_round_trip(self, tmp_path):
        from perfcast.records import load_records
        from perfcast.regressors import MfParams, load_model, mf_predict

        cfg_path = write_many_to_many_fixture(tmp_path)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "train_out")]) == 0
        model_path = tmp_path / "train_out" / "model.json"
        assert isinstance(load_model(str(model_path)).params, MfParams)

        cfg = json.loads((tmp_path / "mf.json").read_text())
        cfg["model"] = str(model_path)
        pred_out = tmp_path / "pred_out"
        assert main(["predict", "--config", write_json(tmp_path / "predict.json", cfg),
                     "--out", str(pred_out)]) == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        records = load_records(str(tmp_path / "records.csv"))
        assert [line.split(",")[0] for line in lines[1:]] == [r.record_id for r in records]
        # each prediction is the model equation evaluated for that row's own language pair
        from perfcast.records import build_design_matrix

        matrix = build_design_matrix(records, build_schema(("proxy",), ["p0"]))
        expected = mf_predict(load_model(str(model_path)), matrix)
        assert [float(line.split(",")[2]) for line in lines[1:]] == expected.tolist()


class TestAblateCommand:
    def test_outputs(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path, config_extra={
            "repeats": 1,
            "group_sets": [["proxy"], ["language", "dataset"]],
        })
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert set(results) == {"proxy", "language+dataset"}
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 3

    @pytest.mark.parametrize("group_sets, match", [
        (5, "group_sets must be of type list[tuple[str, ...]] | None, not 5"),
        (["proxy"], "group_sets[0] must be of type tuple[str, ...], not 'proxy'"),
        ([["proxy"], ["proxy", "lang"]], "group_sets[1]: unknown feature group 'lang'"),
        ([["proxy"], []], "group_sets[1]: feature-group subsets must be non-empty"),
    ], ids=["number", "flat_list", "unknown_group", "empty_subset"])
    def test_group_sets_of_wrong_shape(self, tmp_path, capsys, group_sets, match):
        cfg = write_experiment_fixture(tmp_path, config_extra={"group_sets": group_sets})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{cfg}: ") and match in err["message"]
        assert not (tmp_path / "out").exists()  # rejected as the config is read


@pytest.mark.parametrize("feature_groups, match", [
    (["proxy", "lang"], "feature_groups: unknown feature group 'lang'"),
    ([], "feature_groups: at least one feature group must be enabled"),
], ids=["unknown_group", "empty"])
def test_bad_feature_groups_rejected_before_any_file(tmp_path, capsys, feature_groups, match):
    cfg = write_experiment_fixture(tmp_path, config_extra={"feature_groups": feature_groups})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"{cfg}: {match}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, extra, where", [
    ("train", {}, "feature_groups"),
    ("experiment", {}, "feature_groups"),
    ("ablate", {"feature_groups": ["language", "dataset"], "group_sets": [["language"], ["dataset", "proxy"]]},
     "group_sets[1]"),
], ids=["train", "experiment", "ablate"])
def test_empty_proxies_with_the_proxy_group_rejected_before_any_file(tmp_path, capsys, command, extra, where):
    cfg = write_experiment_fixture(tmp_path, config_extra={"proxies": [], **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError",
                   "message": f"{cfg}: {where}: the proxy group is enabled, but 'proxies' is empty"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, library", [
    ({"repeats": 0}, {"repeats": 0}),
    ({"cv_folds": 1}, {"cv_folds": 1}),
    ({"params": None, "grid": []}, {"grid": []}),
    ({"feature_groups": []}, {"feature_groups": ()}),
    ({"feature_groups": ["proxy", "lang"]}, {"feature_groups": ("proxy", "lang")}),
    ({"split": {"kind": "cross_dataset"}}, {"split": SplitSpec("cross_dataset")}),
    ({"split": {"kind": "cross_dataset"}, "test_records": []}, {"split": SplitSpec("cross_dataset"), "test_records": []}),
], ids=["no_repeats", "one_fold", "empty_grid", "no_feature_groups", "unknown_feature_group",
        "cross_dataset_without_test_records", "cross_dataset_empty_test_records"])
def test_library_and_cli_refuse_a_setting_with_one_message(tmp_path, capsys, extra, library):
    obj = {**json.loads(Path(write_experiment_fixture(tmp_path)).read_text()), **extra}
    cfg = write_json(tmp_path / "c.json", {k: v for k, v in obj.items() if v is not None})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    config = ExperimentConfig(**{"records": [], "grid": [GbtParams()], "split": SplitSpec("random", 0.7), **library})
    with pytest.raises(ValueError) as exc:
        config.validate()
    assert err == {"error": "ConfigError", "message": f"{cfg}: {exc.value}"}


class TestManifest:
    def test_records_inputs_and_seed(self, tmp_path):
        cfg = write_experiment_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--seed", "12"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "perfcast"
        assert manifest["master_seed"] == 12
        tracked = {os.path.basename(p) for p in manifest["inputs"]}
        assert {"config.json", "records.csv", "features.csv", "distances.csv", "families.csv"} <= tracked
        for digest in manifest["inputs"].values():
            assert len(digest) == 64
