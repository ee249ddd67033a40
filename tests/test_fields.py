"""The field table every JSON input is read through, and undecodable input files."""

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfcast.cli import Config, CorpusEntry, PairEntry, main
from perfcast.corpus import EmbeddingSet, load_embeddings, load_feature_csv, read_corpus
from perfcast.errors import ParseError
from perfcast.fields import FIELD_TYPES, read
from perfcast.langdist import load_distance_table
from perfcast.records import DesignMatrix, FeatureSchema, PerformanceRecord, load_records
from perfcast.regressors import (
    GbtModel,
    GbtParams,
    MfModel,
    MfParams,
    PolyModel,
    PolyParams,
    fit_model,
    load_model,
    model_to_dict,
)

from oracles import oracle_read
from test_cli import dir_bytes, write_experiment_fixture

TABLE_READ = (PerformanceRecord, EmbeddingSet, GbtParams, PolyParams, MfParams, GbtModel, PolyModel, MfModel,
              Config, CorpusEntry, PairEntry)
PARAMS = (GbtParams, PolyParams, MfParams)


@pytest.mark.parametrize("cls", TABLE_READ, ids=lambda cls: cls.__name__)
def test_every_field_has_a_table_entry(cls):
    assert [f"{f.name}: {f.type}" for f in fields(cls) if f.type not in FIELD_TYPES] == []
    assert [name for name, ftype in FIELD_TYPES.items() if ftype.items not in (None, *FIELD_TYPES)] == []
    assert [name for name, ftype in FIELD_TYPES.items() if set((ftype.keys or {}).values()) - set(FIELD_TYPES)] == []


# JSON values that pass or fail the item check of each container entry; 10 ** 400 passes a float's check and
# fails its convert
JSON_ITEMS = [0, -2, 0.5, 1e300, 10 ** 400, True, None, "a", [], [1.5, 2], ["a"], {}, {"k": 1.0}]


@st.composite
def container_values(draw):
    """(a container entry's annotation, a JSON list or object whose items mostly pass the items' check)."""
    annotation = draw(st.sampled_from(sorted(name for name, ftype in FIELD_TYPES.items() if ftype.items)))
    check = FIELD_TYPES[FIELD_TYPES[annotation].items].check
    items = st.sampled_from([item for item in JSON_ITEMS if check(item)] or JSON_ITEMS)
    if draw(st.booleans()):
        items = items | st.sampled_from(JSON_ITEMS)
    container = st.lists(items, max_size=5) if FIELD_TYPES[annotation].check([]) else st.dictionaries(
        st.sampled_from("abc"), items, max_size=3)
    return annotation, draw(container)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(container_values())
@example(("list[float]", [1.0, 2, 10 ** 400]))
@example(("dict[str, float]", {"a": 0.5, "b": 10 ** 400}))
@example(("list[int]", [1, 2, True]))
def test_read_of_a_container_matches_reading_each_item_on_its_own(case):
    annotation, value = case
    try:
        expected = oracle_read(annotation, value, "x")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read(annotation, value, "x")
        assert str(got.value) == str(exc)
        return
    got = read(annotation, value, "x")
    assert (type(got), repr(got)) == (type(expected), repr(expected))
    assert got is not value


@functools.cache
def documents() -> dict[str, tuple[str, object, dict]]:
    """One valid JSON document per kind of file read through the table: (file name, loader, object)."""
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(24, 3)), rng.normal(size=24)
    languages = [(f"s{i % 2}", f"t{i // 2 % 3}") for i in range(24)]
    schema = FeatureSchema(("a", "b", "c"))
    matrix = DesignMatrix(schema, X, y, [str(i) for i in range(24)], languages)
    docs = {
        kind: ("model.json", load_model, model_to_dict(fit_model(params, matrix)))
        for kind, params in (("gbt", GbtParams(n_estimators=2, max_depth=2)),
                             ("poly", PolyParams(max_iterations=20)),
                             ("mf", MfParams(latent_dim=2, iterations=3)))
    }
    docs["records"] = ("records.jsonl", load_records, {
        "record_id": "j1", "task": "mt", "estimated_model": "m", "train_dataset": "tr", "test_dataset": "te",
        "src_lang": "eng", "tgt_lang": "deu", "metric_name": "spbleu", "score": 30.0,
        "proxy_scores": {"p0": 10.0, "p1": None}, "seen_by_estimated_model": True,
        "corpus_group": "other", "joshi_class": 3,
    })
    docs["embeddings"] = ("embeddings.jsonl", load_embeddings,
                          {"dataset_id": "a", "dim": 2, "mean_vector": [0.5, -0.25]})
    return {kind: (name, load, json.loads(json.dumps(doc))) for kind, (name, load, doc) in docs.items()}


def other_types(value) -> list:
    """JSON values whose type differs from value's: a string for a number, a float for an int, "false" for
    a bool, a list for an object."""
    if isinstance(value, bool):
        return ["false", 1, None]
    if isinstance(value, int):
        return [2.5, "3", True]
    if isinstance(value, float):
        return ["0.5", True, [0.5]]
    if isinstance(value, str):
        return [7, None, ["a"]]
    if isinstance(value, list):
        return [{}, "[]", 1.5]
    if isinstance(value, dict):
        return [[], "{}", True]
    return ["null", True]


@st.composite
def wrong_values(draw):
    """(kind, path to one value of that kind's document, a value of another JSON type for it)."""
    docs = documents()
    kind = draw(st.sampled_from(sorted(docs)))
    doc = docs[kind][2]
    path = [draw(st.sampled_from(sorted(set(doc) - {"format_version", "kind"})))]
    value = doc[path[0]]
    while isinstance(value, (list, dict)) and value and draw(st.booleans()):
        path.append(draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value)))))
        value = value[path[-1]]
    candidates = other_types(value)
    if path == ["seen_by_estimated_model"]:  # a string there is read like a CSV cell
        candidates = [c for c in candidates if not isinstance(c, str)]
    return kind, tuple(path), draw(st.sampled_from(candidates))


def location(path: tuple) -> str:
    """How an error message names the value at path."""
    field, *rest = path
    if field == "params" and rest:  # the params class checks its own fields
        return f"params: {rest[0]}"
    return field + "".join(f"[{key!r}]" for key in rest)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wrong_values())
@example(("poly", ("converged",), "false"))
@example(("poly", ("n_sweeps",), 2.5))
@example(("poly", ("coef", 0), "0.5"))
@example(("poly", ("intercept",), "1.0"))
@example(("embeddings", ("dim",), 2.5))
@example(("embeddings", ("mean_vector", 0), True))
@example(("embeddings", ("dataset_id",), 7))
def test_value_of_another_json_type_is_rejected(tmp_path_factory, case):
    kind, path, value = case
    name, load, doc = documents()[kind]
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file = tmp_path_factory.mktemp(kind) / name
    file.write_text(json.dumps(doc) + "\n")
    with pytest.raises(ParseError) as exc:
        load(str(file))
    message = str(exc.value)
    assert str(file) in message
    assert location(path) in message


@pytest.mark.parametrize("kind", ["records", "embeddings", "gbt", "poly", "mf"])
def test_key_that_names_no_field_is_rejected(tmp_path, kind):
    name, load, doc = documents()[kind]
    key = sorted(set(doc) - {"format_version", "kind"})[0][:-1]  # a misspelt field name
    file = tmp_path / name
    file.write_text(json.dumps({**doc, key: 1}) + "\n")
    with pytest.raises(ParseError) as exc:
        load(str(file))
    where = str(file) if name == "model.json" else f"{file}:1"
    assert str(exc.value).startswith(where)
    assert f"unknown key {key!r}" in str(exc.value)


@pytest.mark.parametrize("cls, name, value", [
    (cls, f.name, value) for cls in PARAMS for f in fields(cls) if f.type == "float"
    for value in (math.nan, math.inf, -math.inf)
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_params_reject_a_float_that_is_not_finite(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, not {value!r}$"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (GbtParams, "min_child_weight", -1.0), (GbtParams, "min_child_samples", -1), (PolyParams, "tolerance", -1e-9),
])
def test_params_reject_a_negative_floor(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


def cli_config(hyperparameters: dict) -> dict:
    """A config that every command accepts, with a value at each depth the config reader descends to."""
    return {
        "records": "records.csv", "dataset_features": "features.csv", "language_distances": "distances.csv",
        "language_families": "families.csv", "side": "source",
        "corpora": [{"dataset_id": "a", "path": "a.txt", "mode": "unicode_words"},
                    {"dataset_id": "b", "path": "a.txt"}],
        "pairs": [{"train": "a", "test": "b"}],
        "feature_groups": ["language", "dataset", "proxy"], "proxies": ["p0", "p1"],
        "regressor": "gbt", **hyperparameters,
        "split": {"kind": "lolo", "held_out_language": "aar"},
        "repeats": 1, "cv_folds": 2, "seed": 4, "label": "gbt", "lowess_frac": 0.5, "report_format": "csv",
    }


CLI_CONFIGS = {
    "params": cli_config({"params": {"n_estimators": 4, "max_depth": 2, "eta": 0.3, "growth": "depth_wise"}}),
    "grid": cli_config({"grid": [{"n_estimators": 4, "max_depth": 2}, {"n_estimators": 6, "eta": 0.2}]}),
}


@dataclass(frozen=True)
class Misspelt:
    key: str


def config_location(path: tuple) -> str:
    """How a config error names the value at path: every object in a config is read field by field."""
    return "".join(f"[{key}]" if isinstance(key, int) else f": {key}" for key in path).removeprefix(": ")


def at(doc, path: tuple):
    return functools.reduce(operator.getitem, path, doc)


def value_paths(value, path: tuple = ()):
    """The path of value and of every value inside it."""
    yield path
    if isinstance(value, (dict, list)):
        for key in value if isinstance(value, dict) else range(len(value)):
            yield from value_paths(value[key], path + (key,))


@st.composite
def config_edits(draw):
    """(config, path, edit): at path, a value of another JSON type, or an object given a misspelt key.

    A value of another type that the field also accepts (null, or a list of paths for a path) is not drawn.
    """
    config = draw(st.sampled_from(sorted(CLI_CONFIGS)))
    doc = CLI_CONFIGS[config]
    paths = list(value_paths(doc))
    if draw(st.booleans()):
        path = draw(st.sampled_from([p for p in paths if isinstance(at(doc, p), dict)]))
        return config, path, Misspelt(draw(st.sampled_from(sorted(at(doc, path))))[:-1])
    path = draw(st.sampled_from(paths[1:]))
    return config, path, draw(st.sampled_from([v for v in other_types(at(doc, path)) if v not in (None, ["a"])]))


def test_cli_configs_are_valid(tmp_path):
    config = write_experiment_fixture(tmp_path)
    (tmp_path / "a.txt").write_text("hello world\n")
    for name, cfg in CLI_CONFIGS.items():
        Path(config).write_text(json.dumps(cfg))
        assert main(["experiment", "--config", config, "--out", str(tmp_path / name)]) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config_edits())
@example(("params", (), Misspelt("repeat")))
@example(("params", ("split",), Misspelt("held_out_langauge")))
@example(("params", ("corpora", 0), Misspelt("pth")))
@example(("params", ("params",), Misspelt("et")))
@example(("grid", ("grid", 1, "eta"), "0.2"))
def test_config_edit_is_a_config_error_naming_file_and_location(tmp_path_factory, case):
    config, path, edit = case
    doc = json.loads(json.dumps(CLI_CONFIGS[config]))
    if isinstance(edit, Misspelt):
        at(doc, path)[edit.key] = 1
    else:
        at(doc, path[:-1])[path[-1]] = edit
    tmp = tmp_path_factory.mktemp("config")
    file, out = tmp / "config.json", tmp / "out"
    file.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(["experiment", "--config", str(file), "--out", str(out)]) == 1
    [line] = stderr.getvalue().splitlines()
    report = json.loads(line)
    assert report["error"] == "ConfigError"
    assert report["message"].startswith(f"{file}: {config_location(path)}")
    if isinstance(edit, Misspelt):
        assert repr(edit.key) in report["message"]
    assert not out.exists()


def test_readme_config_table_lists_every_config_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n### Config keys\n", 1)[1].split("\n#", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE) == [f.name for f in fields(Config)]


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark that spreadsheet programs write


def write_bad_utf8(path, end=b"\n", start=b"") -> str:
    """A file whose second line holds the byte 0xff, which no UTF-8 text contains; end ends each line."""
    path.write_bytes(start + b"first line" + end + b"\xff second line" + end)
    return str(path)


@pytest.mark.parametrize("name, load", [
    ("records.csv", load_records),
    ("records.jsonl", load_records),
    ("features.csv", load_feature_csv),
    ("distances.csv", load_distance_table),
    ("corpus.txt", read_corpus),
    ("model.json", load_model),
    ("embeddings.jsonl", load_embeddings),
    ("config.json", None),
    ("families.csv", None),
])
def test_undecodable_file_is_a_parse_error_at_its_line(tmp_path, capsys, name, load):
    for end, start in itertools.product((b"\n", b"\r\n", b"\r"), (b"", BOM)):  # each ends one line
        if load is not None:
            path = write_bad_utf8(tmp_path / name, end, start)
            with pytest.raises(ParseError) as exc:
                load(path)
            message = str(exc.value)
        else:
            config = write_experiment_fixture(tmp_path)
            path = config if name == "config.json" else str(tmp_path / name)
            write_bad_utf8(tmp_path / name, end, start)
            assert main(["experiment", "--config", config, "--out", str(tmp_path / "out")]) == 1
            report = json.loads(capsys.readouterr().err)
            assert report["error"] == "ParseError"
            message = report["message"]
        assert message.startswith(f"{path}:2: not UTF-8 text"), (end, start)


def test_leading_byte_order_mark_is_dropped(tmp_path):
    """Every input may start with a UTF-8 byte-order mark and reads as the same file without it."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    write_experiment_fixture(plain)  # records, features, distances and families CSVs
    for kind, (name, _, doc) in documents().items():
        (plain / f"{kind}.{name}").write_text(json.dumps(doc) + "\n")
    (plain / "corpus.txt").write_text("ΟΔΟΣ a_b, c\nC\tb\n")
    for path in plain.iterdir():
        (marked / path.name).write_bytes(BOM + path.read_bytes())
    loads = {"records.csv": load_records, "features.csv": load_feature_csv, "distances.csv": load_distance_table,
             **{f"{kind}.{name}": load for kind, (name, load, _) in documents().items()}}
    for name, load in loads.items():
        assert repr(load(str(marked / name))) == repr(load(str(plain / name))), name
    for mode in ("unicode_words", "pretokenized_whitespace"):
        got, want = (read_corpus(str(where / "corpus.txt"), mode) for where in (marked, plain))
        assert (len(got), list(got.counts.items())) == (len(want), list(want.counts.items())), mode
    for where in (plain, marked):
        assert main(["experiment", "--config", str(where / "config.json"), "--out", str(where / "out")]) == 0
    assert dir_bytes(marked / "out") == dir_bytes(plain / "out")
