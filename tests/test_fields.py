"""The field table every JSON input is read through, and undecodable input files."""

import functools
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfcast.cli import main
from perfcast.corpus import EmbeddingSet, load_embeddings, load_feature_csv, read_corpus
from perfcast.errors import ParseError
from perfcast.fields import FIELD_TYPES
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

from test_cli import write_experiment_fixture

TABLE_READ = (PerformanceRecord, EmbeddingSet, GbtParams, PolyParams, MfParams, GbtModel, PolyModel, MfModel)


@pytest.mark.parametrize("cls", TABLE_READ, ids=lambda cls: cls.__name__)
def test_every_field_has_a_table_entry(cls):
    assert [f"{f.name}: {f.type}" for f in fields(cls) if f.type not in FIELD_TYPES] == []
    assert [name for name, ftype in FIELD_TYPES.items() if ftype.items not in (None, *FIELD_TYPES)] == []


@functools.cache
def documents() -> dict[str, tuple[str, object, dict]]:
    """One valid JSON document per kind of file read through the table: (file name, loader, object)."""
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(24, 3)), rng.normal(size=24)
    languages = [(f"s{i % 2}", f"t{i // 2 % 3}") for i in range(24)]
    schema = FeatureSchema(("a", "b", "c"), ("proxy",) * 3)
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
    if field == "trees" and len(rest) >= 2:  # _load_tree names nodes and node fields
        return " ".join([f"trees[{rest[0]}]: node {rest[1]}:", *map(str, rest[2:])])
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


def write_bad_utf8(path) -> str:
    """A file whose second line holds the byte 0xff, which no UTF-8 text contains."""
    path.write_bytes(b"first line\n\xff second line\n")
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
    if load is not None:
        path = write_bad_utf8(tmp_path / name)
        with pytest.raises(ParseError) as exc:
            load(path)
        message = str(exc.value)
    else:
        config = write_experiment_fixture(tmp_path)
        path = config if name == "config.json" else str(tmp_path / name)
        write_bad_utf8(tmp_path / name)
        assert main(["experiment", "--config", config, "--out", str(tmp_path / "out")]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ParseError"
        message = report["message"]
    assert message.startswith(f"{path}:2: not UTF-8 text")
