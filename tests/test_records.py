import csv
import io
import itertools
import json
import os
import re
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfcast.corpus import DATASET_FEATURE_COLUMNS
from perfcast.errors import (
    DuplicateId, MissingFeature, NoProxies, ParseError, PerfcastError, RangeError, SchemaMismatch,
)
from perfcast.records import (
    _BASE_COLUMNS,
    CORPUS_GROUPS,
    FEATURE_GROUPS,
    PROXY_PREFIX,
    TASKS,
    PerformanceRecord,
    build_design_matrix,
    build_schema,
    load_records,
    proxy_roster,
    record_line,
    save_records,
)
from perfcast.langdist import DISTANCE_KINDS, language_features

from conftest import LANGS, make_feature_block, make_language_table, synthetic_setup
from oracles import oracle_build_design_matrix, oracle_load_records_csv


def rec(record_id="r1", **kw):
    base = dict(
        record_id=record_id,
        task="mt",
        estimated_model="m",
        train_dataset="tr",
        test_dataset="te",
        src_lang="eng",
        tgt_lang="deu",
        metric_name="spbleu",
        score=30.0,
        proxy_scores={"p0": 10.0, "p1": None},
        seen_by_estimated_model=True,
        corpus_group="english_centric",
        joshi_class=5,
    )
    base.update(kw)
    return PerformanceRecord(**base)


def jsonl_record(**kw):
    base = dict(record_id="j1", task="mt", estimated_model="m", train_dataset="tr", test_dataset="te",
                src_lang="eng", tgt_lang="deu", metric_name="spbleu", score=30.0, proxy_scores={"p0": 10.0})
    base.update(kw)
    return base


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        records = [rec(f"r{i}", score=float(i), joshi_class=None if i % 2 else i % 6) for i in range(10)]
        path = str(tmp_path / "records.csv")
        save_records(records, path)
        loaded = load_records(path)
        assert loaded == records

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_records(str(path)) == []

    def test_negative_spbleu_rejected(self, tmp_path):
        path = str(tmp_path / "records.csv")
        save_records([rec()], path)
        text = (tmp_path / "records.csv").read_text().replace("30.0", "-1.0")
        (tmp_path / "records.csv").write_text(text)
        with pytest.raises(RangeError):
            load_records(path)

    def test_duplicate_id(self, tmp_path):
        path = str(tmp_path / "records.csv")
        save_records([rec("dup"), rec("other")], path)
        text = (tmp_path / "records.csv").read_text().replace("other", "dup")
        (tmp_path / "records.csv").write_text(text)
        with pytest.raises(DuplicateId):
            load_records(path)

    def test_jsonl(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"record_id": "j1", "task": "intent", "estimated_model": "m", "train_dataset": "tr",'
            ' "test_dataset": "te", "src_lang": "deu", "tgt_lang": "deu", "metric_name": "accuracy",'
            ' "score": 0.9, "proxy_scores": {"p0": 0.8, "p1": null}, "seen_by_estimated_model": false,'
            ' "corpus_group": "other", "joshi_class": 4}\n'
        )
        (loaded,) = load_records(str(path))
        assert loaded.task == "intent"
        assert loaded.proxy_scores == {"p0": 0.8, "p1": None}
        assert loaded.seen_by_estimated_model is False

    @pytest.mark.parametrize("raw, expected", [("false", False), ("true", True), ("0", False)])
    def test_jsonl_string_boolean_parsed(self, tmp_path, raw, expected):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(jsonl_record(seen_by_estimated_model=raw)) + "\n")
        (loaded,) = load_records(str(path))
        assert loaded.seen_by_estimated_model is expected

    @pytest.mark.parametrize("bad", ["maybe", None, 2])
    def test_jsonl_bad_boolean_rejected(self, tmp_path, bad):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(jsonl_record(seen_by_estimated_model=bad)) + "\n")
        with pytest.raises(ParseError, match="records.jsonl:1"):
            load_records(str(path))

    @pytest.mark.parametrize("line", [
        json.dumps(["not", "an", "object"]),
        json.dumps(jsonl_record(proxy_scores=[0.5])),
        json.dumps(jsonl_record(proxy_scores="p0=0.5")),
    ], ids=["record_list", "proxy_list", "proxy_string"])
    def test_jsonl_non_object_rejected(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(jsonl_record()) + "\n" + line + "\n")
        with pytest.raises(ParseError, match="records.jsonl:2"):
            load_records(str(path))

    @pytest.mark.parametrize("field, value, match", [
        ("joshi_class", 2.5, "joshi_class must be of type int | None, not 2.5"),
        ("score", True, "score must be of type float, not True"),
        ("proxy_scores", {"p0": True}, "proxy_scores['p0'] must be of type float | None, not True"),
        ("record_id", 7, "record_id must be of type str, not 7"),
        ("score", 10 ** 400, "int too large to convert to float"),
    ], ids=["joshi_float", "score_bool", "proxy_bool", "record_id_number", "score_huge_int"])
    def test_jsonl_value_of_wrong_type_rejected(self, tmp_path, field, value, match):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps({**jsonl_record(metric_name="accuracy", score=0.5), field: value}) + "\n")
        with pytest.raises(ParseError, match="records.jsonl:1: .*" + re.escape(match)):
            load_records(str(path))

    @pytest.mark.parametrize("fault, error, message", [
        ({"task": "bogus"}, ParseError, "record 'r2': unknown task 'bogus'"),
        ({"corpus_group": "nowhere"}, ParseError, "record 'r2': unknown corpus_group 'nowhere'"),
        ({"joshi_class": 6}, ParseError, "record 'r2': joshi_class 6 outside 0-5"),
        ({"score": 101.0}, RangeError, "record 'r2': spbleu score 101.0 outside [0.0, 100.0]"),
        ({"score": float("-inf")}, RangeError, "record 'r2': non-finite score -inf"),
        ({"proxy_scores": {"p0": float("nan"), "p1": None}}, RangeError,
         "record 'r2': non-finite proxy score for 'p0'"),
    ], ids=["task", "corpus_group", "joshi_range", "score_range", "score_infinite", "proxy_nan"])
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_record_check_names_file_and_line(self, tmp_path, suffix, fault, error, message):
        path = str(tmp_path / f"records{suffix}")
        records = [rec("r1"), rec("r2", **fault)]
        if suffix == ".csv":
            save_records(records, path)  # the header is line 1
            line = 3
        else:
            write_jsonl(records, path, ensure_ascii=True)
            line = 2
        with pytest.raises(error) as exc:
            load_records(path)
        assert str(exc.value) == f"{path}:{line}: {message}"

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records([rec("a"), rec("b")], str(path))
        path.write_text(path.read_text() + "\n" + path.read_text().splitlines()[1] + "\n")  # a blank line, then a again
        with pytest.raises(DuplicateId) as exc:
            load_records(str(path))
        assert str(exc.value) == f"{path}:5: duplicate record_id 'a', first given on line 2"

    def test_jsonl_duplicate_id_names_both_lines(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        write_jsonl([rec("a"), rec("b"), rec("b")], path, ensure_ascii=True)
        with pytest.raises(DuplicateId) as exc:
            load_records(path)
        assert str(exc.value) == f"{path}:3: duplicate record_id 'b', first given on line 2"

    def test_bad_task(self, tmp_path):
        path = str(tmp_path / "records.csv")
        save_records([rec()], path)
        text = (tmp_path / "records.csv").read_text().replace(",mt,", ",bogus,")
        (tmp_path / "records.csv").write_text(text)
        with pytest.raises(ParseError):
            load_records(path)


_CATEGORICAL = ("task", "estimated_model", "train_dataset", "test_dataset", "src_lang", "tgt_lang", "metric_name",
                "corpus_group")


class TestSharedCells:
    """Within one loaded file, equal cells of the categorical fields are one str object."""

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_equal_cells_share_one_str(self, tmp_path, suffix):
        path = str(tmp_path / f"records{suffix}")
        records = [rec("r1"), rec("r2", score=12.5), rec("r3", tgt_lang="fra")]
        if suffix == ".csv":
            save_records(records, path)
        else:
            write_jsonl(records, path, ensure_ascii=True)
        a, b, c = loaded = load_records(path)
        assert loaded == records
        for name in _CATEGORICAL:
            assert getattr(a, name) is getattr(b, name), name
        assert b.src_lang is c.src_lang and b.tgt_lang is not c.tgt_lang

    def test_jsonl_proxy_ids_share_one_str(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        write_jsonl([rec("r1"), rec("r2")], path, ensure_ascii=True)
        a, b = load_records(path)
        for key_a, key_b in zip(a.proxy_scores, b.proxy_scores, strict=True):
            assert key_a is key_b

    def test_files_do_not_share(self, tmp_path):
        first, second = str(tmp_path / "first.csv"), str(tmp_path / "second.csv")
        save_records([rec("r1", estimated_model="large")], first)
        save_records([rec("r1", estimated_model="large")], second)
        (a,), (b,) = load_records(first), load_records(second)
        assert a.estimated_model == b.estimated_model and a.estimated_model is not b.estimated_model

    def test_loaded_record_memory_bound(self, tmp_path):
        """2000 records of 14 columns, with the few distinct cells of a real table, keep at most 650 bytes each."""
        rng = np.random.default_rng(3)
        langs = ["deu", "fra", "spa", "jpn", "swh", "tam"]
        datasets = [f"corpus{d}" for d in range(6)]
        n = 2000
        records = [
            rec(f"cand{i:05d}", estimated_model="large", train_dataset=datasets[i % 6],
                test_dataset=datasets[(i // 6) % 6], src_lang="eng", tgt_lang=langs[i % 5],
                score=float(rng.uniform(0.0, 100.0)), seen_by_estimated_model=bool(i % 3),
                proxy_scores={"medium": float(rng.uniform(0.0, 100.0)), "small": float(rng.uniform(0.0, 100.0))},
                joshi_class=int(rng.integers(0, 6)))
            for i in range(n)
        ]
        path = str(tmp_path / "candidates.csv")
        save_records(records, path)
        with open(path, newline="") as fh:
            assert len(next(csv.reader(fh))) == 14
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_records(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert loaded == records
        assert retained / n <= 650


class TestRecordLine:
    """record_line gives the physical line each record starts on, as the loader numbers it."""

    def test_csv_with_a_blank_line_and_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records([rec("a"), rec("b", estimated_model="big\nmodel"), rec("c"), rec("d")], str(path))
        path.write_bytes(path.read_bytes().replace(b"\r\nc,", b"\r\n\r\nc,"))  # b spans lines 3-4, line 5 is blank
        assert [record_line(str(path), record_id) for record_id in "abcd"] == [2, 3, 6, 7]
        assert record_line(str(path), "e") is None

    def test_jsonl_with_blank_lines(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        write_jsonl([rec("a"), rec("b"), rec("c")], path, ensure_ascii=True)
        a, b, c = Path(path).read_text().splitlines()
        Path(path).write_text(f"\n{a}\n\n{b}\n  \n{c}\n\n")
        assert [record_line(path, record_id) for record_id in "abc"] == [2, 4, 6]
        assert record_line(path, "d") is None


class TestSchema:
    def test_full_order(self):
        schema = build_schema(("language", "dataset", "proxy"), ["b", "a"])
        assert schema.columns[:6] == DISTANCE_KINDS
        assert schema.columns[6:16] == DATASET_FEATURE_COLUMNS
        assert schema.columns[16:] == ("proxy:b", "proxy:a")

    def test_group_removal_is_exact(self):
        full = build_schema(("language", "dataset", "proxy"), ["p0"])
        no_lang = build_schema(("dataset", "proxy"), ["p0"])
        assert set(full.columns) - set(no_lang.columns) == set(DISTANCE_KINDS)
        assert no_lang.columns == full.columns[6:]

    def test_check_columns_names_the_first_difference(self):
        schema = build_schema(("dataset", "proxy"), ["p0", "p1"])
        schema.check_columns(build_schema(("dataset", "proxy"), ["p0", "p1"]).columns)
        renamed = "^design matrix column 11 is 'proxy:p1', but the model's is 'proxy:p2'$"
        with pytest.raises(SchemaMismatch, match=renamed):
            schema.check_columns(build_schema(("dataset", "proxy"), ["p0", "p2"]).columns)
        with pytest.raises(SchemaMismatch, match="^the design matrix has 12 columns, but the model 11$"):
            schema.check_columns(schema.columns[:-1])
        with pytest.raises(SchemaMismatch, match="^the design matrix has 12 columns, but the model 13$"):
            schema.check_columns(schema.columns + ("proxy:p2",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_schema((), [])

    def test_proxy_group_without_proxies_is_no_proxies(self):
        with pytest.raises(NoProxies, match="^proxy group enabled but no proxies supplied$"):
            build_schema(("language", "proxy"), [])


class TestDesignMatrix:
    def test_zero_records(self):
        schema = build_schema(("proxy",), ["p0"])
        m = build_design_matrix([], schema)
        assert m.rows.shape == (0, 1)
        assert m.targets.shape == (0,)

    def test_dimensions(self):
        records, blocks, table = synthetic_setup(5, seed=0, n_proxies=4)
        schema = build_schema(("language", "dataset", "proxy"), proxy_roster(records))
        m = build_design_matrix(records, schema, blocks, table)
        assert m.rows.shape == (5, 20)
        assert np.flatnonzero(np.isnan(m.rows).any(axis=0)).tolist() == [15]  # only embedding_cosine is absent
        assert m.row_ids == [r.record_id for r in records]

    def test_cell_values_match_sources(self):
        records, blocks, table = synthetic_setup(3, seed=1)
        schema = build_schema(("language", "dataset", "proxy"), ["p0"])
        m = build_design_matrix(records, schema, blocks, table)
        for i, r in enumerate(records):
            np.testing.assert_array_equal(m.rows[i, :6], language_features(table, r.src_lang, r.tgt_lang))
            feature_block = blocks[(r.train_dataset, r.test_dataset)]
            np.testing.assert_array_equal(m.rows[i, 6:15], np.asarray(feature_block.as_row()[:9], dtype=float))
            assert np.isnan(m.rows[i, 15])  # embedding_cosine absent in fixtures
            assert m.rows[i, 16] == r.proxy_scores["p0"]
            assert m.targets[i] == r.score

    def test_missing_proxy_masked(self):
        records, blocks, table = synthetic_setup(2, seed=2)
        records[0].proxy_scores["p0"] = None
        schema = build_schema(("proxy",), ["p0"])
        m = build_design_matrix(records, schema)
        assert np.isnan(m.rows[0, 0])
        assert not np.isnan(m.rows[1, 0])

    def test_unresolvable_dataset_raises(self):
        records, blocks, table = synthetic_setup(2, seed=3)
        del blocks[(records[0].train_dataset, records[0].test_dataset)]
        schema = build_schema(("dataset",), [])
        with pytest.raises(MissingFeature) as exc:
            build_design_matrix(records, schema, blocks, table)
        assert exc.value.record_id == records[0].record_id

    def test_unresolvable_language_raises(self):
        records, blocks, table = synthetic_setup(2, seed=4)
        records[0] = rec("r0000", src_lang="zzz", tgt_lang="yyy")
        schema = build_schema(("language",), [])
        with pytest.raises(MissingFeature):
            build_design_matrix(records, schema, None, table)

    def test_deterministic(self):
        records, blocks, table = synthetic_setup(6, seed=5)
        schema = build_schema(("language", "dataset", "proxy"), ["p0"])
        m1 = build_design_matrix(records, schema, blocks, table)
        m2 = build_design_matrix(records, schema, blocks, table)
        np.testing.assert_array_equal(m1.rows, m2.rows)
        np.testing.assert_array_equal(np.isnan(m1.rows), np.isnan(m2.rows))

    def test_language_pairs_follow_rows(self):
        records, blocks, table = synthetic_setup(6, seed=7)
        schema = build_schema(("proxy",), ["p0"])
        m = build_design_matrix(records, schema)
        assert m.languages == [(r.src_lang, r.tgt_lang) for r in records]
        sub = m.subset([4, 0, 2])
        assert sub.languages == [m.languages[i] for i in (4, 0, 2)]
        assert sub.row_ids == [m.row_ids[i] for i in (4, 0, 2)]

    @pytest.mark.parametrize("groups", [("proxy",), ("language", "proxy")])
    def test_equal_language_pairs_share_one_tuple(self, groups):
        records, blocks, table = synthetic_setup(12, seed=9)  # target languages cycle with period 5
        m = build_design_matrix(records, build_schema(groups, ["p0"]), blocks, table)
        for matrix in (m, m.subset([10, 5, 7, 2, 0])):
            equal = [(a, b) for a, b in itertools.combinations(matrix.languages, 2) if a == b]
            assert equal and all(a is b for a, b in equal)

    def test_subset_without_language_pairs(self):
        m = build_design_matrix(synthetic_setup(3, seed=8)[0], build_schema(("proxy",), ["p0"]))
        m.languages = None
        assert m.subset([1]).languages is None

    def test_permutation_permutes_rows(self):
        records, blocks, table = synthetic_setup(6, seed=6)
        schema = build_schema(("language", "dataset", "proxy"), ["p0"])
        m = build_design_matrix(records, schema, blocks, table)
        perm = [3, 1, 5, 0, 2, 4]
        mp = build_design_matrix([records[i] for i in perm], schema, blocks, table)
        nan_safe = lambda a: np.where(np.isnan(a), -1e308, a)
        np.testing.assert_array_equal(nan_safe(mp.rows), nan_safe(m.rows[perm]))
        assert mp.row_ids == [m.row_ids[i] for i in perm]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def design_inputs(draw):
    """Records whose proxy scores and embedding cosines may be absent, with their feature sources and a schema."""
    proxy_ids = ["p0", "p1", "p2"]
    records, blocks = [], {}
    for i in range(draw(st.integers(0, 10))):
        present = draw(st.sets(st.sampled_from(proxy_ids)))  # a proxy id left out is absent too
        pair = (f"tr{i}", f"te{i}")
        embedding = draw(st.none() | st.floats(-1.0, 1.0))
        blocks[pair] = make_feature_block(np.random.default_rng(i), embedding=embedding)
        records.append(rec(f"r{i}", train_dataset=pair[0], test_dataset=pair[1], tgt_lang=draw(st.sampled_from(LANGS[:3])),
                           proxy_scores={p: draw(st.none() | FINITE) for p in sorted(present)}))
    groups = draw(st.lists(st.sampled_from(FEATURE_GROUPS), min_size=1, max_size=3, unique=True))
    return records, build_schema(groups, proxy_ids), blocks, make_language_table(LANGS[:3])


def absent_cells(records, schema, blocks):
    """Where a record has no value for a column: a missing proxy score or embedding cosine."""
    def absent(r, column):
        if column.startswith(PROXY_PREFIX):
            return r.proxy_scores.get(column[len(PROXY_PREFIX):]) is None
        if column in DATASET_FEATURE_COLUMNS:
            return getattr(blocks[(r.train_dataset, r.test_dataset)], column) is None
        return False  # language distances are never missing
    return np.array([[absent(r, c) for c in schema.columns] for r in records], dtype=bool).reshape(-1, len(schema.columns))


class TestDesignMatrixProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(design_inputs(), st.data())
    def test_nan_marks_exactly_the_absent_values(self, inputs, data):
        records, schema, blocks, table = inputs
        m = build_design_matrix(records, schema, blocks, table)
        expected = absent_cells(records, schema, blocks)
        np.testing.assert_array_equal(np.isnan(m.rows), expected)
        idx = data.draw(st.lists(st.integers(0, len(records) - 1)) if records else st.just([]))
        sub = m.subset(idx)
        np.testing.assert_array_equal(np.isnan(sub.rows), expected[idx])
        assert not np.shares_memory(sub.rows, m.rows)
        assert not np.shares_memory(sub.targets, m.targets)


@st.composite
def shared_pair_inputs(draw):
    """Records drawn from a few language and dataset pairs; the feature sources may lack a pair or be absent."""
    datasets = ["d0", "d1", "d2"]
    pairs = [(tr, te) for tr in datasets for te in datasets]
    dropped = draw(st.sets(st.sampled_from(pairs), max_size=2)) if draw(st.booleans()) else set()
    blocks = {
        pair: make_feature_block(np.random.default_rng(i), embedding=draw(st.none() | st.floats(-1.0, 1.0)))
        for i, pair in enumerate(pairs) if pair not in dropped
    }
    langs = ["eng", *LANGS[:3]] + (["zzz"] if draw(st.booleans()) else [])  # "zzz" is not in the distance table
    proxy_ids = ["p0", "p1"]
    score = st.none() | FINITE | st.just(float("nan"))
    records = [
        rec(f"r{i}", src_lang=draw(st.sampled_from(langs)), tgt_lang=draw(st.sampled_from(langs)),
            train_dataset=draw(st.sampled_from(datasets)), test_dataset=draw(st.sampled_from(datasets)),
            score=draw(FINITE), proxy_scores={p: draw(score) for p in sorted(draw(st.sets(st.sampled_from(proxy_ids))))})
        for i in range(draw(st.integers(0, 25)))
    ]
    groups = draw(st.lists(st.sampled_from(FEATURE_GROUPS), min_size=1, max_size=3, unique=True))
    table = make_language_table(LANGS[:3])
    absent = draw(st.sampled_from([None, "table", "blocks"] + [None] * 7))
    return (records, build_schema(groups, proxy_ids), None if absent == "blocks" else blocks,
            None if absent == "table" else table)


class TestDesignMatrixPairTables:
    """build_design_matrix against resolving each record's blocks on its own."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shared_pair_inputs())
    def test_matches_per_record_build(self, inputs):
        try:
            expected = oracle_build_design_matrix(*inputs)
        except MissingFeature as exc:
            with pytest.raises(MissingFeature) as got:
                build_design_matrix(*inputs)
            assert (str(got.value), got.value.record_id) == (str(exc), exc.record_id)
            return
        m = build_design_matrix(*inputs)
        assert m.rows.tobytes() == expected.rows.tobytes()
        assert m.targets.tobytes() == expected.targets.tobytes()
        assert (m.row_ids, m.languages) == (expected.row_ids, expected.languages)


@st.composite
def record_lists(draw):
    """Records with arbitrary text fields, each with a score inside its metric's range."""
    text = st.text(max_size=6)
    proxy_ids = draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True))
    records = []
    for record_id in draw(st.lists(text, max_size=6, unique=True)):
        metric = draw(st.sampled_from(["spbleu", "accuracy", "synthetic"]))
        score = {"spbleu": st.floats(0.0, 100.0), "accuracy": st.floats(0.0, 1.0), "synthetic": FINITE}[metric]
        present = draw(st.sets(st.sampled_from(proxy_ids))) if proxy_ids else set()
        records.append(PerformanceRecord(
            record_id=record_id, task=draw(st.sampled_from(TASKS)), estimated_model=draw(text),
            train_dataset=draw(text), test_dataset=draw(text), src_lang=draw(text), tgt_lang=draw(text),
            metric_name=metric, score=draw(score), proxy_scores={p: draw(st.none() | FINITE) for p in sorted(present)},
            seen_by_estimated_model=draw(st.booleans()), corpus_group=draw(st.sampled_from(CORPUS_GROUPS)),
            joshi_class=draw(st.none() | st.integers(0, 5)),
        ))
    return records


def write_jsonl(records, path, ensure_ascii):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(asdict(r), ensure_ascii=ensure_ascii) + "\n")


class TestLoadSaveProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(record_lists(), st.booleans())
    @example([rec("récord-ü", proxy_scores={"p0": None, "ß": 2.5}, seen_by_estimated_model=False)], False)
    def test_jsonl_round_trip(self, records, ensure_ascii):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.jsonl"), os.path.join(tmp, "second.jsonl")
            write_jsonl(records, first, ensure_ascii)
            loaded = load_records(first)
            assert loaded == records
            write_jsonl(loaded, second, ensure_ascii)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(record_lists())
    @example([rec("r0", proxy_scores={"p0 ": 1.0})])
    def test_csv_round_trip(self, records):
        roster = proxy_roster(records)
        if any(p != p.strip() for p in roster):
            with pytest.raises(ValueError, match="surrounding whitespace"):
                save_records(records, os.devnull)
            return
        # the CSV has one column per roster id, so a proxy a record lacks loads as None
        expected = [replace(r, proxy_scores={p: r.proxy_scores.get(p) for p in roster}) for r in records]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            save_records(records, path)
            assert load_records(path) == expected


# Cells of a records CSV row: valid values, some with whitespace round them, and faulty ones
TEXT = st.sampled_from(["m", "large", "a,b", 'q"t', " sp ", "ü", "big\nmodel"])  # a quoted cell may span lines
METRIC_SCORES = {"spbleu": st.floats(0.0, 100.0), "SpBLEU": st.floats(0.0, 100.0), "accuracy": st.floats(0.0, 1.0),
                 "synthetic": FINITE}
PADDED = st.sampled_from(["{}", " {}", "{} ", "\t{} ", "\u00a0{}\u2003"])
BLANK = st.sampled_from(["", "   ", "\t"])


def fault_cells(cells, proxy_ids, kind, data):
    """Inject one fault of kind into a row's cells, a dict from column name to cell text.

    A width fault sets the key "width" to the number of cells to add (1) or drop (-1).
    """
    pick = lambda *values: data.draw(st.sampled_from(values))
    if kind == "width":
        cells["width"] = pick(1, -1)
    elif kind == "bad_score":
        cells["score"] = pick("abc", "1.2.3", "", " ")
    elif kind == "bad_joshi":
        cells["joshi_class"] = pick("x", "2.5", " 1e0 ")
    elif kind == "bad_proxy":
        cells[PROXY_PREFIX + pick(*proxy_ids)] = pick("n/a", "1,5", " - ")
    elif kind == "bad_bool":
        cells["seen_by_estimated_model"] = pick("maybe", "yes", "", "2")
    elif kind == "unknown_task":
        cells["task"] = pick("bogus", "MT", " mt")
    elif kind == "unknown_group":
        cells["corpus_group"] = pick("nowhere", "Other")
    elif kind == "joshi_range":
        cells["joshi_class"] = pick("6", "-1", " 17 ")
    elif kind == "score_range":
        metric, score = pick(("spbleu", "100.5"), ("SpBLEU", "-0.5"), ("accuracy", "1.5"), ("accuracy", " -1e-9 "))
        cells["metric_name"], cells["score"] = metric, score
    elif kind == "score_nonfinite":
        cells["score"] = pick("nan", "inf", "-inf", " NaN ", "-Infinity")
    elif kind == "proxy_nonfinite":
        cells[PROXY_PREFIX + pick(*proxy_ids)] = pick("nan", "inf", "-Infinity")
    else:
        raise AssertionError(kind)


FAULT_KINDS = ("width", "bad_score", "bad_joshi", "bad_proxy", "bad_bool", "unknown_task", "unknown_group",
               "joshi_range", "score_range", "score_nonfinite", "proxy_nonfinite", "duplicate")


def records_csv_lines(data, faults):
    """A header and lines of a records CSV: valid rows, blank lines, and each (row, kind) of faults injected."""
    proxy_ids = data.draw(st.lists(st.sampled_from(["p0", "p1", "ß"]), min_size=1, max_size=3, unique=True))
    header = list(_BASE_COLUMNS) + [PROXY_PREFIX + p for p in proxy_ids]
    n_rows = max([row for row, _ in faults], default=-1) + 1 + data.draw(st.integers(0, 3))
    padded = lambda text: data.draw(PADDED).format(text)
    ids = []
    lines = []
    for i in range(n_rows):
        lines.extend(data.draw(st.lists(BLANK, max_size=2)))
        metric = data.draw(st.sampled_from(sorted(METRIC_SCORES)))
        cells = dict(zip(_BASE_COLUMNS, [
            f"r{i}", data.draw(st.sampled_from(TASKS)), data.draw(TEXT), data.draw(TEXT), data.draw(TEXT),
            data.draw(TEXT), data.draw(TEXT), metric, padded(repr(data.draw(METRIC_SCORES[metric]))),
            padded(data.draw(st.sampled_from(["true", "false", "1", "0", "TRUE", "False"]))),
            data.draw(st.sampled_from(CORPUS_GROUPS)),
            data.draw(st.sampled_from(["", " "]) | st.integers(0, 5).map(str).map(padded)),
        ]))
        for p in proxy_ids:
            cells[PROXY_PREFIX + p] = data.draw(BLANK | FINITE.map(repr).map(padded))
        for row, kind in faults:
            if row != i:
                continue
            if kind == "duplicate":
                cells["record_id"] = data.draw(st.sampled_from(ids)) if ids else cells["record_id"]
            else:
                fault_cells(cells, proxy_ids, kind, data)
        ids.append(cells["record_id"])
        row = [cells[name] for name in header]
        row = row + [""] if cells.get("width") == 1 else row[:-1] if cells.get("width") == -1 else row
        buffer = io.StringIO()
        csv.writer(buffer).writerow(row)  # its "\r\n" line end makes the writer quote a cell holding "\n"
        lines.append(buffer.getvalue()[:-2])
    lines.extend(data.draw(st.lists(BLANK, max_size=2)))
    return [",".join(header)] + lines


def write_lines(path, lines, terminator):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + terminator for line in lines))


def oracle_outcome(path, lines, terminator):
    """The records the oracle reads from lines, or the error the one-pass reader must raise.

    The oracle reads the file cut after each line in turn. The first cut it
    rejects, or the first whose last record repeats an id, gives the error:
    the oracle's, prefixed with its file:line where the oracle named none,
    or a DuplicateId naming both lines. A line of lines that holds a quoted
    line break spans two physical lines, and the file:line is the first.
    """
    records, first_line = [], {}
    starts = list(itertools.accumulate((1 + line.count("\n") for line in lines), initial=1))
    for n in range(1, len(lines) + 1):
        write_lines(path, lines[:n], terminator)
        try:
            cut = oracle_load_records_csv(path)
        except PerfcastError as exc:
            where = f"{path}:{starts[n - 1]}: "
            return type(exc), str(exc) if str(exc).startswith(where) else where + str(exc)
        if len(cut) > len(records):
            record_id = cut[-1].record_id
            if record_id in first_line:
                first = first_line[record_id]
                return DuplicateId, (f"{path}:{starts[n - 1]}: duplicate record_id {record_id!r},"
                                     f" first given on line {first}")
            first_line[record_id] = starts[n - 1]
        records = cut
    return records


class TestCsvReaderMatchesOracle:
    """The one-pass CSV reader against the reader it replaced, kept in tests/oracles.py."""

    def check(self, data, faults):
        lines = records_csv_lines(data, faults)
        terminator = data.draw(st.sampled_from(["\n", "\r\n"]))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            expected = oracle_outcome(path, lines, terminator)
            write_lines(path, lines, terminator)
            if isinstance(expected, list):
                assert load_records(path) == expected
                return
            with pytest.raises(PerfcastError) as got:
                load_records(path)
            assert (type(got.value), str(got.value)) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_valid_file(self, data):
        self.check(data, [])

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.data())
    def test_one_fault(self, kind, data):
        self.check(data, [(data.draw(st.integers(0, 3)), kind)])

    @pytest.mark.parametrize("kinds", itertools.combinations(FAULT_KINDS, 2), ids="+".join)
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(st.data())
    def test_two_faults_in_one_row(self, kinds, data):
        row = data.draw(st.integers(0, 3))
        self.check(data, [(row, kind) for kind in kinds])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_faults_in_two_rows(self, data):
        rows = data.draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True))
        self.check(data, [(row, data.draw(st.sampled_from(FAULT_KINDS))) for row in rows])
