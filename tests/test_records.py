import json
import os
import re
import tempfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfcast.corpus import DATASET_FEATURE_COLUMNS
from perfcast.errors import DuplicateId, KeyMismatch, MissingFeature, ParseError, RangeError
from perfcast.records import (
    CORPUS_GROUPS,
    FEATURE_GROUPS,
    PROXY_PREFIX,
    TASKS,
    PerformanceRecord,
    average_proxy_scores,
    build_design_matrix,
    build_schema,
    load_records,
    proxy_roster,
    save_records,
)
from perfcast.langdist import DISTANCE_KINDS, language_features

from conftest import LANGS, make_feature_block, make_language_table, synthetic_setup
from oracles import oracle_build_design_matrix


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

    def test_bad_task(self, tmp_path):
        path = str(tmp_path / "records.csv")
        save_records([rec()], path)
        text = (tmp_path / "records.csv").read_text().replace(",mt,", ",bogus,")
        (tmp_path / "records.csv").write_text(text)
        with pytest.raises(ParseError):
            load_records(path)


class TestAveraging:
    def test_mean(self):
        runs = [rec(f"r{i}", score=s, proxy_scores={"p0": s}) for i, s in enumerate((10.0, 12.0, 14.0))]
        merged = average_proxy_scores(runs)
        assert merged.score == 12.0
        assert merged.proxy_scores["p0"] == 12.0
        assert merged.record_id == "r0"

    def test_single_run_identity(self):
        r = rec()
        assert average_proxy_scores([r]) == r

    def test_partial_proxy_presence(self):
        runs = [
            rec("a", proxy_scores={"p0": 4.0}),
            rec("b", proxy_scores={"p0": 6.0}),
            rec("c", proxy_scores={"p0": None}),
        ]
        merged = average_proxy_scores(runs)
        assert merged.proxy_scores["p0"] == 5.0

    def test_all_missing_stays_missing(self):
        runs = [rec("a", proxy_scores={"p0": None}), rec("b", proxy_scores={"p0": None})]
        assert average_proxy_scores(runs).proxy_scores["p0"] is None

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatch):
            average_proxy_scores([rec("a"), rec("b", tgt_lang="fra")])


class TestSchema:
    def test_full_order(self):
        schema = build_schema(("language", "dataset", "proxy"), ["b", "a"])
        assert schema.columns[:6] == DISTANCE_KINDS
        assert schema.columns[6:16][0] == "train_size"
        assert schema.columns[16:] == ("proxy:b", "proxy:a")
        assert schema.groups.count("language") == 6
        assert schema.groups.count("dataset") == 10
        assert schema.groups.count("proxy") == 2

    def test_group_removal_is_exact(self):
        full = build_schema(("language", "dataset", "proxy"), ["p0"])
        no_lang = build_schema(("dataset", "proxy"), ["p0"])
        assert set(full.columns) - set(no_lang.columns) == set(DISTANCE_KINDS)
        assert no_lang.columns == full.columns[6:]

    def test_fingerprint_tracks_schema(self):
        a = build_schema(("proxy",), ["p0"])
        b = build_schema(("proxy",), ["p1"])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == build_schema(("proxy",), ["p0"]).fingerprint()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_schema((), [])


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
            lang_block = language_features(table, r.src_lang, r.tgt_lang)
            np.testing.assert_array_equal(m.rows[i, :6], lang_block.as_row())
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
