import itertools
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast.errors import AsymmetryError, MissingPair, ParseError, RangeError, SelfDistanceNonzero
from perfcast.langdist import (
    DISTANCE_KINDS,
    language_features,
    load_distance_table,
    save_distance_table,
)

from conftest import make_language_table


def write_table(tmp_path, rows, name="dist.csv"):
    path = tmp_path / name
    lines = ["lang_a,lang_b,kind,distance"] + rows
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoad:
    def test_fixture_symmetric_closure(self, tmp_path):
        rows = []
        langs = ["aaa", "bbb", "ccc"]
        value = 0.05
        for i, a in enumerate(langs):
            for b in langs[i + 1:]:
                for kind in DISTANCE_KINDS:
                    rows.append(f"{a},{b},{kind},{value}")
                    value += 0.05
        table = load_distance_table(write_table(tmp_path, rows))
        # every ordered pair and kind resolvable, including self-pairs
        for a in langs:
            for b in langs:
                for kind in DISTANCE_KINDS:
                    v = table.lookup(a, b, kind)
                    assert v is not None
                    assert v == table.lookup(b, a, kind)
        assert sorted({lang for key in table.entries for lang in key[:2]}) == langs

    def test_self_distance_zero_allowed(self, tmp_path):
        table = load_distance_table(write_table(tmp_path, ["eng,eng,genetic,0.0", "eng,fra,genetic,0.2"]))
        assert table.lookup("eng", "fra", "genetic") == 0.2

    def test_self_distance_nonzero_rejected(self, tmp_path):
        path = write_table(tmp_path, ["eng,eng,genetic,0.3"])
        with pytest.raises(SelfDistanceNonzero):
            load_distance_table(path)

    def test_out_of_range(self, tmp_path):
        path = write_table(tmp_path, ["eng,fra,genetic,1.2"])
        with pytest.raises(RangeError):
            load_distance_table(path)

    def test_conflicting_duplicate(self, tmp_path):
        path = write_table(tmp_path, ["eng,fra,genetic,0.2", "fra,eng,genetic,0.3"])
        with pytest.raises(AsymmetryError):
            load_distance_table(path)

    def test_agreeing_duplicate_ok(self, tmp_path):
        table = load_distance_table(write_table(tmp_path, ["eng,fra,genetic,0.2", "fra,eng,genetic,0.2"]))
        assert table.lookup("fra", "eng", "genetic") == 0.2

    def test_malformed_rows(self, tmp_path):
        for rows, message in [
            (["eng,fra,genetic"], ":2: expected 4 cells, got 3"),
            (["eng,fra,bogus,0.2"], ":2: unknown distance kind 'bogus'"),
            (["eng,fra,genetic,abc"], ":2: bad distance 'abc'"),
            ([",fra,genetic,0.2"], ":2: empty language code"),
            (['"e\nng",fra,genetic,0.2', "", "eng,fra,genetic,abc"], ":5: bad distance 'abc'"),  # a row on lines 2-3
        ]:
            path = write_table(tmp_path, rows)
            with pytest.raises(ParseError) as exc:
                load_distance_table(path)
            assert str(exc.value) == path + message

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ParseError):
            load_distance_table(str(path))


class TestFeatures:
    def test_self_pair_all_zero(self):
        table = make_language_table(["aaa", "bbb"], seed=1)
        assert language_features(table, "aaa", "aaa") == [0.0] * 6

    def test_symmetry(self):
        table = make_language_table(["aaa", "bbb", "ccc"], seed=2)
        assert language_features(table, "aaa", "bbb") == language_features(table, "bbb", "aaa")

    def test_fixture_values_in_kind_order(self, tmp_path):
        rows = [f"aaa,bbb,{kind},{round(0.1 * (i + 1), 2)}" for i, kind in enumerate(DISTANCE_KINDS)]
        table = load_distance_table(write_table(tmp_path, rows))
        assert language_features(table, "aaa", "bbb") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_missing_pair_lists_kinds(self, tmp_path):
        table = load_distance_table(write_table(tmp_path, ["aaa,bbb,genetic,0.2", "aaa,bbb,featural,0.4"]))
        with pytest.raises(MissingPair) as exc:
            language_features(table, "aaa", "bbb")
        assert set(exc.value.kinds) == {"geographic", "inventory", "syntactic", "phonological"}


class TestRoundTrip:
    def test_save_load_idempotent(self, tmp_path):
        table = make_language_table(["aaa", "bbb", "ccc"], seed=3, include_eng=False)
        p1 = str(tmp_path / "t1.csv")
        p2 = str(tmp_path / "t2.csv")
        save_distance_table(table, p1)
        loaded = load_distance_table(p1)
        assert loaded.entries == table.entries
        save_distance_table(loaded, p2)
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


POOL = ("aaa", "bbb", "ccc", "ddd")


@st.composite
def distance_csvs(draw):
    """Distances keyed by (unordered pair, kind), and CSV rows giving each as a->b, b->a or both, in any order.

    Zero self-distance rows are mixed in; they add no entry.
    """
    pairs = list(itertools.combinations(POOL, 2))
    values = draw(st.dictionaries(st.tuples(st.sampled_from(pairs), st.sampled_from(DISTANCE_KINDS)),
                                  st.floats(0.0, 1.0), max_size=20))
    rows = []
    for ((a, b), kind), value in values.items():
        for x, y in draw(st.sampled_from([[(a, b)], [(b, a)], [(a, b), (b, a)]])):
            rows.append(f"{x},{y},{kind},{value!r}")
    for lang, kind in draw(st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(DISTANCE_KINDS)), max_size=3)):
        rows.append(f"{lang},{lang},{kind},0.0")
    return values, draw(st.permutations(rows))


class TestTableProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(distance_csvs())
    def test_symmetric_closure_and_byte_stable_round_trip(self, case):
        values, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("in.csv", "first.csv", "second.csv")]
            with open(paths[0], "w", encoding="utf-8") as fh:
                fh.write("\n".join(["lang_a,lang_b,kind,distance", *rows]) + "\n")
            table = load_distance_table(paths[0])
            for a, b, kind in itertools.product(POOL, POOL, DISTANCE_KINDS):
                expected = 0.0 if a == b else values.get(((min(a, b), max(a, b)), kind))
                assert table.lookup(a, b, kind) == table.lookup(b, a, kind) == expected
            save_distance_table(table, paths[1])
            reloaded = load_distance_table(paths[1])
            assert reloaded.entries == table.entries
            save_distance_table(reloaded, paths[2])
            with open(paths[1], "rb") as first, open(paths[2], "rb") as second:
                assert first.read() == second.read()
