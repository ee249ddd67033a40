import math
import os
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfcast import corpus as corpus_module
from perfcast.corpus import (
    CorpusCounts,
    DatasetFeatureBlock,
    DATASET_FEATURE_COLUMNS,
    EmbeddingSet,
    TokenDistribution,
    dataset_features,
    embedding_cosine,
    jsd,
    load_embeddings,
    load_feature_csv,
    oriented,
    profile,
    read_corpus,
    tfidf_cosine,
    tokenize,
    ttr_distance,
    word_overlap,
    write_feature_csv,
)
from perfcast.errors import DimMismatch, EmptyCorpus, InvalidTTR, ParseError, PerfcastError, ZeroVector

from oracles import (
    oracle_dataset_features,
    oracle_jsd,
    oracle_profile,
    oracle_read_corpus,
    oracle_sorted_jsd,
    oracle_tfidf_cosine,
    oracle_ttr_distance,
    oracle_word_overlap,
)


def random_corpus(rng, max_tokens=50):
    """Random tokenized corpus with <= max_tokens tokens total."""
    alphabet = [f"w{i}" for i in range(12)]
    total = int(rng.integers(1, max_tokens + 1))
    sentences = []
    remaining = total
    while remaining > 0:
        size = int(rng.integers(1, min(8, remaining) + 1))
        sentences.append([alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(size)])
        remaining -= size
    return sentences


class TestTokenize:
    def test_unicode_words(self):
        assert tokenize("Hello, world!", "unicode_words") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("", "unicode_words") == []

    def test_pretokenized(self):
        assert tokenize("a b a", "pretokenized_whitespace") == ["a", "b", "a"]

    def test_punctuation_only_dropped(self):
        assert tokenize("... !! ??", "unicode_words") == []

    def test_no_empty_tokens(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            text = "".join(rng.choice(list("ab c,.!x\ty "), size=30))
            for mode in ("unicode_words", "pretokenized_whitespace"):
                assert all(tokenize(text, mode))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("x", "bogus")


class TestProfile:
    def test_hand_counts(self):
        p = profile("d", [["a", "b"], ["a", "c", "d"]])
        assert p.num_sentences == 2
        assert p.total_tokens == 5
        assert p.vocab_size == 4
        assert p.avg_sentence_length == 2.5
        assert p.ttr == 0.8

    def test_single_token(self):
        p = profile("d", [["x"]])
        assert p.vocab_size == 1
        assert p.ttr == 1.0

    def test_repeated_sentences(self):
        p = profile("d", [["a", "a"]] * 1000)
        assert p.total_tokens == 2000
        assert p.ttr == 0.0005

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            profile("d", [])
        with pytest.raises(EmptyCorpus):
            profile("d", [[], []])

    def test_invariants_and_reorder(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            sentences = random_corpus(rng)
            p = profile("d", sentences)
            assert p.vocab_size == len(p.token_counts)
            assert p.total_tokens == sum(p.token_counts.values())
            assert p.ttr == p.vocab_size / p.total_tokens
            assert p.avg_sentence_length == p.total_tokens / p.num_sentences
            shuffled = [sentences[i] for i in rng.permutation(len(sentences))]
            q = profile("d", shuffled)
            assert q.token_counts == p.token_counts
            assert q.ttr == p.ttr


class TestWordOverlap:
    def test_identical(self):
        p = profile("d", [["a", "b"]])
        assert word_overlap(p, p) == 0.5

    def test_disjoint(self):
        p1 = profile("d1", [["a", "b"]])
        p2 = profile("d2", [["c", "d"]])
        assert word_overlap(p1, p2) == 0.0

    def test_partial(self):
        p1 = profile("d1", [["a", "b", "c"]])
        p2 = profile("d2", [["b", "c", "d", "e"]])
        assert word_overlap(p1, p2) == pytest.approx(2 / 7, abs=1e-15)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p1 = profile("d1", random_corpus(rng))
            p2 = profile("d2", random_corpus(rng))
            v = word_overlap(p1, p2)
            assert v == word_overlap(p2, p1)
            assert 0.0 <= v <= 0.5


class TestTtrDistance:
    def test_equal(self):
        assert ttr_distance(0.6, 0.6) == 0.0

    def test_half(self):
        assert ttr_distance(0.5, 1.0) == 0.25

    def test_asymmetric_direction(self):
        assert ttr_distance(0.8, 0.5) == pytest.approx(0.36, abs=1e-12)

    def test_invalid(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidTTR):
                ttr_distance(bad, 0.5)
            with pytest.raises(InvalidTTR):
                ttr_distance(0.5, bad)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.uniform(0.01, 1.0, size=2)
            assert ttr_distance(float(a), float(b)) >= 0.0


class TestJsd:
    def test_identical_zero(self):
        p = TokenDistribution({"a": 0.3, "b": 0.7})
        assert jsd(p, p) == 0.0

    def test_disjoint_is_one(self):
        p = TokenDistribution({"a": 0.4, "b": 0.6})
        q = TokenDistribution({"c": 0.5, "d": 0.5})
        assert abs(jsd(p, q) - 1.0) < 1e-12

    def test_disjoint_never_exceeds_one(self):
        # unclamped, these disjoint distributions sum to 1.0000000000000002
        p = TokenDistribution({"a0": 0.12013046230989173, "a1": 0.6520607201434465, "a2": 0.22780881754666185})
        q = TokenDistribution({
            "b0": 0.2030687646362296, "b1": 0.11234180615501056, "b2": 0.2583441887464679,
            "b3": 0.3982466569873878, "b4": 0.02799858347490424,
        })
        assert jsd(p, q) <= 1.0
        assert jsd(q, p) <= 1.0
        assert abs(jsd(p, q) - 1.0) < 1e-12

    def test_half_point_mass(self):
        p = TokenDistribution({"x": 0.5, "y": 0.5})
        q = TokenDistribution({"x": 1.0})
        assert jsd(p, q) == pytest.approx(0.31127812445913283, abs=1e-15)

    def test_zero_implies_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            raw = rng.uniform(0.05, 1.0, size=4)
            probs = raw / raw.sum()
            p = TokenDistribution({f"t{i}": float(v) for i, v in enumerate(probs)})
            bumped = probs.copy()
            bumped[0] += 0.01
            bumped[1] -= 0.01
            q = TokenDistribution({f"t{i}": float(v) for i, v in enumerate(bumped)})
            assert jsd(p, q) > 1e-9

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            TokenDistribution({"a": 0.5, "b": 0.6})
        with pytest.raises(ValueError):
            TokenDistribution({"a": -0.1, "b": 1.1})


class TestTfidfCosine:
    def test_identical(self):
        p = profile("d", [["a", "a", "b", "c"]])
        assert abs(tfidf_cosine(p, p) - 1.0) < 1e-12

    def test_disjoint(self):
        p1 = profile("d1", [["a", "b"]])
        p2 = profile("d2", [["c", "d"]])
        assert tfidf_cosine(p1, p2) == 0.0

    def test_fixture(self):
        p1 = profile("d1", [["a", "a", "b"]])
        p2 = profile("d2", [["a", "c"]])
        expected = 0.47433070649719394  # frozen from the brute-force oracle
        assert tfidf_cosine(p1, p2) == pytest.approx(expected, abs=1e-15)
        assert oracle_tfidf_cosine(p1.token_counts, p2.token_counts) == pytest.approx(expected, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p1 = profile("d1", random_corpus(rng))
            p2 = profile("d2", random_corpus(rng))
            assert tfidf_cosine(p1, p2) == pytest.approx(tfidf_cosine(p2, p1), abs=1e-15)


class TestEmbeddingCosine:
    def test_identical(self):
        e = EmbeddingSet("d", 3, (1.0, 2.0, 3.0))
        assert embedding_cosine(e, e) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        a = EmbeddingSet("a", 2, (1.0, 0.0))
        b = EmbeddingSet("b", 2, (0.0, 1.0))
        assert embedding_cosine(a, b) == 0.0

    def test_45_degrees(self):
        a = EmbeddingSet("a", 2, (1.0, 0.0))
        b = EmbeddingSet("b", 2, (1.0, 1.0))
        assert embedding_cosine(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            embedding_cosine(EmbeddingSet("a", 2, (1.0, 0.0)), EmbeddingSet("b", 3, (1.0, 0.0, 0.0)))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            embedding_cosine(EmbeddingSet("a", 2, (0.0, 0.0)), EmbeddingSet("b", 2, (1.0, 0.0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingSet("a", 2, (1.0,))
        with pytest.raises(ValueError):
            EmbeddingSet("a", 1, (float("nan"),))


class TestDatasetFeatures:
    def test_identical_pair(self):
        p = profile("d", [["a", "b", "c"], ["a", "b"]])
        block = dataset_features(p, p)
        assert block.word_overlap == 0.5
        assert block.ttr_distance == 0.0
        assert block.jsd == 0.0
        assert abs(block.tfidf_cosine - 1.0) < 1e-12
        assert block.embedding_cosine is None

    def test_embeddings_present(self):
        p1 = profile("d1", [["a", "b"]])
        p2 = profile("d2", [["b", "c"]])
        emb = (EmbeddingSet("d1", 2, (1.0, 0.0)), EmbeddingSet("d2", 2, (1.0, 1.0)))
        block = dataset_features(p1, p2, emb)
        assert block.embedding_cosine == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_matches_field_by_field_oracle(self):
        rng = np.random.default_rng(17)
        s1 = random_corpus(rng)
        s2 = random_corpus(rng)
        p1, p2 = profile("d1", s1), profile("d2", s2)
        o1, o2 = oracle_profile(s1), oracle_profile(s2)
        block = dataset_features(p1, p2)
        assert block.train_size == o1["num_sentences"]
        assert block.vocab_size_train == o1["vocab_size"]
        assert block.avg_sentence_length_train == pytest.approx(o1["avg_sentence_length"], abs=1e-12)
        assert block.word_overlap == pytest.approx(oracle_word_overlap(o1["counts"], o2["counts"]), abs=1e-12)
        assert block.ttr_train == pytest.approx(o1["ttr"], abs=1e-12)
        assert block.ttr_test == pytest.approx(o2["ttr"], abs=1e-12)
        assert block.ttr_distance == pytest.approx(oracle_ttr_distance(o1["ttr"], o2["ttr"]), abs=1e-12)
        assert block.jsd == pytest.approx(oracle_jsd(o1["counts"], o2["counts"]), abs=1e-12)
        assert block.tfidf_cosine == pytest.approx(oracle_tfidf_cosine(o1["counts"], o2["counts"]), abs=1e-12)


# Line breaks that universal newlines translate and ones that only str.splitlines breaks at, word and
# punctuation characters, and Greek capitals, whose lowering depends on the letters around them. Then the
# characters where cutting at whitespace, str.isalnum and \w could disagree: "_" (\w, not alphanumeric), a
# no-break space (Unicode whitespace, not ASCII), a zero-width space and a byte-order mark (neither
# whitespace nor \w), a combining acute accent (not \w), "²" (a digit) and "İ" (two code points lowered).
CORPUS_TEXT = st.text(st.sampled_from(list("ab_1é ,.!\t\n\r\x0b\x0c\x1c\x85\u2028ΟΔΣ\xa0\u200b\ufeff\u0301²İ")),
                      max_size=40)


def write_corpus(path, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:  # keeps every "\r"
        fh.write(text)
    return str(path)


class TestReadCorpus:
    """read_corpus counts a whole file as the per-line reader and the per-sentence profile did."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(CORPUS_TEXT, min_size=1, max_size=3), st.sampled_from(["unicode_words", "pretokenized_whitespace"]))
    @example(["a b\r\nb\ra"], "unicode_words")
    @example(["a\n\nb", "\n"], "pretokenized_whitespace")
    @example(["...\n!! ,\n", "a"], "unicode_words")
    @example(["a\x0bb\x0cb\x85a\u2028b\x1cc\n"], "unicode_words")
    @example(["a\x0bb\x0cb\x85a\u2028b\x1cc\n"], "pretokenized_whitespace")
    @example(["ΟΔΟΣ\nΣ a"], "unicode_words")
    @example(["", ""], "unicode_words")
    @example(["b_1 a,\xa0İ² e\u0301\u200bé\n\ufeff!"], "unicode_words")  # every chunk distinct
    @example(["a, a. a\nA!"], "unicode_words")  # one word, four chunks
    @example(["b_1, a\nb_1, a"], "unicode_words")  # a chunk of two tokens, twice
    def test_whole_file_counts_match_per_line_reader(self, tmp_path_factory, texts, mode):
        tmp = tmp_path_factory.mktemp("corpus")
        paths = [write_corpus(tmp / f"{i}.txt", text) for i, text in enumerate(texts)]
        sentences = [sent for path in paths for sent in oracle_read_corpus(path, mode)]
        expected = Counter(tok for sent in sentences for tok in sent)
        # every token tokenized, the counting read_corpus picks, every text counted per distinct chunk
        for share in (0.0, corpus_module._MAX_DISTINCT_CHUNK_SHARE, 1.0):
            with mock.patch.object(corpus_module, "_MAX_DISTINCT_CHUNK_SHARE", share):
                counts = sum((read_corpus(path, mode) for path in paths), CorpusCounts())  # a concat entry's files
            assert len(counts) == counts.num_sentences == len(sentences)
            assert list(counts.counts.items()) == list(expected.items()), share  # same counts, first-seen order
        if sum(expected.values()):
            assert profile("d", counts) == profile("d", sentences)
        else:
            for corpus in (counts, sentences):
                with pytest.raises(EmptyCorpus):
                    profile("d", corpus)

    def test_counts_per_distinct_chunk_only_where_chunks_repeat(self, tmp_path):
        repeated = "The cat, the dog.\n" * 5000
        distinct = " ".join(f"w{i}," for i in range(20000))
        late = "The cat.\n" * 10000 + distinct  # its sample repeats, the whole text does not
        for name, text, per_chunk in (("repeated", repeated, True), ("distinct", distinct, False),
                                      ("late", late, False)):
            path = write_corpus(tmp_path / f"{name}.txt", text)
            with mock.patch.object(corpus_module, "_count_chunk_tokens",
                                   wraps=corpus_module._count_chunk_tokens) as count_chunk_tokens:
                counts = read_corpus(path)
            assert count_chunk_tokens.called == per_chunk, name
            assert list(counts.counts.items()) == list(Counter(tokenize(text)).items()), name


def random_counts(rng) -> dict[str, int]:
    return {f"w{i}": int(rng.integers(1, 50)) for i in rng.choice(12, int(rng.integers(1, 8)), replace=False)}


class TestPairKernelBits:
    """The single-pair functions give the per-pair dict loops' floats, bit for bit."""

    def test_dataset_features_match_dict_loops(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            s1, s2 = random_corpus(rng), random_corpus(rng)
            if rng.uniform() < 0.2:
                s2 = [[tok.upper() for tok in sent] for sent in s2]  # disjoint vocabularies
            p1, p2 = profile("d1", s1), profile("d2", s2)
            got = dataset_features(p1, p2)
            assert [repr(v) for v in got.as_row()] == [repr(v) for v in oracle_dataset_features(s1, s2).as_row()]
            assert (word_overlap(p1, p2), tfidf_cosine(p1, p2)) == (got.word_overlap, got.tfidf_cosine)

    def test_reverse_pair_oriented_is_the_pair_bit_for_bit(self):
        # the symmetric statistics of (b, a) are those of (a, b); only the directional fields change
        rng = np.random.default_rng(37)
        for _ in range(200):
            s1, s2 = random_corpus(rng), random_corpus(rng)
            p1, p2 = profile("d1", s1), profile("d2", s2)
            dim = int(rng.integers(1, 40))
            e1, e2 = (EmbeddingSet(d, dim, tuple(rng.normal(size=dim).tolist())) for d in ("d1", "d2"))
            for emb in ((e1, e2), None):
                reverse = dataset_features(p2, p1, None if emb is None else emb[::-1])
                assert repr(oriented(reverse, p1, p2)) == repr(dataset_features(p1, p2, emb))

    def test_jsd_matches_dict_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c1, c2 = random_counts(rng), random_counts(rng)
            p = {t: c / sum(c1.values()) for t, c in c1.items()}
            q = {t: c / sum(c2.values()) for t, c in c2.items()}
            assert repr(jsd(TokenDistribution(p), TokenDistribution(q))) == repr(oracle_sorted_jsd(p, q))


TTR = st.sampled_from([5e-324, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)
UNIT = st.sampled_from([-1e-12, 0.0, 1.0, 1.0 + 1e-12]) | st.floats(0.0, 1.0)  # [0, 1] with rounding slack
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def feature_rows(draw):
    """(train_dataset, test_dataset, block) rows with free-text ids, values in their columns' ranges and absent
    embedding cosines."""
    keys = draw(st.lists(st.tuples(st.text(max_size=5), st.text(max_size=5)), max_size=5, unique=True))
    return [
        (train_id, test_id, DatasetFeatureBlock(
            train_size=draw(st.integers(1, 10**9)),
            vocab_size_train=draw(st.integers(1, 10**9)),
            avg_sentence_length_train=draw(POSITIVE),
            word_overlap=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5)),
            ttr_train=draw(TTR),
            ttr_test=draw(TTR),
            ttr_distance=draw(st.floats(0.0, allow_infinity=False)),
            jsd=draw(UNIT),
            tfidf_cosine=draw(UNIT),
            embedding_cosine=draw(st.none() | st.sampled_from([-1.0 - 1e-12, 1.0 + 1e-12]) | st.floats(-1.0, 1.0)),
        ))
        for train_id, test_id in keys
    ]


class TestFeatureCsvProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(feature_rows())
    @example([("tr, \"α\"", "te\r\nx",
               DatasetFeatureBlock(1, 1, 5e-324, 0.5, 1.0, 5e-324, 0.0, 1.0 + 1e-12, -0.0, None))])
    @example([
        ("lower", "ends", DatasetFeatureBlock(1, 1, 5e-324, 0.0, 5e-324, 5e-324, 0.0, -1e-12, -1e-12, -1.0 - 1e-12)),
        ("upper", "ends", DatasetFeatureBlock(10**9, 10**9, 1.7976931348623157e308, 0.5, 1.0, 1.0,
                                              1.7976931348623157e308, 1.0 + 1e-12, 1.0 + 1e-12, 1.0 + 1e-12)),
    ])
    def test_write_load_write(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.csv"), os.path.join(tmp, "second.csv")
            write_feature_csv(first, rows)
            loaded = load_feature_csv(first)
            assert loaded == {(train_id, test_id): block for train_id, test_id, block in rows}
            write_feature_csv(second, [(train_id, test_id, block) for (train_id, test_id), block in loaded.items()])
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()


class TestFileIo:
    def test_feature_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        p1 = profile("d1", random_corpus(rng))
        p2 = profile("d2", random_corpus(rng))
        block = dataset_features(p1, p2)
        with_emb = dataset_features(p1, p2, (EmbeddingSet("d1", 2, (1.0, 2.0)), EmbeddingSet("d2", 2, (0.5, 1.0))))
        path = str(tmp_path / "features.csv")
        write_feature_csv(path, [("d1", "d2", block), ("d1b", "d2b", with_emb)])
        loaded = load_feature_csv(path)
        assert loaded[("d1", "d2")] == block
        assert loaded[("d1b", "d2b")] == with_emb

    def test_feature_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1\n")
        with pytest.raises(ParseError):
            load_feature_csv(str(path))

    def write_edited_feature_csv(self, tmp_path, edits, copies=1):
        """A feature CSV holding copies of one row whose named cells are replaced."""
        rng = np.random.default_rng(23)
        block = dataset_features(profile("d1", random_corpus(rng)), profile("d2", random_corpus(rng)))
        path = tmp_path / "features.csv"
        write_feature_csv(str(path), [("d1", "d2", block)])
        header, row = [line.split(",") for line in path.read_text().splitlines()]
        for name, value in edits.items():
            row[header.index(name)] = value
        path.write_text("\n".join(",".join(r) for r in [header] + [row] * copies) + "\n")
        return str(path)

    @pytest.mark.parametrize("column, value", [
        ("tfidf_cosine", "nan"), ("avg_sentence_length_train", "inf"), ("embedding_cosine", "-inf"),
    ])
    def test_feature_csv_non_finite_cell(self, tmp_path, column, value):
        path = self.write_edited_feature_csv(tmp_path, {column: value})
        with pytest.raises(PerfcastError, match=f"features.csv:2: non-finite {column}"):
            load_feature_csv(path)

    @pytest.mark.parametrize("column, value, interval", [
        ("word_overlap", "0.9", r"\[0, 0.5\]"),
        ("ttr_train", "-3", r"\(0, 1\]"),
        ("ttr_test", "0.0", r"\(0, 1\]"),
        ("jsd", "2.0", r"\[0, 1\]"),
        ("train_size", "-5", r"\[1, inf\)"),
        ("train_size", "0", r"\[1, inf\)"),
        ("vocab_size_train", "-3", r"\[1, inf\)"),
        ("avg_sentence_length_train", "-1.0", r"\(0, inf\)"),
        ("avg_sentence_length_train", "0.0", r"\(0, inf\)"),
        ("ttr_distance", "-2.0", r"\[0, inf\)"),
        ("tfidf_cosine", "7.5", r"\[0, 1\]"),
        ("tfidf_cosine", "-0.001", r"\[0, 1\]"),
        ("embedding_cosine", "-3.0", r"\[-1, 1\]"),
        ("embedding_cosine", "1.001", r"\[-1, 1\]"),
    ])
    def test_feature_csv_value_out_of_range(self, tmp_path, column, value, interval):
        path = self.write_edited_feature_csv(tmp_path, {column: value})
        with pytest.raises(PerfcastError, match=f"features.csv:2: {column} .* outside {interval}"):
            load_feature_csv(path)

    def test_feature_csv_range_ends_accepted(self, tmp_path):
        # jsd of disjoint vocabularies can round to just above 1
        edits = {"word_overlap": "0.5", "ttr_train": "1.0", "ttr_test": "1.0", "jsd": repr(1.0 + 1e-15)}
        block = load_feature_csv(self.write_edited_feature_csv(tmp_path, edits))[("d1", "d2")]
        assert (block.word_overlap, block.ttr_train, block.jsd) == (0.5, 1.0, 1.0 + 1e-15)

    def test_feature_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "features.csv"
        header, row = Path(self.write_edited_feature_csv(tmp_path, {})).read_text().splitlines()
        path.write_text(f"{header}\n\n{row}\n\n")
        assert list(load_feature_csv(str(path))) == [("d1", "d2")]

    def test_feature_csv_duplicate_pair(self, tmp_path):
        path = self.write_edited_feature_csv(tmp_path, {}, copies=2)
        with pytest.raises(PerfcastError, match=r"features.csv:3: duplicate pair \('d1', 'd2'\), first given on line 2"):
            load_feature_csv(path)
        header, row, _ = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join([header, '"d\n0"' + row[len("d1"):], row, row]) + "\n")  # lines 2-3 one row
        with pytest.raises(PerfcastError, match=r"features.csv:5: duplicate pair \('d1', 'd2'\), first given on line 4"):
            load_feature_csv(path)

    def test_embedding_jsonl(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"dataset_id": "d1", "dim": 2, "mean_vector": [0.5, -0.25]}\n'
            '\n'
            '{"dataset_id": "d2", "dim": 1, "mean_vector": [3.0]}\n'
        )
        out = load_embeddings(str(path))
        assert out["d1"].mean_vector == (0.5, -0.25)
        assert out["d2"].dim == 1

    def test_embedding_jsonl_bad(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"dataset_id": "d1", "dim": 3, "mean_vector": [1.0]}\n')
        with pytest.raises(ParseError):
            load_embeddings(str(path))

    def test_embedding_jsonl_repeated_dataset(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"dataset_id": "a", "dim": 1, "mean_vector": [1.0]}\n'
            '{"dataset_id": "b", "dim": 1, "mean_vector": [2.0]}\n'
            '\n'
            '{"dataset_id": "a", "dim": 1, "mean_vector": [3.0]}\n'
        )
        with pytest.raises(ParseError, match=r"emb.jsonl:4: duplicate dataset_id 'a', first given on line 1"):
            load_embeddings(str(path))

    def test_column_order_is_stable(self):
        assert DATASET_FEATURE_COLUMNS == (
            "train_size",
            "vocab_size_train",
            "avg_sentence_length_train",
            "word_overlap",
            "ttr_train",
            "ttr_test",
            "ttr_distance",
            "jsd",
            "tfidf_cosine",
            "embedding_cosine",
        )
        block = DatasetFeatureBlock(1, 2, 3.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, None)
        assert block.as_row() == [1, 2, 3.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, None]
