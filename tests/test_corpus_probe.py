import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location("corpus_probe", Path(__file__).parents[1] / "tools" / "corpus_probe.py")
corpus_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus_probe)


def test_syllable_words_are_distinct():
    words = [corpus_probe.syllable_word(i) for i in range(5000)]
    assert len(set(words)) == len(words)


def test_distinct_kinds_repeat_no_chunk_and_zipf_does():
    rng = np.random.default_rng(0)
    vocab = ["kalo", "mine", "suta"]
    for kind in ("distinct", "distinct-punctuated"):
        chunks = "\n".join(corpus_probe.corpus_lines(rng, 100, kind, vocab, 3000)).lower().split()
        assert len(set(chunks)) == len(chunks), kind
        assert all(chunk.isalnum() != (kind == "distinct-punctuated") for chunk in chunks), kind
    chunks = "\n".join(corpus_probe.corpus_lines(rng, 100, "zipf", vocab, 0)).lower().split()
    assert len(set(chunks)) < len(chunks)


def test_fraction_sets_the_share_of_distinct_words():
    rng = np.random.default_rng(0)
    vocab = ["kalo", "mine", "suta"]
    for fraction in (0.0, 0.3):
        chunks = "\n".join(corpus_probe.corpus_lines(rng, 400, "distinct", vocab, 3000, fraction)).split()
        share = sum(chunk not in vocab for chunk in chunks) / len(chunks)
        assert share == pytest.approx(fraction, abs=0.03), fraction


def test_prints_sizes_and_stage_times(capsys):
    assert corpus_probe.main(["--sentences", "30", "--repeats", "1", "--chunks", "distinct"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(c["sentences"], c["tokens"] == c["chunks"] == c["distinct_chunks"] == c["types"])
            for c in report["corpora"]] == [(30, True), (30, True)]
    assert all(c["sample_chunks"] == c["sample_distinct_chunks"] == c["tokens"] for c in report["corpora"])  # all sampled
    assert set(report["median_s"]) == set(report["median_wall_s"]) == {"read", "profile", "pair_features"}
