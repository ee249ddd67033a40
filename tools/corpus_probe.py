"""Time corpus reading, profiling and pair features on seeded Zipfian corpora.

    python tools/corpus_probe.py [--corpora K] [--sentences N] [--chunks KIND] [--fraction F]
                                 [--repeats R] [--seed S]

writes K corpora of N sentences each to a temporary directory and times,
R times over, corpus.read_corpus on every corpus, corpus.profile on every
count and corpus.dataset_features on every ordered pair, each stage through
perfbench/speed.Meter, so that its seconds are scaled to the benchmark's
reference host speed. It prints one JSON line: the corpus sizes (sentences,
tokens, lowered whitespace-separated chunks and how many are distinct, in the
whole text and in its first 65536 characters, which read_corpus samples, and
token types) and each stage's median scaled and measured wall seconds over
the repeats.

A sentence has 4 to 24 words. --chunks picks the words:

- zipf (the default): words drawn from a Zipf law (exponent 1.1) over a
  1500-word vocabulary; the first word is capitalized, 3 sentences in 10
  have one word followed by punctuation, and each ends with a full stop,
  as in the benchmark's cli_pipeline corpora;
- distinct: every word of a corpus differs from every other, with no
  punctuation and no capitals, so each chunk is a token of its own;
- distinct-punctuated: as distinct, each word followed by a punctuation
  mark, so that each chunk goes through the tokenizer's regex.

With a distinct kind, --fraction F (default 1) makes each word such a
distinct word with probability F and a Zipfian word, without capitals or
punctuation, otherwise, so F sets the share of distinct chunks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from perfcast.corpus import dataset_features, profile, read_corpus  # noqa: E402
from speed import Meter  # noqa: E402

SYLLABLES = ("ka", "lo", "mi", "ne", "su", "ta", "ri", "vo", "zu", "pe", "da", "gi", "ho", "ye")
PUNCT = (",", ".", ";", "!", "?", ":")
SAMPLE_CHARS = 65536  # the characters whose chunks read_corpus samples first


def syllable_word(i: int) -> str:
    """A distinct word for each i >= 0: its base-14 digits, at least two, as syllables."""
    digits = []
    while i or len(digits) < 2:
        i, d = divmod(i, len(SYLLABLES))
        digits.append(SYLLABLES[d])
    return "".join(reversed(digits))


def corpus_lines(rng: np.random.Generator, n_sentences: int, chunks: str, vocab: list[str], first: int,
                 fraction: float = 1.0) -> list[str]:
    """n_sentences lines of the given kind: Zipfian words draw from vocab, and distinct words are numbered from first."""
    lengths = rng.integers(4, 25, n_sentences)
    ends = np.cumsum(lengths).tolist()
    cdf = np.cumsum(np.arange(1, len(vocab) + 1, dtype=np.float64) ** -1.1)
    cdf /= cdf[-1]
    ranks = np.minimum(np.searchsorted(cdf, rng.random(ends[-1]), side="right"), len(vocab) - 1)
    words = [vocab[j] for j in ranks.tolist()]
    if chunks != "zipf":
        marks = rng.integers(0, len(PUNCT), len(words)).tolist()
        for i in np.flatnonzero(rng.random(len(words)) < fraction).tolist():
            words[i] = syllable_word(first + i) + (PUNCT[marks[i]] if chunks == "distinct-punctuated" else "")
    lines = []
    for start, end in zip([0] + ends, ends):
        sentence = words[start:end]
        if chunks == "zipf":
            sentence[0] = sentence[0].capitalize()
            if rng.uniform() < 0.3:
                k = int(rng.integers(1, len(sentence)))
                sentence[k] += PUNCT[int(rng.integers(0, len(PUNCT)))]
            sentence[-1] += "."
        lines.append(" ".join(sentence))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--corpora", type=int, default=2)
    parser.add_argument("--sentences", type=int, default=4000)
    parser.add_argument("--chunks", choices=("zipf", "distinct", "distinct-punctuated"), default="zipf")
    parser.add_argument("--fraction", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    n_vocab = len(SYLLABLES) ** 3
    vocab = [syllable_word(int(i)) for i in rng.choice(n_vocab, 1500, replace=False)]
    meter = Meter()
    seconds: dict[str, list[tuple[float, float]]] = {"read": [], "profile": [], "pair_features": []}
    with tempfile.TemporaryDirectory() as tmp:
        paths, chunk_sizes = [], []
        for k in range(args.corpora):
            first = n_vocab + k * args.sentences * 24  # past every vocab word and the other corpora's words
            text = "\n".join(corpus_lines(rng, args.sentences, args.chunks, vocab, first, args.fraction)) + "\n"
            paths.append(os.path.join(tmp, f"corpus{k}.txt"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
            chunks, sample = text.lower().split(), text[:SAMPLE_CHARS].lower().split()
            chunk_sizes.append({"chunks": len(chunks), "distinct_chunks": len(set(chunks)),
                                "sample_chunks": len(sample), "sample_distinct_chunks": len(set(sample))})
        for _ in range(args.repeats):
            counts, read_s, _, read_wall = meter.measure(lambda: [read_corpus(p) for p in paths])
            profiles, profile_s, _, profile_wall = meter.measure(
                lambda: [profile(f"corpus{k}", c) for k, c in enumerate(counts)])
            _, pair_s, _, pair_wall = meter.measure(
                lambda: [dataset_features(a, b) for a, b in itertools.permutations(profiles, 2)])
            seconds["read"].append((read_s, read_wall))
            seconds["profile"].append((profile_s, profile_wall))
            seconds["pair_features"].append((pair_s, pair_wall))
    print(json.dumps({
        "chunks": args.chunks,
        "fraction": args.fraction,
        "seed": args.seed,
        "repeats": args.repeats,
        "corpora": [
            {"sentences": p.num_sentences, "tokens": p.total_tokens, **sizes, "types": p.vocab_size}
            for p, sizes in zip(profiles, chunk_sizes)
        ],
        "median_s": {stage: round(statistics.median(s for s, _ in runs), 6) for stage, runs in seconds.items()},
        "median_wall_s": {stage: round(statistics.median(w for _, w in runs), 6) for stage, runs in seconds.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
