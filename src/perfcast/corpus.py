"""Dataset-derived features of parallel corpora.

Everything here is a pure function of tokenized text: corpus profiles
(vocabulary, token counts, TTR), pairwise divergences (word overlap, TTR
distance, Jensen-Shannon divergence, TF-IDF cosine) and the cosine between
precomputed mean sentence embeddings. Embeddings are never computed here,
only ingested.

A corpus file is read whole and tokenized once. dataset_features puts the
two corpora's token counts on the sorted union of their vocabularies, as two
aligned float64 vectors, and computes each pair statistic from them with one
public function: word_overlap(a, b) and tfidf_cosine(a, b) take the count
vectors, jsd(p, q) the probability vectors (the counts over each corpus's
token total). Every sum adds its terms left to right in token order, so the
results are the same, to the bit, as a loop over the sorted vocabulary.

Word overlap, JSD, TF-IDF cosine and embedding cosine are symmetric to the
bit: each is built from commutative IEEE sums and products over that sorted
union, the same terms in the same order whichever corpus comes first. So
the block of (b, a) is the block of (a, b) with only the directional fields
(train size, vocabulary, average length, both TTRs and the TTR distance)
taken from the two profiles in the other order, which oriented() does.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .errors import DimMismatch, EmptyCorpus, InvalidTTR, ParseError, RangeError, ZeroVector, numbered_rows, open_text
from .fields import from_json

TokenizeMode = Literal["unicode_words", "pretokenized_whitespace"]

_WORD_RE = re.compile(r"\w+", re.UNICODE)
_NOT_ASCII_WS_RE = re.compile(r"[^ \t\n\r\f\v]+")

# read_corpus counts once per distinct whitespace-separated chunk only where
# at most this share of the chunks are distinct, first in a sample of the
# text's first characters and then in the whole text; elsewhere it tokenizes
# every token. 20% is about where counting per chunk stops paying when every
# distinct chunk needs the regex. A sample sees a larger share than the whole
# text does, since distinct chunks grow slower than the text (Heaps' law), so
# a text that fails the sample is never split whole. See README "Corpora".
_MAX_DISTINCT_CHUNK_SHARE = 0.2
_CHUNK_SAMPLE_CHARS = 65536

# Fixed column order of the pairwise feature CSV; missing values are empty cells.
DATASET_FEATURE_COLUMNS = (
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


def tokenize(text: str, mode: TokenizeMode = "unicode_words") -> list[str]:
    """Split text into tokens; no token spans a line break.

    unicode_words lowercases and keeps runs of Unicode word characters, which
    drops pure-punctuation segments. pretokenized_whitespace splits on ASCII
    whitespace only, for text already tokenized externally (e.g. SentencePiece
    output joined by spaces). Empty input yields an empty list. Neither mode
    looks across a "\\n" (str.lower's final-sigma rule stops at it too), so
    the tokens of a whole text are those of its lines, in order.
    """
    if mode == "unicode_words":
        return _WORD_RE.findall(text.lower())
    if mode == "pretokenized_whitespace":
        return _NOT_ASCII_WS_RE.findall(text)
    raise ValueError(f"unknown tokenize mode: {mode!r}")


@dataclass(frozen=True)
class CorpusCounts:
    """A corpus's sentence count and token counts; len() is the sentence count."""

    num_sentences: int = 0
    counts: Counter[str] = field(default_factory=Counter)

    def __len__(self) -> int:
        return self.num_sentences

    def __add__(self, other: CorpusCounts) -> CorpusCounts:
        """The counts of the two corpora one after the other."""
        return CorpusCounts(self.num_sentences + other.num_sentences, self.counts + other.counts)


@dataclass(frozen=True)
class DatasetProfile:
    """Token-level summary of one corpus, sufficient for every pairwise feature."""

    dataset_id: str
    num_sentences: int
    total_tokens: int
    token_counts: dict[str, int]
    vocab_size: int
    avg_sentence_length: float
    ttr: float


@dataclass(frozen=True)
class EmbeddingSet:
    """Mean sentence embedding of one dataset, ingested from upstream tooling."""

    dataset_id: str
    dim: int
    mean_vector: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 1 or len(self.mean_vector) != self.dim:
            raise ValueError(f"embedding dim {self.dim} does not match vector length {len(self.mean_vector)}")
        if not all(math.isfinite(v) for v in self.mean_vector):
            raise ValueError("embedding vector contains non-finite values")


@dataclass(frozen=True)
class DatasetFeatureBlock:
    """All pairwise train/test dataset features, in CSV column order."""

    train_size: int
    vocab_size_train: int
    avg_sentence_length_train: float
    word_overlap: float
    ttr_train: float
    ttr_test: float
    ttr_distance: float
    jsd: float
    tfidf_cosine: float
    embedding_cosine: float | None

    def as_row(self) -> list[float | None]:
        return [getattr(self, c) for c in DATASET_FEATURE_COLUMNS]


def profile(dataset_id: str, corpus: CorpusCounts | Sequence[Sequence[str]]) -> DatasetProfile:
    """Summarize a corpus: read_corpus's counts, or token sequences, one per sentence.

    Raises EmptyCorpus on no sentences or zero tokens.
    """
    if not isinstance(corpus, CorpusCounts):
        corpus = CorpusCounts(len(corpus), Counter(itertools.chain.from_iterable(corpus)))
    if not corpus.num_sentences:
        raise EmptyCorpus(f"{dataset_id}: no sentences")
    counts = corpus.counts
    total = sum(counts.values())
    if total == 0:
        raise EmptyCorpus(f"{dataset_id}: zero tokens")
    return DatasetProfile(
        dataset_id=dataset_id,
        num_sentences=corpus.num_sentences,
        total_tokens=total,
        token_counts=dict(counts),
        vocab_size=len(counts),
        avg_sentence_length=total / corpus.num_sentences,
        ttr=len(counts) / total,
    )


def _pair_vectors(c1: Mapping[str, float], c2: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """The two maps' values over the sorted union of their keys, as float64 vectors (0 where absent)."""
    vocabulary = sorted(c1.keys() | c2.keys())
    a, b = (np.fromiter(map(c.get, vocabulary, itertools.repeat(0)), np.float64, len(vocabulary)) for c in (c1, c2))
    return a, b


def _ordered_sum(terms: np.ndarray) -> float:
    """The terms added left to right, as a loop over the vocabulary adds them; np.sum adds pairwise."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def word_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|T1 n T2| / (|T1| + |T2|) of two count vectors on one vocabulary; in [0, 0.5], 0.5 iff T1 = T2."""
    in_a, in_b = a > 0.0, b > 0.0
    return int(np.count_nonzero(in_a & in_b)) / (int(np.count_nonzero(in_a)) + int(np.count_nonzero(in_b)))


def _kl_to_mixture(x: np.ndarray, m: np.ndarray) -> float:
    """Sum of x * log2(x / m) over the tokens where x > 0."""
    present = x > 0.0
    x = x[present]
    # math.log2, not np.log2, whose vectorized loops may round differently
    logs = np.fromiter(map(math.log2, (x / m[present]).tolist()), np.float64, x.size)
    return _ordered_sum(x * logs)


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence, base 2, of two probability vectors on one sorted vocabulary. Range [0, 1].

    A token absent from one side has probability 0 there and adds 0 to that
    side's KL term; the mixture M is strictly positive wherever either side
    is. Each KL sum runs in vocabulary order, so the result is symmetric in
    (p, q). The sum is clamped to [0, 1], since rounding can carry disjoint
    supports to 1 + 2.2e-16.
    """
    m = 0.5 * (p + q)
    return min(1.0, max(0.0, 0.5 * (_kl_to_mixture(p, m) + _kl_to_mixture(q, m))))


# idf(t) = ln((1 + N) / (1 + df(t))) + 1 with N = 2 documents: ln(1) + 1 for a
# token of both, and this for a token of one
_IDF_ONE_DOCUMENT = math.log(3.0 / 2.0) + 1.0


def tfidf_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the TF-IDF vectors of two count vectors on one vocabulary.

    Each corpus is one document in a two-document collection; tf is the raw
    count and idf(t) = ln((1+N)/(1+df(t))) + 1 with N = 2 (smoothed, as
    scikit-learn's TfidfVectorizer, so shared terms keep nonzero weight).
    """
    idf = np.where((a > 0.0) & (b > 0.0), 1.0, _IDF_ONE_DOCUMENT)
    v1, v2 = a * idf, b * idf
    norm1, norm2 = _ordered_sum(v1 * v1), _ordered_sum(v2 * v2)
    if norm1 == 0.0 or norm2 == 0.0:
        raise ZeroVector("TF-IDF vector has zero norm")
    return _ordered_sum(v1 * v2) / math.sqrt(norm1 * norm2)


def ttr_distance(ttr_train: float, ttr_test: float) -> float:
    """(1 - ttr_train/ttr_test)^2. Asymmetric: numerator is the training TTR."""
    for v in (ttr_train, ttr_test):
        if not (0.0 < v <= 1.0):
            raise InvalidTTR(f"TTR {v} outside (0, 1]")
    return (1.0 - ttr_train / ttr_test) ** 2


def embedding_cosine(a: EmbeddingSet, b: EmbeddingSet) -> float:
    if a.dim != b.dim:
        raise DimMismatch(f"embedding dims differ: {a.dim} vs {b.dim}")
    va = np.asarray(a.mean_vector, dtype=np.float64)
    vb = np.asarray(b.mean_vector, dtype=np.float64)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("mean embedding vector is zero")
    return float(va @ vb) / (na * nb)


def dataset_features(
    train: DatasetProfile,
    test: DatasetProfile,
    embeddings: tuple[EmbeddingSet, EmbeddingSet] | None = None,
) -> DatasetFeatureBlock:
    """Assemble the full pairwise feature block for one (train, test) pair."""
    a, b = _pair_vectors(train.token_counts, test.token_counts)
    return DatasetFeatureBlock(
        **_directional(train, test),
        word_overlap=word_overlap(a, b),
        jsd=jsd(a / train.total_tokens, b / test.total_tokens),
        tfidf_cosine=tfidf_cosine(a, b),
        embedding_cosine=embedding_cosine(*embeddings) if embeddings is not None else None,
    )


def oriented(block: DatasetFeatureBlock, train: DatasetProfile, test: DatasetProfile) -> DatasetFeatureBlock:
    """The block of (train, test), given the block of either order of the pair.

    The symmetric statistics are kept, bit for bit, and the directional
    fields are taken from the two profiles, as dataset_features takes them.
    """
    return replace(block, **_directional(train, test))


def _directional(train: DatasetProfile, test: DatasetProfile) -> dict:
    """The fields of a feature block that change when train and test swap."""
    return {
        "train_size": train.num_sentences,
        "vocab_size_train": train.vocab_size,
        "avg_sentence_length_train": train.avg_sentence_length,
        "ttr_train": train.ttr,
        "ttr_test": test.ttr,
        "ttr_distance": ttr_distance(train.ttr, test.ttr),
    }


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def read_corpus(path: str, mode: TokenizeMode = "unicode_words") -> CorpusCounts:
    """Count the sentences and tokens of a UTF-8, one-sentence-per-line corpus file.

    The file is read whole. A sentence is a line after universal-newline
    translation ("\\r" and "\\r\\n" become "\\n"): each "\\n" ends one, and text
    after the last "\\n" is one more. Other characters that str.splitlines
    breaks at (\\x0b, \\x0c, \\x85, \\u2028, ...) do not end a sentence.

    The counts are those of Counter(tokenize(text, mode)), in the same
    first-seen order. In unicode_words mode the lowered text is cut at
    Unicode whitespace, which \\w never matches, so each token lies inside
    one whitespace-separated chunk. Where the chunks repeat enough (see
    _MAX_DISTINCT_CHUNK_SHARE), each distinct chunk is tokenized once and
    its tokens are counted as often as the chunk occurs.
    """
    with open_text(path) as fh:
        text = fh.read()
    num_sentences = text.count("\n")
    if text and not text.endswith("\n"):
        num_sentences += 1
    if mode != "unicode_words":
        return CorpusCounts(num_sentences, Counter(tokenize(text, mode)))
    text = text.lower()
    sample = Counter(text[:_CHUNK_SAMPLE_CHARS].split())
    if len(sample) <= _MAX_DISTINCT_CHUNK_SHARE * sample.total():
        chunk_counts = Counter(text.split())
        if len(chunk_counts) <= _MAX_DISTINCT_CHUNK_SHARE * chunk_counts.total():
            return CorpusCounts(num_sentences, _count_chunk_tokens(chunk_counts))
    return CorpusCounts(num_sentences, Counter(_WORD_RE.findall(text)))


def _count_chunk_tokens(chunk_counts: Counter[str]) -> Counter[str]:
    """The \\w+ tokens of lowered chunks, each token counted as often as its chunk, in first-seen order."""
    counts: Counter[str] = Counter()
    for chunk, n in chunk_counts.items():
        if chunk.isalnum():  # every character is \w, so the chunk is one token
            counts[chunk] += n
        else:
            for token in _WORD_RE.findall(chunk):
                counts[token] += n
    return counts


def load_embeddings(path: str) -> dict[str, EmbeddingSet]:
    """Load one-JSON-object-per-line embedding records, read by from_json, keyed by dataset_id.

    A repeated dataset_id is a ParseError at file:line naming the line that first gave it.
    """
    out: dict[str, EmbeddingSet] = {}
    first_line: dict[str, int] = {}
    for lineno, line in numbered_rows(path, "jsonl"):
        try:
            emb = from_json(EmbeddingSet, json.loads(line))
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise ParseError(f"{path}:{lineno}: bad embedding record: {exc}") from exc
        key = emb.dataset_id
        if key in first_line:
            raise ParseError(f"{path}:{lineno}: duplicate dataset_id {key!r}, first given on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = emb
    return out


def write_feature_csv(path: str, blocks: Iterable[tuple[str, str, DatasetFeatureBlock]]) -> None:
    """Write (train_dataset, test_dataset, block) rows; None serializes as an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("train_dataset", "test_dataset") + DATASET_FEATURE_COLUMNS)
        for train_id, test_id, block in blocks:
            row = [train_id, test_id]
            for value in block.as_row():
                row.append("" if value is None else repr(value))
            writer.writerow(row)


# The range of each column, as dataset_features guarantees it. jsd() and the
# cosines can land 1e-15 past an end by rounding, so their checks allow 1e-12.
_FEATURE_RANGES = {
    "train_size": ("[1, inf)", lambda v: v >= 1),
    "vocab_size_train": ("[1, inf)", lambda v: v >= 1),
    "avg_sentence_length_train": ("(0, inf)", lambda v: v > 0.0),
    "word_overlap": ("[0, 0.5]", lambda v: 0.0 <= v <= 0.5),
    "ttr_train": ("(0, 1]", lambda v: 0.0 < v <= 1.0),
    "ttr_test": ("(0, 1]", lambda v: 0.0 < v <= 1.0),
    "ttr_distance": ("[0, inf)", lambda v: v >= 0.0),
    "jsd": ("[0, 1]", lambda v: -1e-12 <= v <= 1.0 + 1e-12),
    "tfidf_cosine": ("[0, 1]", lambda v: -1e-12 <= v <= 1.0 + 1e-12),
    "embedding_cosine": ("[-1, 1]", lambda v: v is None or -1.0 - 1e-12 <= v <= 1.0 + 1e-12),
}


def load_feature_csv(path: str) -> dict[tuple[str, str], DatasetFeatureBlock]:
    """Inverse of write_feature_csv, keyed by (train_dataset, test_dataset).

    Skips blank lines. Rejects a non-finite cell, a value outside its
    column's documented range and a repeated (train_dataset, test_dataset)
    key, naming file:line.
    """
    expected = ("train_dataset", "test_dataset") + DATASET_FEATURE_COLUMNS
    out: dict[tuple[str, str], DatasetFeatureBlock] = {}
    first_line: dict[tuple[str, str], int] = {}
    rows = numbered_rows(path, "csv")
    header = next(rows, (1, None))[1]
    if header is None or tuple(header) != expected:
        raise ParseError(f"{path}:1: unexpected feature CSV header {header}")
    for lineno, row in rows:
        try:
            block = DatasetFeatureBlock(
                train_size=int(row[2]),
                vocab_size_train=int(row[3]),
                avg_sentence_length_train=float(row[4]),
                word_overlap=float(row[5]),
                ttr_train=float(row[6]),
                ttr_test=float(row[7]),
                ttr_distance=float(row[8]),
                jsd=float(row[9]),
                tfidf_cosine=float(row[10]),
                embedding_cosine=float(row[11]) if row[11] != "" else None,
            )
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        for name, value in zip(DATASET_FEATURE_COLUMNS, block.as_row()):
            if value is not None and not math.isfinite(value):
                raise RangeError(f"{path}:{lineno}: non-finite {name} {value}")
        for name, (interval, inside) in _FEATURE_RANGES.items():
            if not inside(getattr(block, name)):
                raise RangeError(f"{path}:{lineno}: {name} {getattr(block, name)} outside {interval}")
        key = (row[0], row[1])
        if key in first_line:
            raise ParseError(f"{path}:{lineno}: duplicate pair {key}, first given on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = block
    return out
