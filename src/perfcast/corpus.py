"""Dataset-derived features of parallel corpora.

Everything here is a pure function of tokenized text: corpus profiles
(vocabulary, token counts, TTR), pairwise divergences (word overlap, TTR
distance, Jensen-Shannon divergence, TF-IDF cosine) and the cosine between
precomputed mean sentence embeddings. Embeddings are never computed here,
only ingested.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import DimMismatch, EmptyCorpus, InvalidTTR, ParseError, RangeError, ZeroVector

TokenizeMode = Literal["unicode_words", "pretokenized_whitespace"]

_WORD_RE = re.compile(r"\w+", re.UNICODE)
_ASCII_WS_RE = re.compile(r"[ \t\n\r\f\v]+")

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
    """Split one sentence into tokens.

    unicode_words lowercases and keeps runs of Unicode word characters, which
    drops pure-punctuation segments. pretokenized_whitespace splits on ASCII
    whitespace only, for text already tokenized externally (e.g. SentencePiece
    output joined by spaces). Empty input yields an empty list.
    """
    if mode == "unicode_words":
        return _WORD_RE.findall(text.lower())
    if mode == "pretokenized_whitespace":
        return [t for t in _ASCII_WS_RE.split(text) if t]
    raise ValueError(f"unknown tokenize mode: {mode!r}")


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
class TokenDistribution:
    """Normalized unigram distribution; probabilities sum to 1 within 1e-9."""

    probs: dict[str, float]

    def __post_init__(self):
        for tok, p in self.probs.items():
            if p < 0:
                raise ValueError(f"negative probability for token {tok!r}")
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")


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


def profile(dataset_id: str, sentences: Sequence[Sequence[str]]) -> DatasetProfile:
    """Summarize a tokenized corpus. Raises EmptyCorpus on no sentences or zero tokens."""
    if not sentences:
        raise EmptyCorpus(f"{dataset_id}: no sentences")
    counts: Counter[str] = Counter()
    for sent in sentences:
        counts.update(sent)
    total = sum(counts.values())
    if total == 0:
        raise EmptyCorpus(f"{dataset_id}: zero tokens")
    return DatasetProfile(
        dataset_id=dataset_id,
        num_sentences=len(sentences),
        total_tokens=total,
        token_counts=dict(counts),
        vocab_size=len(counts),
        avg_sentence_length=total / len(sentences),
        ttr=len(counts) / total,
    )


def word_overlap(p1: DatasetProfile, p2: DatasetProfile) -> float:
    """|T1 n T2| / (|T1| + |T2|); in [0, 0.5], 0.5 iff vocabularies coincide."""
    t1 = p1.token_counts.keys()
    t2 = p2.token_counts.keys()
    return len(t1 & t2) / (len(t1) + len(t2))


def ttr_distance(ttr_train: float, ttr_test: float) -> float:
    """(1 - ttr_train/ttr_test)^2. Asymmetric: numerator is the training TTR."""
    for v in (ttr_train, ttr_test):
        if not (0.0 < v <= 1.0):
            raise InvalidTTR(f"TTR {v} outside (0, 1]")
    return (1.0 - ttr_train / ttr_test) ** 2


def token_distribution(p: DatasetProfile) -> TokenDistribution:
    total = p.total_tokens
    return TokenDistribution({tok: c / total for tok, c in p.token_counts.items()})


def jsd(p: TokenDistribution, q: TokenDistribution) -> float:
    """Jensen-Shannon divergence, base 2, over the union vocabulary. Range [0, 1].

    Tokens absent from one distribution have probability 0 there and contribute
    0 to that side's KL term; the mixture M is strictly positive wherever
    either distribution is. The sum is clamped to [0, 1], since rounding can
    carry disjoint vocabularies to 1 + 2.2e-16.
    """
    # sorted union keeps the summation order symmetric in (p, q) and
    # independent of dict insertion order
    vocab = sorted(p.probs.keys() | q.probs.keys())
    kl_p = 0.0
    kl_q = 0.0
    for tok in vocab:
        pv = p.probs.get(tok, 0.0)
        qv = q.probs.get(tok, 0.0)
        m = 0.5 * (pv + qv)
        if pv > 0.0:
            kl_p += pv * math.log2(pv / m)
        if qv > 0.0:
            kl_q += qv * math.log2(qv / m)
    return min(1.0, max(0.0, 0.5 * (kl_p + kl_q)))


def tfidf_cosine(p1: DatasetProfile, p2: DatasetProfile) -> float:
    """Cosine of the two datasets' TF-IDF vectors.

    Each dataset is one document in a two-document collection over the union
    vocabulary; tf is the raw count and idf(t) = ln((1+N)/(1+df(t))) + 1 with
    N = 2 (smoothed, so shared terms keep nonzero weight).
    """
    vocab = sorted(p1.token_counts.keys() | p2.token_counts.keys())
    dot = 0.0
    norm1 = 0.0
    norm2 = 0.0
    for tok in vocab:
        c1 = p1.token_counts.get(tok, 0)
        c2 = p2.token_counts.get(tok, 0)
        df = (c1 > 0) + (c2 > 0)
        idf = math.log(3.0 / (1.0 + df)) + 1.0
        v1 = c1 * idf
        v2 = c2 * idf
        dot += v1 * v2
        norm1 += v1 * v1
        norm2 += v2 * v2
    if norm1 == 0.0 or norm2 == 0.0:
        raise ZeroVector("TF-IDF vector has zero norm")
    return dot / math.sqrt(norm1 * norm2)


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
    return DatasetFeatureBlock(
        train_size=train.num_sentences,
        vocab_size_train=train.vocab_size,
        avg_sentence_length_train=train.avg_sentence_length,
        word_overlap=word_overlap(train, test),
        ttr_train=train.ttr,
        ttr_test=test.ttr,
        ttr_distance=ttr_distance(train.ttr, test.ttr),
        jsd=jsd(token_distribution(train), token_distribution(test)),
        tfidf_cosine=tfidf_cosine(train, test),
        embedding_cosine=embedding_cosine(*embeddings) if embeddings is not None else None,
    )


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def read_corpus(path: str, mode: TokenizeMode = "unicode_words") -> list[list[str]]:
    """Read a UTF-8, one-sentence-per-line corpus file into token sequences."""
    with open(path, encoding="utf-8") as fh:
        return [tokenize(line.rstrip("\n"), mode) for line in fh]


def load_embeddings(path: str) -> dict[str, EmbeddingSet]:
    """Load one-JSON-object-per-line embedding records keyed by dataset_id."""
    out: dict[str, EmbeddingSet] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                emb = EmbeddingSet(
                    dataset_id=obj["dataset_id"],
                    dim=int(obj["dim"]),
                    mean_vector=tuple(float(v) for v in obj["mean_vector"]),
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ParseError(f"{path}:{lineno}: bad embedding record: {exc}") from exc
            out[emb.dataset_id] = emb
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


# The documented ranges of the bounded columns. jsd() can land 1e-15 past an
# end by rounding, so its check allows 1e-12.
_FEATURE_RANGES = {
    "word_overlap": ("[0, 0.5]", lambda v: 0.0 <= v <= 0.5),
    "ttr_train": ("(0, 1]", lambda v: 0.0 < v <= 1.0),
    "ttr_test": ("(0, 1]", lambda v: 0.0 < v <= 1.0),
    "jsd": ("[0, 1]", lambda v: -1e-12 <= v <= 1.0 + 1e-12),
}


def load_feature_csv(path: str) -> dict[tuple[str, str], DatasetFeatureBlock]:
    """Inverse of write_feature_csv, keyed by (train_dataset, test_dataset).

    Rejects a non-finite cell, a value outside its column's documented range
    and a repeated (train_dataset, test_dataset) key, naming file:line.
    """
    expected = ("train_dataset", "test_dataset") + DATASET_FEATURE_COLUMNS
    out: dict[tuple[str, str], DatasetFeatureBlock] = {}
    first_line: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != expected:
            raise ParseError(f"{path}: unexpected feature CSV header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise ParseError(f"{path}:{lineno}: expected {len(expected)} cells, got {len(row)}")
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
