"""Seeded input generators for the perfcast benchmark.

The generators live here, not in the test suite, so that editing a test can
never change a workload. Each takes a seed and returns the same inputs for the
same seed. They build inputs only through perfcast's public record, feature
and distance-table types, or write files in the documented formats with the
standard library, so the program under test sees nothing but the inputs.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from perfcast.corpus import DatasetFeatureBlock
from perfcast.langdist import DISTANCE_KINDS, LanguageDistanceTable
from perfcast.records import PerformanceRecord

LANGUAGES = ("aar", "bel", "ces", "dan", "ewe", "fij", "gla", "hau", "ibo", "jav")

_RECORD_COLUMNS = (
    "record_id", "task", "estimated_model", "train_dataset", "test_dataset",
    "src_lang", "tgt_lang", "metric_name", "score", "seen_by_estimated_model",
    "corpus_group", "joshi_class",
)


def language_table(rng: np.random.Generator, languages) -> LanguageDistanceTable:
    """Uniform random distances of every kind between every pair of languages."""
    entries = {}
    for i, a in enumerate(languages):
        for b in languages[i + 1:]:
            for kind in DISTANCE_KINDS:
                value = float(rng.uniform(0.0, 1.0))
                entries[(a, b, kind)] = value
                entries[(b, a, kind)] = value
    return LanguageDistanceTable(entries=entries)


def feature_block(rng: np.random.Generator) -> DatasetFeatureBlock:
    """One plausible pairwise dataset-feature block; embedding cosine stays missing."""
    ttr_train = float(rng.uniform(0.05, 0.95))
    ttr_test = float(rng.uniform(0.05, 0.95))
    return DatasetFeatureBlock(
        train_size=int(rng.integers(1000, 200000)),
        vocab_size_train=int(rng.integers(500, 50000)),
        avg_sentence_length_train=float(rng.uniform(8.0, 35.0)),
        word_overlap=float(rng.uniform(0.05, 0.5)),
        ttr_train=ttr_train,
        ttr_test=ttr_test,
        ttr_distance=(1.0 - ttr_train / ttr_test) ** 2,
        jsd=float(rng.uniform(0.0, 1.0)),
        tfidf_cosine=float(rng.uniform(0.0, 1.0)),
        embedding_cosine=None,
    )


def _proxies(rng: np.random.Generator, quality: float, missing: float) -> dict[str, float | None]:
    """Two proxy models that track the latent quality; each cell is missing with probability `missing`."""
    values = {
        "small": quality * 0.6 + float(rng.normal(0.0, 2.0)),
        "medium": quality * 0.8 + float(rng.normal(0.0, 1.5)),
    }
    return {k: (None if rng.uniform() < missing else round(v, 6)) for k, v in values.items()}


def _clip_score(value: float) -> float:
    return round(min(max(value, 0.0), 100.0), 6)


def english_centric(seed: int, n_records: int, n_languages: int, missing: float = 0.15):
    """English-centric MT records (eng -> X) with their feature blocks and distance table.

    Every record has its own (train, test) dataset pair. The score mixes a
    latent quality seen noisily through two proxies, the pair's JSD and the
    target language's genetic distance to English, plus noise.
    """
    rng = np.random.default_rng(seed)
    languages = LANGUAGES[:n_languages]
    table = language_table(rng, ("eng",) + languages)
    lang_effect = {lang: -5.0 * table.lookup("eng", lang, "genetic") for lang in languages}
    records, blocks = [], {}
    for i in range(n_records):
        lang = languages[i % n_languages]
        pair = (f"train-{i:04d}", f"test-{i:04d}")
        block = feature_block(rng)
        blocks[pair] = block
        quality = float(rng.uniform(10.0, 60.0))
        score = quality + lang_effect[lang] - 12.0 * block.jsd + 20.0 + float(rng.normal(0.0, 2.0))
        records.append(PerformanceRecord(
            record_id=f"en{i:04d}", task="mt", estimated_model="large",
            train_dataset=pair[0], test_dataset=pair[1], src_lang="eng", tgt_lang=lang,
            metric_name="spbleu", score=_clip_score(score),
            proxy_scores=_proxies(rng, quality, missing),
            seen_by_estimated_model=bool(rng.uniform() < 0.8),
            corpus_group="english_centric", joshi_class=int(rng.integers(0, 6)),
        ))
    return records, blocks, table


def many_to_many(seed: int, n_languages: int, n_datasets: int, latent_dim: int = 2):
    """Dense grid: every ordered pair of distinct languages on every dataset.

    Scores follow a low-rank language x language interaction plus per-language
    effects, a dataset effect and the proxies, which is the regime matrix
    factorization is designed for. The language terms are nearly symmetric in
    source and target, because the typological distances every other
    regressor sees are symmetric; a small directional bias remains.
    """
    rng = np.random.default_rng(seed)
    languages = LANGUAGES[:n_languages]
    table = language_table(rng, languages)
    effect = {lang: float(rng.normal(0.0, 5.0)) for lang in languages}
    src_bias = {lang: float(rng.normal(0.0, 1.0)) for lang in languages}
    factors = {lang: rng.normal(0.0, 2.0, latent_dim) for lang in languages}
    blocks = {}
    for d in range(n_datasets):
        blocks[(f"ds{d}", f"ds{d}-test")] = feature_block(rng)
    records = []
    for (train_ds, test_ds), block in blocks.items():
        for src in languages:
            for tgt in languages:
                if src == tgt:
                    continue
                quality = float(rng.uniform(10.0, 40.0))
                score = (
                    25.0 + quality + effect[src] + effect[tgt] + src_bias[src]
                    + float(factors[src] @ factors[tgt]) - 8.0 * block.jsd
                    + float(rng.normal(0.0, 1.5))
                )
                records.append(PerformanceRecord(
                    record_id=f"mm{len(records):04d}", task="mt", estimated_model="large",
                    train_dataset=train_ds, test_dataset=test_ds, src_lang=src, tgt_lang=tgt,
                    metric_name="spbleu", score=_clip_score(score),
                    proxy_scores=_proxies(rng, quality, 0.0),
                    seen_by_estimated_model=True,
                    corpus_group="many_to_many", joshi_class=int(rng.integers(0, 6)),
                ))
    return records, blocks, table


# ---------------------------------------------------------------------------
# Files for the CLI pipeline
# ---------------------------------------------------------------------------

_SYLLABLES = ("ka", "lo", "mi", "ne", "su", "ta", "ri", "vo", "zu", "pe", "da", "gi", "ho", "ye")
_PUNCT = (",", ".", ";", "!", "?", ":")


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(1, 4))
        words.add("".join(_SYLLABLES[int(j)] for j in rng.integers(0, len(_SYLLABLES), n)))
    return sorted(words)


def _zipf_corpus(rng: np.random.Generator, vocab: list[str], shift: int, exponent: float,
                 n_sentences: int) -> list[str]:
    """Sentences drawn from a Zipf law over a rotated vocabulary, with casing and punctuation."""
    cdf = np.cumsum(np.arange(1, len(vocab) + 1, dtype=np.float64) ** -exponent)
    cdf /= cdf[-1]
    rotated = vocab[shift:] + vocab[:shift]
    lines = []
    for _ in range(n_sentences):
        length = int(rng.integers(4, 25))
        ranks = np.minimum(np.searchsorted(cdf, rng.random(length), side="right"), len(vocab) - 1)
        words = [rotated[int(j)] for j in ranks]
        words[0] = words[0].capitalize()
        if rng.uniform() < 0.3:
            k = int(rng.integers(1, length))
            words[k] += _PUNCT[int(rng.integers(0, len(_PUNCT)))]
        lines.append(" ".join(words) + ".")
    return lines


def _write_records_csv(path: str, rows: list[tuple], proxy_ids: tuple[str, ...]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_COLUMNS + tuple(f"proxy:{p}" for p in proxy_ids))
        writer.writerows(rows)


def cli_inputs(seed: int, out_dir: str, n_datasets: int, n_sentences: int, n_records: int,
               n_heldout: int, n_candidates: int, n_languages: int) -> dict:
    """Write Zipfian corpora, distances, families and record files that reference the corpus pairs.

    The record files are "records" to train on, "heldout" records to test an
    experiment on, and "candidates" to score with a trained model.

    Each dataset's corpus rotates a shared vocabulary by its own offset, so
    pairs that are further apart diverge more; scores fall with that offset
    gap. Returns {"corpora": {dataset: path}, "pairs": [(train, test)], and
    the paths of "distances", "families" and the three record files}.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    vocab = _vocabulary(rng, 1500)
    datasets = [f"corpus{d}" for d in range(n_datasets)]
    shifts = {ds: int(s) for ds, s in zip(datasets, rng.choice(400, n_datasets, replace=False))}
    paths: dict = {"corpora": {}}
    for ds in datasets:
        lines = _zipf_corpus(rng, vocab, shifts[ds], float(rng.uniform(1.0, 1.3)), n_sentences)
        path = os.path.join(out_dir, f"{ds}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths["corpora"][ds] = path
    pairs = [(a, b) for a in datasets for b in datasets if a != b]

    languages = LANGUAGES[:n_languages]
    table = language_table(rng, ("eng",) + languages)
    paths["distances"] = os.path.join(out_dir, "distances.csv")
    with open(paths["distances"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("lang_a", "lang_b", "kind", "distance"))
        for (a, b, kind), value in sorted(table.entries.items()):
            if a < b:
                writer.writerow((a, b, kind, repr(value)))
    paths["families"] = os.path.join(out_dir, "families.csv")
    with open(paths["families"], "w", encoding="utf-8") as fh:
        fh.write("lang,family\n" + "".join(f"{lang},family{i % 3}\n" for i, lang in enumerate(languages)))

    def rows(prefix: str, n: int) -> list[tuple]:
        out = []
        for i in range(n):
            lang = languages[i % n_languages]
            train_ds, test_ds = pairs[int(rng.integers(0, len(pairs)))]
            quality = float(rng.uniform(10.0, 60.0))
            gap = abs(shifts[train_ds] - shifts[test_ds]) / 400.0
            score = (quality + 20.0 - 15.0 * gap - 10.0 * table.lookup("eng", lang, "genetic")
                     + float(rng.normal(0.0, 2.0)))
            proxies = _proxies(rng, quality, 0.1)
            out.append((
                f"{prefix}{i:05d}", "mt", "large", train_ds, test_ds, "eng", lang, "spbleu",
                repr(_clip_score(score)), "true" if rng.uniform() < 0.8 else "false",
                "english_centric", str(int(rng.integers(0, 6))),
                *("" if proxies[p] is None else repr(proxies[p]) for p in ("medium", "small")),
            ))
        return out

    for role, n in (("records", n_records), ("heldout", n_heldout), ("candidates", n_candidates)):
        paths[role] = os.path.join(out_dir, f"{role}.csv")
        _write_records_csv(paths[role], rows(role[:4], n), ("medium", "small"))
    paths["pairs"] = pairs
    return paths
