"""Shared fixtures: synthetic record sets with controllable signal structure."""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from perfcast.corpus import DatasetFeatureBlock
from perfcast.errors import ParseError
from perfcast.langdist import DISTANCE_KINDS, LanguageDistanceTable
from perfcast.records import PerformanceRecord
from perfcast.regressors import load_model, save_model

LANGS = ("aar", "bel", "ces", "dan", "ewe", "fij", "gla", "hau")


def make_language_table(languages, seed=0, include_eng=True) -> LanguageDistanceTable:
    rng = np.random.default_rng(seed)
    entries = {}
    pool = list(languages) + (["eng"] if include_eng else [])
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            for kind in DISTANCE_KINDS:
                v = float(rng.uniform(0, 1))
                entries[(a, b, kind)] = v
                entries[(b, a, kind)] = v
    return LanguageDistanceTable(entries=entries)


def make_feature_block(rng, jsd_value=None, embedding=None) -> DatasetFeatureBlock:
    ttr_train = float(rng.uniform(0.05, 0.95))
    ttr_test = float(rng.uniform(0.05, 0.95))
    return DatasetFeatureBlock(
        train_size=int(rng.integers(100, 100000)),
        vocab_size_train=int(rng.integers(50, 5000)),
        avg_sentence_length_train=float(rng.uniform(5, 40)),
        word_overlap=float(rng.uniform(0, 0.5)),
        ttr_train=ttr_train,
        ttr_test=ttr_test,
        ttr_distance=(1 - ttr_train / ttr_test) ** 2,
        jsd=float(rng.uniform(0, 1)) if jsd_value is None else float(jsd_value),
        tfidf_cosine=float(rng.uniform(0, 1)),
        embedding_cosine=embedding,
    )


def synthetic_setup(
    n_records: int,
    seed: int = 0,
    languages=LANGS[:5],
    proxy_coef: float = 2.0,
    dataset_coef: float = 5.0,
    noise: float = 1.0,
    intercept: float = 1.0,
    n_proxies: int = 1,
):
    """English-centric MT records with score = a * proxy + b * jsd + intercept + noise.

    Returns (records, dataset_feature_blocks, language_table). Each record has
    its own (train, test) dataset pair so the jsd feature varies per record.
    """
    rng = np.random.default_rng(seed)
    table = make_language_table(languages, seed=seed + 1)
    records = []
    blocks = {}
    for i in range(n_records):
        lang = languages[i % len(languages)]
        pair = (f"tr{i}", f"te{i}")
        jsd_value = float(rng.uniform(0, 1))
        blocks[pair] = make_feature_block(rng, jsd_value=jsd_value)
        proxies = {f"p{j}": float(rng.uniform(0, 10)) for j in range(n_proxies)}
        score = (
            proxy_coef * proxies["p0"]
            + dataset_coef * jsd_value
            + intercept
            + noise * float(rng.normal())
        )
        records.append(
            PerformanceRecord(
                record_id=f"r{i:04d}",
                task="mt",
                estimated_model="big-model",
                train_dataset=pair[0],
                test_dataset=pair[1],
                src_lang="eng",
                tgt_lang=lang,
                metric_name="synthetic",
                score=score,
                proxy_scores=proxies,
                seen_by_estimated_model=bool(rng.uniform() < 0.8),
                corpus_group="english_centric",
                joshi_class=int(rng.integers(0, 6)),
            )
        )
    return records, blocks, table


def assert_round_trip(model, predict) -> None:
    """save -> load -> predict is bit-identical, and save -> load -> save is byte-identical."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        save_model(model, str(first))
        loaded = load_model(str(first))
        assert predict(loaded).tobytes() == predict(model).tobytes()
        save_model(loaded, str(second))
        assert second.read_bytes() == first.read_bytes()


def rejects_model_file(path: Path, obj, match: str) -> None:
    """Write obj as the model file at path and check that loading it names the file."""
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=match) as exc:
        load_model(str(path))
    assert str(path) in str(exc.value)
