import hashlib

import pyarrow as pa

from opentelemetry_collector_contrib_ray.stages.textstats import (
    LangId,
    fingerprint_md5,
    quality_score,
    token_count,
)


def test_token_count():
    t = pa.table({"text": ["a b c", "single", "x y"]})
    out = token_count(t)
    assert out["n_words"].to_pylist() == [3, 1, 2]


def test_quality_score():
    t = pa.table({"text": ["the cat sat"]})
    out = quality_score(t).to_pylist()[0]
    assert out["n_words"] == 3
    assert abs(out["mean_word_len"] - 3.0) < 1e-9
    assert abs(out["stop_ratio"] - 1 / 3) < 1e-9


def test_langid():
    t = pa.table(
        {
            "text": [
                "the cat is on the mat and the dog is here",
                "der Hund und die Katze ist ein Tier",
                "le chat et la souris sont dans les champs",
                "el perro y los gatos que viven en una casa",
                "这是一个中文句子关于数据处理",
            ]
        }
    )
    out = LangId()(t)
    assert out["lang_pred"].to_pylist() == ["en", "de", "fr", "es", "zh"]


def test_fingerprint_matches_hashlib():
    t = pa.table({"text": ["abc"]})
    out = fingerprint_md5(t)
    assert out["fingerprint"].to_pylist() == [hashlib.md5(b"abc").hexdigest()]
