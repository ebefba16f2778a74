"""Text-analysis operators: language-ID, quality scoring, token
counting, document fingerprinting.

Engine additions for training-data pipelines (no reference analogue;
SURVEY.md build mandate). All are vectorized map_batches stages over
the ``documents`` table schema (doc_id, text, lang, source,
n_chars); ``LangId`` is passed as a callable instance, which runs in
the task pool.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def token_count(batch: pa.Table) -> pa.Table:
    """Whitespace token count ``n_words``, vectorized: count of
    single-space splits (matches DuckDB len(string_split(text,' ')))."""
    spaces = pc.count_substring(batch["text"], pattern=" ")
    n = pc.add(spaces, 1)
    return batch.append_column("n_words", pc.cast(n, pa.int64()))


_STOPWORDS = {"the", "a", "of", "to", "and", "in", "is", "on", "for", "with"}


def quality_score(batch: pa.Table) -> pa.Table:
    """Heuristic quality features: word count, mean word length,
    stopword ratio, punctuation ratio. Vectorized pandas str kernels."""
    s = pd.Series(batch["text"].to_numpy(zero_copy_only=False), dtype=object).fillna("")
    words = s.str.split(" ")
    n_words = words.str.len().astype(np.int64)
    n_chars = s.str.len().astype(np.int64)
    mean_word_len = ((n_chars - (n_words - 1)) / n_words.clip(lower=1)).astype(np.float64)
    stop = words.map(lambda ws: sum(w in _STOPWORDS for w in ws))
    stop_ratio = (stop / n_words.clip(lower=1)).astype(np.float64)
    punct = s.str.count(r"[^\w\s]").astype(np.int64)
    punct_ratio = (punct / n_chars.clip(lower=1)).astype(np.float64)
    for name, col in [
        ("n_words", n_words),
        ("mean_word_len", mean_word_len),
        ("stop_ratio", stop_ratio),
        ("punct_ratio", punct_ratio),
    ]:
        batch = batch.append_column(name, pa.array(col.to_numpy()))
    return batch


class LangId:
    """Character-n-gram language heuristic over {en,de,fr,es,zh}.

    Deterministic scoring into ``lang_pred``: presence counts of
    language-marker character sequences + CJK codepoint ratio.
    Callable instance: the caller passes ``LangId()`` to
    ``map_batches``, so the marker regexes compiled in ``__init__``
    are serialized once with the operator and run in task-pool
    tasks. (A real model would load fastText here — same stage
    shape.)"""

    MARKERS = {
        "en": [" the ", " and ", " of ", " is ", " to "],
        "de": [" der ", " und ", " die ", " ist ", " das ", " ein "],
        "fr": [" le ", " la ", " et ", " les ", " des ", " une "],
        "es": [" el ", " los ", " que ", " una ", " y ", " las "],
    }

    def __init__(self):
        self.compiled = {
            lang: re.compile("|".join(re.escape(m) for m in ms))
            for lang, ms in self.MARKERS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = pd.Series(batch["text"].to_numpy(zero_copy_only=False), dtype=object).fillna("")
        padded = (" " + s + " ").str.lower()
        scores = pd.DataFrame(
            {lang: padded.str.count(rx) for lang, rx in self.compiled.items()}
        )
        cjk = s.str.count(r"[一-鿿]")
        n = s.str.len().clip(lower=1)
        scores["zh"] = (cjk / n * 10.0).where(cjk > 0, 0.0)
        pred = scores.idxmax(axis=1).where(scores.max(axis=1) > 0, "und")
        return batch.append_column("lang_pred", pa.array(pred.to_numpy(dtype=object), pa.string()))


def fingerprint_md5(batch: pa.Table) -> pa.Table:
    """Deterministic document ``fingerprint``: hex MD5 of UTF-8 text
    (oracle-comparable with DuckDB md5())."""
    texts = batch["text"].to_pylist()
    fp = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
    return batch.append_column("fingerprint", pa.array(fp, pa.string()))


def rolling_fingerprint(batch: pa.Table) -> pa.Table:
    """Rolling polynomial hash fingerprint ``rhash``: min of 32-byte
    window hashes —
    robust to small edits (winnowing-style). One strided pass over the
    batch's concatenated bytes (the shingle kernel), per-doc minima via
    ``minimum.reduceat`` — no per-document Python."""
    from ..stages.dedup import _cumsum0, _shingle_hashes_flat

    if len(batch) == 0:
        return batch.append_column("rhash", pa.array([], pa.int64()))
    flat, counts = _shingle_hashes_flat(batch["text"], 32)
    res = np.minimum.reduceat(flat, _cumsum0(counts)[:-1])
    return batch.append_column("rhash", pa.array(res.astype(np.int64)))
