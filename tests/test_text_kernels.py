"""Arrow text kernels of stages/llmdata.py against per-row references.

``redact_pii`` is checked against DuckDB's chained
``regexp_replace(..., 'g')`` (the SQL oracle's engine, RE2) and against
its ordered count-and-replace chain run on every row;
``gopher_stats``, the ``word_counts`` partials and ``VocabEncoder`` are
checked against small pure-Python per-row references on edge batches:
zero rows, null and empty text, stray spaces and tabs, symbol and dot
runs, non-ASCII words, multi-chunk columns, words shared by many
documents of a batch and batches of distinct words only.
"""

import collections
import re

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from opentelemetry_collector_contrib_ray.stages.llmdata import (
    PII_PATTERNS,
    VocabEncoder,
    gopher_stats,
    redact_pii,
    word_counts,
)

EDGE_TEXTS = [
    "",
    None,
    " leading space",
    "trailing space ",
    "double  space  here",
    "   ",
    "tab\tinside word\t",
    "....",
    "......",
    "a... ...b",
    "######",
    "# ## ### #",
    "a... b... c ...",
    "héllo wörld ünïcode façade naïve",
    "日本 語 テキスト 日本",
    "the cat sat on the mat and the dog sat too",
    "Alpha beta gamma delta epsilon zeta eta theta",
]


# one batch-wide word dictionary serves every document: words shared by
# many documents, and a batch whose words are all distinct
SHARED_TEXTS = ["the cat the", "the", "the the the the", "cat ... the #", "dog the cat"] * 8
DISTINCT_TEXTS = [" ".join(f"w{d}x{j}" for j in range(d % 7 + 1)) for d in range(60)]


def _batches():
    """Each edge case as its own one-document batch, all of them in one
    batch, a zero-row batch, an all-null batch (typed and untyped), a
    column split over three chunks, a batch of words shared across its
    documents and a batch of distinct words."""
    out = [pa.table({"text": pa.array([t], pa.string())}) for t in EDGE_TEXTS]
    out.append(pa.table({"text": pa.array(EDGE_TEXTS, pa.string())}))
    out.append(pa.table({"text": pa.array([], pa.string())}))
    out.append(pa.table({"text": pa.array([None, None], pa.string())}))
    out.append(pa.table({"text": pa.array([None, None])}))
    out.append(
        pa.table(
            {"text": pa.chunked_array([EDGE_TEXTS[:5], EDGE_TEXTS[5:6], EDGE_TEXTS[6:]], pa.string())}
        )
    )
    out.append(pa.table({"text": pa.array(SHARED_TEXTS, pa.string())}))
    out.append(pa.table({"text": pa.array(DISTINCT_TEXTS, pa.string())}))
    return out


def _texts(batch):
    return [t or "" for t in batch["text"].to_pylist()]


def _gopher_ref(text):
    words = text.split(" ")
    nz = max(len(words), 1)
    dup = 1.0 - len(set(words)) / nz
    alpha = sum(bool(re.search("[A-Za-z]", w)) for w in words) / nz
    mean_len = (len(text) - (len(words) - 1)) / nz
    sym = (text.count("#") + text.count("...")) / nz
    passes = len(words) >= 5 and 3.0 <= mean_len <= 10.0 and dup < 0.5 and alpha > 0.8 and sym < 0.1
    return dup, alpha, sym, passes


@pytest.mark.parametrize("batch", _batches())
def test_gopher_stats_matches_per_row_reference(batch):
    out = gopher_stats(batch)
    got = list(
        zip(
            out["dup_word_frac"].to_pylist(),
            out["alpha_word_frac"].to_pylist(),
            out["symbol_word_ratio"].to_pylist(),
            out["passes_gopher"].to_pylist(),
        )
    )
    assert got == [_gopher_ref(t) for t in _texts(batch)]


@pytest.mark.parametrize("texts", [EDGE_TEXTS, SHARED_TEXTS, DISTINCT_TEXTS])
def test_gopher_stats_invariant_to_batch_cuts(texts):
    # the word dictionary is per batch: the statistics of a document do
    # not depend on which other documents share its batch
    batch = pa.table({"text": pa.array(texts, pa.string())})
    whole = gopher_stats(batch)
    for step in (1, 3, 7):
        parts = [gopher_stats(batch.slice(lo, step)) for lo in range(0, len(texts), step)]
        assert pa.concat_tables(parts).equals(whole)


@pytest.mark.parametrize("batch", _batches())
def test_word_count_partials_match_counter(batch):
    out = word_counts(batch)
    assert out.schema == pa.schema([("word", pa.string()), ("c", pa.int64())])
    want = collections.Counter(w for t in _texts(batch) for w in t.split(" ") if w)
    assert dict(zip(out["word"].to_pylist(), out["c"].to_pylist())) == want


@pytest.mark.parametrize(
    "vocab",
    [
        ["the", "sat", "日本", "façade", "....", "######", "tab\tinside", "Alpha"],
        [],  # empty vocabulary: every word is OOV
        ["not-in-any-text"],  # all-OOV batch
    ],
)
@pytest.mark.parametrize("batch", _batches())
def test_vocab_encoder_matches_per_row_reference(batch, vocab):
    out = VocabEncoder(vocab)(batch)
    oov = len(vocab)
    want = [[vocab.index(w) if w in vocab else oov for w in t.split(" ") if w] for t in _texts(batch)]
    assert out["tokens"].type == pa.list_(pa.int32())
    assert out["tokens"].to_pylist() == want
    assert out["n_tok"].to_pylist() == [len(w) for w in want]
    assert out["n_oov"].to_pylist() == [sum(i == oov for i in w) for w in want]


PII_TEXTS = [
    "mail a.b-c@example.co.uk or x@y.io now",
    "ip 10.0.0.1 and 999.999.999.999 and 1.2.3.4.5",
    "call +123-456-7890 or 555.123.4567",
    "email 1.2.3.4@host.com wins over ip",
    # Arabic-Indic digits are not RE2's \d: both texts stay as they are
    "٣٣٣.٣.٣.٣",
    "٥٥٥-١٢٣-٤٥٦٧",
    # RE2's \b is ASCII: é next to a digit is a word boundary
    "é1.2.3.4",
    "x1.2.3.4",
    "",
    None,
]


# every document matches every pattern, none does, and a column of
# mixed rows split over three chunks
PII_ALL = [f"a{i}@x.org at 10.0.{i}.1 call +123-456-{i:04d} and b{i}@y.io" for i in range(12)]
PII_NONE = ["no contact here", "", None, "1.2.3 is a version", "at@ sign alone", "555-1234"]


def _redact_matches_duckdb(text) -> pa.Table:
    batch = pa.table({"text": text})
    out = redact_pii(batch)
    # each count runs on the text the earlier patterns already redacted
    steps = ["coalesce(text, '')"]
    for _, pattern, repl in PII_PATTERNS:
        steps.append(f"regexp_replace({steps[-1]}, '{pattern}', '{repl}', 'g')")
    cols = ", ".join(
        f"len(regexp_extract_all({steps[i]}, '{p}'))" for i, (_, p, _) in enumerate(PII_PATTERNS)
    )
    con = duckdb.connect()
    con.register("docs", batch)
    rows = con.execute(f"SELECT {steps[-1]}, {cols} FROM docs").fetchall()
    assert out["redacted"].to_pylist() == [r[0] for r in rows]
    for i, (kind, _, _) in enumerate(PII_PATTERNS):
        assert out[f"n_{kind}"].to_pylist() == [r[1 + i] for r in rows], kind
    return out


def test_redact_pii_matches_duckdb_regexp_replace():
    out = _redact_matches_duckdb(pa.array(PII_TEXTS, pa.string()))
    assert out["redacted"].to_pylist()[4:6] == PII_TEXTS[4:6]


def test_redact_pii_every_row_matches():
    out = _redact_matches_duckdb(pa.array(PII_ALL, pa.string()))
    for kind, n in (("email", 2), ("ip", 1), ("phone", 1)):
        assert out[f"n_{kind}"].to_pylist() == [n] * len(PII_ALL), kind


def test_redact_pii_no_row_matches():
    out = _redact_matches_duckdb(pa.array(PII_NONE, pa.string()))
    assert out["redacted"].to_pylist() == [t or "" for t in PII_NONE]
    assert sum(sum(out[f"n_{k}"].to_pylist()) for k, _, _ in PII_PATTERNS) == 0


def test_redact_pii_multi_chunk_column():
    _redact_matches_duckdb(pa.chunked_array([PII_TEXTS[:3], PII_TEXTS[3:4], PII_TEXTS[4:]], pa.string()))


# repeated emails, two and three kinds of PII in one row, rows with none
PII_MIXED = [
    "a@b.com and a@b.com again a@b.com",
    "mail c@d.io from 10.1.2.3",
    "10.0.0.1 then +123-456-7890",
    "none here",
    "",
    None,
    "x@y.org 1.2.3.4 555.123.4567 x@y.org",
]


def _sequential_chain(batch: pa.Table) -> pa.Table:
    """Every pattern counted and replaced on every row, in order, on the
    text the earlier patterns left."""
    s = pc.fill_null(batch["text"], "")
    for kind, pattern, repl in PII_PATTERNS:
        batch = batch.append_column(f"n_{kind}", pc.count_substring_regex(s, pattern).cast(pa.int64()))
        s = pc.replace_substring_regex(s, pattern, repl)
    return batch.append_column("redacted", s)


@pytest.mark.parametrize(
    "texts, n_pii", [(PII_MIXED, 11), (PII_MIXED[3:6], 0), ([], 0)], ids=["mixed", "no_match", "empty"]
)
def test_redact_pii_matches_the_sequential_chain(texts, n_pii):
    batch = pa.table({"text": pa.array(texts, pa.string())})
    out = redact_pii(batch)
    assert out.equals(_sequential_chain(batch))
    assert sum(sum(out[f"n_{k}"].to_pylist()) for k, _, _ in PII_PATTERNS) == n_pii
