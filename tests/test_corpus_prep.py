"""End-to-end corpus-preparation pipeline (pipelines/corpus_prep.py).

Covers the composition semantics the individual stage tests can't:
stage ordering (vocab built AFTER dedup, tokens from REDACTED text),
the injected-artifact survivors (exact dup, near dup, contaminated,
low-quality), deterministic splits, chunk math over the final corpus,
resume-by-marker, and broadcast≡joined anti-filter equivalence.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from opentelemetry_collector_contrib_ray.pipelines.corpus_prep import (
    PrepConfig,
    PrepResult,
    _anti_filter_ids,
    prepare_corpus,
)
from opentelemetry_collector_contrib_ray.stages.llmdata import split_hash


def _mk_docs(n=400):
    """Deterministic corpus with injected artifacts:

    * id % 17 == 0 → low quality (single repeated word → Gopher fail)
    * id % 23 == 0 (and not low-quality) → exact copy of doc id-23's
      text appended later via same text as base id (see below)
    * every doc carries an email so PII redaction is observable
    """
    rows = []
    for i in range(n):
        if i % 17 == 0:
            text = " ".join(["spam"] * 30)  # dup_word_frac ≈ 1 → fails
        else:
            base = i
            if i % 23 == 0 and i >= 23:
                # exact copy of a NEIGHBOR's real text (skip spam docs;
                # neighbors are never %23 themselves, so their text is
                # their own formula → a genuine duplicate pair)
                base = i - 1 if (i - 1) % 17 != 0 else i - 2
            words = [f"w{(base * 7 + j) % 97}" for j in range(40)]
            text = "Doc %d starts. " % base + " ".join(words) + " contact a@b.co end."
        rows.append(
            {"doc_id": i, "text": text, "lang": "en", "source": f"src{i % 3}"}
        )
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def docs_ds():
    import ray.data

    return ray.data.from_pandas(_mk_docs()).map_batches(
        lambda t: t, batch_format="pyarrow"
    )


def test_full_prep_composition(docs_ds):
    cfg = PrepConfig(
        quality=True,
        pii=True,
        exact_dedup=True,
        split=True,
        vocab_size=60,
        seq_len=32,
        pack=True,
    )
    res = prepare_corpus(docs_ds, cfg)
    assert isinstance(res, PrepResult)
    docs = res.documents.to_pandas().sort_values("doc_id").reset_index(drop=True)

    # quality gate removed every id % 17 doc
    assert not set(docs.doc_id) & {i for i in range(400) if i % 17 == 0}
    # exact dedup: first-owner-wins per text group (injected copies at
    # id % 23 == 0 copy id-23's text) — derive survivors from the data
    raw = _mk_docs()
    ok = raw[~raw.doc_id.isin({i for i in range(400) if i % 17 == 0})]
    first_owner = ok.groupby("text")["doc_id"].min()
    expected_survivors = set(first_owner.to_numpy())
    assert set(docs.doc_id) == expected_survivors

    # PII is gone from every surviving text
    assert not docs.text.str.contains("a@b.co").any()
    assert docs.text.str.contains("<EMAIL>").all()

    # split assignment matches the closed form
    r = split_hash(docs.doc_id.to_numpy()) % 10_000
    exp = np.where(r < 500, "test", np.where(r < 1000, "valid", "train"))
    assert (docs.split.to_numpy() == exp).all()

    # tokens: every token id < vocab_size+1, n_tok == word count of text
    n_words = docs.text.str.count(r"[^ ]+").to_numpy()
    assert (docs.n_tok.to_numpy() == n_words).all()
    assert res.vocab is not None and len(res.vocab) == 60

    # pack math per (source, split): chunks = ceil(sum n_tok / 32)
    packed = res.packed.to_pandas()
    got = packed.groupby("pack_group").agg(
        n_chunks=("chunk_id", "count"), s=("chunk_len", "sum")
    )
    exp_tok = docs.assign(
        pg=docs.source + "\x1f" + docs.split
    ).groupby("pg")["n_tok"].sum()
    for pg, s in exp_tok.items():
        assert got.loc[pg, "s"] == s
        assert got.loc[pg, "n_chunks"] == -(-s // 32)
    # chunk token arrays concatenate back to the per-group stream
    one = packed[packed.pack_group == exp_tok.index[0]].sort_values("chunk_id")
    flat = np.concatenate([np.asarray(t) for t in one.tokens])
    sub = docs[(docs.source + "\x1f" + docs.split) == exp_tok.index[0]].sort_values(
        "doc_id"
    )
    ref = np.concatenate([np.asarray(t) for t in sub.tokens])
    assert (flat == ref).all()


def test_near_dedup_and_decontaminate(docs_ds):
    from opentelemetry_collector_contrib_ray.stages.llmdata import build_eval_grams

    raw = _mk_docs()
    # eval set = an 8-word span of doc 5's text → doc 5 is contaminated
    span = " ".join(raw.loc[5, "text"].split(" ")[2:10])
    grams = build_eval_grams([span], n=8)

    import ray.data

    # inject a NEAR duplicate of doc 1 (one word changed) with a new id
    near = raw.loc[[1]].copy()
    near["doc_id"] = 9001
    near["text"] = near["text"].str.replace("starts.", "begins.", regex=False)
    ds = ray.data.from_pandas(pd.concat([raw, near], ignore_index=True))

    cfg = PrepConfig(
        quality=False,
        pii=False,
        exact_dedup=False,
        near_dedup=True,
        near_threshold=0.5,
        decontaminate_grams=grams,
        split=False,
        vocab_size=0,
        pack=False,
    )
    res = prepare_corpus(ds, cfg)
    ids = set(res.documents.to_pandas().doc_id)
    assert 9001 not in ids and 1 in ids  # near-dup dropped, min id kept
    assert 5 not in ids  # contaminated doc dropped
    assert res.stats["near_dropped"] >= 1


def test_line_dedup_stage(docs_ds):
    import ray.data

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "shared header\nbody zero",
                "shared header\nbody one",
                "unique only\nbody two",
            ],
            "source": ["s", "s", "s"],
        }
    )
    cfg = PrepConfig(
        quality=False, pii=False, exact_dedup=False, line_dedup=True,
        split=False, vocab_size=0, pack=False,
    )
    res = prepare_corpus(ray.data.from_pandas(df), cfg)
    out = res.documents.to_pandas().sort_values("doc_id")
    assert out.text.tolist() == [
        "shared header\nbody zero",  # owner keeps the line
        "body one",                   # non-owner loses it
        "unique only\nbody two",
    ]
    assert res.stats["dup_lines"] == 1


def test_anti_filter_broadcast_vs_joined(docs_ds):
    import ray.data

    df = _mk_docs(200)
    ds = ray.data.from_pandas(df)
    drop = np.array([3, 50, 77, 121], dtype=np.int64)
    a = _anti_filter_ids(ds, drop, "doc_id", broadcast_max=10**6)
    b = _anti_filter_ids(ds, drop, "doc_id", broadcast_max=1)  # force join
    pa_ = a.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pb = b.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert pa_.doc_id.tolist() == pb.doc_id.tolist()
    assert set(df.doc_id) - set(pa_.doc_id) == set(drop.tolist())
    # full row content survives the joined path too
    pd.testing.assert_frame_equal(pa_, pb[pa_.columns])


def test_write_and_resume(tmp_path, docs_ds):
    out = str(tmp_path / "prep_out")
    cfg = PrepConfig(vocab_size=40, seq_len=64)
    res1 = prepare_corpus(docs_ds, cfg, out_dir=out)
    import os

    assert os.path.exists(os.path.join(out, "_done.json"))
    # partitioned layout: one dir per split
    parts = os.listdir(os.path.join(out, "documents"))
    assert any(p.startswith("split=") for p in parts)
    n1 = res1.documents.count()

    res2 = prepare_corpus(docs_ds, cfg, out_dir=out)  # resume: skips work
    assert res2.stats.get("resumed") is True
    assert res2.documents.count() == n1
    assert res2.vocab is not None and len(res2.vocab) == len(res1.vocab)
    assert res2.packed is not None
    assert res2.packed.count() == res1.packed.count()


def test_rerun_after_crash_does_not_double_artifacts(tmp_path, docs_ds):
    # a run that died AFTER writing documents/packed but BEFORE the
    # _done marker leaves partial files; the rerun must replace them
    # (Ray parquet filenames are per-execution — naive re-write doubles
    # every row) while SKIPPING already-final shard files
    import os

    out = str(tmp_path / "prep_crash")
    cfg = PrepConfig(vocab_size=40, seq_len=32, shard_shuffle=True, n_shards=4)
    res1 = prepare_corpus(docs_ds, cfg, out_dir=out)
    n_docs, n_packed = res1.documents.count(), res1.packed.count()
    assert not res1.shards["skipped"].any()

    os.remove(os.path.join(out, "_done.json"))  # simulate dying pre-marker
    res2 = prepare_corpus(docs_ds, cfg, out_dir=out)
    assert res2.stats.get("resumed") is None
    # the doubling would land ON DISK (a second execution's files next
    # to the first's), so count the written parquet, not the Dataset
    import pyarrow.dataset as pads

    assert pads.dataset(os.path.join(out, "documents")).count_rows() == n_docs
    assert pads.dataset(os.path.join(out, "packed")).count_rows() == n_packed
    assert res2.shards["skipped"].all()  # shard files survived and were skipped
    assert res2.shards["on_disk_rows"].tolist() == res2.shards["n_rows"].tolist()
    assert res2.shards.sort_values("shard")["n_rows"].tolist() == (
        res1.shards.sort_values("shard")["n_rows"].tolist()
    )


def test_foreign_artifacts_in_out_dir_survive(tmp_path, docs_ds):
    # documents/ and vocab.parquet that no prepare_corpus run stamped
    # with _started are someone else's data: the run must refuse to
    # delete them
    out = tmp_path / "prep_foreign"
    (out / "documents").mkdir(parents=True)
    foreign = out / "documents" / "part-0.parquet"
    foreign.write_bytes(b"not written by prepare_corpus")
    (out / "vocab.parquet").write_bytes(b"mine too")
    with pytest.raises(FileExistsError, match="_started"):
        prepare_corpus(docs_ds, PrepConfig(vocab_size=40, seq_len=64), out_dir=str(out))
    assert foreign.read_bytes() == b"not written by prepare_corpus"
    assert (out / "vocab.parquet").read_bytes() == b"mine too"
    assert not (out / "_started").exists()


def test_prepare_corpus_starts_no_actor_pool(docs_ds, monkeypatch):
    # every stage, the broadcast ones included, runs as tasks: no
    # map_batches call passes a class (an actor pool) or a concurrency
    import inspect

    import ray.data

    from opentelemetry_collector_contrib_ray.stages.llmdata import build_eval_grams

    calls = []
    orig = ray.data.Dataset.map_batches

    def spy(self, fn, *args, **kwargs):
        calls.append((fn, kwargs.get("concurrency"), kwargs.get("compute")))
        return orig(self, fn, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    cfg = PrepConfig(
        line_dedup=True, passage_dedup=True, passage_window=8,
        decontaminate_grams=build_eval_grams(["w1 w8 w15 w22 w29 w36 w43 w50"], n=8),
        vocab_size=40, seq_len=64,
    )
    res = prepare_corpus(docs_ds, cfg)
    assert res.packed.count() > 0
    assert {"VocabEncoder", "LineDeduper", "PassageDeduper", "NgramDecontaminator"} <= {
        type(fn).__name__ for fn, _, _ in calls
    }
    assert [c for c in calls if inspect.isclass(c[0]) or c[1] is not None or c[2] is not None] == []


def test_passage_dedup_removal(docs_ds):
    """ExactSubstr-style removal: a 6-word passage shared by docs 0/1/2
    is cut from non-owners; words outside the covered spans survive."""
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.llmdata import (
        PassageDeduper,
        duplicate_passages,
    )

    shared = "alpha beta gamma delta epsilon zeta"
    # words AROUND the passage differ per doc, so the only duplicated
    # 6-word window is the passage itself
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                f"start {shared} tailzero zero",
                f"other opening {shared} tailone one",
                f"{shared} immediate body two",
                "completely unrelated text body three here",
            ],
            "source": ["s"] * 4,
        }
    )
    ds = ray.data.from_pandas(df)
    dup = duplicate_passages(ds, window=6, min_docs=2).to_pandas()
    dd = PassageDeduper(
        dup["gram_hash"].to_numpy(), dup["min_doc_id"].to_numpy(), window=6
    )
    out = dd(
        pa.table(
            {
                "doc_id": pa.array(df.doc_id.to_numpy()),
                "text": pa.array(df.text.to_numpy(dtype=object), pa.string()),
            }
        )
    ).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    # owner (doc 0) keeps everything
    assert out.loc[0, "clean_text"] == df.loc[0, "text"]
    assert out.loc[0, "n_removed_words"] == 0
    # non-owners lose exactly the shared 6 words
    assert out.loc[1, "clean_text"] == "other opening tailone one"
    assert out.loc[1, "n_removed_words"] == 6
    assert out.loc[2, "clean_text"] == "immediate body two"
    # untouched doc
    assert out.loc[3, "n_removed_words"] == 0
    assert out.loc[3, "clean_text"] == df.loc[3, "text"]


def test_passage_dedup_overlapping_windows():
    """Overlapping flagged windows merge into one covered region (the
    difference-array path), and coverage never crosses doc bounds."""
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.llmdata import (
        PassageDeduper,
        duplicate_passages,
    )

    # 8 shared words → three overlapping 6-word dup windows in doc 1
    shared = "w1 w2 w3 w4 w5 w6 w7 w8"
    df = pd.DataFrame(
        {
            "doc_id": [10, 11],
            "text": [f"{shared} ownertail", f"pre {shared}"],
            "source": ["s", "s"],
        }
    )
    ds = ray.data.from_pandas(df)
    dup = duplicate_passages(ds, window=6, min_docs=2).to_pandas()
    dd = PassageDeduper(
        dup["gram_hash"].to_numpy(), dup["min_doc_id"].to_numpy(), window=6
    )
    out = (
        dd(
            pa.table(
                {
                    "doc_id": pa.array(df.doc_id.to_numpy()),
                    "text": pa.array(df.text.to_numpy(dtype=object), pa.string()),
                }
            )
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.loc[0, "n_removed_words"] == 0  # owner untouched
    assert out.loc[1, "clean_text"] == "pre"   # merged region removed once
    assert out.loc[1, "n_removed_words"] == 8
    assert out.loc[1, "n_dup_windows"] == 3


def test_prepare_corpus_passage_stage(docs_ds):
    import ray.data

    raw = _mk_docs(120)
    passage = " ".join(f"pp{j}" for j in range(10))
    m = raw.doc_id % 11 == 0
    raw.loc[m, "text"] = raw.loc[m, "text"] + " " + passage
    cfg = PrepConfig(
        quality=False, pii=False, exact_dedup=False, passage_dedup=True,
        passage_window=8, split=False, vocab_size=0, pack=False,
    )
    res = prepare_corpus(ray.data.from_pandas(raw), cfg)
    out = res.documents.to_pandas().set_index("doc_id")
    owner = int(raw.loc[m, "doc_id"].min())
    assert "pp0" in out.loc[owner, "text"]  # first owner keeps the span
    for i in raw.loc[m, "doc_id"]:
        if i != owner:
            assert "pp3" not in out.loc[i, "text"]
    assert res.stats["dup_passages"] >= 1


def test_shard_shuffle_stage(tmp_path, docs_ds):
    import os

    import pyarrow.parquet as pq

    out = str(tmp_path / "prep_shuf")
    cfg = PrepConfig(vocab_size=40, seq_len=32, shard_shuffle=True, n_shards=4, shuffle_seed=2)
    res = prepare_corpus(docs_ds, cfg, out_dir=out)
    assert res.shards is not None
    n_packed = res.packed.count()
    assert res.shards["n_rows"].sum() == n_packed == res.stats["shard_rows"]
    files = sorted(f for f in os.listdir(os.path.join(out, "shards"))
                   if f.endswith(".parquet"))
    assert files == [f"shard-{int(s):05d}.parquet" for s in sorted(res.shards["shard"])]
    # each shard file is rank-sorted and the union covers every chunk
    uids = []
    for f in files:
        t = pq.read_table(os.path.join(out, "shards", f)).to_pandas()
        assert t["shuffle_rank"].is_monotonic_increasing
        uids.append(t["_chunk_uid"])
    all_uids = pd.concat(uids)
    assert len(all_uids) == n_packed and all_uids.is_unique

    # a different seed permutes chunks into different shards
    out2 = str(tmp_path / "prep_shuf2")
    cfg2 = PrepConfig(vocab_size=40, seq_len=32, shard_shuffle=True, n_shards=4, shuffle_seed=3)
    res2 = prepare_corpus(docs_ds, cfg2, out_dir=out2)
    m1 = res.shards.sort_values("shard")["n_rows"].tolist()
    m2 = res2.shards.sort_values("shard")["n_rows"].tolist()
    first1 = res.shards.sort_values("shard")["first_id"].tolist()
    first2 = res2.shards.sort_values("shard")["first_id"].tolist()
    assert (m1 != m2) or (first1 != first2)

    # shard_shuffle without out_dir is an explicit error
    import pytest as _pytest

    with _pytest.raises(ValueError):
        prepare_corpus(docs_ds, cfg, out_dir=None)


def test_default_pass_runs_four_executions(docs_ds, monkeypatch):
    # the benchmark's configuration: the row-local cache, the exact-dedup
    # shuffle, the vocabulary shuffle and the pack shuffle are the only
    # Ray Data executions; the id anti-filter and the encoder fuse into
    # the last two
    import hashlib

    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    orig = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        runs.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    res = prepare_corpus(docs_ds, PrepConfig(vocab_size=50_000, seq_len=2048, pack_emit_tokens=False))
    chunks = res.packed.count()
    assert len(runs) <= 4
    vocab = "\n".join(f"{w} {c}" for w, c in zip(res.vocab["word"], res.vocab["c"]))
    assert res.stats["exact_dropped"] == 16
    assert len(res.vocab) == 462
    assert hashlib.sha256(vocab.encode()).hexdigest()[:16] == "784312ce1727086a"
    assert chunks == 15


def test_every_shuffle_takes_the_configured_width(docs_ds, monkeypatch):
    # PrepConfig.num_buckets sets every shuffle of the default pass: exact
    # dedup, the vocabulary and the pack
    from opentelemetry_collector_contrib_ray.stages import aggregate

    widths = []
    orig = aggregate.keyed_apply

    def spy(ds, keys, fn, **kwargs):
        widths.append(kwargs.get("num_buckets"))
        return orig(ds, keys, fn, **kwargs)

    monkeypatch.setattr(aggregate, "keyed_apply", spy)
    res = prepare_corpus(docs_ds, PrepConfig(num_buckets=7, vocab_size=50, seq_len=64))
    assert res.packed.count() > 0
    assert widths == [7, 7, 7]


def _collect_docs():
    """Seven documents: a first line every document shares, a 10-word
    passage every document repeats, and document 6 a copy of document 0:
    each of the exact, line and passage dedup collects gets rows."""
    import ray.data

    passage = " ".join(f"pp{j}" for j in range(10))
    texts = [f"shared head\nbody {i} {passage}" for i in range(6)]
    texts.append(texts[0])
    return ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(7), "text": texts, "source": ["s"] * 7})
    )


@pytest.mark.parametrize(
    "stage, switches",
    [
        pytest.param("exact dedup", {}, id="exact"),
        pytest.param("line dedup", {"exact_dedup": False, "line_dedup": True}, id="line"),
        pytest.param(
            "passage dedup", {"exact_dedup": False, "passage_dedup": True, "passage_window": 8}, id="passage"
        ),
    ],
)
def test_driver_collect_raises_past_its_cap(stage, switches, monkeypatch):
    from opentelemetry_collector_contrib_ray import _util

    assert _util.COLLECT_MAX_ROWS > PrepConfig().drop_broadcast_max
    cfg = PrepConfig(quality=False, pii=False, split=False, vocab_size=0, **switches)
    monkeypatch.setattr(_util, "COLLECT_MAX_ROWS", 0)
    with pytest.raises(RuntimeError, match=rf"{stage}: the driver collect reached [1-9]\d* rows"):
        prepare_corpus(_collect_docs(), cfg)
