"""End-to-end training-corpus preparation pipeline.

Composes the engine's LLM-data stages (``stages/llmdata.py``,
``stages/dedup.py``) into the canonical public-pipeline order (Gopher
/ CCNet / RefinedWeb / GPT-3 describe the same skeleton):

    quality gate (Gopher) → PII redaction → train/valid/test split
    label → exact dedup → corpus-wide line dedup → passage dedup
    → MinHash near-dedup → test-set decontamination
    → tokenize (top-V vocab) → sequence packing
    → partitioned Parquet write
    → seeded global shuffle into training shards (optional)

``PrepConfig`` switches each stage on or off; the default runs the
quality gate, PII redaction, the split, exact dedup, tokenize and
pack. The input carries ``doc_id``, ``text`` and ``source`` columns.
The driver oracle's 'prep' leg (``__ray_entry__._q_llm_ops``) checks
the SQL-mirrorable subset.

Execution shape (designed for the 100 TB case):

* All row-local stages (quality / PII / split) FUSE into one
  streaming ``map_batches`` pass — one read of the raw text.
* The filtered corpus is materialized ONCE (object store, spills to
  disk) because several corpus-wide consumers re-read it (dedup
  discovery + vocabulary build + the encode pass); re-running the
  regex-heavy filter chain per consumer would cost more than the
  cached blocks.  Nothing else is cached unless a costlier stage (a
  distributed anti-join, line/passage dedup, decontamination)
  follows: the id anti-filter and the encoder fuse into their
  consumers, so the default pass is FOUR Ray Data executions —
  (1) row-local filters → cache; (2) the exact-dedup shuffle of
  (hash, id) pairs; (3) anti-filter → word-count partials → word
  shuffle → ``block_top``; (4) anti-filter → encode → pack shuffle of
  (group, id, tokens). Every shuffle is ``keyed_apply``: one
  fixed-boundary sort, or, on a 1-CPU cluster, one map task that
  holds every row, with the execution's map chain fused into it.
* An input read with ``read_corpus`` arrives in ``2 × cluster CPUs``
  blocks whatever its size, so the cache holds that many blocks and
  every later stage and shuffle map runs that many tasks (Ray's
  byte-sized default made 7 of a 7 MB input). Each shuffle then runs
  one task per bucket, and the derived bucket count is never above
  the CPU count. On one CPU that is one bucket, so each shuffle
  execution is one task and a default pass runs 5 tasks.
* Each dedup stage shuffles skinny key tables only — (hash, id)
  pairs for exact dedup, (band, hash, id) triples for MinHash,
  (line_hash, id) for line dedup — never document text.  Removal is
  an anti-filter: the duplicate id set (bounded by the duplicate
  count, NOT the corpus) broadcasts via ``ray.put`` when small, and
  falls back to a distributed bucketed anti-join past
  ``drop_broadcast_max`` ids.
* No stage uses an actor pool. The broadcast stages (line and
  passage dedup, decontamination, the vocabulary encoder) are callable
  INSTANCES passed to ``map_batches``: they run as tasks, and their
  tables are serialized once with the operator — no worker processes
  are started or torn down per run.
* Outputs are partitioned Parquet — documents by ``split``, packed
  sequences by pack group. A run stamps ``_started`` before it writes
  anything and ``_done.json`` when it finishes: a finished run is
  skipped, an unfinished one's artifacts are cleared and rewritten,
  and artifacts without a ``_started`` stamp are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._util import collect


@dataclass
class PrepConfig:
    """Stage switches and knobs for ``prepare_corpus``.

    The defaults run the quality gate, PII redaction, the split, exact
    dedup, tokenize and pack. Line, passage and near dedup,
    decontamination and the shard shuffle are off; the driver-oracle
    leg runs the SQL-expressible subset."""

    # --- row-local filters (one fused pass)
    quality: bool = True              # Gopher gate (passes_gopher)
    pii: bool = True                  # text := redacted
    # --- dedup
    exact_dedup: bool = True          # first-wins by min id per text hash
    line_dedup: bool = False          # corpus-duplicated-line removal
    passage_dedup: bool = False       # ExactSubstr-style span removal
    passage_window: int = 32
    near_dedup: bool = False          # MinHash+LSH near-dup removal
    near_threshold: float = 0.8
    # --- decontamination (8-gram hash set of held-out eval text)
    decontaminate_grams: Any = None   # np.ndarray from build_eval_grams
    # --- split / tokenize / pack
    split: bool = True
    test_frac: float = 0.05
    valid_frac: float = 0.05
    vocab_size: int = 50_000          # 0 disables tokenize+pack
    seq_len: int = 2048
    pack: bool = True                 # pack per (source, split)
    pack_emit_tokens: bool = True     # False → chunk STATS only
    # --- training-shard shuffle (writes out_dir/shards; needs out_dir)
    shard_shuffle: bool = False       # seeded global shuffle of packed chunks
    n_shards: int = 64
    shuffle_seed: int = 0
    # --- execution
    drop_broadcast_max: int = 5_000_000
    num_buckets: int | None = None    # every shuffle's width (None=derived)


@dataclass
class PrepResult:
    documents: Any                    # Dataset: surviving docs (+tokens,+split)
    packed: Any | None                # Dataset of packed chunks (or None)
    vocab: pd.DataFrame | None        # top-V (word, c) in id order
    stats: dict = field(default_factory=dict)
    out_dir: str | None = None
    shards: pd.DataFrame | None = None  # shard-writer manifest (shard_shuffle)


PACK_GROUP_SEP = "\x1f"  # NUL-free (pandas StringHashTable truncates at NUL)


def _anti_filter_ids(ds, drop_ids, id_col: str, *, broadcast_max: int, num_buckets=None):
    """Remove rows whose ``id_col`` is in ``drop_ids``.

    ``drop_ids`` is a sorted int64 numpy array (the duplicate set —
    bounded by duplicate COUNT).  Small sets broadcast once via
    ``ray.put`` and filter with a vectorized ``searchsorted`` — zero
    shuffle.  Past ``broadcast_max`` the filter becomes a distributed
    bucketed anti-join on hashed id so no O(duplicates) object ships
    to every task (the corpus shuffles by id hash once — the standard
    co-partition; duplicate-majority corpora pay it, everyone else
    takes the broadcast path)."""
    import ray

    drop_ids = np.asarray(drop_ids, dtype=np.int64)
    drop_ids.sort()
    if len(drop_ids) == 0:
        return ds
    if len(drop_ids) <= broadcast_max:
        ref = ray.put(drop_ids)

        def anti(batch: pa.Table) -> pa.Table:
            dropped = ray.get(ref)
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(dropped, ids)
            pos = np.clip(pos, 0, len(dropped) - 1)
            keep = dropped[pos] != ids
            return batch.filter(pa.array(keep))

        return ds.map_batches(anti, batch_format="pyarrow")

    # distributed path: keyed anti-join on id
    from ..stages.aggregate import keyed_apply
    from ..stages.join import tag_union

    sides, schema, _ = tag_union(ds, _ds_from_table(pa.table({id_col: pa.array(drop_ids)})))
    cols = list(schema)

    def per_bucket(t: pa.Table) -> pa.Table:
        dropped = pc.equal(t["_side"], 1)
        hit = pc.is_in(t[id_col], value_set=t[id_col].filter(dropped).combine_chunks())
        return t.filter(pc.invert(pc.or_(dropped, hit))).select(cols)

    return keyed_apply(sides, id_col, per_bucket, num_buckets=num_buckets)


def _ds_from_table(tbl: pa.Table):
    import ray.data

    return ray.data.from_arrow(tbl)


def amplify_documents(docs_path: str, target_docs: int):
    """Deterministic amplification of the sf documents table to
    ``>= target_docs`` rows for benchmark and durability runs: each
    replica re-ids its rows (doc_id + r*10M) and uniquifies the text
    with a replica prefix ('r{r} ') so dedup, vocab and pack do real
    work at the full doc count. SHARED by bench.py and
    tools/prep_resume_proof.py so the kill-resume proof measures
    exactly the benchmark workload. Returns ``(Dataset, n_docs)``."""
    import ray.data as rd

    from ..sources.parquet import read_corpus

    base_docs = rd.read_parquet(docs_path).count()  # footer row counts only
    reps = max(1, -(-target_docs // base_docs))

    def _amplify(t: pa.Table) -> pa.Table:
        parts = []
        for r in range(reps):
            parts.append(
                pa.table(
                    {
                        "doc_id": pc.add(t["doc_id"], r * 10_000_000),
                        "text": pc.binary_join_element_wise(
                            f"r{r} ", t["text"], ""
                        ),
                        "source": t["source"],
                    }
                )
            )
        return pa.concat_tables(parts)

    ds = read_corpus(docs_path, columns=["doc_id", "text", "source"]).map_batches(
        _amplify, batch_format="pyarrow"
    )
    return ds, base_docs * reps


def _exact_drop_ids(ds, text_col: str, id_col: str, *, num_buckets=None) -> np.ndarray:
    """Duplicate ids under exact dedup (everything but the min-id row
    per content hash).  One shuffle of (hash, id) pairs: each bucket
    sorts once by (hash, id); the first row of each hash's run is its
    winner, and every row whose id differs from its winner's is emitted.
    Returns the drop-id array — O(duplicate count) on the driver,
    capped by ``_util.COLLECT_MAX_ROWS``."""
    from ..stages.aggregate import keyed_apply
    from ..stages.dedup import add_content_hash

    pairs = ds.map_batches(
        lambda b: add_content_hash(b, text_col).select(["content_hash", id_col]),
        batch_format="pyarrow",
    )

    def losers(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, [("content_hash", "ascending"), (id_col, "ascending")]))
        h = t["content_hash"].to_numpy()
        ids = t[id_col].to_numpy()
        first = np.ones(len(t), bool)
        first[1:] = h[1:] != h[:-1]
        winner = np.maximum.accumulate(np.where(first, np.arange(len(t)), 0))
        return t.select([id_col]).filter(pa.array(ids != ids[winner]))

    drops = keyed_apply(pairs, "content_hash", losers, num_buckets=num_buckets)
    batches = collect(drops, "exact dedup")
    if not batches:
        return np.empty(0, np.int64)
    return (
        pa.concat_tables(batches)[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    )


def _rewrite_text(docs, dup, stage: str, key: str, make_deduper, added: list[str]):
    """Collect the ``(key, n_docs, min_doc_id)`` duplicate table ``dup``
    of line or passage dedup, broadcast it as ``make_deduper(hashes,
    owners)`` (the instance, one sorted copy of the table, is serialized
    once with the operator) and fold the deduper's ``clean_text`` back
    into ``text``, dropping it and the ``added`` stat columns. Returns
    the rewritten docs and the duplicate count."""
    batches = collect(dup, stage)
    if batches:
        tbl = pa.concat_tables(batches)
        hashes, owners = (tbl[c].to_numpy(zero_copy_only=False) for c in (key, "min_doc_id"))
    else:
        hashes, owners = np.empty(0, np.uint64), np.empty(0, np.int64)

    def fold_clean(batch: pa.Table) -> pa.Table:
        idx = batch.column_names.index("text")
        batch = batch.set_column(idx, "text", batch["clean_text"])
        return batch.drop_columns(["clean_text", *added])

    docs = docs.map_batches(make_deduper(hashes, owners), batch_format="pyarrow")
    return docs.map_batches(fold_clean, batch_format="pyarrow"), len(hashes)


_ARTIFACTS = ("documents", "packed", "vocab.parquet")


def _claim_out_dir(out_dir: str) -> None:
    """Stamp ``out_dir/_started`` before a run writes anything. A
    ``_started`` stamp without ``_done.json`` means an earlier run died
    mid-write: its documents/packed/vocab artifacts would be DOUBLED by
    this run's re-write (Ray parquet filenames are per-execution), so
    they are cleared. The same names WITHOUT the stamp were not written
    by ``prepare_corpus`` and are never deleted: the run raises.
    ``shards/`` stays untouched — its files are written atomically (tmp
    + rename) and individually skipped on resume."""
    import os
    import shutil

    os.makedirs(out_dir, exist_ok=True)
    found = [n for n in _ARTIFACTS if os.path.exists(os.path.join(out_dir, n))]
    if found and not os.path.exists(os.path.join(out_dir, "_started")):
        raise FileExistsError(
            f"{out_dir} holds {found} but no _started stamp: they were not written "
            "by prepare_corpus; use an empty directory or remove them"
        )
    for n in found:
        path = os.path.join(out_dir, n)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    open(os.path.join(out_dir, "_started"), "w").close()


def prepare_corpus(ds, cfg: PrepConfig | None = None, out_dir: str | None = None) -> PrepResult:
    """Run the corpus-prep composition over a documents Dataset.

    ``ds`` must carry ``doc_id``, ``text`` and ``source``.  Returns
    lazily-consumable Datasets; when ``out_dir`` is given, writes
    partitioned Parquet (documents by split, packed by pack group) plus
    ``vocab.parquet`` and a ``_done.json`` marker, and SKIPS the whole
    run when the marker already exists (artifact-level resume). Raises ``FileExistsError``
    when ``out_dir`` already holds documents/packed/vocab artifacts
    that no ``prepare_corpus`` run stamped (see ``_claim_out_dir``)."""
    import json
    import os

    cfg = cfg or PrepConfig()
    stats: dict = {}

    if out_dir and os.path.exists(os.path.join(out_dir, "_done.json")):
        with open(os.path.join(out_dir, "_done.json")) as f:
            stats = json.load(f)
        from ..sources.parquet import read_corpus

        docs = read_corpus(os.path.join(out_dir, "documents"))
        packed = (
            read_corpus(os.path.join(out_dir, "packed"))
            if os.path.isdir(os.path.join(out_dir, "packed"))
            else None
        )
        vocab = (
            pd.read_parquet(os.path.join(out_dir, "vocab.parquet"))
            if os.path.exists(os.path.join(out_dir, "vocab.parquet"))
            else None
        )
        stats["resumed"] = True
        return PrepResult(docs, packed, vocab, stats, out_dir)

    if out_dir:
        _claim_out_dir(out_dir)

    # ---- stage 1: fused row-local filter chain (ONE pass over raw text)
    from ..stages.llmdata import assign_split, gopher_stats, redact_pii

    def row_local(batch: pa.Table) -> pa.Table:
        if cfg.quality:
            batch = gopher_stats(batch)
            batch = batch.filter(batch["passes_gopher"])
            batch = batch.drop_columns(
                ["dup_word_frac", "alpha_word_frac", "symbol_word_ratio", "passes_gopher"]
            )
        if cfg.pii:
            batch = redact_pii(batch)
            idx = batch.column_names.index("text")
            batch = batch.set_column(idx, "text", batch["redacted"])
            batch = batch.drop_columns(["redacted", "n_email", "n_ip", "n_phone"])
        if cfg.split:
            batch = assign_split(batch, test_frac=cfg.test_frac, valid_frac=cfg.valid_frac)
        return batch

    docs = ds.map_batches(row_local, batch_format="pyarrow").materialize()

    # set by a stage after the cache that costs more to re-run than to
    # cache: a distributed anti-join (a shuffle) or a line, passage or
    # n-gram broadcast stage
    costly = False

    # ---- stage 2: exact dedup (anti-filter by duplicate ids)
    if cfg.exact_dedup:
        drop = _exact_drop_ids(docs, "text", "doc_id", num_buckets=cfg.num_buckets)
        stats["exact_dropped"] = int(len(drop))
        costly |= len(drop) > cfg.drop_broadcast_max
        docs = _anti_filter_ids(
            docs, drop, "doc_id",
            broadcast_max=cfg.drop_broadcast_max, num_buckets=cfg.num_buckets,
        )

    # ---- stage 3: corpus-wide line dedup (rewrites text)
    if cfg.line_dedup:
        from ..stages.llmdata import LineDeduper, duplicate_lines

        costly = True
        dup = duplicate_lines(docs, num_buckets=cfg.num_buckets)
        docs, stats["dup_lines"] = _rewrite_text(
            docs, dup, "line dedup", "line_hash", LineDeduper, ["n_lines", "n_removed"]
        )

    # ---- stage 3b: ExactSubstr-style duplicated-passage removal
    if cfg.passage_dedup:
        from ..stages.llmdata import PassageDeduper, duplicate_passages

        costly = True
        dupp = duplicate_passages(docs, window=cfg.passage_window, num_buckets=cfg.num_buckets)
        docs, stats["dup_passages"] = _rewrite_text(
            docs, dupp, "passage dedup", "gram_hash",
            lambda h, o: PassageDeduper(h, o, window=cfg.passage_window),
            ["n_words", "n_removed_words", "n_dup_windows"],
        )

    # ---- stage 4: MinHash near-dedup (anti-filter by cluster non-roots)
    if cfg.near_dedup:
        from ..stages.dedup import near_dedup_clusters

        clusters = near_dedup_clusters(docs, jaccard_threshold=cfg.near_threshold)
        non_root = pc.not_equal(clusters["doc_id"], clusters["root"])
        drop = np.array(clusters["doc_id"].filter(non_root), dtype=np.int64)
        stats["near_dropped"] = int(len(drop))
        costly |= len(drop) > cfg.drop_broadcast_max
        docs = _anti_filter_ids(
            docs, drop, "doc_id",
            broadcast_max=cfg.drop_broadcast_max, num_buckets=cfg.num_buckets,
        )

    # ---- stage 5: decontamination (drop docs containing eval n-grams)
    if cfg.decontaminate_grams is not None:
        from ..stages.llmdata import NgramDecontaminator

        costly = True
        docs = docs.map_batches(NgramDecontaminator(cfg.decontaminate_grams), batch_format="pyarrow")

        def drop_contaminated(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.invert(batch["contaminated"])).drop_columns(
                ["contaminated"]
            )

        docs = docs.map_batches(drop_contaminated, batch_format="pyarrow")

    # the vocabulary pass and the pack pass each re-read the doc set: a
    # broadcast id anti-filter fuses into both over the cached blocks,
    # anything costlier is cached once
    if cfg.vocab_size and costly:
        docs = docs.materialize()

    # ---- stage 6: tokenize (vocab over the SURVIVING corpus) + pack
    vocab = None
    packed = None
    if cfg.vocab_size:
        from ..stages.llmdata import (
            VocabEncoder,
            corpus_word_counts,
            pack_token_sequences,
            top_vocab,
        )

        counts = corpus_word_counts(docs, num_buckets=cfg.num_buckets)
        vocab = top_vocab(counts, cfg.vocab_size)
        docs = docs.map_batches(VocabEncoder(vocab["word"].to_numpy()), batch_format="pyarrow")
        if cfg.pack:
            group_cols = ["source"] + (["split"] if cfg.split else [])

            def add_pack_group(batch: pa.Table) -> pa.Table:
                key = pc.cast(batch[group_cols[0]], pa.string())
                for c in group_cols[1:]:
                    key = pc.binary_join_element_wise(
                        key, pc.cast(batch[c], pa.string()), PACK_GROUP_SEP
                    )
                return batch.append_column("pack_group", key)

            packed = pack_token_sequences(
                docs.map_batches(add_pack_group, batch_format="pyarrow"),
                group_col="pack_group",
                order_col="doc_id",
                tokens_col="tokens",
                seq_len=cfg.seq_len,
                emit_tokens=cfg.pack_emit_tokens,
                num_buckets=cfg.num_buckets,
            )

    # ---- stage 7: partitioned, resumable write
    if out_dir:
        doc_cols = [c for c in docs.schema().names]
        part_cols = ["split"] if cfg.split and "split" in doc_cols else None
        docs.write_parquet(
            os.path.join(out_dir, "documents"),
            partition_cols=part_cols,
        )
        if packed is not None:
            def split_pack_key(batch: pa.Table) -> pa.Table:
                parts = pc.split_pattern(batch["pack_group"], PACK_GROUP_SEP)
                batch = batch.append_column("pack_source", pc.list_element(parts, 0))
                if cfg.split:
                    batch = batch.append_column("pack_split", pc.list_element(parts, 1))
                return batch

            packed = packed.map_batches(split_pack_key, batch_format="pyarrow")
            packed.write_parquet(
                os.path.join(out_dir, "packed"),
                partition_cols=(["pack_split"] if cfg.split else ["pack_source"]),
            )
        if vocab is not None:
            vocab.to_parquet(os.path.join(out_dir, "vocab.parquet"))

    # ---- stage 8: seeded global shuffle of packed chunks into
    # training shards (the training-layout last mile; per-shard files
    # are themselves resumable independently of the _done marker)
    shards = None
    if cfg.shard_shuffle and packed is not None:
        if not out_dir:
            raise ValueError("shard_shuffle requires out_dir")
        from ..stages.llmdata import write_training_shards

        def add_chunk_uid(batch: pa.Table) -> pa.Table:
            uid = pc.binary_join_element_wise(
                pc.cast(batch["pack_group"], pa.string()),
                pc.cast(batch["chunk_id"], pa.string()),
                ":",
            )
            return batch.append_column("_chunk_uid", uid)

        shards = write_training_shards(
            packed.map_batches(add_chunk_uid, batch_format="pyarrow"),
            os.path.join(out_dir, "shards"),
            id_col="_chunk_uid",
            n_shards=cfg.n_shards,
            seed=cfg.shuffle_seed,
        )
        stats["shard_rows"] = int(shards["n_rows"].sum())
        stats["shards_skipped"] = int(shards["skipped"].sum())

    if out_dir:
        with open(os.path.join(out_dir, "_done.json"), "w") as f:
            json.dump(stats, f)

    return PrepResult(docs, packed, vocab, stats, out_dir, shards)
