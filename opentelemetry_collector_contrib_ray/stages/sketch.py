"""Mergeable sketches + exact distinct counts.

The reference has no approximate aggregates (SURVEY.md §2.4: "no
sketches"); these are engine additions for 100 TB-scale cardinality
and quantile questions. Sketches follow the canonical Ray shape: one
serialized sketch per (key, batch) emitted from ``map_batches``, then a
small merge — the shuffle moves sketches, never rows.

- ``HllSketch``: HyperLogLog (Flajolet et al. 2007) with the standard
  bias-corrected estimator; register hash = splitmix64 (deterministic,
  no RNG state).
- ``QuantileSketch``: KLL-flavored deterministic compactor — keeps a
  bounded sorted sample per level; rank error ≲ 1.5/k per level.
  Deterministic for a fixed partitioning; document that merge order
  across blocks may vary results within the error bound.
- ``distinct_count``: exact distinct per key — one shuffle hashed on
  the whole (key, value) pair, per-bucket Arrow ``count_distinct``
  partials summed per key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._util import hash_str_u64, splitmix64
from .aggregate import _group_by, bucketed_aggregate, keyed_apply

FAN_IN = 32  # partitions a sketch tree-merge coalesces into


class HllSketch:
    """HyperLogLog with 2^p registers (p in [4, 18])."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def add_hashes(self, h: np.ndarray) -> "HllSketch":
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h << np.uint64(self.p)
        # rank = leading zeros of remaining bits + 1 (capped)
        lz = np.zeros(len(h), dtype=np.uint8)
        mask = np.uint64(1) << np.uint64(63)
        cur = rest.copy()
        rank = np.ones(len(h), dtype=np.uint8)
        remaining = np.ones(len(h), dtype=bool)
        for _ in range(64 - self.p):
            zero_top = (cur & mask) == 0
            step = remaining & zero_top
            rank[step] += 1
            remaining &= zero_top
            if not remaining.any():
                break
            cur = cur << np.uint64(1)
        np.maximum.at(self.registers, idx, rank)
        return self

    def add_values(self, values) -> "HllSketch":
        arr = np.asarray(values)
        if np.issubdtype(arr.dtype, np.number):
            h = splitmix64(arr.astype(np.uint64))
        else:
            h = hash_str_u64(arr)
        return self.add_hashes(h)

    def merge(self, other: "HllSketch") -> "HllSketch":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        e = alpha * m * m / inv.sum()
        zeros = int((self.registers == 0).sum())
        if e <= 2.5 * m and zeros:
            return m * np.log(m / zeros)  # linear counting small-range
        return e

    def serialize(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def deserialize(cls, b: bytes) -> "HllSketch":
        p = b[0]
        return cls(p, np.frombuffer(b[1:], dtype=np.uint8).copy())


def hll_distinct(ds, key_cols, value_col: str):
    """Approximate distinct(value) per key tuple: one 2^12-register HLL
    per (key, batch), then a TREE merge — per-batch sketches coalesce
    into ``FAN_IN`` partitions and merge per key distributedly, so the
    driver sees ``FAN_IN × keys`` sketches (~4 KB each) instead of one
    per block (20 GB at 10^6 blocks × 5 keys)."""
    key_cols = list(key_cols)

    def per_batch(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {c: batch[c].to_numpy(zero_copy_only=False) for c in key_cols + [value_col]}
        )
        rows = {c: [] for c in key_cols}
        rows["sketch"] = []
        for keys, g in df.groupby(key_cols, dropna=False, sort=False):
            keys = keys if isinstance(keys, tuple) else (keys,)
            sk = HllSketch().add_values(g[value_col].to_numpy())
            for c, k in zip(key_cols, keys):
                rows[c].append(k)
            rows["sketch"].append(sk.serialize())
        return pa.table(
            {**{c: pa.array(rows[c]) for c in key_cols}, "sketch": pa.array(rows["sketch"], pa.binary())}
        )

    def merge_keyed(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = {c: [] for c in key_cols}
        rows["sketch"] = []
        for keys, g in df.groupby(key_cols, dropna=False, sort=False):
            keys = keys if isinstance(keys, tuple) else (keys,)
            sk = None
            for raw in g["sketch"]:
                s = HllSketch.deserialize(raw)
                sk = s if sk is None else sk.merge(s)
            for c, kv in zip(key_cols, keys):
                rows[c].append(kv)
            rows["sketch"].append(sk.serialize())
        return pa.table(
            {**{c: pa.array(rows[c]) for c in key_cols},
             "sketch": pa.array(rows["sketch"], pa.binary())}
        )

    parts = pa.concat_tables(
        ds.map_batches(per_batch, batch_format="pyarrow")
        .repartition(FAN_IN)
        .map_batches(merge_keyed, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ).to_pandas()
    merged: dict = {}
    # tiny: one row per (key tuple, surviving fan-in partition)
    for k, raw in zip(
        zip(*(parts[c].to_numpy() for c in key_cols)), parts["sketch"].to_numpy()
    ):
        sk = HllSketch.deserialize(raw)
        if k in merged:
            merged[k].merge(sk)
        else:
            merged[k] = sk
    out = {c: [] for c in key_cols}
    out["distinct_est"] = []
    for k, sk in sorted(merged.items()):
        for c, v in zip(key_cols, k):
            out[c].append(v)
        out["distinct_est"].append(sk.estimate())
    return pa.table(out)


def distinct_count(ds, key_cols, value_col: str):
    """EXACT distinct(value) per key tuple, as a Dataset of the key
    columns plus int64 ``distinct``. A null value counts once, and a
    null key tuple is one group.

    One shuffle of the key and value columns hashes the whole
    (key, value) tuple, so every copy of a tuple lands in one bucket
    and that bucket's per-key Arrow ``count_distinct`` is an exact
    partial. A ``bucketed_aggregate`` sums the at most keys × buckets
    partials; nothing O(distinct pairs) ever reaches the driver. A
    caller whose batches repeat tuples many times can deduplicate them
    before the shuffle, as ``llmdata.token_corpus_stats`` does.
    """
    key_cols = list(key_cols)

    def count(t: pa.Table) -> pa.Table:
        c = _group_by(t, key_cols, [(value_col, "count_distinct", pc.CountOptions(mode="all"))])
        return c.select(key_cols).append_column("distinct", c[f"{value_col}_count_distinct"])

    cols = key_cols + [value_col]
    partials = keyed_apply(ds.select_columns(cols), cols, count)
    return bucketed_aggregate(partials, key_cols, [("distinct", "sum", "distinct")])


class QuantileSketch:
    """Deterministic bounded-size quantile compactor (KLL-flavored).

    Levels hold sorted buffers of ≤ k items; a full buffer compacts to
    the next level by keeping every 2nd item with a deterministic
    offset (level parity) — weights double per level. Rank error grows
    ~1/k per compaction level.
    """

    def __init__(self, k: int = 256):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]

    def add(self, values: np.ndarray) -> "QuantileSketch":
        buf = np.concatenate([self.levels[0], np.asarray(values, dtype=np.float64)])
        self.levels[0] = buf
        self._compact()
        return self

    def _compact(self) -> None:
        lvl = 0
        while lvl < len(self.levels):
            if len(self.levels[lvl]) > self.k:
                srt = np.sort(self.levels[lvl])
                keep = srt[(lvl % 2) :: 2]
                self.levels[lvl] = np.empty(0, dtype=np.float64)
                if lvl + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                self.levels[lvl + 1] = np.concatenate([self.levels[lvl + 1], keep])
            lvl += 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        for lvl, buf in enumerate(other.levels):
            while lvl >= len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[lvl] = np.concatenate([self.levels[lvl], buf])
        self._compact()
        return self

    def quantile(self, q: float) -> float:
        vals, weights = [], []
        for lvl, buf in enumerate(self.levels):
            vals.append(buf)
            weights.append(np.full(len(buf), 1 << lvl, dtype=np.int64))
        v = np.concatenate(vals)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        cum = np.cumsum(w)
        target = q * cum[-1]
        return float(v[np.searchsorted(cum, target, side="left").clip(0, len(v) - 1)])


def quantiles(ds, value_col: str, qs=(0.5, 0.9, 0.99)):
    """Approximate global quantiles: one k=256 sketch per batch, TREE
    merge.

    The per-batch sketches coalesce into ``FAN_IN`` partitions and
    merge distributedly before the driver merges the ``FAN_IN``
    survivors — at 10^6-block scale the driver sees 32 sketches, not
    one per block (mergeability is exactly the sketch's guarantee, so
    the tree changes nothing about the answer's error bound)."""

    def per_batch(batch: pa.Table) -> pa.Table:
        import pickle

        sk = QuantileSketch().add(
            batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        return pa.table({"sketch": pa.array([pickle.dumps(sk)], pa.binary())})

    def merge_batch(batch: pa.Table) -> pa.Table:
        import pickle

        out = None
        for raw in batch["sketch"].to_pylist():
            sk = pickle.loads(raw)
            out = sk if out is None else out.merge(sk)
        return pa.table({"sketch": pa.array([pickle.dumps(out)], pa.binary())})

    import pickle

    parts = (
        ds.map_batches(per_batch, batch_format="pyarrow")
        .repartition(FAN_IN)
        .map_batches(merge_batch, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    merged = None
    for prt in parts:
        sk = pickle.loads(prt["sketch"])
        merged = sk if merged is None else merged.merge(sk)
    return {q: merged.quantile(q) for q in qs}


# ----------------------------------------------------- Misra-Gries heavy hitters


def _mg_compress(items: np.ndarray, counts: np.ndarray, k: int):
    """Compress an (item, count) summary to at most ``k`` entries by
    the Misra-Gries rule: subtract the (k+1)-th largest count from all
    and keep the positive remainder. Summing summaries then
    compressing preserves the mergeable-summaries guarantee (Agarwal
    et al. 2012): estimates undercount true frequency by at most
    n/(k+1)."""
    if len(items) <= k:
        return items, counts
    kth = np.partition(counts, len(counts) - k - 1)[len(counts) - k - 1]
    dec = counts - kth
    keep = dec > 0
    return items[keep], dec[keep]


def heavy_hitters(ds, value_col: str, *, k: int = 16):
    """Distributed Misra-Gries heavy hitters over ``value_col``.

    Per batch: exact value counts (np.unique — a batch is bounded) are
    compressed to a k-entry MG summary, so each task ships at most
    k+1 (item, weight) pairs regardless of batch cardinality (a
    null-item row carries the batch's row count even when the summary
    compresses to zero entries — e.g. an all-distinct batch). The
    partials TREE-merge through ``FAN_IN`` coalesced partitions (sum
    per item + re-compress, the mergeable-summaries rule), so the
    driver sees ``FAN_IN × (k+1)`` rows, not one summary per block.
    Returns ``(DataFrame(item, est), n_total)`` with the standard
    guarantee: every item whose true frequency exceeds ``n_total/(k+1)``
    is present, and ``true - n_total/(k+1) <= est <= true``."""

    def _summary_table(items, counts, bn: int) -> pa.Table:
        # None-item carrier row keeps the row-count contribution alive
        # even when the MG summary is empty
        return pa.table(
            {
                "item": pa.array(list(items) + [None], pa.string()),
                "w": pa.array(np.r_[counts, 0].astype(np.int64)),
                "bn": pa.array(
                    np.r_[np.zeros(len(items), np.int64), bn], type=pa.int64()
                ),
            }
        )

    def per_batch(batch: pa.Table) -> pa.Table:
        vals = batch[value_col].to_numpy(zero_copy_only=False)
        items, counts = np.unique(vals.astype(str), return_counts=True)
        items, counts = _mg_compress(items, counts.astype(np.int64), k)
        return _summary_table(items, counts, len(vals))

    def merge_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        bn = int(df["bn"].sum())
        g = df.dropna(subset=["item"]).groupby("item", sort=False)["w"].sum()
        items, counts = _mg_compress(
            g.index.to_numpy(dtype=object), g.to_numpy(np.int64), k
        )
        return _summary_table(items, counts, bn)

    parts = (
        ds.map_batches(per_batch, batch_format="pyarrow")
        .repartition(FAN_IN)
        .map_batches(merge_partials, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    n_total = int(parts["bn"].sum())
    merged = parts.dropna(subset=["item"]).groupby("item", sort=False)["w"].sum()
    items, counts = _mg_compress(
        merged.index.to_numpy(dtype=object), merged.to_numpy(np.int64), k
    )
    out = (
        pd.DataFrame({"item": items, "est": counts})
        .sort_values("est", ascending=False, kind="stable")
        .reset_index(drop=True)
    )
    return out, n_total


# ------------------------------------------------------------- Bloom filter


class BloomFilter:
    """Vectorized Bloom filter (Bloom 1970) with double hashing
    (Kirsch & Mitzenmacher 2006: position_i = h1 + i·h2 mod m).
    Mergeable by bitwise OR, so per-batch filters union without a
    shuffle — the scale path for membership gates (e.g. eval-set
    decontamination) when the key set outgrows a broadcast sorted
    array. Guarantees: NO false negatives; false-positive rate
    ≈ (1 − e^{−kn/m})^k."""

    def __init__(self, m_bits: int = 1 << 20, k: int = 5):
        assert m_bits % 64 == 0
        self.m = m_bits
        self.k = k
        self.words = np.zeros(m_bits // 64, dtype=np.uint64)

    def _positions(self, values) -> np.ndarray:
        """(k, n) bit positions per value."""
        h1 = hash_str_u64(values)
        h2 = splitmix64(h1) | np.uint64(1)  # odd → full-period stepping
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + i * h2[None, :]) % np.uint64(self.m)

    def _set(self, pos: np.ndarray) -> None:
        pos = pos.ravel()
        np.bitwise_or.at(
            self.words, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )

    def _test(self, pos: np.ndarray) -> np.ndarray:
        bits = (
            self.words[(pos >> np.uint64(6)).astype(np.int64)]
            >> (pos & np.uint64(63))
        ) & np.uint64(1)
        return bits.all(axis=0)

    def add(self, values) -> "BloomFilter":
        self._set(self._positions(values))
        return self

    def contains(self, values) -> np.ndarray:
        return self._test(self._positions(values))

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert self.m == other.m and self.k == other.k
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    def fill_ratio(self) -> float:
        return float(np.unpackbits(self.words.view(np.uint8)).mean())


def bloom_build(ds, value_col: str, *, m_bits: int = 1 << 20, k: int = 5) -> BloomFilter:
    """Build one corpus-wide Bloom filter: each batch sets its own bit
    array locally (one vectorized scatter), per-batch blobs TREE-merge
    (bitwise OR) through ``FAN_IN`` coalesced partitions — the same
    shape as ``hll_distinct``/``quantiles`` — so the driver
    receives ``FAN_IN`` blobs (≤ FAN_IN × m/8 bytes), not one per block
    (O(num_blocks) driver traffic at 10^6 blocks)."""

    def per_batch(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(m_bits, k)
        bf.add(batch[value_col].to_numpy(zero_copy_only=False).astype(str))
        return pa.table({"blob": pa.array([bf.words.tobytes()], pa.binary())})

    def or_partition(batch: pa.Table) -> pa.Table:
        words = np.zeros(m_bits // 64, dtype=np.uint64)
        for part in batch["blob"]:
            np.bitwise_or(
                words, np.frombuffer(part.as_py(), dtype=np.uint64), out=words
            )
        return pa.table({"blob": pa.array([words.tobytes()], pa.binary())})

    merged = BloomFilter(m_bits, k)
    folded = (
        ds.map_batches(per_batch, batch_format="pyarrow")
        .repartition(FAN_IN)
        .map_batches(or_partition, batch_format="pyarrow", batch_size=None)
    )
    for batch in folded.iter_batches(batch_format="pyarrow", batch_size=None):
        for part in batch["blob"]:
            np.bitwise_or(
                merged.words,
                np.frombuffer(part.as_py(), dtype=np.uint64),
                out=merged.words,
            )
    return merged
