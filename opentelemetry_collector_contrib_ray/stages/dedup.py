"""Deduplication operators for large-scale training-data pipelines.

Not present in the reference (SURVEY.md §2.8 — the ES exporter dedups
field keys only); these are first-class engine additions. All follow
the same scale shape: vectorized per-batch signature computation in
``map_batches``, then ONE shuffle on the signature key, then per-BUCKET
(not per-key) resolution. Nothing materializes the corpus — or any
O(corpus)-sized structure — on the driver:

- signature kernels (shingles, MinHash, SimHash) run one strided numpy
  pass over the batch's concatenated bytes — no per-document Python;
- LSH bucket resolution and candidate-pair generation happen inside
  one ``keyed_apply`` shuffle (one Python call per bucket, each a
  vectorized pass), not via driver-side collection;
- pair verification is a distributed join of the pair list against the
  corpus texts (two bucketed shuffles of pairs+texts);
- connected components default to driver union-find over the VERIFIED
  edge set (orders smaller than the corpus) with a distributed
  min-label-propagation implementation for dup-heavy corpora.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .._util import splitmix64

_MERSENNE = (1 << 61) - 1
_SHINGLE_P = np.uint64(1099511628211)


def _text_hash64(texts: pd.Series) -> np.ndarray:
    """Vectorized 64-bit content hash of a string column."""
    return splitmix64(
        np.asarray(pd.util.hash_array(texts.to_numpy(dtype=object)), dtype=np.uint64)
    )


def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    s = pd.Series(batch[text_col].to_numpy(zero_copy_only=False), dtype=object)
    return batch.append_column("content_hash", pa.array(_text_hash64(s).astype(np.int64)))


# ------------------------------------------------------- shingle kernel


def _cumsum0(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _shingle_hashes_flat(
    arr: pa.Array, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """ALL docs' k-byte-shingle hashes in one strided pass.

    Zero-copy from the Arrow string buffers: the batch's texts are one
    contiguous UTF-8 byte run; a single rolling polynomial-hash pass
    computes every window, and windows crossing document boundaries are
    excluded by construction. Docs shorter than ``k`` are zero-padded
    (identical to the per-doc reference kernel). Returns
    ``(flat_hashes uint64, per_doc_counts int64)`` — feed ``counts``
    boundaries to ``np.minimum.reduceat`` for per-doc minima.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    if arr.null_count:
        import pyarrow.compute as pc

        arr = pc.fill_null(arr, "")
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=off_dtype)[arr.offset : arr.offset + n + 1].astype(
        np.int64
    )
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    lens = np.diff(off)
    pad = np.clip(k - lens, 0, None)
    out_lens = lens + pad
    out_off = _cumsum0(out_lens)
    in_flat = data[off[0] : off[-1]]
    if pad.any():
        # scatter each doc's bytes to its padded position (vectorized)
        out_buf = np.zeros(int(out_off[-1]), dtype=np.uint8)
        shift = np.repeat(out_off[:-1] - (off[:-1] - off[0]), lens)
        out_buf[np.arange(len(in_flat), dtype=np.int64) + shift] = in_flat
    else:
        out_buf = in_flat  # zero-copy: already contiguous and aligned
    total = int(out_off[-1])
    W = total - k + 1  # ≥ 1: every doc is ≥ k bytes after padding
    # rolling hash h[s] = Σ_j byte[s+j] · P^j  — k strided passes
    h = np.zeros(W, dtype=np.uint64)
    pw = np.uint64(1)
    with np.errstate(over="ignore"):
        for j in range(k):
            h += out_buf[j : j + W].astype(np.uint64) * pw
            pw = pw * _SHINGLE_P
    counts = out_lens - k + 1
    starts = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(_cumsum0(counts)[:-1], counts)
        + np.repeat(out_off[:-1], counts)
    )
    return splitmix64(h[starts]), counts


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Single-doc shingle hashes (unique'd) — thin wrapper over the
    batch kernel, kept for signature()/tests API compatibility."""
    flat, _ = _shingle_hashes_flat(pa.array([text or ""], pa.string()), k)
    return np.unique(flat)


class MinHasher:
    """Per-batch MinHash signatures (k-shingles, n permutations).

    Stateless task-pool stage: permutation parameters built in
    __init__; per batch ONE strided shingle pass over the concatenated
    texts, then chunked (shingles × num_perm) permutation passes with
    per-doc minima via ``minimum.reduceat`` — no per-document Python
    anywhere. Output adds ``minhash`` (list<uint64> length num_perm).
    """

    def __init__(self, text_col: str = "text", k: int = 5, num_perm: int = 64):
        rng = np.random.default_rng(7)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.k = k
        self.num_perm = num_perm
        self.text_col = text_col

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.k)
        with np.errstate(over="ignore"):
            # (a*x+b) mod Mersenne61 per permutation; min over shingles
            vals = (self.a[None, :] * sh[:, None] + self.b[None, :]) % np.uint64(_MERSENNE)
        return vals.min(axis=0)

    # max shingles per (num_perm × shingles) matrix: bounds the temp
    # allocation to ~ num_perm × _CHUNK × 8B (≈128 MB at 128 × 128k)
    _CHUNK = 128 * 1024

    def _flat_hashes(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """Hash source hook: byte shingles over the text column.
        ``TokenMinHasher`` overrides with token-window hashes so the
        same signature/LSH machinery runs on pre-tokenized corpora."""
        return _shingle_hashes_flat(batch[self.text_col], self.k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat_sh, counts = self._flat_hashes(batch)
        n = len(batch)
        doc_off = _cumsum0(counts)
        sigs = np.empty((n, self.num_perm), dtype=np.uint64)
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(doc_off, doc_off[lo] + self._CHUNK, side="right")) - 1
            hi = max(hi, lo + 1)
            hi = min(hi, n)
            chunk = flat_sh[doc_off[lo] : doc_off[hi]]
            # (perm, shingle) layout with per-permutation SCALAR ops:
            # numpy's uint64 BROADCAST multiply takes a ~70x-slower
            # non-SIMD inner loop (measured 13.5 s vs 0.19 s on 1.5M x
            # 64), while scalar-operand multiplies into a preallocated
            # row hit the fast path; values are bit-identical
            vals = np.empty((self.num_perm, len(chunk)), dtype=np.uint64)
            with np.errstate(over="ignore"):
                for j in range(self.num_perm):
                    np.multiply(chunk, self.a[j], out=vals[j])
                    vals[j] += self.b[j]
                vals %= np.uint64(_MERSENNE)
            starts = (doc_off[lo:hi] - doc_off[lo]).astype(np.int64)
            sigs[lo:hi] = np.minimum.reduceat(vals, starts, axis=1).T
            lo = hi
        flat = pa.array(sigs.reshape(-1).astype(np.int64))
        offs = pa.array(
            np.arange(0, (n + 1) * self.num_perm, self.num_perm, dtype=np.int32)
        )
        return batch.append_column("minhash", pa.ListArray.from_arrays(offs, flat))


_POS_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd constant


def _token_window_hashes_flat(
    t: pa.Table, tokens_col: str, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every k-TOKEN window hash of a ``list<int32>`` column in one
    flat pass — the token-native analogue of ``_shingle_hashes_flat``
    (same output shape: flat uint64 hashes + per-doc counts, short
    docs zero-padded to one window). Zero-copy from the Arrow list
    buffers; the window hash is a k-step polynomial fold over the
    int64 token values (k vector ops total, no per-doc Python)."""
    from .llmdata import _flat_tokens

    vals, offs = _flat_tokens(t, tokens_col)
    lens = np.diff(offs)
    n = len(lens)
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    pad = np.clip(k - lens, 0, None)
    if pad.any():
        out_off = _cumsum0(lens + pad)
        out = np.zeros(int(out_off[-1]), dtype=np.int64)
        pos = np.arange(len(vals), dtype=np.int64) - np.repeat(offs[:-1], lens)
        out[np.repeat(out_off[:-1], lens) + pos] = vals
        vals, offs = out, out_off
        lens = np.diff(offs)
    n_wins = lens - k + 1
    starts = np.repeat(offs[:-1], n_wins) + np.concatenate(
        [np.arange(w, dtype=np.int64) for w in n_wins]
    ) if n_wins.sum() else np.empty(0, np.int64)
    u = vals.astype(np.uint64)
    h = np.zeros(len(starts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h = splitmix64(h * _POS_MIX + u[starts + j])
    return h, n_wins.astype(np.int64)


class TokenMinHasher(MinHasher):
    """MinHash signatures over the PRE-TOKENIZED ``tokens`` column
    (``list<int32>``, the corpus-native shape) by swapping the
    byte-shingle source for k-token window hashes; permutations,
    chunking and LSH banding are inherited unchanged from
    ``MinHasher``."""

    def __init__(self, k: int = 8, num_perm: int = 64):
        super().__init__(text_col="tokens", k=k, num_perm=num_perm)

    def _flat_hashes(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        return _token_window_hashes_flat(batch, self.text_col, self.k)


def token_minhash_lsh_groups(ds, *, k: int = 8, num_perm: int = 64, bands: int = 16):
    """MinHash+LSH near-dup candidate buckets over the pre-tokenized
    corpus shape: k-token windows → minhash per batch → explode to
    (band_id, band_hash, id) rows → ONE shuffle on a hash bucket of the
    band key → per-bucket resolution emits only buckets with ≥2
    members. Returns a Dataset with columns (band_id, band_hash, ids
    list, n). The shuffle moves only (band, hash, id) triples — bands
    per doc, not documents — and nothing is collected to the driver."""
    exploded = _lsh_explode(
        ds, "tokens", "doc_id", k=k, num_perm=num_perm, bands=bands,
        hasher=TokenMinHasher(k=k, num_perm=num_perm),
    )
    return _resolve_buckets(exploded, "doc_id")


def exact_dedup_tokens(ds):
    """Token-array exact dedup, first-wins by smallest id: an
    order-and-position-sensitive 64-bit hash of each document's token
    sequence (one splitmix pass over the flat values XOR their
    position mix, summed per doc via ``add.reduceat``), then one
    (hash, min-id) bucketed merge — the shuffle moves (hash, id)
    pairs, never token arrays. Hash equality equals
    sequence equality up to negligible 64-bit collisions (same
    contract as the text-hash path)."""
    from .aggregate import bucketed_aggregate
    from .llmdata import _flat_tokens

    def hash_rows(t: pa.Table) -> pa.Table:
        vals, offs = _flat_tokens(t, "tokens")
        lens = np.diff(offs)
        pos = np.arange(len(vals), dtype=np.int64) - np.repeat(offs[:-1], lens)
        with np.errstate(over="ignore"):
            mixed = splitmix64(
                vals.astype(np.uint64) ^ (pos.astype(np.uint64) * _POS_MIX)
            )
        doc_h = np.zeros(len(lens), dtype=np.uint64)
        if len(mixed):
            if (lens > 0).all():
                doc_h = np.add.reduceat(mixed, offs[:-1])
            else:
                # zero-length docs break reduceat segment bounds —
                # unbuffered scatter-add is exact for any shape
                doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
                np.add.at(doc_h, doc_of, mixed)
        # fold the length in so prefix-sum ties can't collide with
        # different-length docs whose suffix sums to zero
        doc_h = splitmix64(doc_h ^ lens.astype(np.uint64))
        return pa.table(
            {
                "content_hash": pa.array(doc_h, pa.uint64()),
                "doc_id": t["doc_id"],
            }
        )

    hashed = ds.map_batches(hash_rows, batch_format="pyarrow")
    return bucketed_aggregate(hashed, ["content_hash"], [("doc_id", "min", "doc_id")])


def _lsh_explode(ds, text_col, id_col, *, k, num_perm, bands, hasher=None):
    """minhash → (band_id, band_hash, id) triples Dataset."""
    rows_per_band = num_perm // bands

    # instance-as-function → elastic task pool (the permutation params
    # are cheap to build; an actor pool would cap width and pay ramp-up)
    mh = ds.map_batches(
        hasher or MinHasher(text_col=text_col, k=k, num_perm=num_perm),
        batch_format="pyarrow",
        # small batches → wide task pool: the kernel is vectorized, so
        # the only reason to batch bigger is amortizing dispatch — and
        # minhash is compute-heavy enough that parallelism wins
        batch_size=512,
    )

    def explode(batch: pa.Table) -> pa.Table:
        sig = np.asarray(batch["minhash"].combine_chunks().flatten()).reshape(
            len(batch), num_perm
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        band_hashes = np.empty((len(batch), bands), dtype=np.uint64)
        for b in range(bands):
            chunk = sig[:, b * rows_per_band : (b + 1) * rows_per_band].astype(np.uint64)
            h = np.zeros(len(batch), dtype=np.uint64)
            with np.errstate(over="ignore"):
                for c in range(chunk.shape[1]):
                    h = splitmix64(h ^ chunk[:, c])
            band_hashes[:, b] = h
        n = len(batch)
        return pa.table(
            {
                "band_id": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)),
                "band_hash": pa.array(band_hashes.T.reshape(-1).astype(np.int64)),
                id_col: pa.array(np.tile(ids, bands)),
            }
        )

    return mh.map_batches(explode, batch_format="pyarrow")


def _resolve_buckets(exploded, id_col: str, *, num_buckets: int | None = None):
    """(band_id, band_hash, id) triples → multi-member buckets with
    sorted member lists — DISTRIBUTED: one shuffle on a hash bucket of
    the band key, then per-bucket vectorized resolution (filter groups
    of size ≥2, build the id lists directly as an Arrow ListArray). No
    driver-side bucket-count table, no per-row Python membership."""
    from .aggregate import keyed_apply

    def resolve(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "band_id": g["band_id"].to_numpy(zero_copy_only=False),
                "band_hash": g["band_hash"].to_numpy(zero_copy_only=False),
                id_col: g[id_col].to_numpy(zero_copy_only=False),
            }
        )
        df = df.sort_values(["band_id", "band_hash", id_col], kind="stable")
        sizes = df.groupby(["band_id", "band_hash"], sort=False)[id_col].transform("size")
        df = df[sizes.to_numpy() >= 2]
        id_type = g.schema.field(id_col).type
        if df.empty:
            return pa.table(
                {
                    "band_id": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "ids": pa.array([], pa.list_(id_type)),
                    "n": pa.array([], pa.int64()),
                }
            )
        # group boundaries on the sorted frame → ListArray, zero loops
        key_change = (
            (df["band_id"].to_numpy()[1:] != df["band_id"].to_numpy()[:-1])
            | (df["band_hash"].to_numpy()[1:] != df["band_hash"].to_numpy()[:-1])
        )
        starts = np.concatenate([[0], np.flatnonzero(key_change) + 1])
        bounds = np.concatenate([starts, [len(df)]]).astype(np.int32)
        ids_arr = pa.array(df[id_col].to_numpy(), id_type)
        lists = pa.ListArray.from_arrays(pa.array(bounds, pa.int32()), ids_arr)
        return pa.table(
            {
                "band_id": pa.array(
                    df["band_id"].to_numpy()[starts].astype(np.int32)
                ),
                "band_hash": pa.array(df["band_hash"].to_numpy()[starts].astype(np.int64)),
                "ids": lists,
                "n": pa.array(np.diff(bounds).astype(np.int64)),
            }
        )

    return keyed_apply(exploded, ["band_id", "band_hash"], resolve, num_buckets=num_buckets)


def lsh_candidate_pairs(exploded, id_col: str):
    """(band_id, band_hash, id) triples → globally-unique candidate
    pairs (id_a < id_b), fully distributed: pairs are generated inside
    the bucketed groupby (size-2 groups vectorized; larger groups —
    rare by LSH construction — via a bounded per-group expansion), then
    deduped across bands with a second keyed shuffle of the pairs."""
    from .aggregate import bucketed_aggregate, keyed_apply

    def band_pairs(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "band_id": g["band_id"].to_numpy(zero_copy_only=False),
                "band_hash": g["band_hash"].to_numpy(zero_copy_only=False),
                id_col: g[id_col].to_numpy(zero_copy_only=False),
            }
        )
        df = df.sort_values(["band_id", "band_hash", id_col], kind="stable")
        grp = df.groupby(["band_id", "band_hash"], sort=False)[id_col]
        sizes = grp.transform("size").to_numpy()
        ids = df[id_col].to_numpy()
        id_type = g.schema.field(id_col).type
        out_a, out_b = [], []
        # size-2 groups (the common case): consecutive rows, vectorized
        m2 = sizes == 2
        if m2.any():
            pos = np.flatnonzero(m2)
            first = pos[::2]  # sorted frame → the two members are adjacent
            out_a.append(ids[first])
            out_b.append(ids[first + 1])
        # larger groups: per-group triangular expansion (rare; bounded
        # by LSH bucket sizes — all inside this distributed task)
        mlarge = sizes > 2
        if mlarge.any():
            dfl = df[mlarge]
            for _, members in dfl.groupby(["band_id", "band_hash"], sort=False)[id_col]:
                vals = members.to_numpy()
                ia, ib = np.triu_indices(len(vals), k=1)
                out_a.append(vals[ia])
                out_b.append(vals[ib])
        if not out_a:
            return pa.table({"id_a": pa.array([], id_type), "id_b": pa.array([], id_type)})
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        # local dedupe first (same pair can recur within this bucket):
        # lexsort + neighbor equality — exact, and avoids the per-pair
        # np.char string concatenation (Python-level per element)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep = np.ones(len(a), bool)
        keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b = a[keep], b[keep]
        return pa.table({"id_a": pa.array(a, id_type), "id_b": pa.array(b, id_type)})

    pairs = keyed_apply(exploded, ["band_id", "band_hash"], band_pairs)

    # dedupe across bands: a pair's copies from every band co-locate on
    # the (id_a, id_b) key; one Arrow group-by per bucket keeps each once
    return bucketed_aggregate(pairs, ["id_a", "id_b"], [])


# -------------------------------------------------------------------- SimHash

_GRAM_SENT1 = np.uint64(0xC2B2AE3D27D4EB4F)
_GRAM_SENT2 = np.uint64(0x165667B19E3779F9)


class SimHasher:
    """64-bit SimHash over word 3-grams; adds ``simhash`` column.

    Fully batch-vectorized: words hashed once (pandas hash_array over
    the exploded word list), 3-gram hashes mixed from consecutive word
    hashes, bit counting via ``unpackbits`` + per-doc ``reduceat`` — no
    per-document Python loop. Near-dups share low Hamming distance.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return batch.append_column("simhash", pa.array([], pa.int64()))
        s = pd.Series(batch["text"].to_numpy(zero_copy_only=False), dtype=object)
        words = s.fillna("").str.split()
        # explode: one row per word; empty docs yield one NaN row → ""
        flat = words.explode().fillna("").to_numpy(dtype=object)
        nw = np.maximum(words.str.len().to_numpy(dtype=np.int64), 1)
        word_h = splitmix64(np.asarray(pd.util.hash_array(flat), dtype=np.uint64))
        word_off = _cumsum0(nw)
        g_counts = np.maximum(nw - 2, 1)
        g_off = _cumsum0(g_counts)
        pos = (
            np.arange(int(g_counts.sum()), dtype=np.int64)
            - np.repeat(g_off[:-1], g_counts)
            + np.repeat(word_off[:-1], g_counts)
        )
        doc_end = np.repeat(word_off[1:], g_counts)
        h0 = word_h[pos]
        i1, i2 = pos + 1, pos + 2
        v1, v2 = i1 < doc_end, i2 < doc_end
        h1 = np.where(v1, word_h[np.minimum(i1, len(word_h) - 1)], _GRAM_SENT1)
        h2 = np.where(v2, word_h[np.minimum(i2, len(word_h) - 1)], _GRAM_SENT2)
        with np.errstate(over="ignore"):
            gh = splitmix64(h0 ^ splitmix64(h1 ^ splitmix64(h2)))
        # bit matrix (G × 64) via unpackbits on the little-endian bytes
        bits = np.unpackbits(
            gh.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        ).astype(np.int32)
        ones = np.add.reduceat(bits, g_off[:-1], axis=0)
        v = 2 * ones - g_counts[:, None]
        sim = ((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)[None, :]).sum(
            axis=1
        )
        return batch.append_column("simhash", pa.array(sim.astype(np.int64)))


# ------------------------------------------------------ embedding near-dup


def _vec_matrix(col: pa.ChunkedArray | pa.Array, n: int) -> np.ndarray:
    """list<float> (or Ray tensor-extension) column → (n, d) float32
    matrix, zero-copy when the lists are contiguous and equal-length
    (the common Parquet case)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if hasattr(col, "flatten"):  # plain ListArray
        flat = np.asarray(col.flatten(), dtype=np.float32)
        if n and flat.size % n == 0:
            return flat.reshape(n, -1)
        return np.stack([np.asarray(v, dtype=np.float32) for v in col.to_pylist()])
    # ArrowTensorArray / other extension types: to_numpy gives (n, d)
    arr = col.to_numpy(zero_copy_only=False)
    if arr.dtype == object:
        return np.stack([np.asarray(v, dtype=np.float32) for v in arr])
    return np.asarray(arr, dtype=np.float32).reshape(n, -1)


def normalized_vec_ds(ds):
    """(vec_id, embedding) → (vec_id, unit-norm vec) as a Dataset stage."""

    def norm_batch(t: pa.Table) -> pa.Table:
        m = _vec_matrix(t["embedding"], len(t))
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "vec": pa.array(list(m), type=pa.list_(pa.float32())),
            }
        )

    return ds.map_batches(norm_batch, batch_format="pyarrow")


def verify_cos_pairs_ds(ds, pairs_ds, *, threshold: float = 0.95):
    """Exact-cosine verification of candidate id pairs: join the pair
    list against the (normalized) embeddings — two distributed joins,
    nothing collected to the driver — then one vectorized dot per pair.
    Returns (id_a, id_b, cos) with cos ≥ threshold; the embedding-side
    twin of the text path's ``verify_pairs_ds``."""
    from .join import bucketed_hash_join

    vecs = normalized_vec_ds(ds)
    va = vecs.map_batches(
        lambda t: t.rename_columns(["id_a", "vec_a"]), batch_format="pyarrow"
    )
    vb = vecs.map_batches(
        lambda t: t.rename_columns(["id_b", "vec_b"]), batch_format="pyarrow"
    )
    # the join carries list<float> columns by index: Arrow's hash join
    # rejects them as non-key fields
    j = bucketed_hash_join(pairs_ds, va, "id_a")
    j = bucketed_hash_join(j, vb, "id_b")

    def score(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "id_a": t["id_a"],
                    "id_b": t["id_b"],
                    "cos": pa.array([], pa.float64()),
                }
            )
        a = _vec_matrix(t["vec_a"], len(t))
        b = _vec_matrix(t["vec_b"], len(t))
        cos = np.einsum("ij,ij->i", a, b).astype(np.float64)
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"], "cos": pa.array(cos)})
        return out.filter(pa.array(cos >= threshold))

    return j.map_batches(score, batch_format="pyarrow")


EMB_LSH_TABLES = 8  # hash tables of embedding_neardup_pairs
EMB_LSH_BUCKET = 64  # its target expected bucket size


def embedding_neardup_pairs(ds, *, threshold=0.95):
    """Embedding-cosine near-dup: MULTI-TABLE random-hyperplane LSH.

    Recall for a pair at cosine c is ``1 − (1 − p^nbits)^T`` over
    T = ``EMB_LSH_TABLES`` tables
    with ``p = 1 − acos(c)/π``; candidates are exact-cosine verified so
    the output NEVER contains false positives. Returns pairs
    (id_a, id_b, cos ≥ threshold, id_a < id_b).

    Scale shape (round-3 rework of the two round-2 watch-items):
    - the LSH shuffle moves (table, bucket, id) TRIPLES only — vectors
      are no longer replicated ×num_tables through the shuffle (256 B
      × 8 per vector at d=64 → 24 B × 8);
    - ``nbits`` scales as ~log2(n / ``EMB_LSH_BUCKET``) (clipped 4-24)
      so the expected bucket size — and with it the in-bucket pair
      expansion — stays CONSTANT as the corpus grows, instead of
      O(bucket²) at a fixed bit count;
    - pair generation + cross-table dedup reuse the MinHash path's
      distributed ``lsh_candidate_pairs`` (bucketed groupby, pairs
      deduped by single-int-key shuffle), and verification is the
      distributed pairs × vectors join ``verify_cos_pairs_ds`` — the
      same shapes already proven on the text near-dup path.
    """
    nbits = int(np.clip(round(np.log2(max(ds.count(), 2) / EMB_LSH_BUCKET)), 4, 24))

    class Bucketer:
        def __init__(self):
            self.planes = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            vecs = _vec_matrix(batch["embedding"], len(batch))
            if self.planes is None:
                rng = np.random.default_rng(3)
                self.planes = rng.standard_normal(
                    (EMB_LSH_TABLES, vecs.shape[1], nbits)
                ).astype(np.float32)
            n = len(vecs)
            ids = batch["vec_id"].to_numpy(zero_copy_only=False)
            tabs, buckets = [], []
            for t in range(EMB_LSH_TABLES):
                proj = vecs @ self.planes[t]
                bits = (proj > 0).astype(np.uint64)
                b = (bits << np.arange(nbits, dtype=np.uint64)[None, :]).sum(axis=1)
                tabs.append(np.full(n, t, dtype=np.int32))
                buckets.append(b.astype(np.int64))
            return pa.table(
                {
                    "band_id": pa.array(np.concatenate(tabs)),
                    "band_hash": pa.array(np.concatenate(buckets)),
                    "vec_id": pa.array(np.tile(ids, EMB_LSH_TABLES)),
                }
            )

    exploded = ds.map_batches(Bucketer(), batch_format="pyarrow")
    pairs = lsh_candidate_pairs(exploded, "vec_id")
    return verify_cos_pairs_ds(ds, pairs, threshold=threshold)


# ------------------------------------------------- end-to-end near-dedup


def _jaccard_hash_sets(texts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-text sorted unique word-n-gram hash sets, returned FLAT:
    ``(flat, offsets)`` where doc i's set is ``flat[offsets[i]:offsets[i+1]]``
    (sorted, unique). Flat layout keeps downstream pairwise work fully
    vectorized (gather + lexsort) with no per-doc Python objects."""
    s = pd.Series(texts, dtype=object)
    words = s.fillna("").str.split()
    flat = words.explode().fillna("").to_numpy(dtype=object)
    nw = np.maximum(words.str.len().to_numpy(dtype=np.int64), 1)
    word_h = splitmix64(np.asarray(pd.util.hash_array(flat), dtype=np.uint64))
    word_off = _cumsum0(nw)
    g_counts = np.maximum(nw - n + 1, 1)
    g_off = _cumsum0(g_counts)
    pos = (
        np.arange(int(g_counts.sum()), dtype=np.int64)
        - np.repeat(g_off[:-1], g_counts)
        + np.repeat(word_off[:-1], g_counts)
    )
    doc_end = np.repeat(word_off[1:], g_counts)
    gh = word_h[pos].copy()
    with np.errstate(over="ignore"):
        for j in range(1, n):
            ij = pos + j
            vj = ij < doc_end
            hj = np.where(vj, word_h[np.minimum(ij, len(word_h) - 1)], np.uint64(j) * _GRAM_SENT1)
            gh = splitmix64(gh ^ hj)
    # unique-per-doc without a per-doc Python loop: sort (doc, hash),
    # drop equal neighbors within a doc
    doc_of = np.repeat(np.arange(len(nw), dtype=np.int64), g_counts)
    order = np.lexsort((gh, doc_of))
    sd, sh = doc_of[order], gh[order]
    keep = np.ones(len(sh), dtype=bool)
    keep[1:] = (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])
    sd, sh = sd[keep], sh[keep]
    out_counts = np.bincount(sd, minlength=len(nw)).astype(np.int64)
    return sh, _cumsum0(out_counts)


def verify_pairs_ds(ds, pairs_ds, *, threshold: float = 0.8):
    """Distributed candidate-pair verification: join the pair list
    against the corpus texts (two bucketed shuffles of pairs + texts —
    nothing collected to the driver), then exact n-gram Jaccard per
    pair (hash-set intersection; texts appear only inside the join).
    Returns a Dataset (id_a, id_b, jaccard) with jaccard ≥ threshold.

    The n-grams are compared as 64-bit hashes (collision probability
    negligible), equivalent to word-n-gram Jaccard on tuple sets.
    """
    from .join import bucketed_hash_join

    texts = ds.map_batches(
        lambda t: t.select(["doc_id", "text"]), batch_format="pyarrow"
    )
    ta = texts.map_batches(
        lambda t: t.rename_columns(["id_a", "text_a"]), batch_format="pyarrow"
    )
    tb = texts.map_batches(
        lambda t: t.rename_columns(["id_b", "text_b"]), batch_format="pyarrow"
    )
    j = bucketed_hash_join(bucketed_hash_join(pairs_ds, ta, "id_a"), tb, "id_b")

    def score(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    "id_a": batch["id_a"],
                    "id_b": batch["id_b"],
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        # each doc appears in many pairs — build its gram set ONCE per
        # batch (unique docs), then look pairs up by position
        ids = np.concatenate(
            [
                batch["id_a"].to_numpy(zero_copy_only=False),
                batch["id_b"].to_numpy(zero_copy_only=False),
            ]
        )
        txts = np.concatenate(
            [
                batch["text_a"].to_numpy(zero_copy_only=False),
                batch["text_b"].to_numpy(zero_copy_only=False),
            ]
        )
        uniq_ids, inv = np.unique(ids.astype(str), return_inverse=True)
        first = np.zeros(len(uniq_ids), dtype=np.int64)
        first[inv[::-1]] = np.arange(len(ids) - 1, -1, -1)
        flat, offs = _jaccard_hash_sets(txts[first], 3)
        doc_lens = np.diff(offs)
        m = len(batch)

        def gather(docidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            lens = doc_lens[docidx]
            o = _cumsum0(lens)
            pos = (
                np.arange(int(lens.sum()), dtype=np.int64)
                - np.repeat(o[:-1], lens)
                + np.repeat(offs[docidx], lens)
            )
            return flat[pos], lens

        # batched intersection: tag each set element with its pair id,
        # lexsort the union of A- and B-elements, count equal neighbors
        # (sets are unique per side, so each shared hash appears exactly
        # twice per pair) — no per-pair Python work
        a_flat, lens_a = gather(inv[:m])
        b_flat, lens_b = gather(inv[m:])
        pid = np.concatenate(
            [
                np.repeat(np.arange(m, dtype=np.int64), lens_a),
                np.repeat(np.arange(m, dtype=np.int64), lens_b),
            ]
        )
        h = np.concatenate([a_flat, b_flat])
        order = np.lexsort((h, pid))
        sp, sh = pid[order], h[order]
        dup = (sp[1:] == sp[:-1]) & (sh[1:] == sh[:-1])
        inter = np.bincount(sp[1:][dup], minlength=m).astype(np.float64)
        union = np.maximum(lens_a + lens_b - inter, 1.0)
        jac = inter / union
        out = pa.table(
            {"id_a": batch["id_a"], "id_b": batch["id_b"], "jaccard": pa.array(jac)}
        )
        return out.filter(pa.array(jac >= threshold))

    return j.map_batches(score, batch_format="pyarrow")


def connected_components(edges: list[tuple]) -> dict:
    """Union-find over verified duplicate edges → {id: cluster_root}.

    Driver-side: the edge set is the VERIFIED near-duplicate graph,
    orders of magnitude smaller than the corpus. For corpora where even
    that is too large, use ``connected_components_ds`` (distributed
    min-label propagation — same roots)."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, *_ in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            # smaller root wins → deterministic cluster ids
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    return {x: find(x) for x in parent}


def connected_components_ds(edges_ds):
    """Distributed connected components over an edge Dataset
    (id_a, id_b) via iterative min-label propagation: each round every
    node takes the min of its own label and its neighbors' labels (two
    grouped merges over the edge list — no driver-side graph). Labels
    converge to the component's min id — identical roots to the
    union-find path. Iterations ≈ graph diameter; near-dup clusters
    are shallow, so a handful of rounds suffices (at most 20 run).

    Returns a Dataset (id, root) covering every node that appears in
    an edge. Scale shape: each round shuffles |edges| label messages.
    """
    import pyarrow.compute as pc

    from .aggregate import bucketed_aggregate

    def _min_ew(a, b):
        # element-wise min that also works for string ids
        return pc.if_else(pc.less_equal(a, b), a, b)

    def to_msgs(batch: pa.Table) -> pa.Table:
        # seed: each endpoint proposes min(a, b) to both endpoints
        a, b = batch["id_a"].combine_chunks(), batch["id_b"].combine_chunks()
        lo = _min_ew(a, b)
        return pa.table(
            {
                "id": pa.concat_arrays([a, b]),
                "label": pa.concat_arrays([lo, lo]),
            }
        )

    # node count ~ dup-graph size → bucketed merge each round, not Ray
    # native agg (per-group Python at the sort boundary)
    labels = bucketed_aggregate(
        edges_ds.map_batches(to_msgs, batch_format="pyarrow"),
        ["id"],
        [("label", "min", "label")],
    ).materialize()
    edges = edges_ds.materialize()
    prev_sig = None
    for _ in range(20):
        from .join import bucketed_hash_join  # labels can be large: bucketed join

        la = labels.map_batches(
            lambda t: t.rename_columns(["id_a", "label_a"]), batch_format="pyarrow"
        )
        j = bucketed_hash_join(edges, la, "id_a")
        lb = labels.map_batches(
            lambda t: t.rename_columns(["id_b", "label_b"]), batch_format="pyarrow"
        )
        j = bucketed_hash_join(j, lb, "id_b")

        def msgs(df: pd.DataFrame) -> pd.DataFrame:
            # every node appears in an incident edge, so emitting
            # min(label_a, label_b) to BOTH endpoints already includes
            # each node's own label — no union with `labels` needed
            m = np.minimum(df["label_a"].to_numpy(), df["label_b"].to_numpy())
            return pd.DataFrame(
                {
                    "id": np.concatenate([df["id_a"].to_numpy(), df["id_b"].to_numpy()]),
                    "label": np.concatenate([m, m]),
                }
            )

        new_labels = bucketed_aggregate(
            j.map_batches(msgs, batch_format="pandas"),
            ["id"],
            [("label", "min", "label")],
        ).materialize()
        # convergence: order-insensitive checksum of (id, label)
        def sig_batch(t: pa.Table) -> pa.Table:
            h = _text_hash64(
                pd.Series(t["id"].to_pylist(), dtype=object).astype(str)
                + "\x00"
                + pd.Series(t["label"].to_pylist(), dtype=object).astype(str)
            )
            return pa.table({"x": pa.array([int(np.bitwise_xor.reduce(h))], pa.uint64())})

        parts = new_labels.map_batches(sig_batch, batch_format="pyarrow").take_all()
        sig = 0
        for r in parts:
            sig ^= int(r["x"])
        labels = new_labels
        if sig == prev_sig:
            break
        prev_sig = sig
    return labels.map_batches(
        lambda t: t.rename_columns(["id", "root"]), batch_format="pyarrow"
    )


# verified-edge count past which near_dedup_clusters runs connected
# components distributed instead of on the driver
CC_EDGE_THRESHOLD = 100_000


def near_dedup(ds, *, bands: int = 16, jaccard_threshold: float = 0.8):
    """End-to-end near-duplicate removal, distributed at every step:

    MinHash+LSH candidate pairs (bucketed groupby — no driver bucket
    table) → exact n-gram-Jaccard verification (distributed join of
    pairs × texts) → connected components over the verified edges →
    survivors = min id per duplicate cluster + all unclustered docs.

    LSH runs 5-byte shingles through 128 permutations. The default
    shape is 16 bands × 8 rows: at the 0.8 default threshold a true
    pair collides with p ≈ 0.95 while the random-collision rate per
    band is J^8 — on corpora with templated boilerplate (baseline
    J ≈ 0.2-0.4) this keeps the candidate set ~linear in n, where
    4-row bands degenerate toward all-pairs (measured 292k candidates
    from 5.2k docs). Candidate count, not hashing, is the scale cost:
    every candidate crosses the verify join. Lower ``bands`` (wider
    rows) further for higher thresholds; raise it for recall at low
    thresholds. Connected components run as ``near_dedup_clusters``
    chooses. Returns (survivor_ids_table, clusters dict
    {dup_id: root_id}).
    """
    clusters = near_dedup_clusters(ds, bands=bands, jaccard_threshold=jaccard_threshold)
    drop = {x for x, root in clusters.items() if root != x}
    import ray

    drop_ref = ray.put(np.asarray(sorted(drop), dtype=object))

    def survivors(batch: pa.Table) -> pa.Table:
        ids = pd.Series(batch["doc_id"].to_numpy(zero_copy_only=False))
        dropped = ray.get(drop_ref)
        mask = ~ids.isin(dropped).to_numpy()  # vectorized membership
        return batch.select(["doc_id"]).filter(pa.array(mask))

    surv = pa.concat_tables(
        ds.map_batches(survivors, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    return surv, clusters


def near_dedup_clusters(ds, *, bands: int = 16, jaccard_threshold: float = 0.8):
    """The discovery half of ``near_dedup``: LSH candidates → verified
    edges → connected components, returning only the cluster map
    ``{dup_id: root_id}`` (one entry per node touching a verified
    edge — O(duplicates), never O(corpus)). Callers that need the
    filtered corpus apply their own anti-filter so the text is not
    re-read (``pipelines/corpus_prep.py`` composes this). LSH runs
    5-byte shingles through 128 permutations in ``bands`` bands.

    Connected components run as union-find over the collected edges
    (O(edges) on the driver) while the verified edges number at most
    ``CC_EDGE_THRESHOLD``; past it they run as min-label propagation
    (``connected_components_ds``) and the driver holds only the
    O(dup-nodes) label map — so a dup-heavy corpus never ships its
    edge set to the driver."""
    exploded = _lsh_explode(ds, "text", "doc_id", k=5, num_perm=128, bands=bands)
    pairs = lsh_candidate_pairs(exploded, "doc_id")
    edges_ds = verify_pairs_ds(ds, pairs, threshold=jaccard_threshold).materialize()
    if edges_ds.count() > CC_EDGE_THRESHOLD:
        labels = connected_components_ds(
            edges_ds.map_batches(
                lambda t: t.select(["id_a", "id_b"]), batch_format="pyarrow"
            )
        )
        lab_batches = list(
            labels.iter_batches(batch_format="pyarrow", batch_size=None)
        )
        clusters = {}
        for lb in lab_batches:  # one entry per dup-graph NODE (≪ edges)
            clusters.update(zip(lb["id"].to_pylist(), lb["root"].to_pylist()))
    else:
        edge_batches = list(
            edges_ds.iter_batches(batch_format="pyarrow", batch_size=None)
        )
        if edge_batches:
            edges_tbl = pa.concat_tables(edge_batches, promote_options="permissive")
            edges = list(
                zip(
                    edges_tbl["id_a"].to_pylist(),
                    edges_tbl["id_b"].to_pylist(),
                    edges_tbl["jaccard"].to_pylist(),
                )
            )
        else:
            edges = []
        clusters = connected_components(edges)
    return clusters
