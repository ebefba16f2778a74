"""Deduplication operators for large-scale training-data pipelines.

Not present in the reference (SURVEY.md §2.8 — the ES exporter dedups
field keys only); these are first-class engine additions. All follow
the same scale shape: vectorized per-batch hashing (MinHash, SimHash) in
``map_batches``, then ONE shuffle on the band or hash key, then per-BUCKET
(not per-key) resolution. The corpus never reaches the driver; only
``near_dedup``'s survivor ids and verified edges do, each through
``_util.collect`` and its row cap:

- hash kernels (shingles, MinHash, SimHash) run one strided numpy
  pass over the batch's concatenated bytes — no per-document Python;
- LSH bucket resolution and candidate-pair generation happen inside
  one ``keyed_apply`` shuffle (one Arrow sort per bucket), not via
  driver-side collection;
- pair verification is a distributed join of the pair list against the
  corpus texts (two bucketed shuffles of pairs+texts);
- connected components run on the driver over the VERIFIED edge set
  (orders smaller than the corpus): vectorized min-label hooking and
  pointer jumping, run until nothing changes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._util import collect, hash_str_u64, splitmix64
from .aggregate import bucketed_aggregate, keyed_apply, sorted_runs
from .join import bucketed_hash_join

_MERSENNE = (1 << 61) - 1
_SHINGLE_P = np.uint64(1099511628211)


def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = hash_str_u64(batch[text_col].to_numpy(zero_copy_only=False))
    return batch.append_column("content_hash", pa.array(h.astype(np.int64)))


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
    to one window. Returns
    ``(flat_hashes uint64, per_doc_counts int64)`` — feed ``counts``
    boundaries to ``np.minimum.reduceat`` for per-doc minima.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    if arr.null_count:
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


class MinHasher:
    """Per-batch MinHash sketches (k-shingles, n permutations).

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

    # max shingles per (num_perm × shingles) matrix: bounds the temp
    # allocation to ~ num_perm × _CHUNK × 8B (≈128 MB at 128 × 128k)
    _CHUNK = 128 * 1024

    def _flat_hashes(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """Hash source hook: byte shingles over the text column.
        ``TokenMinHasher`` overrides with token-window hashes so the
        same MinHash/LSH machinery runs on pre-tokenized corpora."""
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
    first_win = np.repeat(_cumsum0(n_wins)[:-1], n_wins)
    starts = np.repeat(offs[:-1], n_wins) + np.arange(len(first_win), dtype=np.int64) - first_win
    u = vals.astype(np.uint64)
    h = np.zeros(len(starts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h = splitmix64(h * _POS_MIX + u[starts + j])
    return h, n_wins.astype(np.int64)


class TokenMinHasher(MinHasher):
    """MinHash sketches over the PRE-TOKENIZED ``tokens`` column
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


def _band_runs(g: pa.Table, id_col: str) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """``g`` sorted on (band_id, band_hash, id), with the start row and
    the size of each band bucket (run of one band key): the one sort
    both LSH bucket functions share."""
    g = g.take(pc.sort_indices(g, [("band_id", "ascending"), ("band_hash", "ascending"), (id_col, "ascending")]))
    starts = sorted_runs(g, ["band_id", "band_hash"])
    return g, starts, np.diff(np.append(starts, len(g)))


def _resolve_buckets(exploded, id_col: str, *, num_buckets: int | None = None):
    """(band_id, band_hash, id) triples → multi-member buckets with
    sorted member lists — DISTRIBUTED: one shuffle on a hash bucket of
    the band key, then per-bucket vectorized resolution (keep buckets
    of size ≥2, build the id lists directly as an Arrow ListArray). No
    driver-side bucket-count table, no per-row Python membership."""

    def resolve(g: pa.Table) -> pa.Table:
        g, starts, sizes = _band_runs(g, id_col)
        multi = sizes >= 2
        g = g.filter(pa.array(np.repeat(multi, sizes)))
        bounds = pa.array(_cumsum0(sizes[multi]).astype(np.int32))
        return pa.table(
            {
                "band_id": g["band_id"].take(bounds[:-1]),
                "band_hash": g["band_hash"].take(bounds[:-1]),
                "ids": pa.ListArray.from_arrays(bounds, g[id_col].combine_chunks()),
                "n": pa.array(sizes[multi].astype(np.int64)),
            }
        )

    return keyed_apply(exploded, ["band_id", "band_hash"], resolve, num_buckets=num_buckets)


def lsh_candidate_pairs(exploded, id_col: str):
    """(band_id, band_hash, id) triples → globally-unique candidate
    pairs (id_a < id_b), fully distributed: pairs are generated inside
    the bucketed groupby (size-2 buckets vectorized; larger buckets —
    rare by LSH construction — by a triangular expansion each), then
    deduped across bands with a second keyed shuffle of the pairs."""

    def band_pairs(g: pa.Table) -> pa.Table:
        g, starts, sizes = _band_runs(g, id_col)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        # size-2 buckets (the common case): the two members are adjacent
        first = starts[sizes == 2]
        out_a, out_b = [ids[first]], [ids[first + 1]]
        for s, n in zip(starts[sizes > 2], sizes[sizes > 2]):
            ia, ib = np.triu_indices(n, k=1)
            out_a.append(ids[s + ia])
            out_b.append(ids[s + ib])
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        # local dedupe first (same pair can recur within this bucket):
        # lexsort + neighbor equality
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep = np.ones(len(a), bool)
        keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        id_type = g.schema.field(id_col).type
        return pa.table({"id_a": pa.array(a[keep], id_type), "id_b": pa.array(b[keep], id_type)})

    pairs = keyed_apply(exploded, ["band_id", "band_hash"], band_pairs)

    # dedupe across bands: a pair's copies from every band co-locate on
    # the (id_a, id_b) key; one Arrow group-by per bucket keeps each once
    return bucketed_aggregate(pairs, ["id_a", "id_b"], [])


# -------------------------------------------------------------------- SimHash

_GRAM_SENT = np.uint64(0xC2B2AE3D27D4EB4F)


def _word_gram_hashes(texts, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every word-n-gram hash of each text, FLAT with per-doc counts
    (``(flat uint64, counts int64)``, the shape of the shingle kernel):
    words split on whitespace as ``str.split`` does and hashed with
    ``hash_str_u64``, then n-1 strided folds of the following words'
    hashes. A doc of fewer than n words is one gram padded with
    sentinels; an empty or null text is one empty word."""
    words = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(pc.fill_null(texts, "")))
    nw = pc.list_value_length(words).to_numpy().astype(np.int64)
    word_h = hash_str_u64(pc.list_flatten(words).to_numpy(zero_copy_only=False))
    word_off = _cumsum0(nw)
    g_counts = np.maximum(nw - n + 1, 1)
    g_off = _cumsum0(g_counts)
    pos = (
        np.arange(int(g_off[-1]), dtype=np.int64)
        - np.repeat(g_off[:-1], g_counts)
        + np.repeat(word_off[:-1], g_counts)
    )
    doc_end = np.repeat(word_off[1:], g_counts)
    gh = word_h[pos]
    with np.errstate(over="ignore"):
        for j in range(1, n):
            ij = pos + j
            hj = np.where(ij < doc_end, word_h[np.minimum(ij, len(word_h) - 1)], np.uint64(j) * _GRAM_SENT)
            gh = splitmix64(gh ^ hj)
    return gh, g_counts


class SimHasher:
    """64-bit SimHash over word 3-grams; adds ``simhash`` column.

    Fully batch-vectorized: the gram hashes of ``_word_gram_hashes``,
    bit counting via ``unpackbits`` + per-doc ``reduceat`` — no
    per-document Python loop. Near-dups share low Hamming distance.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column("simhash", pa.array([], pa.int64()))
        gh, g_counts = _word_gram_hashes(batch["text"], 3)
        # bit matrix (G × 64) via unpackbits on the little-endian bytes
        bits = np.unpackbits(
            gh.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        ).astype(np.int32)
        ones = np.add.reduceat(bits, _cumsum0(g_counts)[:-1], axis=0)
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


def _jaccard_hash_sets(texts: pa.Array, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-text sorted unique word-n-gram hash sets, returned FLAT:
    ``(flat, offsets)`` where doc i's set is ``flat[offsets[i]:offsets[i+1]]``
    (sorted, unique). Flat layout keeps downstream pairwise work fully
    vectorized (gather + lexsort) with no per-doc Python objects."""
    gh, g_counts = _word_gram_hashes(texts, n)
    # unique-per-doc without a per-doc Python loop: sort (doc, hash),
    # drop equal neighbors within a doc
    doc_of = np.repeat(np.arange(len(g_counts), dtype=np.int64), g_counts)
    order = np.lexsort((gh, doc_of))
    sd, sh = doc_of[order], gh[order]
    keep = np.ones(len(sh), dtype=bool)
    keep[1:] = (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])
    sd, sh = sd[keep], sh[keep]
    out_counts = np.bincount(sd, minlength=len(g_counts)).astype(np.int64)
    return sh, _cumsum0(out_counts)


def verify_pairs_ds(ds, pairs_ds, *, threshold: float = 0.8):
    """Distributed candidate-pair verification: join the pair list
    against the corpus texts (two bucketed shuffles of pairs + texts —
    nothing collected to the driver), then exact n-gram Jaccard per
    pair (hash-set intersection; texts appear only inside the join).
    Returns a Dataset (id_a, id_b, jaccard) with jaccard ≥ threshold.

    The n-grams are compared as 64-bit hashes (collision probability
    negligible), equivalent to word-n-gram Jaccard on tuple sets.
    A ``pairs_ds`` with no blocks (LSH paired no two docs) has no
    schema to join on and is returned as is: no pair, no edge.
    """
    if pairs_ds.schema() is None:
        return pairs_ds
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
        txts = pa.chunked_array(batch["text_a"].chunks + batch["text_b"].chunks)
        uniq_ids, inv = np.unique(ids.astype(str), return_inverse=True)
        first = np.zeros(len(uniq_ids), dtype=np.int64)
        first[inv[::-1]] = np.arange(len(ids) - 1, -1, -1)
        flat, offs = _jaccard_hash_sets(txts.take(first), 3)
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


def _cluster_roots(edges: pa.Table) -> pa.Table:
    """(doc_id, root) of every node of the ``(id_a, id_b)`` edge table,
    root being the smallest id of the node's connected component.

    Vectorized over the edges: ids are coded as their rank among the
    sorted distinct nodes; each round hooks the larger root of
    every edge whose ends differ onto the smaller (``np.minimum.at``),
    then follows every label to its root (pointer jumping). Labels only
    decrease, so the rounds end; there is no round cap."""
    nodes = pc.unique(pa.chunked_array(edges["id_a"].chunks + edges["id_b"].chunks))
    nodes = nodes.take(pc.sort_indices(nodes))
    ia = pc.index_in(edges["id_a"], value_set=nodes).to_numpy()
    ib = pc.index_in(edges["id_b"], value_set=nodes).to_numpy()
    label = np.arange(len(nodes))
    while True:
        ra, rb = label[ia], label[ib]
        if (ra == rb).all():
            return pa.table({"doc_id": nodes, "root": nodes.take(label)})
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while (label[label] != label).any():
            label = label[label]


def near_dedup(ds, *, bands: int = 16, jaccard_threshold: float = 0.8):
    """End-to-end near-duplicate removal:

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
    thresholds. Returns ``(survivors, clusters)``: the survivors' ids
    as a ``doc_id`` table collected on the driver (O(corpus), capped
    by ``_util.COLLECT_MAX_ROWS``) and ``near_dedup_clusters``' table.
    """
    clusters = near_dedup_clusters(ds, bands=bands, jaccard_threshold=jaccard_threshold)
    non_root = pc.not_equal(clusters["doc_id"], clusters["root"])
    drop = clusters["doc_id"].filter(non_root).combine_chunks()

    def survivors(batch: pa.Table) -> pa.Table:
        # cast: an edge-free corpus gives an int64 cluster table
        ids = batch["doc_id"]
        return batch.select(["doc_id"]).filter(pc.invert(pc.is_in(ids, value_set=drop.cast(ids.type))))

    surv = collect(ds.map_batches(survivors, batch_format="pyarrow"), "near dedup survivors")
    return pa.concat_tables(surv), clusters


def near_dedup_clusters(ds, *, bands: int = 16, jaccard_threshold: float = 0.8):
    """The discovery half of ``near_dedup``: LSH candidates → verified
    edges → connected components, returning only the ``(doc_id, root)``
    table (one row per node touching a verified edge, sorted by id —
    O(duplicates), never O(corpus)); the non-root rows are the
    duplicates to drop. Callers that need the filtered corpus apply
    their own anti-filter so the text is not re-read
    (``pipelines/corpus_prep.py`` composes this). LSH runs 5-byte
    shingles through 128 permutations in ``bands`` bands.

    The verified edges come to the driver through ``_util.collect``,
    which raises past ``COLLECT_MAX_ROWS`` edges; ``_cluster_roots``
    then finds the components there."""
    exploded = _lsh_explode(ds, "text", "doc_id", k=5, num_perm=128, bands=bands)
    pairs = lsh_candidate_pairs(exploded, "doc_id")
    edges = collect(verify_pairs_ds(ds, pairs, threshold=jaccard_threshold), "near dedup edges")
    none = pa.array([], pa.int64())
    edges = edges or [pa.table({"id_a": none, "id_b": none})]
    return _cluster_roots(pa.concat_tables(edges, promote_options="permissive"))
