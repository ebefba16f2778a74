"""Approximate nearest-neighbor search over an embedding column.

Engine additions (no reference analogue). Two paths:

- ``brute_force_topk``: exact baseline — the (few) query vectors ship
  once with the ``_TopkPartial`` operator, per-batch normalized matmul
  + local top-k partials, one tiny final merge. Scales linearly; the shuffle carries
  only k rows per (batch, query).
- ``IvfIndex`` / ``ivf_topk``: the scale path — k-means-style coarse
  quantizer trained on a sample (driver-side, small), vectors assigned
  to their nearest centroid in a map_batches pass, search probes only
  ``nprobe`` inverted lists. The centroid table broadcasts; the
  assignment column doubles as a partition key for locality at 100 TB.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _mat(batch: pa.Table, emb_col: str) -> np.ndarray:
    col = batch[emb_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col.type, pa.ExtensionType):
        # Ray's ArrowTensorType (from_pandas path): to_numpy gives (n, d)
        m = col.to_numpy(zero_copy_only=False)
        if m.dtype == object:
            m = np.stack(m)
        return np.ascontiguousarray(m, dtype=np.float32)
    lens = pc.list_value_length(col).to_numpy()
    flat = np.asarray(col.flatten(), dtype=np.float32)
    if len(lens) and (lens == lens[0]).all():
        return flat.reshape(len(lens), -1)
    return np.stack([np.asarray(v, np.float32) for v in col.to_pylist()])


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _codes_mat(batch: pa.Table, quant: "EmbeddingQuantizer") -> np.ndarray:
    """The decoded (n, d) float32 matrix of a batch's ``codes`` column."""
    col = batch["codes"]
    la = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = la.offsets.to_numpy().astype(np.int64)
    vals = la.values.to_numpy(zero_copy_only=False)
    d = int(offs[1] - offs[0]) if len(offs) > 1 else len(vals)
    codes = vals[offs[0]:].reshape(-1, d) if d else vals.reshape(0, 0)
    return quant.decode(codes)


class _TopkPartial:
    """Per-batch cosine top-k partial of every query: one normalized
    matmul and one column-wise ``argpartition``, emitted query by query
    as ``(query_idx, vec_id, cos)`` rows. ``matrix`` reads a batch's
    (n, d) vectors. Pass an instance to ``map_batches``: the (few)
    query vectors are serialized once with the operator."""

    def __init__(self, queries: np.ndarray, k: int, matrix):
        self.q = _normalize(np.asarray(queries, dtype=np.float32))
        self.k = k
        self.matrix = matrix

    def __call__(self, batch: pa.Table) -> pa.Table:
        sims = _normalize(self.matrix(batch)) @ self.q.T  # (n, nq)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        kk = min(self.k, sims.shape[0])
        idx = np.argpartition(-sims, kk - 1, axis=0)[:kk].T  # (nq, kk)
        return pa.table(
            {
                "query_idx": pa.array(np.repeat(np.arange(sims.shape[1]), kk), pa.int32()),
                "vec_id": pa.array(ids[idx.ravel()]),
                "cos": pa.array(np.take_along_axis(sims.T, idx, axis=1).ravel().astype(np.float64)),
            }
        )


def brute_force_topk(ds, queries: np.ndarray, k: int = 10):
    """Exact cosine top-k for each query row over a (vec_id, embedding)
    Dataset. Returns a Dataset with
    (query_idx, vec_id, cos), k rows per query."""
    partial = _TopkPartial(queries, k, functools.partial(_mat, emb_col="embedding"))
    return _merge_topk(ds.map_batches(partial, batch_format="pyarrow"), k)


def _merge_topk(partials, k: int):
    """Global top-k per query from per-batch top-k partials: one
    ``keyed_apply`` shuffle on ``query_idx``, then per bucket one stable
    sort by (query_idx, cos desc) keeping the first k rows per query."""
    from .aggregate import head_per_group, keyed_apply

    def topk(t: pa.Table) -> pa.Table:
        return head_per_group(t, "query_idx", [("cos", "descending")], k)[0]

    return keyed_apply(partials, "query_idx", topk)


class IvfIndex:
    """Coarse quantizer for IVF search.

    train(): k-means (few iterations, deterministic seed) on a sampled
    matrix — runs on the driver over a SAMPLE only, never the corpus.
    assign(): map_batches stage adding a ``list_id`` column.
    """

    def __init__(self, n_lists: int = 16, iters: int = 10):
        self.n_lists, self.iters = n_lists, iters
        self.centroids: np.ndarray | None = None

    def train(self, sample: np.ndarray) -> "IvfIndex":
        x = _normalize(np.asarray(sample, dtype=np.float32))
        rng = np.random.default_rng(11)
        init = x[rng.choice(len(x), size=min(self.n_lists, len(x)), replace=False)]
        c = init.copy()
        for _ in range(self.iters):
            assign = np.argmax(x @ c.T, axis=1)
            for j in range(len(c)):
                members = x[assign == j]
                if len(members):
                    c[j] = members.mean(axis=0)
            c = _normalize(c)
        self.centroids = c
        return self

    def refine(self, ds, iters: int = 2, emb_col: str = "embedding") -> "IvfIndex":
        """Distributed Lloyd refinement of the sample-trained
        centroids over the FULL dataset: each iteration is one
        streaming pass where every batch computes per-centroid partial
        (sum-vector, count) against the broadcast centroid matrix, and
        the driver merges ``num_batches × n_lists`` tiny partials into
        the new centroids (k × dim floats — never the corpus). The
        standard scale recipe when the coarse quantizer must reflect
        the whole 100-TB distribution, not just the training sample;
        empty clusters keep their previous centroid."""
        import ray

        for _ in range(iters):
            c_ref = ray.put(self.centroids)
            n_lists = self.n_lists

            def partials(batch: pa.Table, c=c_ref) -> pa.Table:
                cm = ray.get(c) if isinstance(c, ray.ObjectRef) else c
                mat = _normalize(_mat(batch, emb_col))
                assign = np.argmax(mat @ cm.T, axis=1)
                dim = mat.shape[1]
                sums = np.zeros((n_lists, dim), np.float64)
                np.add.at(sums, assign, mat)
                counts = np.bincount(assign, minlength=n_lists).astype(np.int64)
                return pa.table(
                    {
                        "list_id": pa.array(np.arange(n_lists, dtype=np.int32)),
                        "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                        "cnt": pa.array(counts),
                    }
                )

            agg = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
            sums = np.zeros_like(self.centroids, dtype=np.float64)
            counts = np.zeros(self.n_lists, dtype=np.int64)
            for lid, grp in agg.groupby("list_id"):
                sums[lid] = np.sum(np.stack(grp["vsum"].to_numpy()), axis=0)
                counts[lid] = grp["cnt"].sum()
            new_c = self.centroids.astype(np.float64).copy()
            nz = counts > 0
            new_c[nz] = sums[nz] / counts[nz, None]
            self.centroids = _normalize(new_c.astype(np.float32))
        return self

    def assigner(self, emb_col: str = "embedding"):
        """Returns a task-pool function; the centroid matrix is small
        (n_lists × dim) so it ships in the function closure."""
        c = self.centroids

        def assign(batch: pa.Table) -> pa.Table:
            mat = _normalize(_mat(batch, emb_col))
            lid = np.argmax(mat @ c.T, axis=1).astype(np.int32)
            return batch.append_column("list_id", pa.array(lid))

        return assign


def ivf_topk(ds, index: IvfIndex, query: np.ndarray, k: int = 10, nprobe: int = 4):
    """Probe the nprobe nearest lists only; exact cosine within them.
    Recall < 1.0 by design — the scale path for 100 TB corpora."""
    q = _normalize(np.asarray(query, dtype=np.float32).reshape(1, -1))[0]
    probes = np.argsort(-(index.centroids @ q))[:nprobe].tolist()
    assigned = ds.map_batches(index.assigner(), batch_format="pyarrow")
    probe_set = set(int(p) for p in probes)

    def filt(batch: pa.Table) -> pa.Table:
        lid = batch["list_id"].to_numpy()
        return batch.filter(pa.array(np.isin(lid, list(probe_set))))

    candidates = assigned.map_batches(filt, batch_format="pyarrow")
    return brute_force_topk(candidates, q.reshape(1, -1), k)


# ------------------------------------------------- scalar int8 quantization


def embedding_quant_params(ds) -> tuple[np.ndarray, np.ndarray]:
    """Global per-dimension (min, max) of an embedding column via one
    distributed partial pass — each batch ships two d-length vectors,
    the driver folds ``num_blocks`` tiny partials. Returns
    ``(mins, maxs)`` float32 arrays."""

    def partials(batch: pa.Table) -> pa.Table:
        m = _mat(batch, "embedding")
        return pa.table(
            {
                "mn": pa.array([m.min(axis=0).astype(np.float32).tobytes()], pa.binary()),
                "mx": pa.array([m.max(axis=0).astype(np.float32).tobytes()], pa.binary()),
            }
        )

    rows = ds.map_batches(partials, batch_format="pyarrow").take_all()
    mins = np.min([np.frombuffer(r["mn"], np.float32) for r in rows], axis=0)
    maxs = np.max([np.frombuffer(r["mx"], np.float32) for r in rows], axis=0)
    return mins, maxs


class EmbeddingQuantizer:
    """Scalar (per-dimension, asymmetric) int8 quantization of an
    embedding column — the 4× memory/IO scale path for ANN stores
    (classic SQ8; constant-width dims need no codebook training).
    ``code = round((v - min) / scale)`` into uint8; reconstruction
    error per dim is ≤ scale/2 = (max-min)/510 by construction.

    Broadcast stage: pass an instance to ``map_batches`` and (mins,
    scale) are serialized once with the operator; encode replaces the float list with ``codes`` (list<uint8>). ``decode``
    reverses for search/verification."""

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        self.mins = np.asarray(mins, np.float32)
        rng = np.asarray(maxs, np.float32) - self.mins
        self.scale = np.where(rng > 0, rng / 255.0, 1.0).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _mat(batch, "embedding")
        codes = np.clip(
            np.round((m - self.mins[None, :]) / self.scale[None, :]), 0, 255
        ).astype(np.uint8)
        n, d = codes.shape
        la = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32)),
            pa.array(codes.ravel(), pa.uint8()),
        )
        batch = batch.drop_columns(["embedding"])
        return batch.append_column("codes", la)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return codes.astype(np.float32) * self.scale[None, :] + self.mins[None, :]


def quantized_topk(
    codes_ds, quant: "EmbeddingQuantizer", queries: np.ndarray, k: int = 10,
):
    """Exact cosine top-k over the QUANTIZED store: each batch decodes
    its uint8 codes (vectorized) and runs the same matmul/argpartition
    as ``brute_force_topk`` — the IO/memory win is upstream (the store
    holds 1/4 the bytes); recall loss is bounded by the SQ8
    reconstruction error."""
    partial = _TopkPartial(queries, k, functools.partial(_codes_mat, quant=quant))
    return _merge_topk(codes_ds.map_batches(partial, batch_format="pyarrow"), k)
