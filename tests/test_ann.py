"""ANN operators: brute-force exact baseline + IVF recall."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from opentelemetry_collector_contrib_ray.stages.ann import IvfIndex, brute_force_topk, ivf_topk


def _vectors(n=400, d=16, seed=5):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, d)).astype(np.float32)
    return m


def _ds(m):
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(m)), pa.int64()),
                "embedding": pa.array(list(m), pa.list_(pa.float32())),
            }
        )
    )


def test_brute_force_matches_numpy():
    m = _vectors()
    q = m[7]
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    exact = set(np.argsort(-(norm @ qn))[:10].tolist())
    out = brute_force_topk(_ds(m), q.reshape(1, -1), k=10).to_pandas()
    assert set(out["vec_id"]) == exact
    assert out["cos"].max() > 0.999  # itself


def test_ivf_high_recall_on_clustered_data():
    rng = np.random.default_rng(9)
    centers = rng.standard_normal((4, 16)).astype(np.float32) * 5
    m = np.concatenate([c + rng.standard_normal((100, 16)).astype(np.float32) for c in centers])
    q = m[3]
    idx = IvfIndex(n_lists=8).train(m[rng.choice(len(m), 200, replace=False)])
    out = ivf_topk(_ds(m), idx, q, k=10, nprobe=4).to_pandas()
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    exact = set(np.argsort(-(norm @ qn))[:10].tolist())
    recall = len(set(out["vec_id"]) & exact) / 10
    assert recall >= 0.7  # clustered data, 4/8 lists probed


def test_distributed_refine_matches_local_lloyd():
    # refine() over the full dataset must equal a single-process Lloyd
    # run from the same starting centroids (same assignment → mean →
    # renormalize update, empty clusters frozen).
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((3, 8)).astype(np.float32) * 4
    m = np.concatenate(
        [c + rng.standard_normal((60, 8)).astype(np.float32) for c in centers]
    )
    idx = IvfIndex(n_lists=4, iters=1).train(m[:10])
    start = idx.centroids.copy()

    # local reference: two Lloyd iterations
    def normalize(x):
        n = np.linalg.norm(x, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return x / n

    xm = normalize(m.astype(np.float32))
    c = start.copy()
    for _ in range(2):
        assign = np.argmax(xm @ c.T, axis=1)
        new_c = c.astype(np.float64).copy()
        for j in range(len(c)):
            if (assign == j).any():
                new_c[j] = xm[assign == j].astype(np.float64).mean(axis=0)
        c = normalize(new_c.astype(np.float32))

    idx.refine(_ds(m), iters=2)
    assert np.allclose(idx.centroids, c, atol=1e-5)


def test_refine_improves_quantization(tmp_path):
    # refining on the full corpus should not worsen mean similarity to
    # the assigned centroid vs the 10-sample-trained start.
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((6, 12)).astype(np.float32) * 5
    m = np.concatenate(
        [c + rng.standard_normal((50, 12)).astype(np.float32) for c in centers]
    )
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    idx = IvfIndex(n_lists=6, iters=2).train(m[:10])

    def mean_sim(c):
        return float(np.max(norm @ c.T, axis=1).mean())

    before = mean_sim(idx.centroids)
    idx.refine(_ds(m), iters=3)
    assert mean_sim(idx.centroids) >= before - 1e-6


class TestEmbeddingQuantization:
    def test_reconstruction_bound_and_recall(self, ray_session):
        import ray

        from opentelemetry_collector_contrib_ray.stages.ann import (
            EmbeddingQuantizer,
            brute_force_topk,
            embedding_quant_params,
            quantized_topk,
        )

        rng = np.random.default_rng(3)
        n, d = 600, 16
        mat = rng.standard_normal((n, d)).astype(np.float32)
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(mat.ravel(), pa.float32()), d
                ),
            }
        )
        ds = ray.data.from_arrow(tbl).repartition(4)
        mins, maxs = embedding_quant_params(ds)
        assert np.allclose(mins, mat.min(axis=0)) and np.allclose(maxs, mat.max(axis=0))
        quant = EmbeddingQuantizer(mins, maxs)
        codes_ds = ds.map_batches(quant, batch_format="pyarrow")
        codes = codes_ds.to_pandas().sort_values("vec_id")
        # per-dim reconstruction error bounded by scale/2
        rec = quant.decode(np.stack(codes["codes"].to_numpy()).astype(np.uint8))
        assert (np.abs(rec - mat) <= quant.scale[None, :] / 2 + 1e-6).all()
        # quantized search recalls the exact top-10 almost perfectly
        q = mat[:2]
        exact = brute_force_topk(ds, q, k=10).to_pandas()
        approx = quantized_topk(codes_ds, quant, q, k=10).to_pandas()
        for qi in range(2):
            e = set(exact[exact["query_idx"] == qi]["vec_id"])
            a = set(approx[approx["query_idx"] == qi]["vec_id"])
            assert len(e & a) >= 8  # recall@10 >= 0.8 at SQ8

    def test_constant_dim_safe(self, ray_session):
        import ray

        from opentelemetry_collector_contrib_ray.stages.ann import (
            EmbeddingQuantizer,
            embedding_quant_params,
        )

        mat = np.ones((10, 4), np.float32)  # zero range per dim
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(10, dtype=np.int64)),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(mat.ravel(), pa.float32()), 4
                ),
            }
        )
        ds = ray.data.from_arrow(tbl)
        mins, maxs = embedding_quant_params(ds)
        quant = EmbeddingQuantizer(mins, maxs)
        out = ds.map_batches(quant, batch_format="pyarrow").to_pandas()
        rec = quant.decode(np.stack(out["codes"].to_numpy()).astype(np.uint8))
        assert np.allclose(rec, mat)
