"""SemDeDup-style semantic deduplication over an embedding column.

Public method (Abbas et al. 2023, "SemDeDup: Data-efficient learning
at web-scale through semantic deduplication"): k-means cluster the
embeddings, then WITHIN each cluster drop all but one member of every
group whose pairwise cosine similarity exceeds a threshold. Unlike
MinHash (lexical) or exact hashing, this removes *semantic* duplicates
— paraphrases, templated rewrites — while the clustering step bounds
the O(c²) pairwise work to cluster-sized blocks.

Ray-Data-first layout:
* centroids train on a bounded driver-side sample (`IvfIndex.train`,
  stages/ann.py — k-means is tiny relative to the corpus and the
  centroid matrix broadcasts once per process);
* cluster assignment is a stateless `map_batches` pass over zero-copy
  Arrow (argmax over a broadcast centroid matmul);
* the within-cluster prune is ONE `keyed_apply` shuffle on
  the cluster id — per-cluster vectorized numpy (normalize → Gram
  matrix → upper-triangular threshold test), never per-row Python.

Partitioning assumption (documented per the engine's custom-operator
policy): a cluster's members must co-locate, so the largest cluster
bounds a single task's memory — n_clusters should scale with corpus
size (the paper uses ~100k clusters at web scale; `auto_clusters`
gives sqrt(n)-ish growth).

Keep policies:
* "min_id"  — the smallest id in each duplicate group survives
  (deterministic, oracle-friendly);
* "far_from_centroid" — the paper's choice: within each duplicate
  group keep the member with the LOWEST cosine similarity to its
  cluster centroid.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .aggregate import derived_num_partitions, keyed_apply, sorted_groups
from .ann import IvfIndex, _mat, _normalize


def auto_clusters(n_rows: int) -> int:
    return max(4, int(np.sqrt(max(n_rows, 1)) / 2))


def _prune_cluster(
    ids: np.ndarray, m: np.ndarray, threshold: float, keep: str,
    centroid: np.ndarray | None,
) -> np.ndarray:
    """→ boolean keep-mask for one cluster. m is row-normalized."""
    n = len(ids)
    if n <= 1:
        return np.ones(n, bool)
    if keep == "far_from_centroid" and centroid is not None:
        c = centroid / (np.linalg.norm(centroid) or 1.0)
        # LOWER similarity to the centroid = higher keep priority
        order = np.argsort(m @ c, kind="stable")
    else:
        order = np.argsort(ids, kind="stable")
    mm = m[order]
    sims = mm @ mm.T
    # drop row i when ANY higher-priority row j (j before i in the
    # priority order) is a near-duplicate of it
    dup_to_earlier = (np.tril(sims, -1) > threshold).any(axis=1)
    keep_mask = np.ones(n, bool)
    # sequential sweep within the duplicate closure: a row dropped
    # because of an earlier row must not itself suppress later rows
    # only via transitivity that the earlier row doesn't share. The
    # paper treats any >τ link to a kept earlier row as a drop; rows
    # whose only >τ links are to DROPPED rows stay. One pass in
    # priority order implements exactly that.
    for i in range(n):
        if not dup_to_earlier[i]:
            continue
        earlier = sims[i, :i] > threshold
        if (earlier & keep_mask[:i]).any():
            keep_mask[i] = False
    out = np.ones(n, bool)
    out[order] = keep_mask
    return out


def semantic_dedup(
    ds,
    *,
    threshold: float = 0.9,
    n_clusters: int | None = None,
    keep: str = "min_id",
    sample_size: int = 4096,
):
    """(vec_id, embedding) Dataset → survivors Dataset with [vec_id,
    _cluster]. Drops within-cluster cosine-duplicates above
    ``threshold``."""
    n_rows = ds.count()
    k = n_clusters or auto_clusters(n_rows)

    sample = ds.limit(sample_size).to_pandas()
    smat = np.stack(sample["embedding"].to_numpy()).astype(np.float32)
    index = IvfIndex(n_lists=k).train(smat)
    centroids = index.centroids  # broadcast via closure capture

    def assign(batch: pa.Table) -> pa.Table:
        m = _normalize(_mat(batch, "embedding"))
        cl = np.argmax(m @ centroids.T, axis=1).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
                "_cluster": pa.array(cl),
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def prune(t: pa.Table) -> pa.Table:
        outs = []
        for g in sorted_groups(t, ["_cluster"]):  # stable: a cluster keeps its bucket order
            ids = g["vec_id"].to_numpy(zero_copy_only=False)
            m = _normalize(_mat(g, "embedding"))
            mask = _prune_cluster(ids, m, threshold, keep, centroids[g["_cluster"][0].as_py()])
            outs.append(g.select(["vec_id", "_cluster"]).filter(pa.array(mask)))
        return pa.concat_tables(outs)

    survivors = keyed_apply(
        assigned, "_cluster", prune, num_buckets=min(derived_num_partitions(), k)
    )
    return survivors
