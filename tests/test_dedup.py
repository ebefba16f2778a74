import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_contrib_ray.stages.dedup import (
    MinHasher,
    SimHasher,
    _cluster_roots,
    _lsh_explode,
    _resolve_buckets,
)


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact word-n-gram Jaccard similarity over tuple sets: the oracle
    ``verify_pairs_ds``'s hashed sets must reproduce."""
    aw, bw = a.split(), b.split()
    A = {tuple(aw[i : i + n]) for i in range(max(1, len(aw) - n + 1))}
    B = {tuple(bw[i : i + n]) for i in range(max(1, len(bw) - n + 1))}
    if not A and not B:
        return 1.0
    return len(A & B) / max(1, len(A | B))


def _docs():
    base = "the quick brown fox jumps over the lazy dog again and again today"
    return pd.DataFrame(
        {
            "doc_id": ["d0", "d1", "d2", "d3"],
            "text": [
                base,
                base,  # exact dup of d0
                base.replace("today", "tomorrow"),  # near dup
                "completely different content about ray data pipelines running at scale",
            ],
        }
    )


def test_minhash_similarity_reflects_jaccard():
    sigs = MinHasher(num_perm=128)(pa.table({"text": _docs()["text"].tolist()}))["minhash"]
    s0, s1, s2, s3 = (np.asarray(s) for s in sigs.to_pylist())
    assert (s0 == s1).mean() == 1.0
    assert (s0 == s2).mean() > 0.5  # near dup
    assert (s0 == s3).mean() < 0.3  # unrelated


def test_minhash_lsh_buckets_near_dups_together():
    ds = ray.data.from_pandas(_docs())
    exploded = _lsh_explode(ds, "text", "doc_id", k=5, num_perm=64, bands=32)
    groups = _resolve_buckets(exploded, "doc_id").to_pandas()
    multi = groups[groups["n"] >= 2]
    assert len(multi) > 0
    joint = set()
    for ids in multi["ids"]:
        joint.add(tuple(ids))
    assert any({"d0", "d1"} <= set(ids) for ids in joint)
    assert any({"d0", "d2"} <= set(ids) or {"d1", "d2"} <= set(ids) for ids in joint)
    # unrelated doc never shares a bucket with the dup cluster
    assert not any("d3" in ids and len(ids) > 1 for ids in joint)


def test_simhash_hamming():
    t = pa.table({"text": _docs()["text"].tolist()})
    out = SimHasher()(t)
    h = out["simhash"].to_numpy().view(np.uint64)
    def ham(a, b):
        return bin(int(a) ^ int(b)).count("1")
    assert ham(h[0], h[1]) == 0
    assert ham(h[0], h[2]) < ham(h[0], h[3])


def test_ngram_jaccard():
    d = _docs()
    assert ngram_jaccard(d["text"][0], d["text"][1]) == 1.0
    assert 0 < ngram_jaccard(d["text"][0], d["text"][2]) < 1.0
    assert ngram_jaccard(d["text"][0], d["text"][3]) < 0.1


def test_near_dedup_end_to_end():
    """MinHash buckets → Jaccard verify → components → survivors."""
    base = (
        "the quick brown fox jumps over the lazy dog again and again today "
        "while the sun shines bright over the green hills of the valley"
    )
    docs = pd.DataFrame(
        {
            "doc_id": [f"d{i}" for i in range(6)],
            "text": [
                base,
                base.replace("today", "tomorrow"),      # near dup of d0
                base.replace("valley", "canyon"),        # near dup of d0/d1
                "completely different text about distributed data processing engines at scale",
                "another unrelated document describing benchmark methodology in detail",
                base.replace("quick", "swift").replace("today", "tonight"),  # near dup
            ],
        }
    )
    from opentelemetry_collector_contrib_ray.stages.dedup import near_dedup

    ds = ray.data.from_pandas(docs)
    survivors, clusters = near_dedup(ds, jaccard_threshold=0.5, bands=32)
    surv = set(survivors["doc_id"].to_pylist())
    # d0/d1/d2/d5 form one duplicate cluster → only min id d0 survives
    assert "d0" in surv
    assert {"d1", "d2", "d5"} & surv == set()
    assert {"d3", "d4"} <= surv  # unrelated docs untouched
    roots = dict(zip(clusters["doc_id"].to_pylist(), clusters["root"].to_pylist()))
    assert {roots[k] for k in ("d1", "d2", "d5")} == {"d0"}


def test_near_dedup_without_verified_edges_keeps_every_doc():
    """LSH pairs d0 with its near dup, but none passes verification:
    no cluster, and every string id survives."""
    from opentelemetry_collector_contrib_ray.stages.dedup import near_dedup

    docs = _docs().iloc[[0, 2, 3]]
    survivors, clusters = near_dedup(ray.data.from_pandas(docs), jaccard_threshold=0.999, bands=32)
    assert sorted(survivors["doc_id"].to_pylist()) == ["d0", "d2", "d3"]
    assert clusters.num_rows == 0


@pytest.mark.parametrize("num_buckets", [1, 7])
def test_near_dedup_without_candidate_pairs_keeps_every_doc(num_buckets, monkeypatch):
    """LSH pairs no two docs: the pairs Dataset has no blocks and no
    schema, the cluster table is empty and every doc survives."""
    from opentelemetry_collector_contrib_ray.stages import aggregate
    from opentelemetry_collector_contrib_ray.stages.dedup import near_dedup, near_dedup_clusters

    monkeypatch.setattr(aggregate, "derived_num_partitions", lambda: num_buckets)
    docs = pd.DataFrame(
        {
            "doc_id": ["a", "b", "c"],
            "text": ["red fox jumps high", "quiet river flows past old mills", "seven small green apples fell"],
        }
    )
    clusters = near_dedup_clusters(ray.data.from_pandas(docs))
    assert clusters.column_names == ["doc_id", "root"] and clusters.num_rows == 0
    survivors, clusters = near_dedup(ray.data.from_pandas(docs))
    assert sorted(survivors["doc_id"].to_pylist()) == ["a", "b", "c"]
    assert clusters.num_rows == 0


def test_lsh_candidate_pairs_distributed():
    """Pairs generated inside the bucketed groupby equal every
    unordered pair of each resolved LSH bucket, deduped across bands."""
    from opentelemetry_collector_contrib_ray.stages.dedup import lsh_candidate_pairs

    docs = _docs()
    ds = ray.data.from_pandas(docs)
    exploded = _lsh_explode(ds, "text", "doc_id", k=5, num_perm=64, bands=32).materialize()
    pairs_ds = lsh_candidate_pairs(exploded, "doc_id").to_pandas()
    got = sorted(zip(pairs_ds["id_a"], pairs_ds["id_b"]))
    want = set()
    for ids in _resolve_buckets(exploded, "doc_id").to_pandas()["ids"]:
        ids = sorted(ids)
        want |= {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]}
    assert want and got == sorted(want)
    assert all(a < b for a, b in got)


def test_verify_pairs_ds_matches_ngram_jaccard():
    """The hash-set Jaccard of ``verify_pairs_ds`` equals the exact
    word-3-gram tuple-set Jaccard, and pairs below the threshold drop."""
    from opentelemetry_collector_contrib_ray.stages.dedup import verify_pairs_ds

    docs = _docs()
    text = dict(zip(docs["doc_id"], docs["text"]))
    pairs = [("d0", "d1"), ("d0", "d2"), ("d0", "d3")]
    pairs_ds = ray.data.from_pandas(
        pd.DataFrame({"id_a": [p[0] for p in pairs], "id_b": [p[1] for p in pairs]})
    )
    dist = verify_pairs_ds(
        ray.data.from_pandas(docs), pairs_ds, threshold=0.3
    ).to_pandas()
    got = {(a, b): j for a, b, j in zip(dist["id_a"], dist["id_b"], dist["jaccard"])}
    want = {(a, b): j for a, b in pairs if (j := ngram_jaccard(text[a], text[b], 3)) >= 0.3}
    assert set(got) == set(want) == {("d0", "d1"), ("d0", "d2")}
    for k in want:
        assert abs(got[k] - want[k]) < 1e-12  # hash-set Jaccard == tuple-set Jaccard


def union_find(edges) -> dict:
    """Reference components: {node: smallest id of its component}."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _roots(edges, typ) -> dict:
    t = pa.table({"id_a": pa.array([a for a, _ in edges], typ), "id_b": pa.array([b for _, b in edges], typ)})
    got = _cluster_roots(t)
    assert got["doc_id"].to_pylist() == sorted(got["doc_id"].to_pylist())
    return dict(zip(got["doc_id"].to_pylist(), got["root"].to_pylist()))


@pytest.mark.parametrize("typ", [pa.int64(), pa.string()], ids=["int", "string"])
@pytest.mark.parametrize("seed", range(6))
def test_cluster_roots_match_union_find(typ, seed):
    """Random graphs with duplicate and self edges, in two edge orders."""
    rng = np.random.default_rng(seed)
    n = [0, 1, 5, 40, 300, 2000][seed]
    ids = rng.permutation(10 * max(n, 1))[: max(n, 1)]
    ids = ids.tolist() if typ == pa.int64() else [f"d{i}" for i in ids]
    edges = [(ids[i], ids[j]) for i, j in rng.integers(0, len(ids), size=(n, 2))]
    edges += edges[: n // 4] + [(x, x) for x in ids[: n // 8]]
    want = union_find(edges)
    assert _roots(edges, typ) == want
    assert _roots([edges[i][::-1] for i in rng.permutation(len(edges))], typ) == want


def test_cluster_roots_one_root_for_a_long_chain():
    """A 1,000-node chain, edges listed from the far end, is one
    component however long its diameter."""
    edges = [(i + 1, i) for i in reversed(range(999))]
    assert set(_roots(edges, pa.int64()).values()) == {0}


def test_embedding_neardup_multitable_recall():
    """Multi-table LSH (8×8-bit) finds planted cosine-0.97 pairs that a
    single table would likely miss, and never emits false positives."""
    from opentelemetry_collector_contrib_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal((60, 32)).astype(np.float32)
    # plant 10 near-dup partners at high cosine
    partners = base[:10] + 0.12 * rng.standard_normal((10, 32)).astype(np.float32)
    vecs = np.concatenate([base, partners])
    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = norm @ norm.T
    ia, ib = np.triu_indices(len(vecs), k=1)
    true_pairs = {
        (int(min(a, b)), int(max(a, b)))
        for a, b in zip(ia[sims[ia, ib] >= 0.9], ib[sims[ia, ib] >= 0.9])
    }
    assert len(true_pairs) >= 8  # the plant worked
    df = pd.DataFrame({"vec_id": np.arange(len(vecs)), "embedding": list(vecs)})
    out = embedding_neardup_pairs(
        ray.data.from_pandas(df), threshold=0.9
    ).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
    assert got <= true_pairs  # exact verification → no false positives
    assert len(got & true_pairs) / len(true_pairs) >= 0.8  # multi-table recall


def _dup_heavy_docs() -> pd.DataFrame:
    """12 random bases with 2 near-dup variants each: ~2/3 of the corpus
    is duplicate."""
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(200)]
    bases = [
        " ".join(rng.choice(words, size=40, replace=True)) for _ in range(12)
    ]
    rows = []
    for i, b in enumerate(bases):
        rows.append((f"d{i:03d}_0", b))
        toks = b.split()
        for v in range(1, 3):
            t = list(toks)
            t[v] = f"alt{v}"
            rows.append((f"d{i:03d}_{v}", " ".join(t)))
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def test_near_dedup_dup_heavy_corpus():
    """Every base's variants collapse onto the base, the min id of the
    cluster: only the bases survive, and each variant's root is its base."""
    from opentelemetry_collector_contrib_ray.stages.dedup import near_dedup

    surv, clusters = near_dedup(ray.data.from_pandas(_dup_heavy_docs()), jaccard_threshold=0.5)
    assert sorted(surv["doc_id"].to_pylist()) == [f"d{i:03d}_0" for i in range(12)]
    roots = dict(zip(clusters["doc_id"].to_pylist(), clusters["root"].to_pylist()))
    assert roots == {f"d{i:03d}_{v}": f"d{i:03d}_0" for i in range(12) for v in range(3)}


def test_near_dedup_clusters_edge_collect_is_capped(monkeypatch):
    from opentelemetry_collector_contrib_ray import _util
    from opentelemetry_collector_contrib_ray.stages.dedup import near_dedup_clusters

    monkeypatch.setattr(_util, "COLLECT_MAX_ROWS", 3)
    with pytest.raises(RuntimeError, match="near dedup edges"):
        near_dedup_clusters(ray.data.from_pandas(_dup_heavy_docs()), jaccard_threshold=0.5)


class TestTokenDedup:
    """Token-native dedup over the pre-tokenized list<int32> shape."""

    def _ds(self):
        import ray.data

        rows = []
        for i in range(60):
            if i % 10 == 0:
                toks = [7, 8, 9, 10, 11, 12, 13, 14]  # exact-dup group
            else:
                toks = [int(x) for x in np.arange(20) * 3 + i]
            rows.append({"doc_id": i, "tokens": toks})
        import pandas as pd

        return ray.data.from_pandas(pd.DataFrame(rows))

    def test_exact_dedup_tokens(self):
        from opentelemetry_collector_contrib_ray.stages.dedup import exact_dedup_tokens

        surv = exact_dedup_tokens(self._ds()).to_pandas()
        ids = set(surv["doc_id"])
        # the six injected copies collapse to doc 0
        assert 0 in ids
        assert not ids & {10, 20, 30, 40, 50}
        assert len(ids) == 60 - 5

    def test_exact_dedup_tokens_order_and_length_sensitive(self):
        import ray.data
        import pandas as pd

        from opentelemetry_collector_contrib_ray.stages.dedup import exact_dedup_tokens

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "tokens": [[1, 2, 3], [3, 2, 1], [1, 2], [1, 2, 3, 0]],
            }
        )
        surv = exact_dedup_tokens(ray.data.from_pandas(df)).to_pandas()
        assert len(surv) == 4  # permutation / prefix / zero-pad all distinct

    def test_token_minhash_groups_find_near_pair(self):
        import ray.data
        import pandas as pd

        from opentelemetry_collector_contrib_ray.stages.dedup import (
            token_minhash_lsh_groups,
        )

        base = (np.arange(64) * 5 + 11).astype(int).tolist()
        near = list(base)
        near[30] = 9999  # one token changed
        far = (np.arange(64) * 7 + 3000).astype(int).tolist()
        df = pd.DataFrame(
            {"doc_id": [1, 2, 3], "tokens": [base, near, far]}
        )
        groups = token_minhash_lsh_groups(
            ray.data.from_pandas(df), k=8, num_perm=64, bands=16
        ).to_pandas()
        together = any(
            set([1, 2]) <= set(g) for g in groups["ids"] if len(g) >= 2
        )
        assert together
        assert not any(3 in set(g) and len(set(g)) > 1 for g in groups["ids"])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_token_window_hashes_match_a_per_document_fold(k):
    """The flat window-start arithmetic gives every document's windows
    in order: docs of length 0, < k, = k and > k, a sliced list column,
    each against a per-document polynomial fold over its zero-padded
    tokens."""
    from opentelemetry_collector_contrib_ray._util import splitmix64
    from opentelemetry_collector_contrib_ray.stages.dedup import _POS_MIX, _token_window_hashes_flat

    docs = [[], [7], [1, 2, 3, 4, 5], list(range(11, 11 + k)), [9, 8, 7, 6, 5, 4, 3, 2], [], [2] * (k + 2)]
    col = pa.array([[0, 0]] + docs, pa.list_(pa.int32())).slice(1)
    h, n_wins = _token_window_hashes_flat(pa.table({"tokens": col}), "tokens", k)
    want_h, want_n = [], []
    for d in docs:
        padded = np.array(d + [0] * max(k - len(d), 0), np.uint64)
        wins = [padded[s : s + k] for s in range(len(padded) - k + 1)]
        for w in wins:
            acc = np.zeros(1, np.uint64)
            with np.errstate(over="ignore"):
                for tok in w:
                    acc = splitmix64(acc * _POS_MIX + tok)
            want_h.append(acc[0])
        want_n.append(len(wins))
    assert n_wins.tolist() == want_n
    assert h.tolist() == [int(x) for x in want_h]
