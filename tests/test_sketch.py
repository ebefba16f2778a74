"""Sketches: HLL accuracy/mergeability, quantile error bounds, exact
distinct counts vs pandas."""

import numpy as np
import pandas as pd
import ray.data

from opentelemetry_collector_contrib_ray.stages.sketch import (
    HllSketch,
    QuantileSketch,
    distinct_count,
    hll_distinct,
    quantiles,
)


def test_hll_accuracy_and_merge():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 10**12, size=50_000)
    b = rng.integers(0, 10**12, size=50_000)
    sa = HllSketch(p=12).add_values(a)
    sb = HllSketch(p=12).add_values(b)
    true_union = len(set(a.tolist()) | set(b.tolist()))
    est = sa.merge(sb).estimate()
    assert abs(est - true_union) / true_union < 0.05  # ~1.04/sqrt(4096) ≈ 1.6%
    # serialization round-trip
    s2 = HllSketch.deserialize(sa.serialize())
    assert s2.estimate() == sa.estimate()


def test_hll_small_range_linear_counting():
    s = HllSketch(p=12).add_values(np.arange(100))
    assert abs(s.estimate() - 100) < 5


def test_distinct_count_exact():
    df = pd.DataFrame(
        {
            "k": ["a"] * 600 + ["b"] * 400,
            "v": list(np.arange(600) % 37) + list(np.arange(400) % 11),
        }
    )
    out = distinct_count(ray.data.from_pandas(df), ["k"], "v").to_pandas()
    got = dict(zip(out["k"], out["distinct"]))
    assert got == {"a": 37, "b": 11}


def test_distinct_count_paths_agree():
    # the one-shuffle distributed count == pandas groupby().nunique()
    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], size=5000),
            "v": rng.integers(0, 400, size=5000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    dist = distinct_count(ds, ["k"], "v").to_pandas().sort_values("k").reset_index(drop=True)
    ref = df.groupby("k").nunique()["v"]
    assert list(dist["k"]) == list(ref.index)
    assert list(dist["distinct"].astype(int)) == list(ref.astype(int))


def test_hll_distinct_per_key():
    df = pd.DataFrame(
        {"k": ["x"] * 5000 + ["y"] * 5000, "v": list(range(5000)) + [1, 2, 3] * 1666 + [1, 2]}
    )
    out = hll_distinct(ray.data.from_pandas(df), ["k"], "v").to_pandas()
    est = dict(zip(out["k"], out["distinct_est"]))
    assert abs(est["x"] - 5000) / 5000 < 0.05
    assert abs(est["y"] - 3) < 1


def test_quantile_sketch_bounds():
    rng = np.random.default_rng(5)
    data = rng.normal(100, 15, size=200_000)
    sk = QuantileSketch(k=256)
    for chunk in np.array_split(data, 40):
        sk.add(chunk)
    for q in (0.1, 0.5, 0.9):
        exact = np.quantile(data, q)
        approx = sk.quantile(q)
        # rank error tolerance: compare achieved rank, not value
        achieved = (data <= approx).mean()
        assert abs(achieved - q) < 0.05


def test_quantiles_distributed():
    df = pd.DataFrame({"v": np.arange(100_000, dtype=np.float64)})
    out = quantiles(ray.data.from_pandas(df), "v", qs=(0.5,))
    assert abs(out[0.5] - 50_000) / 100_000 < 0.05


class TestHeavyHitters:
    def test_guarantee_on_skewed_stream(self, ray_session):
        import ray

        from opentelemetry_collector_contrib_ray.stages.sketch import heavy_hitters

        # zipf-ish: item0 40%, item1 25%, item2 10%, 25 rare items 1% each
        vals = (
            ["hot0"] * 4000 + ["hot1"] * 2500 + ["hot2"] * 1300
            + [f"rare{i}" for i in range(25) for _ in range(100)]
        )
        rng = np.random.default_rng(5)
        rng.shuffle(vals)
        ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
        out, n = heavy_hitters(ds, "v", k=9)
        assert n == len(vals)
        bound = n / 10
        true = {"hot0": 4000, "hot1": 2500, "hot2": 1300}
        got = dict(zip(out["item"], out["est"]))
        for item, tc in true.items():
            assert tc > bound  # they are true heavy hitters at k=9
            assert item in got
            assert tc - bound <= got[item] <= tc
        assert len(out) <= 9

    def test_small_exact(self, ray_session):
        import ray

        from opentelemetry_collector_contrib_ray.stages.sketch import heavy_hitters

        ds = ray.data.from_pandas(pd.DataFrame({"v": ["a", "a", "b"]}))
        out, n = heavy_hitters(ds, "v", k=16)
        assert n == 3
        got = dict(zip(out["item"], out["est"]))
        assert got == {"a": 2, "b": 1}


class TestBloomFilter:
    def test_no_false_negatives_and_bounded_fp(self, ray_session):
        import ray

        from opentelemetry_collector_contrib_ray.stages.sketch import (
            BloomFilter,
            bloom_build,
        )

        members = [f"user{i}" for i in range(20000)]
        ds = ray.data.from_pandas(pd.DataFrame({"u": members})).repartition(8)
        bf = bloom_build(ds, "u", m_bits=1 << 18, k=5)
        # guarantee: every inserted member found
        assert bf.contains(np.array(members, dtype=object)).all()
        # FP on definite non-members stays near theory:
        # n=20000, m=2^18, k=5 → p ≈ (1-e^(-kn/m))^k ≈ 0.022
        probes = np.array([f"ghost{i}" for i in range(20000)], dtype=object)
        fp = float(bf.contains(probes).mean())
        assert fp < 0.1

    def test_merge_equals_single(self):
        from opentelemetry_collector_contrib_ray.stages.sketch import BloomFilter

        a = BloomFilter(1 << 12, 4).add(np.array(["x", "y"], dtype=object))
        b = BloomFilter(1 << 12, 4).add(np.array(["z"], dtype=object))
        one = BloomFilter(1 << 12, 4).add(np.array(["x", "y", "z"], dtype=object))
        assert np.array_equal(a.merge(b).words, one.words)


def test_heavy_hitters_all_distinct_batches_keep_row_count(ray_session):
    # every batch compresses to an EMPTY MG summary (all counts equal),
    # which used to drop the batch's row-count contribution; the
    # null-item carrier row must keep n_total exact
    import ray

    from opentelemetry_collector_contrib_ray.stages.sketch import heavy_hitters

    vals = [f"v{i}" for i in range(200)] + ["hot"] * 50
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    out, n_total = heavy_hitters(ds, "v", k=16)
    assert n_total == 250
    # the one true heavy hitter (50 > 250/17) must surface with the
    # standard MG bound: true - n/(k+1) <= est <= true
    hot = out[out["item"] == "hot"]
    assert len(hot) == 1
    assert 50 - 250 / 17 <= hot["est"].iloc[0] <= 50
