"""tailsampling / groupbytrace / probabilistic sampler semantics
(processor/tailsamplingprocessor/processor.go:191-237 OR-of-policies;
sampling/numeric_tag_filter.go, string_tag_filter.go)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from opentelemetry_collector_contrib_ray.stages.sampling import (
    AlwaysSample,
    NumericAttribute,
    RateLimiting,
    StringAttribute,
    group_by_trace,
    probabilistic_sample,
    tail_sample,
)


def _spans():
    return pd.DataFrame(
        {
            "trace_id": ["t1", "t1", "t2", "t2", "t3"],
            "ts": pd.to_datetime(
                ["2024-01-01 00:00:00", "2024-01-01 00:00:01", "2024-01-01 00:00:02",
                 "2024-01-01 00:00:03", "2024-01-01 00:00:04"]
            ),
            "latency": [10.0, 500.0, 20.0, 30.0, 999.0],
            "svc": ["api", "db", "api", "api", "batch"],
        }
    )


def test_numeric_policy_or_string_policy():
    ds = ray.data.from_pandas(_spans())
    sampled, decisions = tail_sample(
        ds,
        "trace_id",
        [NumericAttribute("latency", 400, 600), StringAttribute("svc", ["batch"])],
        ts_col="ts",
    )
    dec = decisions.to_pandas().set_index("trace_id")["sampled"].to_dict()
    # t1 has latency 500 (in range) → sampled; t3 svc=batch → sampled; t2 no
    assert dec == {"t1": True, "t2": False, "t3": True}
    out = sampled.to_pandas()
    assert set(out["trace_id"]) == {"t1", "t3"}
    assert len(out[out["trace_id"] == "t1"]) == 2  # whole trace passes


def test_string_regex_policy():
    ds = ray.data.from_pandas(_spans())
    _, decisions = tail_sample(
        ds, "trace_id", [StringAttribute("svc", [r"^ba.*"], enable_regex=True)]
    )
    dec = decisions.to_pandas().set_index("trace_id")["sampled"].to_dict()
    assert dec == {"t1": False, "t2": False, "t3": True}


def test_always_sample_and_missing_key():
    ds = ray.data.from_pandas(_spans())
    _, d1 = tail_sample(ds, "trace_id", [AlwaysSample()])
    assert d1.to_pandas()["sampled"].all()
    _, d2 = tail_sample(ds, "trace_id", [NumericAttribute("nope", 0, 1)])
    assert not d2.to_pandas()["sampled"].any()


def test_rate_limiting_caps_throughput():
    ds = ray.data.from_pandas(_spans())
    _, dec = tail_sample(
        ds, "trace_id", [AlwaysSample(), RateLimiting(spans_per_second=1)], ts_col="ts"
    )
    # budget 1 span/sec over 4s window: first trace admitted (2 spans vs
    # clip-1s budget… cumulative check), later traces rejected once over
    dec = dec.to_pandas()
    assert dec["sampled"].sum() < len(dec)


def test_group_by_trace():
    ds = ray.data.from_pandas(_spans())
    out = group_by_trace(ds, "trace_id").to_pandas()
    assert len(out) == 5  # pass-through keeps all spans, grouped

    def one_row(t: pa.Table) -> pa.Table:  # each call sees one whole trace
        assert len(set(t["trace_id"].to_pylist())) == 1
        return pa.table({"trace_id": t["trace_id"].slice(0, 1), "svcs": [",".join(sorted(t["svc"].to_pylist()))]})

    got = group_by_trace(ray.data.from_pandas(_spans()).repartition(3), "trace_id", one_row).to_pandas()
    assert dict(zip(got["trace_id"], got["svcs"])) == {"t1": "api,db", "t2": "api,api", "t3": "batch"}


def test_probabilistic_deterministic():
    df = pd.DataFrame({"id": [f"x{i}" for i in range(2000)]})
    ds = ray.data.from_pandas(df)
    a = probabilistic_sample(ds, "id", 0.25).to_pandas()
    b = probabilistic_sample(ray.data.from_pandas(df), "id", 0.25).to_pandas()
    assert sorted(a["id"]) == sorted(b["id"])  # stable across runs
    assert 0.2 < len(a) / 2000 < 0.3


def test_probabilistic_full_fraction_passes_all():
    df = pd.DataFrame({"id": [f"r{i}" for i in range(100)]})
    out = probabilistic_sample(ray.data.from_pandas(df), "id", 1.0).to_pandas()
    assert len(out) == 100
    out2 = probabilistic_sample(ray.data.from_pandas(df), "id", 0.9999999999999999).to_pandas()
    assert len(out2) <= 100  # no overflow crash near 1.0


def test_rate_limiting_per_second_budget():
    """rate_limiting_test.go semantics: strict < budget; only sampled
    traces consume; the counter resets every second."""
    from opentelemetry_collector_contrib_ray.stages.sampling import RateLimiting

    ddf = pd.DataFrame(
        {
            "trace": ["a", "b", "c", "d"],
            "n_spans": [3, 2, 1, 3],
            "first_ts": pd.to_datetime(
                [
                    "2021-03-01 00:00:00.1",  # sec 0: 0+3 < 4 → sampled (count 3)
                    "2021-03-01 00:00:00.5",  # sec 0: 3+2 < 4 fails → dropped
                    "2021-03-01 00:00:00.9",  # sec 0: 3+1 < 4 fails (strict) → dropped
                    "2021-03-01 00:00:01.2",  # sec 1: reset, 0+3 < 4 → sampled
                ]
            ),
            "sampled": [True, True, True, True],
        }
    )
    out = RateLimiting(4).apply_to_decisions(ddf)
    assert out["sampled"].tolist() == [True, False, False, True]
    # reference golden (rate_limiting_test.go): budget == trace size →
    # NotSampled (strict <); budget one above → Sampled
    one = pd.DataFrame(
        {"trace": ["t"], "n_spans": [3],
         "first_ts": pd.to_datetime(["2021-03-01 00:00:00"]), "sampled": [True]}
    )
    assert not RateLimiting(3).apply_to_decisions(one.copy())["sampled"].iloc[0]
    assert RateLimiting(4).apply_to_decisions(one.copy())["sampled"].iloc[0]


def test_tail_sample_rate_limited_end_to_end():
    from opentelemetry_collector_contrib_ray.stages.sampling import (
        AlwaysSample,
        RateLimiting,
        tail_sample,
    )

    df = pd.DataFrame(
        {
            "trace": ["a"] * 3 + ["b"] * 2 + ["c"] * 4,
            "ts": pd.to_datetime(
                ["2021-03-01 00:00:00.1"] * 3
                + ["2021-03-01 00:00:00.6"] * 2
                + ["2021-03-01 00:00:01.4"] * 4
            ),
        }
    )
    sampled, decisions = tail_sample(
        ray.data.from_pandas(df),
        "trace",
        [AlwaysSample(), RateLimiting(5)],
        ts_col="ts",
    )
    got = sampled.to_pandas()
    # sec 0: a(3) fits (3<5), b(2) → 3+2<5 fails → dropped; sec 1: c(4) fits
    assert sorted(got["trace"].unique()) == ["a", "c"]
    dd = decisions.to_pandas().set_index("trace")["sampled"]
    assert dd["a"] and dd["c"] and not dd["b"]


def test_tail_sample_distributed_semi_join_matches_broadcast():
    """The broadcast membership filter and the bucketed semi-join
    (broadcast_threshold=0 forces it) must select identical spans, and
    the rate-limited decision table must be identical too — the
    per-second budget is second-local, so the distributed
    bucketed-by-second pass must equal the sequential result."""
    rng = np.random.default_rng(7)
    n = 600
    df = pd.DataFrame(
        {
            "trace_id": [f"t{i % 150}" for i in range(n)],
            "ts": pd.to_datetime("2021-03-01")
            + pd.to_timedelta(rng.integers(0, 30_000, n), unit="ms"),
            "latency": rng.uniform(0, 1000, n),
        }
    )
    policies = [NumericAttribute("latency", 400, 600), RateLimiting(30)]
    ds = ray.data.from_pandas(df).repartition(6)
    s_b, d_b = tail_sample(ds, "trace_id", policies, ts_col="ts")
    s_d, d_d = tail_sample(
        ds, "trace_id", policies, ts_col="ts", broadcast_threshold=0
    )
    b = s_b.to_pandas().sort_values(["trace_id", "ts"]).reset_index(drop=True)
    d = (
        s_d.to_pandas()[b.columns]
        .sort_values(["trace_id", "ts"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(b, d)
    db = d_b.to_pandas().sort_values("trace_id").reset_index(drop=True)
    dd = d_d.to_pandas()[db.columns].sort_values("trace_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(db, dd)
    assert 0 < len(b) < n  # the policy actually filtered something
