"""Aggregation semantics vs in-memory pandas ground truth, incl. the
groupbyattrs grouping-count matrix shape from
processor/groupbyattrsprocessor/processor_test.go:119-290."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_contrib_ray.stages.aggregate import (
    groupby_attrs_counts,
    histogram_agg,
    statsd_agg,
    two_phase_agg,
)


@pytest.fixture(scope="module")
def events_df():
    rng = np.random.default_rng(42)
    n = 5000
    return pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], size=n, p=[0.8, 0.15, 0.05]),  # skewed
            "v": rng.normal(100, 25, size=n).round(2),
            "uid": rng.integers(0, 50, size=n),
        }
    )


def test_two_phase_agg_matches_pandas(events_df):
    ds = ray.data.from_pandas(events_df)
    out = (
        two_phase_agg(ds, ["k"], {"v": ["count", "sum", "min", "max", "mean"]})
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        events_df.groupby("k")["v"]
        .agg(count="size", v_count="count", v_sum="sum", v_min="min", v_max="max", v_mean="mean")
        .reset_index()
    )
    assert out["count"].tolist() == exp["count"].tolist()
    assert np.allclose(out["v_sum"], exp["v_sum"])
    assert np.allclose(out["v_min"], exp["v_min"])
    assert np.allclose(out["v_max"], exp["v_max"])
    assert np.allclose(out["v_mean"], exp["v_mean"])


def test_statsd_agg(events_df):
    ds = ray.data.from_pandas(events_df)
    out = statsd_agg(ds, ["k"], "v").to_pandas()
    assert set(out.columns) == {"k", "count", "v_count", "v_sum", "v_min", "v_max", "v_mean"}


def test_histogram_agg(events_df):
    ds = ray.data.from_pandas(events_df)
    bounds = [75.0, 100.0, 125.0]
    out = histogram_agg(ds, ["k"], "v", bounds).to_pandas().set_index("k")
    for k, g in events_df.groupby("k"):
        v = g["v"].to_numpy()
        exp = [
            (v <= 75).sum(),
            ((v > 75) & (v <= 100)).sum(),
            ((v > 100) & (v <= 125)).sum(),
            (v > 125).sum(),
        ]
        got = [out.loc[k, f"bucket_{i}"] for i in range(4)]
        assert got == exp
        assert out.loc[k, "call_count"] == len(g)
        assert np.isclose(out.loc[k, "v_sum"], v.sum())


def test_groupby_attrs_null_keys_form_base_group():
    """processor.go:83-97: records with no grouping key → base group."""
    df = pd.DataFrame(
        {
            "k1": ["x", "x", None, None],
            "k2": ["y", None, "z", None],
        }
    )
    ds = ray.data.from_pandas(df)
    out = groupby_attrs_counts(ds, ["k1", "k2"]).to_pandas()
    base = out[~out["grouped"]]
    assert len(base) == 1 and base["count"].iloc[0] == 1  # the (None, None) row
    assert out["count"].sum() == 4
    assert len(out) == 4  # exact tuple equality defines group identity


def test_exact_sums_deterministic_vs_float():
    """exact_sums carries int64-scaled partials: the merged sum equals
    the mathematically exact decimal total regardless of merge order."""
    # 0.1 + 0.2 ≠ 0.3 in binary floats; with scale=10 the sum is exact
    vals = np.tile([0.1, 0.2, 0.3, 0.7], 500)
    df = pd.DataFrame({"k": ["a", "b"] * 1000, "v": vals})
    ds = ray.data.from_pandas(df).repartition(8)
    out = two_phase_agg(ds, ["k"], {"v": ["sum", "mean"]}, exact_sums={"v": 10}).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    # per key: 500 × (0.1+0.3) = 200.0 and 500 × (0.2+0.7) = 450.0 exactly
    assert out["v_sum"].tolist() == [200.0, 450.0]
    assert out["v_mean"].tolist() == [0.2, 0.45]
    # driver_finalize path agrees bit-for-bit
    tbl = two_phase_agg(
        ray.data.from_pandas(df).repartition(8),
        ["k"], {"v": ["sum", "mean"]}, exact_sums={"v": 10}, driver_finalize=True,
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert tbl["v_sum"].tolist() == [200.0, 450.0]
    assert tbl["v_mean"].tolist() == [0.2, 0.45]


def test_driver_finalize_collect_cap(monkeypatch):
    """The driver collect raises with the row count once the partials pass
    ``MAX_DRIVER_PARTIAL_ROWS``, checked block by block."""
    from opentelemetry_collector_contrib_ray.stages import aggregate

    ds = ray.data.from_pandas(pd.DataFrame({"k": np.arange(40), "v": np.ones(40)})).repartition(4)
    monkeypatch.setattr(aggregate, "MAX_DRIVER_PARTIAL_ROWS", 40)
    assert aggregate.two_phase_agg(ds, ["k"], {"v": ["sum"]}, driver_finalize=True).num_rows == 40
    monkeypatch.setattr(aggregate, "MAX_DRIVER_PARTIAL_ROWS", 15)
    with pytest.raises(RuntimeError, match="collected 20 partial rows, over MAX_DRIVER_PARTIAL_ROWS=15"):
        aggregate.two_phase_agg(ds, ["k"], {"v": ["sum"]}, driver_finalize=True)


def test_histogram_agg_value_scale_exact():
    from opentelemetry_collector_contrib_ray.stages.aggregate import histogram_agg

    df = pd.DataFrame({"k": ["x"] * 1000, "v": np.tile([0.01, 0.02], 500)})
    ds = ray.data.from_pandas(df).repartition(16)
    out = histogram_agg(ds, ["k"], "v", bounds=[0.015], value_scale=100).to_pandas()
    assert out["call_count"].iloc[0] == 1000
    assert out["v_sum"].iloc[0] == 15.0  # 500×0.01 + 500×0.02, exactly
    assert out["bucket_0"].iloc[0] == 500 and out["bucket_1"].iloc[0] == 500


@pytest.mark.parametrize("value_scale", [None, 100], ids=["float_sum", "value_scale"])
def test_histogram_agg_null_value_counts_nowhere(value_scale):
    """A null or NaN value adds to no count, no sum and no bucket: the
    buckets still add up to call_count, and an all-null group reads 0."""
    t = pa.table(
        {
            "k": ["a", "a", "a", "a", "b"],
            "v": pa.array([0.01, None, 0.02, float("nan"), None], pa.float64(), from_pandas=False),
        }
    )
    out = histogram_agg(ray.data.from_arrow(t), ["k"], "v", bounds=[0.015], value_scale=value_scale)
    out = out.to_pandas().set_index("k")
    assert out.loc["a", "call_count"] == 2
    assert out.loc["a", "v_sum"] == pytest.approx(0.03)
    assert (out.loc["a", "bucket_0"], out.loc["a", "bucket_1"]) == (1, 1)
    assert out.loc["b", "call_count"] == 0 and out.loc["b", "v_sum"] == 0
    assert (out.loc["b", "bucket_0"], out.loc["b", "bucket_1"]) == (0, 0)


def test_timer_summary_nearest_rank():
    """statsd timer Summary (metric_translator.go:63-88): nearest-rank
    percentiles — canonical example [15,20,35,40,50]: P30=20, P40=20,
    P95=50, P0=min, P100=max; count/sum exact."""
    from opentelemetry_collector_contrib_ray.stages.aggregate import timer_summary

    df = pd.DataFrame(
        {"m": ["t"] * 5 + ["u"] * 2, "v": [35.0, 20.0, 15.0, 50.0, 40.0, 7.0, 3.0]}
    )
    ds = ray.data.from_pandas(df).repartition(3)
    out = (
        timer_summary(ds, ["m"], "v", percentiles=(0, 30, 40, 95, 100), exact_scale=10)
        .to_pandas()
        .sort_values("m")
        .reset_index(drop=True)
    )
    t = out[out["m"] == "t"].iloc[0]
    assert t["count"] == 5 and t["v_sum"] == 160.0
    assert t["p0"] == 15.0 and t["p30"] == 20.0 and t["p40"] == 20.0
    assert t["p95"] == 50.0 and t["p100"] == 50.0
    u = out[out["m"] == "u"].iloc[0]
    assert u["count"] == 2 and u["p0"] == 3.0 and u["p100"] == 7.0
