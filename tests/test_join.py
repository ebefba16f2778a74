"""Join operators: broadcast and partitioned bucketed hash join."""

import pandas as pd
import pyarrow as pa
import ray.data as rd

from opentelemetry_collector_contrib_ray.stages.join import (
    broadcast_join,
    bucketed_hash_join,
)


def _sides():
    left = rd.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 4, 2], "a": list("xyzwv")})
    )
    right = rd.from_pandas(pd.DataFrame({"k": [2, 3, 5], "b": ["B2", "B3", "B5"]}))
    return left, right


def test_bucketed_inner():
    left, right = _sides()
    out = (
        bucketed_hash_join(left, right, "k", num_buckets=4)
        .to_pandas()
        .sort_values(["k", "a"])
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [2, 2, 3]
    assert out["b"].tolist() == ["B2", "B2", "B3"]


def test_bucketed_left():
    left, right = _sides()
    out = (
        bucketed_hash_join(left, right, "k", how="left", num_buckets=4)
        .to_pandas()
        .sort_values(["k", "a"])
        .reset_index(drop=True)
    )
    assert len(out) == 5
    assert out.loc[out["k"] == 1, "b"].isna().all()


def test_broadcast_join():
    left, _ = _sides()
    small = pa.table({"k": [2, 3], "b": ["B2", "B3"]})
    out = broadcast_join(left, small, "k").to_pandas().sort_values(["k", "a"])
    assert len(out) == 5  # left join keeps all
    assert out.loc[out["k"] == 2, "b"].tolist() == ["B2", "B2"]


def test_asof_join_matches_global_merge_asof():
    import numpy as np

    from opentelemetry_collector_contrib_ray.stages.join import asof_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {
            "uid": rng.integers(0, 20, 300),
            "t": rng.integers(0, 10_000, 300).astype(np.int64),
            "oid": np.arange(300),
        }
    )
    right = pd.DataFrame(
        {
            "ruid": rng.integers(0, 20, 150),
            "rt": rng.integers(0, 10_000, 150).astype(np.int64),
            "rid": np.arange(150),
        }
    )
    # make (ruid, rt) unique so backward ties are unambiguous
    right = right.drop_duplicates(["ruid", "rt"])
    out = (
        asof_join(
            rd.from_pandas(left).repartition(4),
            rd.from_pandas(right).repartition(3),
            left_on="t",
            right_on="rt",
            left_by="uid",
            right_by="ruid",
            num_buckets=8,
        )
        .to_pandas()
        .sort_values("oid")
        .reset_index(drop=True)
    )
    exp = pd.merge_asof(
        left.sort_values("t", kind="mergesort"),
        right.sort_values("rt", kind="mergesort"),
        left_on="t",
        right_on="rt",
        left_by="uid",
        right_by="ruid",
    ).sort_values("oid").reset_index(drop=True)
    assert len(out) == len(exp) == 300
    assert out["rid"].fillna(-1).tolist() == exp["rid"].fillna(-1).tolist()


def test_asof_join_forward_and_null_times():
    import numpy as np

    from opentelemetry_collector_contrib_ray.stages.join import asof_join

    left = pd.DataFrame({"uid": [1, 1, 2], "t": [5.0, 50.0, 5.0], "oid": [0, 1, 2]})
    right = pd.DataFrame({"ruid": [1, 1], "rt": [10.0, 40.0], "rid": [100, 101]})
    out = (
        asof_join(
            rd.from_pandas(left),
            rd.from_pandas(right),
            left_on="t",
            right_on="rt",
            left_by="uid",
            right_by="ruid",
            direction="forward",
        )
        .to_pandas()
        .sort_values("oid")
    )
    assert out["rid"].fillna(-1).tolist() == [100, -1, -1]


def test_range_join_brackets():
    import numpy as np

    from opentelemetry_collector_contrib_ray.stages.join import range_join

    rng = np.random.default_rng(5)
    left = pd.DataFrame(
        {
            "grp": rng.integers(0, 4, 400),
            "v": rng.random(400) * 100,
            "lid": np.arange(400),
        }
    )
    # per-key bracket width = 10 + 5*key, intervals [i*w, (i+1)*w)
    rows = []
    for k in range(4):
        w = 10 + 5 * k
        for i in range(12):
            rows.append({"rgrp": k, "lo": i * w, "hi": (i + 1) * w, "bracket": i})
    right = pd.DataFrame(rows)
    out = (
        range_join(
            rd.from_pandas(left).repartition(4),
            rd.from_pandas(right),
            value_col="v",
            lower_col="lo",
            upper_col="hi",
            left_by="grp",
            right_by="rgrp",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert len(out) == 400  # every value falls in exactly one bracket
    w = 10 + 5 * out["grp"].to_numpy()
    assert (out["bracket"].to_numpy() == (out["v"].to_numpy() // w).astype(int)).all()

    # how='left' keeps out-of-range rows with nulls
    left2 = pd.DataFrame({"grp": [0, 0], "v": [5.0, 500.0], "lid": [0, 1]})
    out2 = (
        range_join(
            rd.from_pandas(left2),
            rd.from_pandas(right),
            value_col="v",
            lower_col="lo",
            upper_col="hi",
            left_by="grp",
            right_by="rgrp",
            how="left",
        )
        .to_pandas()
        .sort_values("lid")
    )
    assert len(out2) == 2 and out2["bracket"].isna().tolist() == [False, True]


def test_two_sided_helper_rejects_column_overlap():
    import pytest

    from opentelemetry_collector_contrib_ray.stages.join import asof_join

    left = pd.DataFrame({"k": [1], "t": [1.0]})
    right = pd.DataFrame({"k": [1], "rt": [1.0]})
    with pytest.raises(ValueError):
        asof_join(
            rd.from_pandas(left), rd.from_pandas(right),
            left_on="t", right_on="rt", left_by="k", right_by="k",
        )


def test_range_and_asof_join_stable_schema_across_buckets():
    """ADVICE fix: every merge_bucket output must carry ONE canonical
    Arrow schema — all-unmatched buckets must not emit null-typed or
    float-degraded columns (write_parquet would fail on mixed blocks)."""
    import pyarrow as pa
    import ray.data as rd

    from opentelemetry_collector_contrib_ray.stages.join import asof_join, range_join

    left = pd.DataFrame(
        {
            "v": [5.0, 50.0, 5.0, 500.0],
            "lk": ["a", "a", "zz_unmatched", "zz_unmatched"],
            "lint": [1, 2, 3, 4],
        }
    )
    right = pd.DataFrame(
        {
            "lo": [0.0, 10.0],
            "hi": [10.0, 100.0],
            "rk": ["a", "a"],
            "rint": [7, 8],
            "rstr": ["x", "y"],
        }
    )
    out = range_join(
        rd.from_pandas(left).repartition(2),
        rd.from_pandas(right),
        value_col="v",
        lower_col="lo",
        upper_col="hi",
        left_by="lk",
        right_by="rk",
        how="left",
        num_buckets=8,
    )
    schema = out.schema()
    types = dict(zip(schema.names, schema.types))
    assert types["lint"] == pa.int64()
    assert types["rint"] == pa.int64()  # not float64, not null
    assert types["rstr"] == pa.string()
    df = out.to_pandas().sort_values("lint").reset_index(drop=True)
    assert df.loc[2, "rint"] is pd.NA or pd.isna(df.loc[2, "rint"])
    # write_parquet over the mixed-bucket output must succeed
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        out.write_parquet(d)

    aout = asof_join(
        rd.from_pandas(pd.DataFrame(
            {"lt": [1, 2, 9], "lby": ["a", "zz", "zz"], "lval": [1, 2, 3]})),
        rd.from_pandas(pd.DataFrame(
            {"rt": [0, 5], "rby": ["a", "a"], "rint": [10, 20]})),
        left_on="lt",
        right_on="rt",
        left_by="lby",
        right_by="rby",
        num_buckets=8,
    )
    atypes = dict(zip(aout.schema().names, aout.schema().types))
    assert atypes["rint"] == pa.int64()
    adf = aout.to_pandas().sort_values("lval")
    assert adf["rint"].tolist()[0] == 10 and pd.isna(adf["rint"].tolist()[1])
