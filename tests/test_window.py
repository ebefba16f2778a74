"""Event-time windowing (stages/window.py): tumbling, sliding,
sessionization, last-write-wins — vs pandas ground truth."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from opentelemetry_collector_contrib_ray.stages.window import (
    last_write_wins,
    sessionize,
    sliding,
    tumbling,
)


def _events():
    ts = pd.to_datetime(
        [
            "2024-01-01 00:05:00",
            "2024-01-01 00:20:00",
            "2024-01-01 01:10:00",  # >30min gap → new session for u1
            "2024-01-01 00:59:00",
            "2024-01-01 02:30:00",
        ]
    )
    return pd.DataFrame(
        {
            "user": ["u1", "u1", "u1", "u2", "u2"],
            "ts": ts,
            "value": [1.0, 2.0, 3.0, 4.0, 5.0],
            "seq": [0, 1, 2, 3, 4],
        }
    )


def test_tumbling_counts():
    out = (
        tumbling(ray.data.from_pandas(_events()), ["user"], "ts", every="hour")
        .to_pandas()
        .sort_values(["user", "window_start"])
    )
    assert out["count"].tolist() == [2, 1, 1, 1]


def test_sliding_explodes_each_event_into_k_windows():
    out = sliding(
        ray.data.from_pandas(_events()), ["user"], "ts", size_minutes=60, step_minutes=30
    ).to_pandas()
    # each event in exactly 2 windows → total count = 2 × 5
    assert out["count"].sum() == 10
    # event at 00:05 lands in windows starting 23:30 (prev day) and 00:00
    u1 = out[out["user"] == "u1"].set_index("window_start")["count"]
    assert u1[pd.Timestamp("2024-01-01 00:00:00")] >= 1


@pytest.mark.parametrize("size,step", [(60, 30), (60, 25), (20, 30)])
def test_sliding_matches_brute_force_membership(size, step):
    """Every window ``[w, w + size)`` with ``w`` a multiple of ``step``
    counts exactly the events it holds — also when ``size`` is no
    multiple of ``step`` and when ``size < step`` (gaps between
    windows)."""
    minutes = np.arange(300, dtype=np.int64) * 7  # minute-aligned, every residue
    df = pd.DataFrame(
        {
            "user": np.where(minutes % 2 == 0, "u1", "u2"),
            "ts": pd.to_datetime(minutes * 60, unit="s"),
        }
    )
    want = {}
    for user, t in zip(df["user"], minutes):
        for w in range((t - size) // step * step, t + 1, step):
            if w <= t < w + size:
                key = (user, pd.Timestamp(w * 60, unit="s"))
                want[key] = want.get(key, 0) + 1
    out = sliding(
        ray.data.from_pandas(df, override_num_blocks=3), ["user"], "ts", size_minutes=size, step_minutes=step
    ).to_pandas()
    got = {(u, pd.Timestamp(w)): int(c) for u, w, c in zip(out["user"], out["window_start"], out["count"])}
    assert got == want


def test_sessionize_gap_splits():
    out = (
        sessionize(ray.data.from_pandas(_events()), "user", "ts", gap_seconds=1800)
        .to_pandas()
        .sort_values(["user", "session_id"])
        .reset_index(drop=True)
    )
    u1 = out[out["user"] == "u1"]
    assert len(u1) == 2  # 00:05+00:20 together, 01:10 separate
    assert u1["n_events"].tolist() == [2, 1]
    u2 = out[out["user"] == "u2"]
    assert len(u2) == 2


def test_last_write_wins():
    out = (
        last_write_wins(
            ray.data.from_pandas(_events()), ["user"], "ts", "value", order_cols=["ts", "seq"]
        )
        .to_pandas()
        .sort_values("user")
    )
    assert out["value_last"].tolist() == [3.0, 5.0]
