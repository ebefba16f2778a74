"""Event-time windowing over a keyed, ordered stream table.

Batch re-expression of the reference's streaming-only semantics
(SURVEY.md §2.10: converter flush windows, tailsampling decision
windows, statsd flush intervals): Ray Data has no watermarks, so
windows are computed from event-time columns — tumbling windows as a
derived bucket column + grouped aggregate, sliding windows by exploding
each row into the windows it overlaps, session windows per key from
sorted gap detection. Ordering assumption: within a key, windows are
computed after an in-group sort by the timestamp column (the shuffle
co-locates the key; no cross-key order is assumed).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import two_phase_agg


def tumbling(ds, keys, ts_col: str, every: str = "hour", agg: dict | None = None, **kw):
    """Tumbling window: floor the timestamp, grouped aggregate.
    ``every``: pyarrow floor_temporal unit (minute/hour/day/...)."""

    def bucket(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t[ts_col], unit=every)
        return t.append_column("window_start", w)

    return two_phase_agg(
        ds.map_batches(bucket, batch_format="pyarrow"),
        list(keys) + ["window_start"],
        agg or {"*": ["count"]},
        **kw,
    )


def sliding(ds, keys, ts_col: str, size_minutes: int, step_minutes: int):
    """Sliding window counts: windows start every ``step_minutes`` (on
    multiples of the step since the epoch) and span ``size_minutes``;
    each row explodes into every window ``[w, w + size)`` that holds
    it (vectorized repeat + offset), then a grouped ``count``. A row
    falls in ``ceil(size / step)`` candidate windows, or one fewer where
    ``size`` is no multiple of ``step`` — keep the explosion small at
    scale."""
    k = -(-size_minutes // step_minutes)
    _PER_SEC = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}

    def explode(t: pa.Table) -> pa.Table:
        n = len(t)
        ts = t[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        per_min = 60 * _PER_SEC[ts.type.unit]
        step_ticks, size_ticks = step_minutes * per_min, size_minutes * per_min
        ticks = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        # latest window start at or before the event, then k-1 earlier
        # ones; a start whose window ends at or before the event drops
        base = (ticks // step_ticks) * step_ticks
        reps = np.repeat(np.arange(n), k)
        w = base[reps] - np.tile(np.arange(k, dtype=np.int64) * step_ticks, n)
        keep = w + size_ticks > ticks[reps]
        out = t.take(pa.array(reps[keep]))
        w_arr = pa.array(w[keep]).cast(pa.timestamp(ts.type.unit))
        return out.append_column("window_start", w_arr)

    return two_phase_agg(
        ds.map_batches(explode, batch_format="pyarrow"),
        list(keys) + ["window_start"],
        {"*": ["count"]},
    )


def sessionize(ds, key: str, ts_col: str, gap_seconds: float):
    """Session windows per key: a new session starts when the gap to the
    previous event exceeds ``gap_seconds``. Returns one row per session:
    (key, session_id, n_events, session_start, session_end). Events
    are ordered by ``ts_col`` within a key.

    One shuffle (groupby key); per-group pandas is vectorized
    (diff + cumsum), never a Python loop over events.
    """
    from .aggregate import keyed_apply

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized over ALL keys in the bucket: one sort, shift-based
        # gap detection, one groupby — no per-key Python
        df = df.sort_values([key, ts_col], kind="stable")
        ts = df[ts_col]
        new_key = df[key] != df[key].shift()
        gap = ts.diff().dt.total_seconds()
        new_session = new_key | (gap > gap_seconds)
        sid = new_session.cumsum()
        out = (
            df.assign(_sid=sid)
            .groupby([key, "_sid"], sort=True)
            .agg(
                n_events=(ts_col, "size"),
                session_start=(ts_col, "min"),
                session_end=(ts_col, "max"),
            )
            .reset_index()
        )
        out["session_id"] = out.groupby(key).cumcount().astype(np.int64)
        return out[[key, "session_id", "n_events", "session_start", "session_end"]]

    return keyed_apply(ds, key, per_bucket)


def last_write_wins(ds, keys, ts_col: str, value_col: str, order_cols=None):
    """Gauge last-write-wins per key (statsd gauge semantics,
    statsd_parser.go:170-189): the value of the latest event wins.
    Two-phase: per-batch last by order, then per-key last of partials."""
    from .aggregate import keyed_apply

    keys = list(keys)
    order = order_cols or [ts_col]

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order, kind="stable")
        g = df.groupby(keys, sort=False)
        out = g.agg(
            last_ts=(ts_col, "last"), **{f"{value_col}_last": (value_col, "last")}
        ).reset_index()
        return out

    return keyed_apply(ds, keys, per_bucket)
