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
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import two_phase_agg

_PER_SEC = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}


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
    are ordered by ``ts_col`` within a key; a null key is one key, and
    a null timestamp sorts last and joins its key's last session.

    One shuffle on the key; each bucket is one Arrow sort and numpy gap
    detection over its run offsets, never a Python loop over events.
    """
    from .aggregate import keyed_apply, sorted_runs

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, [(key, "ascending"), (ts_col, "ascending")]))
        ts = t[ts_col]
        valid = pc.is_valid(ts).to_numpy(zero_copy_only=False)
        ticks = pc.cast(ts, pa.int64()).fill_null(0).to_numpy()
        secs = np.diff(ticks) / _PER_SEC[ts.type.unit]
        key_starts = sorted_runs(t, [key])
        starts = np.union1d(key_starts, 1 + np.flatnonzero(valid[1:] & valid[:-1] & (secs > gap_seconds)))
        sid = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(t))))
        spans = pa.TableGroupBy(pa.table({"_sid": sid, "_ts": ts}), "_sid", use_threads=False).aggregate(
            [([], "count_all"), ("_ts", "min"), ("_ts", "max")]
        )
        # a session's number within its key: its index minus its key's first
        first = np.searchsorted(starts, key_starts)
        session_id = np.arange(len(starts)) - np.repeat(first, np.diff(np.append(first, len(starts))))
        return pa.table(
            {
                key: t[key].take(pa.array(starts)),
                "session_id": pa.array(session_id, pa.int64()),
                "n_events": spans["count_all"],
                "session_start": spans["_ts_min"],
                "session_end": spans["_ts_max"],
            }
        )

    return keyed_apply(ds, key, per_bucket)


def last_write_wins(ds, keys, ts_col: str, value_col: str, order_cols=None):
    """Gauge last-write-wins per key (statsd gauge semantics,
    statsd_parser.go:170-189): the value of the latest event wins (the
    latest non-null one, as is the timestamp); a null key tuple is one
    key. One shuffle on the keys; each bucket is one stable Arrow sort
    by ``order_cols`` and one ordered ``last`` group-by."""
    from .aggregate import _group_by, keyed_apply

    keys = list(keys)
    order = order_cols or [ts_col]

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, [(c, "ascending") for c in order]))
        last = _group_by(t, keys, [(ts_col, "last"), (value_col, "last")])
        out = {k: last[k] for k in keys}
        return pa.table({**out, "last_ts": last[f"{ts_col}_last"], f"{value_col}_last": last[f"{value_col}_last"]})

    return keyed_apply(ds, keys, per_bucket)
