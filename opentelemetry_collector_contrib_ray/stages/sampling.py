"""Trace-grouping and sampling: tailsampling / groupbytrace semantics.

Reference:
- **tailsamplingprocessor** (processor.go:116-237): buffer spans per
  traceID for ``decision_wait``, then evaluate policies — a trace is
  sampled if ANY policy says so (OR, :191-237). Policies implemented:
  always_sample, numeric_attribute (range), string_attribute (value
  set, optional regex), rate_limiting (spans/sec).
- **groupbytraceprocessor** (processor.go:82-143): gather all spans of
  a trace together, release after wait_duration.

Batch-engine design: the decision window is the dataset (or an
event-time bucket column); the per-trace buffer is Ray's shuffle.
Policy evaluation runs once per bucket of traces (``keyed_apply`` on
the trace id, one vectorized pass over every trace in the bucket),
emitting a decision per trace; sampled rows pass via a
broadcast-semi-join filter — no second shuffle of the full data.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._util import table_from_pandas


class Policy:
    """Base policy: ``tail_sample`` evaluates every policy over a bucket
    of whole traces and samples a trace if any policy says so."""

    name = "policy"


class AlwaysSample(Policy):
    """sampling/always_sample.go"""

    name = "always_sample"


class NumericAttribute(Policy):
    """sampling/numeric_tag_filter.go: sample if any span's attribute
    value falls in [min_value, max_value]."""

    name = "numeric_attribute"

    def __init__(self, key: str, min_value: float, max_value: float):
        self.key, self.lo, self.hi = key, min_value, max_value


class StringAttribute(Policy):
    """sampling/string_tag_filter.go: sample if any span's attribute is
    in the configured value set (enable_regex → patterns, with the
    reference's LRU cache replaced by per-actor compiled patterns)."""

    name = "string_attribute"

    def __init__(self, key: str, values: Sequence[str], enable_regex: bool = False):
        self.key = key
        self.enable_regex = enable_regex
        self.values = set(values)
        self.patterns = [re.compile(v) for v in values] if enable_regex else []


class RateLimiting(Policy):
    """sampling/rate_limiting.go:50-66 exact semantics: a per-SECOND
    span budget. The evaluator tracks the current second; on a new
    second the counter resets; a trace is Sampled iff
    ``count_in_second + span_count < spans_per_second`` (strict), and
    only SAMPLED traces consume budget. Batch re-expression: traces are
    evaluated in event-time order (first span timestamp = the
    evaluation clock), seconds bucket on the epoch floor. STATEFUL
    across traces → applied on the per-trace decision table (one row
    per trace), never on span data."""

    name = "rate_limiting"

    def __init__(self, spans_per_second: int):
        self.spans_per_second = spans_per_second

    def apply_to_decisions(
        self, ddf: pd.DataFrame, ts_col: str = "first_ts", tie_col: str | None = None
    ) -> pd.DataFrame:
        """Run the per-second budget over a decision table sorted by
        event time (``tie_col`` breaks equal-timestamp ties
        deterministically — partition order must not change results);
        returns the table with ``sampled`` updated. The budget state is
        SECOND-LOCAL (the counter resets on every new second,
        rate_limiting.go:56-60), so disjoint sets of whole seconds can
        be processed independently — the distributed path buckets on
        the second."""
        sort_cols = [ts_col] + ([tie_col] if tie_col else [])
        ddf = ddf.sort_values(sort_cols, kind="stable").reset_index(drop=True)
        secs = (ddf[ts_col].astype("datetime64[ns]").astype(np.int64) // 1_000_000_000).to_numpy()
        spans = ddf["n_spans"].to_numpy()
        sampled = ddf["sampled"].to_numpy().copy()
        count, cur = 0, None
        for i in range(len(ddf)):
            if not sampled[i]:
                continue
            if secs[i] != cur:
                cur, count = secs[i], 0  # new second → counter reset
            if count + spans[i] < self.spans_per_second:
                count += spans[i]
            else:
                sampled[i] = False
        ddf["sampled"] = sampled
        return ddf


def tail_sample(
    ds,
    trace_col: str,
    policies: Sequence[Policy],
    *,
    ts_col: str | None = None,
    broadcast_threshold: int = 2_000_000,
):
    """Returns (sampled_ds, decisions) where decisions is a DATASET with
    one row per trace (trace_id, sampled, n_spans, first_ts).

    Scale shape (nothing driver-side is O(#traces)):
    - per-trace policy evaluation: one bucketed hash(trace) shuffle,
      vectorized per bucket (processor.go:191-237 OR semantics);
    - rate limiting: the per-second budget is second-LOCAL
      (rate_limiting.go:56-60), so it applies inside a second pass
      bucketed on the epoch second of the decision table — whole
      seconds co-locate, no global state;
    - sampled-span selection (processor.go:156-173): when the sampled
      trace-id set is small it broadcasts once via ``ray.put`` into a
      vectorized membership filter; past ``broadcast_threshold`` ids it
      switches to a distributed bucketed semi-join (``stages/join.
      bucketed_hash_join`` with a key-only right side) — no O(#traces)
      driver table or broadcast.
    """
    import ray

    from .aggregate import keyed_apply

    group_policies = [p for p in policies if not isinstance(p, RateLimiting)]
    rate_policies = [p for p in policies if isinstance(p, RateLimiting)]

    def decide_bucket(t: pa.Table) -> pa.Table:
        # vectorized per bucket: each policy marks the trace ids it
        # samples; OR across policies (processor.go:191-237) — no
        # per-trace Python calls. pandas, for the policies' Python
        # ``re`` semantics (RE2 would differ)
        df = t.to_pandas()
        sampled_ids: set = set()
        for p in group_policies:
            if isinstance(p, AlwaysSample):
                sampled_ids.update(df[trace_col].unique())
            elif isinstance(p, NumericAttribute) and p.key in df.columns:
                v = pd.to_numeric(df[p.key], errors="coerce")
                hit = df.loc[(v >= p.lo) & (v <= p.hi), trace_col]
                sampled_ids.update(hit.unique())
            elif isinstance(p, StringAttribute) and p.key in df.columns:
                s = df[p.key].dropna().astype(str)
                if p.enable_regex:
                    m = pd.Series(False, index=s.index)
                    for rx in p.patterns:
                        m |= s.str.contains(rx)
                else:
                    m = s.isin(p.values)
                sampled_ids.update(df.loc[s.index[m], trace_col].unique())
        agg_spec = {"n_spans": (trace_col, "size")}
        if ts_col and ts_col in df.columns:
            agg_spec["first_ts"] = (ts_col, "min")
        out = df.groupby(trace_col, sort=False).agg(**agg_spec).reset_index()
        out["sampled"] = out[trace_col].isin(sampled_ids)
        return table_from_pandas(out)

    decisions = keyed_apply(ds, trace_col, decide_bucket)

    if rate_policies and ts_col:
        # exact per-second budget (rate_limiting.go:50-66), tightest
        # policy wins; the counter is second-local, so bucket the
        # decision table on the epoch second and run the sequential
        # budget inside each bucket (ties broken by trace id so the
        # result is partition-order independent)
        tightest = min(rate_policies, key=lambda p: p.spans_per_second)

        def add_sec(t: pa.Table) -> pa.Table:
            secs = pc.cast(
                pc.cast(t["first_ts"], pa.timestamp("s"), safe=False), pa.int64()
            )
            return t.append_column("_sec", secs)

        def per_sec_bucket(t: pa.Table) -> pa.Table:
            # the budget is a sequential loop over a pandas decision table
            out = tightest.apply_to_decisions(t.to_pandas(), "first_ts", trace_col)
            return table_from_pandas(out.drop(columns=["_sec"]))

        decisions = keyed_apply(
            decisions.map_batches(add_sec, batch_format="pyarrow"),
            "_sec",
            per_sec_bucket,
        )

    # bounded distributed materialize: one row per trace, read twice
    # (count probe + sampled-id side) — never collected to the driver
    decisions = decisions.materialize()
    sampled_ids_ds = decisions.filter(expr="sampled == True").select_columns([trace_col])

    if sampled_ids_ds.count() <= broadcast_threshold:
        # small sampled set → one ray.put, zero-copy membership filter
        ids_pd = sampled_ids_ds.to_pandas()
        # an all-filtered Dataset can surface as a zero-column frame
        sampled_ids = (
            ids_pd[trace_col].to_numpy()
            if trace_col in ids_pd.columns
            else np.empty(0, dtype=object)
        )
        ids_ref = ray.put(sampled_ids)

        def semi_join(batch: pa.Table) -> pa.Table:
            ids = ray.get(ids_ref)  # zero-copy shared-memory read per task
            vals = pd.Series(batch[trace_col].to_numpy(zero_copy_only=False))
            mask = vals.isin(ids).to_numpy()  # vectorized membership
            return batch.filter(pa.array(mask))

        sampled_ds = ds.map_batches(semi_join, batch_format="pyarrow")
    else:
        # large sampled set → distributed semi-join: inner bucketed
        # hash join against the key-only right side (ids are unique per
        # trace, so inner ≡ semi)
        from .join import bucketed_hash_join

        sampled_ds = bucketed_hash_join(ds, sampled_ids_ds, trace_col, how="inner")
    return sampled_ds, decisions


def group_by_trace(ds, trace_col: str, fn=None):
    """groupbytraceprocessor: deliver each trace's spans as one group
    (processor.go:82-90): ``fn`` maps one trace's ``pa.Table`` (in its
    bucket's row order) to a ``pa.Table`` and defaults to pass-through;
    rows with a null trace id are dropped.

    SCALE: one shuffle on ``hash(trace) % num_buckets``
    (``derived_num_partitions()`` buckets), then one stable sort per
    bucket and ``fn`` per trace slice (never one Ray group per trace id)."""
    from .aggregate import keyed_apply, sorted_groups

    if fn is None:
        fn = lambda g: g  # noqa: E731

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[trace_col]))
        outs = [fn(g) for g in sorted_groups(t, [trace_col])]
        return pa.concat_tables(outs) if outs else t

    return keyed_apply(ds, trace_col, per_bucket)


def probabilistic_sample(ds, id_col: str, fraction: float):
    """Deterministic hash-based probabilistic sampler (core collector's
    probabilisticsampler semantics: hash(id) < threshold — stable
    across reruns, unlike random sampling)."""
    from .._util import hash_str_u64

    if fraction >= 1.0:
        return ds  # sample everything — avoid uint64 threshold overflow
    # clamp: fraction just under 1.0 can round up to 2^64
    threshold = min(int(fraction * (1 << 64)), (1 << 64) - 1)
    if threshold <= 0:
        threshold = 0

    def f(batch: pa.Table) -> pa.Table:
        vals = batch[id_col].to_numpy(zero_copy_only=False)
        h = hash_str_u64(vals)
        return batch.filter(pa.array(h < np.uint64(threshold)))

    return ds.map_batches(f, batch_format="pyarrow")
