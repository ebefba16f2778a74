"""Aggregate stage: two-phase grouped aggregation and the keyed shuffle.

Re-expresses the reference's aggregation semantics on Ray Data:

- **groupbyattrsprocessor** (processor.go:70-133): records grouped by
  the exact values of a configured key list; records with the key
  absent fall into the base (non-grouped) group; per-group record
  counts are the observable output our tests assert
  (processor_test.go:119-290) plus the num_grouped/num_non_grouped
  metrics (metrics.go).
- **statsdreceiver** (protocol/statsd_parser.go:138-222): counters sum,
  gauges last-write, timers collect→summary.
- **spanmetricsprocessor** (processor.go:279-333): per-dimension-tuple
  call count + latency sum + explicit-bucket histogram.
- **metricstransformprocessor aggregate_labels**
  (datapoint_aggregation.go:34-175): group by retained label set,
  merge with sum/mean/min/max.

Scale design: a bare ``groupby().aggregate()`` shuffles every row.
Every aggregation here is TWO-PHASE: phase 1 combines inside
``map_batches`` with one Arrow C++ hash group-by per batch (one partial
row per key per batch — the only rows that enter the shuffle; no
per-row Python objects, and by default the batch is the whole block, so
the combine fuses into the task that read it), phase 2 merges the
partials on the driver (``driver_finalize``) or through
``keyed_apply``, the engine's one keyed shuffle: one fixed-boundary
sort into B reducers (when B = 1, one map task that holds every row),
whose bucket functions take and return Arrow tables. Skew note: per-batch
combining already bounds the phase-2 input for ANY key (hot or not)
to ≤ #blocks partial rows, so nothing is salted.

Determinism: float partial sums reach the merge in block-arrival
order, which is nondeterministic, so the final double can differ between runs
(and from DuckDB) by ~1 ulp — enough to flip a ROUND() at a rounding
boundary. For columns with fixed decimal precision pass
``exact_sums={col: scale}``: values are scaled to int64
(``rint(v * scale)``) in phase 1 and summed exactly in integer
arithmetic — order-independent, bit-reproducible, and equal to a SQL
``SUM(CAST(col AS DECIMAL))`` oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._util import cluster_cpus, hash_str_u64, splitmix64


def derived_num_partitions() -> int:
    """Shuffle bucket count sized to the cluster: half its CPUs,
    between 4 and 512 (a 10k-core cluster gets no 5k tiny buckets),
    and never more than its CPUs. A sort's map outputs all land before
    any reducer starts, so a bucket beyond the CPU count adds a task
    wave and no parallelism. Callers use this instead of hard-coding
    counts."""
    cpus = cluster_cpus()
    return min(cpus, max(4, min(512, cpus // 2)))


def bucket_ids(batch: pa.Table, keys: Sequence[str], num_buckets: int) -> np.ndarray:
    """``keyed_apply``'s int64 bucket of each row: the splitmix64 chain
    over the key tuple (numeric null or NaN → −1, strings via
    ``hash_str_u64``) modulo ``num_buckets``. A row's bucket does not
    depend on the other rows of its batch."""
    h = np.zeros(len(batch), dtype=np.uint64)
    with np.errstate(over="ignore", invalid="ignore"):
        for kcol in keys:
            col = batch[kcol]
            if pa.types.is_integer(col.type) and col.null_count:
                # a null would make the column float64, inexact past 2**53;
                # fill it with −1's 64 bits instead
                signed = pa.types.is_signed_integer(col.type)
                col = pc.fill_null(col.cast(pa.int64() if signed else pa.uint64()), -1 if signed else 2**64 - 1)
            vals = col.to_numpy(zero_copy_only=False)
            if np.issubdtype(vals.dtype, np.number):
                if vals.dtype.kind == "f":  # nulls arrive as NaN
                    vals = np.nan_to_num(vals, nan=-1.0)
                ch = splitmix64(vals.astype(np.uint64))
            else:
                ch = hash_str_u64(vals)
            h = splitmix64(h ^ ch)
    return (h % np.uint64(num_buckets)).astype(np.int64)


# Above any Dataset's row count: B = 1's batch size, so Ray's bundler
# hands every block to one task and its batcher makes them one batch.
ONE_BUCKET_ROWS = 1 << 62


def keyed_apply(ds, keys, fn, *, num_buckets: int | None = None):
    """The engine's one keyed shuffle: co-locate every row of each key
    tuple and call ``fn`` once per BUCKET, not once per key.

    ``add_bucket`` hashes the key tuple into ``_bucket`` in ``[0, B)``
    (``bucket_ids``) with ``B = num_buckets`` or
    ``derived_num_partitions()``. That domain is known, so the shuffle
    is ONE sort on the fixed boundaries ``1 .. B-1``: B reducers, no
    boundary-sampling round, and reducer ``b`` holds exactly bucket
    ``b``. ``B = 1`` hashes and shuffles nothing: one ``map_batches``
    whose batch size (``ONE_BUCKET_ROWS``) exceeds any row count, so
    Ray bundles every input block into one task and calls ``fn`` once
    with all rows, which that task holds in memory at once. Ray
    fuses an upstream task-pool map chain into that task, so with an
    explicit ``num_buckets=1`` on a multi-CPU session that chain runs
    in the one task too.
    ``per_bucket`` then hands ``fn`` each non-empty bucket as one
    ``pa.Table`` without ``_bucket``, and ``fn`` returns a ``pa.Table``.
    ``fn`` runs a vectorized group-by over the bucket itself, so
    millions of keys cost B Python calls. A single hot key always lands
    in one bucket, bounding the largest task by that key's row count.
    A bucket function whose kernel exists only in pandas converts at
    its own boundary.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    P = int(num_buckets or derived_num_partitions())
    if P == 1:
        return ds.map_batches(
            _per_bucket(fn), batch_size=ONE_BUCKET_ROWS, zero_copy_batch=True, batch_format="pyarrow"
        )

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("_bucket", pa.array(bucket_ids(batch, keys, P)))

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    ds = ds.sort("_bucket", boundaries=list(range(1, P)))
    return ds.map_batches(_per_bucket(fn), batch_size=None, batch_format="pyarrow")


def _per_bucket(fn):
    """Wrap ``fn`` as ``keyed_apply``'s per-block UDF: skip empty
    blocks, refuse a block that carries two ``_bucket`` values (each
    reducer of the fixed-boundary sort is exactly one bucket, so this
    never groups silently; B = 1's one batch has no ``_bucket``), call
    ``fn`` on the bucket's table without ``_bucket``, raise
    ``TypeError`` naming ``fn`` when it returns anything but a
    ``pa.Table``, and emit the result without schema metadata (a
    pandas blob that rode in on the input makes the next shuffle's
    schema dedup fail)."""

    def per_bucket(t: pa.Table):
        if len(t) == 0:
            return
        if "_bucket" in t.column_names:
            b = np.asarray(t["_bucket"])
            if b.min() != b.max():
                raise RuntimeError(f"keyed_apply: one block holds buckets {b.min()} to {b.max()}")
            t = t.drop_columns(["_bucket"])
        out = fn(t)
        if not isinstance(out, pa.Table):
            name = getattr(fn, "__qualname__", fn)
            raise TypeError(f"keyed_apply: {name} returned {type(out).__name__}, not a pyarrow.Table")
        yield out.replace_schema_metadata(None)

    return per_bucket


def sorted_runs(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Start offset of each run of equal ``keys`` tuples in ``t``, which
    is sorted on them: the groups of a sorted bucket. Nulls (and NaNs)
    of a key form one run."""
    ends = [pc.run_end_encode(t[k].combine_chunks()).run_ends.to_numpy() for k in keys]
    return np.unique(np.concatenate([[0], *ends]))[:-1]


def span_parents(trace, span, parent, has_parent) -> np.ndarray:
    """Row of each row's parent within its trace: the first row of the
    same ``trace`` whose ``span`` equals its ``parent``; -1 where
    ``has_parent`` is false, -2 where the parent is not in the trace.
    Ids are Arrow arrays of any one hashable type (strings, uint64); a
    null is one more id. One composite (trace, id) code per row, one
    stable sort and one binary search."""
    if len(span) == 0:
        return np.zeros(0, np.int64)
    trace, span, parent = (a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in (trace, span, parent))
    parent = parent.cast(span.type)
    tcode = pc.dictionary_encode(trace, null_encoding="encode").indices.to_numpy(zero_copy_only=False)
    ids = pc.unique(pa.concat_arrays([span, parent]))
    base = tcode.astype(np.int64) * len(ids)
    skey, pkey = (base + pc.index_in(a, value_set=ids).to_numpy(zero_copy_only=False) for a in (span, parent))
    order = np.argsort(skey, kind="stable")
    ordered = skey[order]
    pos = np.minimum(np.searchsorted(ordered, pkey), len(skey) - 1)
    out = np.where(ordered[pos] == pkey, order[pos], -2)
    out[~np.asarray(has_parent, bool)] = -1
    return out


def sorted_groups(t: pa.Table, keys: Sequence[str], order: Sequence = ()) -> list[pa.Table]:
    """``t`` sorted by ``keys`` then ``order`` (``pc.sort_indices`` sort
    keys; stable) and cut into one slice per key tuple."""
    t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys] + list(order)))
    bounds = np.append(sorted_runs(t, keys), len(t))
    return [t.slice(s, e - s) for s, e in zip(bounds[:-1], bounds[1:])]


def head_per_group(t: pa.Table, group: str, order: list, n: int) -> tuple[pa.Table, np.ndarray]:
    """The first ``n`` rows of each ``group`` value of ``t`` in ``order``
    (stable ``pc.sort_indices`` keys), and each one's 0-based rank."""
    t = t.take(pc.sort_indices(t, [(group, "ascending"), *order]))
    starts = sorted_runs(t, [group])
    rank = np.arange(len(t)) - np.repeat(starts, np.diff(np.append(starts, len(t))))
    keep = rank < n
    return t.filter(pa.array(keep)), rank[keep]


def bucketed_aggregate(ds, keys, plan, *, num_buckets: int | None = None):
    """Grouped aggregation for HIGH-cardinality key sets.

    Ray's native sort-based ``groupby().aggregate()`` walks group
    boundaries in per-group Python — measured 56 s for 111k groups of
    120k rows vs <1 s for 20 groups — so group count, not row count,
    is its cost. This helper runs through ``keyed_apply`` (the shuffle
    key has only ``num_buckets`` distinct values) and merges each
    bucket with ONE C++-vectorized Arrow ``TableGroupBy`` — O(1) Python
    per bucket, not per key.

    ``plan``: ``[(src_col, arrow_op, dst_col)]`` with ``arrow_op`` a
    pyarrow group-aggregate function name (``sum/min/max/count/mean``).
    An EMPTY plan returns the distinct key tuples. Every row of a key
    lands in one bucket, so distributive merges are exact; output
    column order is ``keys`` then the plan's dst names.
    """
    keys = list(keys)
    return keyed_apply(ds, keys, lambda t: _merge_groups(t, keys, plan), num_buckets=num_buckets)


def _merge_groups(t: pa.Table, keys: list[str], plan) -> pa.Table:
    """One Arrow group-by over ``t`` per ``bucketed_aggregate``'s
    ``plan``: type-preserving (incl. all-null key columns, which pandas
    would retype) and C++-vectorized."""
    # dedupe (src, op): e.g. sum+mean share one partial column
    merged = _group_by(t, keys, sorted({(src, op) for src, op, _ in plan}))
    cols = {k: merged[k] for k in keys}
    for src, op, dst in plan:
        cols[dst] = merged[f"{src}_{op}"]
    return pa.table(cols)


def _group_by(t: pa.Table, keys: list[str], aggregations) -> pa.Table:
    """``pa.TableGroupBy(t, keys).aggregate(aggregations)`` that puts
    every row of a null key tuple in ONE group. Arrow 16's hash grouper
    can split such rows over several groups when keys of different
    widths meet (a string and a float key on a batch beyond 32 rows,
    say), so a key with nulls is grouped as two null-free keys: the
    column with its nulls filled by one of its own values, and a null
    flag (the flag alone when the key is all null). The output puts the
    nulls back and keeps the helper keys as extra columns."""
    nullable = [k for k in keys if t[k].null_count] if len(keys) > 1 else []
    group_keys = [k for k in keys if k not in nullable]
    for k in nullable:
        col = t[k]
        valid = col.drop_null()
        if len(valid):
            t = t.append_column(f"_filled_{k}", col.fill_null(valid[0]))
            group_keys.append(f"_filled_{k}")
        t = t.append_column(f"_null_{k}", pc.is_null(col))
        group_keys.append(f"_null_{k}")
    merged = pa.TableGroupBy(t, group_keys, use_threads=False).aggregate(aggregations)
    for k in nullable:
        if f"_filled_{k}" in group_keys:
            col = pc.if_else(merged[f"_null_{k}"], pa.scalar(None, t[k].type), merged[f"_filled_{k}"])
        else:
            col = pa.nulls(merged.num_rows, t[k].type)
        merged = merged.append_column(k, col)
    return merged


def _nan_as_null(col):
    """Float NaN → null: pandas' ``skipna`` read NaN as missing, Arrow's
    group-by keeps it as a value (a NaN key group, a NaN sum)."""
    if pa.types.is_floating(col.type):
        return pc.if_else(pc.is_nan(col), pa.scalar(None, col.type), col)
    return col


def _partial_stage(keys, aggs, exact_sums):
    """Build the per-batch combiner: batch → one row per key tuple, from
    ONE Arrow hash group-by (no per-row Python objects).

    Partial columns: ``_count`` (rows), ``<col>__count`` (non-null
    values), ``<col>__sum`` (float64, 0 for an all-null group) or
    ``<col>__isum`` (int64 scaled, ``exact_sums``), ``<col>__min`` and
    ``<col>__max`` (the column's own type, null for an all-null group).
    NaN counts as null in keys and values; null keys form one group.
    """
    # partial name -> (source column, Arrow hash aggregate); sums take
    # min_count=0 so an all-null group sums to 0 as pandas did
    plan = {"_count": ([], "count_all")}
    for col, fns in aggs.items():
        if col == "*":
            continue
        for fn in fns:
            if fn == "count":
                plan[f"{col}__count"] = (col, "count")
            elif fn in ("sum", "mean"):
                if col in exact_sums:
                    plan[f"{col}__isum"] = (f"_int_{col}", "sum")
                else:
                    plan[f"{col}__sum"] = (col, "sum")
            elif fn in ("min", "max"):
                plan[f"{col}__{fn}"] = (col, fn)

    def combine(batch: pa.Table) -> pa.Table:
        cols = {c: _nan_as_null(batch[c]) for c in keys + [c for c in aggs if c != "*"]}
        for col, scale in exact_sums.items():
            v = np.array(batch[col].to_numpy(zero_copy_only=False), dtype=np.float64)
            v[np.isnan(v)] = 0.0  # skipna-sum semantics: nulls contribute 0
            cols[f"_int_{col}"] = pa.array(np.rint(v * scale).astype(np.int64))
        sum_all = pc.ScalarAggregateOptions(min_count=0)  # built per call: not picklable
        merged = _group_by(
            pa.table(cols), keys, [(src, fn, sum_all if fn == "sum" else None) for src, fn in plan.values()]
        )
        out = {k: merged[k] for k in keys}
        for name, (src, fn) in plan.items():
            col = merged[f"{src}_{fn}" if src else fn]
            # float sums ALWAYS: an int column would otherwise emit an
            # int64 partial, a dtype decided by the input, not the plan
            out[name] = col.cast(pa.float64()) if name.endswith("__sum") else col
        return pa.table(out)

    return combine


def _merge_plan(keys, aggs, exact_sums):
    """Phase 2 of ``two_phase_agg``: the ``bucketed_aggregate`` plan that
    merges the partials, and the finisher (or None) that turns merged
    scaled sums and mean sums into ``<col>_sum``/``<col>_mean``."""

    def _sum_part(col: str) -> str:
        return f"{col}__isum" if col in exact_sums else f"{col}__sum"

    merge_plan = [("_count", "sum", "count")]
    finalize_mean = []
    finalize_scale = []
    names = list(keys) + ["count"]
    for col, fns in aggs.items():
        if col == "*":
            continue
        for fn in fns:
            names.append(f"{col}_{fn}")
            if fn == "count":
                merge_plan.append((f"{col}__count", "sum", f"{col}_count"))
            elif fn == "sum":
                if col in exact_sums:
                    merge_plan.append((f"{col}__isum", "sum", f"{col}__isum_total"))
                    finalize_scale.append(col)
                else:
                    merge_plan.append((f"{col}__sum", "sum", f"{col}_sum"))
            elif fn == "mean":
                if col not in (exact_sums.keys() & {c for c, f in aggs.items() if "sum" in f}):
                    # avoid double-adding the same partial when sum+mean both requested
                    merge_plan.append((_sum_part(col), "sum", f"{col}__msum"))
                finalize_mean.append(col)
            elif fn == "min":
                merge_plan.append((f"{col}__min", "min", f"{col}_min"))
            elif fn == "max":
                merge_plan.append((f"{col}__max", "max", f"{col}_max"))
    if not (finalize_mean or finalize_scale):
        return merge_plan, None

    def _fin(t: pa.Table) -> pa.Table:
        for col in finalize_scale:
            total = pc.divide(
                pc.cast(t[f"{col}__isum_total"], pa.float64()),
                pa.scalar(float(exact_sums[col])),
            )
            t = t.append_column(f"{col}_sum", total)
        for col in finalize_mean:
            if f"{col}__msum" in t.column_names:
                msum = pc.cast(t[f"{col}__msum"], pa.float64())
                if col in exact_sums:
                    msum = pc.divide(msum, pa.scalar(float(exact_sums[col])))
            else:  # sum+mean with exact scaling share one partial
                msum = t[f"{col}_sum"]
            mean = pc.divide(msum, pc.cast(t["count"], pa.float64()))
            t = t.append_column(f"{col}_mean", mean)
        return t.select(names)

    return merge_plan, _fin


MAX_DRIVER_PARTIAL_ROWS = 4_000_000
"""Cap on the partial rows ``two_phase_agg(driver_finalize=True)``
collects on the driver (≤ groups × blocks). Past it the collect raises
with the row count: use the distributed merge (``driver_finalize=False``)
for that many groups."""


def _collect_partials(partial) -> list[pa.Table]:
    """The partial blocks, checked against ``MAX_DRIVER_PARTIAL_ROWS`` as
    each one arrives."""
    parts, rows = [], 0
    for t in partial.iter_batches(batch_format="pyarrow", batch_size=None):
        rows += t.num_rows
        if rows > MAX_DRIVER_PARTIAL_ROWS:
            raise RuntimeError(
                f"two_phase_agg(driver_finalize=True) collected {rows} partial rows, over "
                f"MAX_DRIVER_PARTIAL_ROWS={MAX_DRIVER_PARTIAL_ROWS}; use driver_finalize=False"
            )
        parts.append(t)
    return parts


def _empty_input(ds, keys, aggs) -> pa.Table:
    """A zero-row input for the combine when ``ds`` yields no rows, so
    the result still carries every column: ``ds``'s own schema, or null
    keys and float64 values when Ray cannot tell it (e.g. after a row
    ``filter`` that kept nothing)."""
    schema = ds.schema()
    if schema is not None:
        return schema.base_schema.empty_table()
    cols = {k: pa.array([], pa.null()) for k in keys}
    cols.update({c: pa.array([], pa.float64()) for c in aggs if c != "*"})
    return pa.table(cols)


def two_phase_agg(
    ds,
    keys: Sequence[str],
    aggs: dict[str, Sequence[str]],
    *,
    batch_size: int | None = None,
    driver_finalize: bool = False,
    exact_sums: dict[str, int] | None = None,
):
    """Grouped aggregation with per-batch combining.

    aggs: {column: [fn,...]} with fn in {count,sum,min,max,mean};
    use {"*": ["count"]} for plain row counts. Output columns are
    ``<col>_<fn>`` plus ``count`` for the row count.

    ``batch_size=None`` combines each block whole, so the combine fuses
    into the task that produced the block (a read included).

    ``exact_sums={col: scale}`` makes that column's sum (and mean)
    bit-deterministic: values are int64-scaled per batch and summed in
    integer arithmetic, so the merge order cannot perturb the result
    (module doc). Use for fixed-decimal inputs (scale=100 for cents).

    Returns a Ray Dataset with one row per distinct key tuple — or,
    with ``driver_finalize=True``, a pyarrow.Table merged on the
    driver: the combine phase stays fully distributed and the driver
    only merges the per-batch partials (≤ groups × blocks rows, at most
    ``MAX_DRIVER_PARTIAL_ROWS``). Use it when the group count is small —
    it replaces the all-to-all groupby shuffle with one tiny collect.
    """
    keys = list(keys)
    exact_sums = exact_sums or {}
    combine = _partial_stage(keys, aggs, exact_sums)
    partial = ds.map_batches(combine, batch_format="pyarrow", batch_size=batch_size)
    merge_plan, fin = _merge_plan(keys, aggs, exact_sums)
    if driver_finalize:
        parts = _collect_partials(partial) or [combine(_empty_input(ds, keys, aggs))]
        out = _merge_groups(pa.concat_tables(parts, promote_options="permissive"), keys, merge_plan)
        return out if fin is None else fin(out)
    # phase 2: merge partials (≤ groups × blocks rows). NOT Ray's native
    # groupby().aggregate(): its sort-based aggregate walks group
    # boundaries in per-group Python — measured 56 s for 111k groups of
    # 120k rows vs <1 s for 20 groups. Instead ``bucketed_aggregate``
    # (one ``keyed_apply`` shuffle) merges each bucket with ONE
    # vectorized Arrow groupby — all merge fns are distributive, and
    # every partial of a key lands in the same bucket by construction.
    out = bucketed_aggregate(partial, keys, merge_plan)
    return out if fin is None else out.map_batches(fin, batch_format="pyarrow")


def group_by_attrs_compact(
    ds,
    keys: Sequence[str],
    *,
    resource_cols: Sequence[str] = (),
):
    """Full groupbyattrsprocessor semantics in columnar form
    (processor.go:70-133, attribute_groups.go:104-169):

    - output GROUPS = distinct (base resource attrs ⊎ grouped key
      values) with per-group record counts — group identity is exact
      attr-map equality, which for fixed columns is the value tuple;
    - grouped keys are REMOVED from record-level attributes (they live
      on the group/resource now) — the returned ``records`` Dataset
      drops the key columns and carries the remaining record attrs.

    Returns (groups_ds, records_ds). Records with all keys null belong
    to the base (non-grouped) resource group (processor.go:83-97).
    """
    cols = list(resource_cols) + list(keys)
    groups = groupby_attrs_counts(ds, cols, grouped_keys=list(keys))
    keep = [c for c in ds.schema().names if c not in keys]
    if keep:
        records = ds.select_columns(keep)
    else:
        # every column was a grouped key: records remain (empty attr
        # maps in the reference) — keep row identity via a marker
        def _marker(t: pa.Table) -> pa.Table:
            return pa.table({"_record": pa.nulls(len(t), pa.null())})

        records = ds.map_batches(_marker, batch_format="pyarrow")
    return groups, records


def groupby_attrs_counts(ds, keys: Sequence[str], *, grouped_keys: Sequence[str] | None = None):
    """groupbyattrsprocessor observable output: per-group record counts.

    Rows where ALL key columns are null form the base (non-grouped)
    group, flagged ``grouped=False`` (processor.go:83-97: records
    matching no key go to a base-resource group). Group identity is the
    exact tuple of key values (attribute_groups.go:104-154 full-map
    equality — in columnar form the key tuple IS the identity).
    """
    keys = list(keys)
    flag_keys = list(grouped_keys) if grouped_keys is not None else keys
    counted = two_phase_agg(ds, keys, {"*": ["count"]})

    def _flag(t: pa.Table) -> pa.Table:
        grouped = None
        for k in flag_keys:
            v = pc.is_valid(t[k])
            grouped = v if grouped is None else pc.or_(grouped, v)
        return t.append_column("grouped", grouped)

    return counted.map_batches(_flag, batch_format="pyarrow")


def _hist_partial(keys, value_col, bounds_arr, value_scale):
    """``histogram_agg``'s per-batch combiner: batch → one row per key
    tuple from ONE Arrow hash group-by over the keys — the value count
    ``call_count``, the sum ``vsum`` (int64 scaled when ``value_scale``
    is set, else float64) and one ``bucket_i`` indicator sum per bucket.
    A null or NaN value adds to no count, no sum and no bucket; null
    (and NaN) keys form one group."""
    nb = len(bounds_arr) + 1

    def combine(batch: pa.Table) -> pa.Table:
        vals = np.array(batch[value_col].to_numpy(zero_copy_only=False), dtype=np.float64)
        missing = np.isnan(vals)  # nulls arrive as NaN
        if value_scale is not None:
            v = pa.array(np.rint(np.where(missing, 0.0, vals) * value_scale).astype(np.int64), mask=missing)
        else:
            v = pa.array(vals, mask=missing)
        bucket = np.where(missing, -1, np.searchsorted(bounds_arr, vals, side="left"))
        cols = {k: _nan_as_null(batch[k]) for k in keys}
        cols["_v"] = v
        for b in range(nb):
            cols[f"bucket_{b}"] = pa.array((bucket == b).astype(np.int64))
        sum_all = pc.ScalarAggregateOptions(min_count=0)  # an all-null group sums to 0
        merged = _group_by(
            pa.table(cols),
            keys,
            [("_v", "count"), ("_v", "sum", sum_all)] + [(f"bucket_{b}", "sum", sum_all) for b in range(nb)],
        )
        out = {k: merged[k] for k in keys}
        out["call_count"] = merged["_v_count"]
        out["vsum"] = merged["_v_sum"]
        for b in range(nb):
            out[f"bucket_{b}"] = merged[f"bucket_{b}_sum"]
        return pa.table(out)

    return combine


def histogram_agg(
    ds,
    keys: Sequence[str],
    value_col: str,
    bounds: Sequence[float],
    *,
    value_scale: int | None = None,
):
    """spanmetrics-style explicit-bucket histogram per key tuple
    (processor.go:305-333): per group emit ``call_count``,
    ``<value>_sum`` and ``bucket_0..bucket_len(bounds)`` counts
    (bucket_i = count of values ≤ bounds[i]; last bucket = overflow).
    A null or NaN value counts nowhere. Two-phase: one Arrow group-by
    per read block (``_hist_partial``), Sum merge.

    ``value_scale`` (e.g. 100 for cent-precision values) switches the
    sum to exact int64 arithmetic so the merged double is independent
    of Ray's partial-merge order (module doc: determinism).
    """
    keys = list(keys)
    bounds_arr = np.asarray(list(bounds), dtype=np.float64)
    nb = len(bounds_arr) + 1

    partial = ds.map_batches(
        _hist_partial(keys, value_col, bounds_arr, value_scale), batch_format="pyarrow", batch_size=None
    )
    plan = [
        ("call_count", "sum", "call_count"),
        ("vsum", "sum", "vsum"),
    ] + [(f"bucket_{b}", "sum", f"bucket_{b}") for b in range(nb)]
    merged = bucketed_aggregate(partial, keys, plan)

    def _fin(t: pa.Table) -> pa.Table:
        v = pc.cast(t["vsum"], pa.float64())
        if value_scale is not None:
            v = pc.divide(v, pa.scalar(float(value_scale)))
        i = t.column_names.index("vsum")
        return t.set_column(i, f"{value_col}_sum", v)

    return merged.map_batches(_fin, batch_format="pyarrow")


def statsd_agg(
    ds,
    keys: Sequence[str],
    value_col: str,
    *,
    value_scale: int | None = None,
):
    """statsd counter/gauge/timer rollup per key
    (statsd_parser.go:138-222): count, sum, min, max, mean over the
    value column — the batch-engine equivalent of one flush interval.
    ``value_scale`` → exact int64 sums (see two_phase_agg)."""
    return two_phase_agg(
        ds,
        keys,
        {value_col: ["count", "sum", "min", "max", "mean"]},
        exact_sums={value_col: value_scale} if value_scale else None,
    )


def timer_summary(
    ds,
    keys: Sequence[str],
    value_col: str,
    *,
    percentiles: Sequence[float] = (0, 10, 50, 90, 95, 100),
    exact_scale: int | None = None,
):
    """statsd TIMER → Summary datapoint (metric_translator.go:63-88):
    per key emit count, sum and NEAREST-RANK percentiles (the
    reference's stats.PercentileNearestRank: sorted[ceil(n·p/100)−1],
    p=0 → min, p=100 → max) at the reference's default quantile set.

    EXACT and distributed: one bucketed shuffle co-locates each key's
    full value multiset (statsd metric names are low-cardinality by
    design — a single key's values must fit one bucket task), then one
    vectorized sort + gather per bucket. Output columns: keys, count,
    ``<value>_sum``, ``p<P>`` per percentile.
    """
    keys = list(keys)
    pcts = list(percentiles)

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, [(c, "ascending") for c in keys + [value_col]]))
        starts = sorted_runs(t, keys)
        sizes = np.diff(np.append(starts, len(t)))
        out = {k: t[k].take(starts) for k in keys}
        out["count"] = pa.array(sizes.astype(np.int64))
        vals = t[value_col].to_numpy(zero_copy_only=False)  # nulls arrive as NaN
        if exact_scale:  # fixed-decimal input → exact int64 sum (module doc)
            ints = np.rint(vals * exact_scale).astype(np.int64)
            out[f"{value_col}_sum"] = pa.array(np.add.reduceat(ints, starts) / float(exact_scale))
        else:
            out[f"{value_col}_sum"] = pa.array(np.add.reduceat(np.nan_to_num(vals), starts))
        for p in pcts:
            # nearest rank: ceil(n·p/100) clamped to [1, n], minus 1
            idx = np.maximum(1, np.ceil(sizes * p / 100.0).astype(np.int64)) - 1
            out[f"p{int(p)}"] = pa.array(vals[starts + np.minimum(idx, sizes - 1)])
        return pa.table(out)

    return keyed_apply(ds.select_columns(keys + [value_col]), keys, per_bucket)
