"""Joins: broadcast small-side and partitioned large-large hash join.

The reference has NO relational join operator (SURVEY.md §2.7) — its
"joins" are broadcast lookups against in-process caches (k8s pod cache,
detected resource). This module supplies the engine's general-purpose
relational capability, both equi-joins on one Arrow kernel
(``_join_take``: join the keys plus a row index per side, then
``take`` the columns, so every column keeps its input type):

- ``broadcast_join``: small side (dimension table) shipped once via
  ray.put, the kernel runs per batch — no shuffle. The scale default
  for enrichment-shaped joins.
- ``bucketed_hash_join``: both sides large — ``tag_union`` the sides,
  co-locate each key with ONE ``keyed_apply`` shuffle, the kernel runs
  per bucket. A hot key is bounded by its bucket: one key's rows from
  both sides must fit a worker.

A null key never matches. There is no second shuffle: every join goes
through ``keyed_apply``, the engine's one keyed shuffle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import keyed_apply

_JOIN_TYPES = {"inner": "inner", "left": "left outer"}


def _join_take(lhs: pa.Table, rhs: pa.Table, on: list, join_type: str) -> pa.Table:
    """Equi-join two Arrow tables on ``on``: Arrow-join the keys plus a
    row index per side and ``take`` the columns (``Table.join`` refuses
    list-typed non-key columns and retypes nothing this way). Output:
    every ``lhs`` column, then ``rhs``'s non-key columns, a clashing
    one suffixed ``_r``. A null key never matches: its row is dropped
    (inner) or kept with null right columns (left outer)."""
    li = lhs.select(on).append_column("_li", pa.array(np.arange(len(lhs))))
    ri = rhs.select(on).append_column("_ri", pa.array(np.arange(len(rhs))))
    m = li.join(ri, on, join_type=join_type, use_threads=False)
    out = lhs.take(m["_li"])
    for c in rhs.column_names:
        if c not in on:
            out = out.append_column(f"{c}_r" if c in lhs.column_names else c, rhs[c].take(m["_ri"]))
    return out


def broadcast_join(ds, small: pa.Table, on: str | Sequence[str], how: str = "left"):
    """Join each batch against a broadcast small table with
    ``_join_take``. ``small`` is put in the object store once; every
    task reads it zero-copy on the node."""
    import ray

    on = [on] if isinstance(on, str) else list(on)
    join_type = _JOIN_TYPES[how]
    ref = ray.put(small)
    return ds.map_batches(
        lambda batch: _join_take(batch, ray.get(ref), on, join_type), batch_format="pyarrow"
    )


def bucketed_hash_join(
    left,
    right,
    on: str | Sequence[str],
    *,
    how: str = "inner",
    num_buckets: int | None = None,
):
    """Partitioned hash join of two Datasets on ``on``.

    Plan: ``tag_union`` the two sides, then ONE ``keyed_apply`` shuffle
    on the key tuple co-locates each key's rows from both sides; each
    bucket splits back into its sides and runs ``_join_take``.
    Wall-clock scales with the largest bucket.
    """
    on = [on] if isinstance(on, str) else list(on)
    both, lschema, rschema = tag_union(left, right)
    l_out = list(lschema)
    r_out = [*on, *(c for c in rschema if c not in on)]
    join_type = _JOIN_TYPES[how]

    def merge_bucket(t: pa.Table) -> pa.Table:
        left_rows = pc.equal(t["_side"], 0)
        lhs = t.filter(left_rows).select(l_out)
        return _join_take(lhs, t.filter(pc.invert(left_rows)).select(r_out), on, join_type)

    return keyed_apply(both, on, merge_bucket, num_buckets=num_buckets)


def _arrow_schema(ds) -> dict:
    """``{name: arrow type}`` of a Dataset; numpy dtypes (pandas blocks)
    map to Arrow, object → string."""
    s = ds.schema()
    out = {}
    for name, typ in zip(s.names, s.types):
        if not isinstance(typ, pa.DataType):
            try:
                typ = pa.from_numpy_dtype(typ)
            except pa.ArrowNotImplementedError:
                typ = pa.string()
        out[name] = typ
    return out


def tag_union(left, right, *, key: tuple[str, str] | None = None):
    """The two-sided input of a keyed shuffle: pad both sides to one
    schema with typed nulls, tag ``_side`` (0 left, 1 right) and union;
    columns the sides share take the left side's type. No hashing —
    the caller shuffles with ``keyed_apply``. With
    ``key=(left_col, right_col)`` each row's own key is also copied to
    ``_key``, so sides whose key columns are named differently
    co-partition on ``_key``. Returns ``(both, lschema, rschema)``: the
    union and each side's ``{name: arrow type}``."""
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    types = {**rschema, **lschema}
    names = sorted(types)

    def side(ds, tag: int, kcol: str | None):
        recast = lschema if tag else {}

        def f(batch: pa.Table) -> pa.Table:
            n = len(batch)
            cols = {"_side": pa.array(np.full(n, tag, dtype=np.int8))}
            if kcol is not None:
                cols["_key"] = batch[kcol].cast(lschema[key[0]])
            for c in names:
                if c not in batch.column_names:
                    cols[c] = pa.nulls(n, types[c])
                elif c in recast and batch[c].type != recast[c]:
                    cols[c] = batch[c].cast(recast[c])
                else:
                    cols[c] = batch[c]
            return pa.table(cols)

        return ds.map_batches(f, batch_format="pyarrow")

    lkey, rkey = key or (None, None)
    return side(left, 0, lkey).union(side(right, 1, rkey)), lschema, rschema


# --------------------------------------------------- as-of / range joins


def _by_key_union(left, right, lkey: str, rkey: str):
    """``tag_union`` for the time/interval joins: sides co-partition on
    their ``by`` keys and must not share column names."""
    both, lschema, rschema = tag_union(left, right, key=(lkey, rkey))
    overlap = set(lschema) & set(rschema)
    if overlap:
        raise ValueError(f"asof/range join sides must not share column names: {sorted(overlap)}")
    return both, lschema, rschema


def _cast_to_fields(df: pd.DataFrame, fields: list[tuple[str, "pa.DataType"]]) -> pa.Table:
    """Build an Arrow table with a CANONICAL per-bucket schema: every
    merge_bucket output is cast to the precomputed (name, type) list so
    all-unmatched buckets (pandas pd.NA → Arrow null type) and
    partially-matched buckets (int64 + NaN → float64) emit the SAME
    schema as fully-matched ones — left dtypes preserved, right attach
    columns nullable at their original types. Without this, downstream
    schema-dependent consumers (write_parquet, native ops) see mixed
    per-block schemas (Ray logs 'RefBundle with a different schema')."""
    arrays = []
    n = len(df)
    for name, typ in fields:
        if name not in df.columns:
            arrays.append(pa.nulls(n, typ))
            continue
        s = df[name]
        try:
            arrays.append(pa.array(s, type=typ, from_pandas=True))
        except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
            arrays.append(pa.array(s, from_pandas=True).cast(typ, safe=False))
    return pa.Table.from_arrays(arrays, names=[f[0] for f in fields])


def asof_join(
    left,
    right,
    *,
    left_on: str,
    right_on: str,
    left_by: str,
    right_by: str,
    direction: str = "backward",
    allow_exact_matches: bool = True,
    num_buckets: int | None = None,
):
    """Distributed AS-OF join: for each left row, attach the single
    right row with the nearest ``right_on`` at-or-before (backward) /
    at-or-after (forward) / closest (nearest) its ``left_on``
    (``allow_exact_matches=False`` makes the bound strict — SQL's
    ``ON l.t > r.t``), within the same ``by`` key — SQL's ``ASOF JOIN``, the standard way to
    align events to rates/quotes/config epochs.

    Plan (the partitioning assumption this op relies on): co-partition
    BOTH sides by hash(by-key) — one bucketed exchange — then convert
    each bucket to pandas, sort each side by the time column and run
    ONE vectorized ``pandas.merge_asof`` (``by=`` handles per-key
    fencing; a key's rows always land in one bucket). Left-join semantics:
    unmatched left rows keep nulls. Rows with a null time column are
    dropped (they can never match). Sides must not share column names
    (rename before joining)."""
    both, lschema, rschema = _by_key_union(left, right, left_by, right_by)
    l_cols, r_cols = list(lschema), list(rschema)
    # the union's null padding degrades int/time columns to float64 in
    # buckets where one side is empty — pin key dtypes from the left
    # schema so merge_asof always sees matching types
    on_dtype = np.dtype(lschema[left_on].to_pandas_dtype())
    by_dtype = np.dtype(lschema[left_by].to_pandas_dtype())
    # canonical output schema: left dtypes + nullable right columns
    out_fields = [(c, lschema[c]) for c in l_cols] + [(c, rschema[c]) for c in r_cols]

    def merge_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas()  # merge_asof is pandas-only
        lhs = g[g["_side"] == 0][l_cols].dropna(subset=[left_on, left_by])
        rhs = g[g["_side"] == 1][r_cols].dropna(subset=[right_on, right_by])
        lhs = lhs.astype({left_on: on_dtype, left_by: by_dtype})
        rhs = rhs.astype({right_on: on_dtype, right_by: by_dtype})
        lhs = lhs.sort_values(left_on, kind="mergesort")
        rhs = rhs.sort_values(right_on, kind="mergesort")
        out = pd.merge_asof(
            lhs,
            rhs,
            left_on=left_on,
            right_on=right_on,
            left_by=left_by,
            right_by=right_by,
            direction=direction,
            allow_exact_matches=allow_exact_matches,
        )
        return _cast_to_fields(out, out_fields)

    return keyed_apply(both, "_key", merge_bucket, num_buckets=num_buckets)


def range_join(
    left,
    right,
    *,
    value_col: str,
    lower_col: str,
    upper_col: str,
    left_by: str,
    right_by: str,
    how: str = "inner",
    num_buckets: int | None = None,
):
    """Distributed interval (range) join: match each left row to the
    right interval with ``lower <= value < upper`` under the same
    ``by`` key — rate tables, bracket tables, config epochs.

    ASSUMES the intervals are NON-OVERLAPPING per key (each left row
    matches at most one interval): inside each co-partitioned bucket
    the intervals sort once per key and every left value resolves with
    one ``searchsorted`` + one upper-bound check — no per-row Python
    and no cartesian blowup. Overlapping-interval workloads need the
    general theta-join (not this operator). ``how='left'`` keeps
    unmatched left rows with null interval columns."""
    both, lschema, rschema = _by_key_union(left, right, left_by, right_by)
    l_cols, r_cols = list(lschema), list(rschema)
    by_dtype = np.dtype(lschema[left_by].to_pandas_dtype())
    r_attach = [c for c in r_cols if c != right_by]
    # canonical output schema: left dtypes + nullable right attach
    # columns — all-unmatched buckets (pd.NA → null type) and
    # NaN-degraded int columns cast back to one stable schema
    out_fields = [(c, lschema[c]) for c in l_cols] + [(c, rschema[c]) for c in r_attach]

    def merge_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas()  # the per-key loop runs on pandas groups
        lhs = g[g["_side"] == 0][l_cols].dropna(subset=[left_by])
        rhs = g[g["_side"] == 1][r_cols].dropna(subset=[right_by])
        lhs = lhs.astype({left_by: by_dtype})
        rhs = rhs.astype({right_by: by_dtype})
        rhs_by = {k: sub for k, sub in rhs.groupby(right_by, sort=False)}
        outs = []
        for k, lsub in lhs.groupby(left_by, sort=False):
            rsub = rhs_by.get(k)
            lsub = lsub.reset_index(drop=True)
            if rsub is None:
                if how == "left":
                    outs.append(lsub)  # attach columns null-filled at cast
                continue
            lo = rsub[lower_col].to_numpy(np.float64)
            order = np.argsort(lo, kind="stable")
            lo = lo[order]
            hi = rsub[upper_col].to_numpy(np.float64)[order]
            v = lsub[value_col].to_numpy(np.float64)
            pos = np.searchsorted(lo, v, side="right") - 1
            ok = pos >= 0
            ok[ok] &= v[ok] < hi[pos[ok]]
            matched = lsub[ok].reset_index(drop=True)
            r_rows = rsub.iloc[order[pos[ok]]][r_attach].reset_index(drop=True)
            outs.append(pd.concat([matched, r_rows], axis=1))
            if how == "left" and (~ok).any():
                outs.append(lsub[~ok])  # attach columns null-filled at cast
        if not outs:
            return _cast_to_fields(pd.DataFrame(columns=[f[0] for f in out_fields]), out_fields)
        return _cast_to_fields(pd.concat(outs, ignore_index=True), out_fields)

    return keyed_apply(both, "_key", merge_bucket, num_buckets=num_buckets)
