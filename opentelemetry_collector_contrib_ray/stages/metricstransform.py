"""metricstransformprocessor semantics: label edits + label aggregation.

Reference (processor/metricstransformprocessor):
- actions update/insert/combine with operations: update_label /
  add_label / delete_label_value / toggle_scalar_data_type /
  aggregate_labels / aggregate_label_values (config.go:162-240,
  operation_*.go);
- aggregate_labels: keep only the retained label set, group points by
  (retained labels, timestamp), merge with sum/mean/min/max
  (datapoint_aggregation.go:34-175);
- histogram points merge bucket-wise (vector add of bucket counts,
  datapoint_aggregation.go:179-213).

Batch shape: a "metric point" is a row with label columns + a
``value`` column (+ optional ``timestamp``). Label ops are column ops;
aggregate_labels is a two-phase groupby (aggregate.py).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import two_phase_agg
from .parse import _set_column


def update_label(batch: pa.Table, label: str, new_name: str | None = None,
                 value_map: dict[str, str] | None = None) -> pa.Table:
    """Rename a label column and/or remap its values
    (operation_update_label.go semantics)."""
    if label not in batch.column_names:
        return batch
    col = batch[label]
    if value_map:
        s = pd.Series(col.to_numpy(zero_copy_only=False), dtype=object)
        col = pa.array(s.map(lambda v: value_map.get(v, v)).to_numpy(dtype=object), pa.string())
    if new_name and new_name != label:
        batch = batch.drop_columns([label])
        return _set_column(batch, new_name, col)
    return _set_column(batch, label, col)


def add_label(batch: pa.Table, label: str, value: str) -> pa.Table:
    """Add a constant label to every point (operation_add_label.go)."""
    return _set_column(
        batch, label, pa.array(np.full(len(batch), value, dtype=object), pa.string())
    )


def delete_label_value(batch: pa.Table, label: str, value: str) -> pa.Table:
    """Drop points carrying label==value (operation_delete_label_value.go)."""
    if label not in batch.column_names:
        return batch
    return batch.filter(pc.not_equal(pc.coalesce(batch[label], pa.scalar("")), value))


def toggle_scalar_type(batch: pa.Table) -> pa.Table:
    """int<->double toggle of the ``value`` column
    (operation_toggle_scalar_data_type.go)."""
    t = batch["value"].type
    new = pa.float64() if pa.types.is_integer(t) else pa.int64()
    return _set_column(batch, "value", pc.cast(batch["value"], new))


def aggregate_labels(
    ds,
    retain: Sequence[str],
    value_col: str = "value",
    aggregation: str = "sum",
    *,
    group_by_timestamp: str | None = None,
    exact_scale: int | None = None,
):
    """aggregate_labels: retain a label subset, merge points with
    sum/mean/min/max (datapoint_aggregation.go:34-117). Points are
    grouped by (retained labels [, timestamp]) — the dropped labels'
    dimensions collapse. Output column: ``<value_col>_<aggregation>``.
    ``exact_scale`` → deterministic int64-scaled sums (two_phase_agg).
    """
    if aggregation not in ("sum", "mean", "min", "max"):
        raise ValueError(f"unsupported aggregation {aggregation}")
    keys = list(retain) + ([group_by_timestamp] if group_by_timestamp else [])
    return two_phase_agg(
        ds,
        keys,
        {value_col: [aggregation]},
        exact_sums={value_col: exact_scale} if exact_scale else None,
    )


def aggregate_label_values(
    ds,
    label: str,
    value_map: dict[str, str],
    retain: Sequence[str],
    **kw,
):
    """aggregate_label_values: first collapse label values via the map
    (e.g. {'1m':'rollup','5m':'rollup'}), then sum ``value``
    (operation_aggregate_label_values.go)."""
    def remap(batch: pa.Table) -> pa.Table:
        return update_label(batch, label, value_map=value_map)

    return aggregate_labels(
        ds.map_batches(remap, batch_format="pyarrow"),
        retain,
        **kw,
    )


def merge_histograms(ds, keys: Sequence[str], bucket_cols: Sequence[str]):
    """Histogram distribution merge: element-wise bucket-count add plus
    ``count``/``sum`` add per key (datapoint_aggregation.go:179-213)."""
    aggs = {c: ["sum"] for c in list(bucket_cols) + ["count", "sum"]}
    return two_phase_agg(ds, keys, aggs)


def combine_metrics(
    ds,
    include_pattern: str,
    new_name: str,
    *,
    label_cols: Sequence[str] = (),
    submatch_case: str | None = None,
    keep_unmatched: bool = False,
    exact_scale: int | None = None,
):
    """metricstransform ``combine`` action with regexp submatch naming
    (metrics_transform_processor.go:342-383, config.go:254-298 and the
    ``combine*`` golden matrix in
    metrics_transform_processor_testcases_test.go:1153-1303):

    - metrics whose name matches ``include_pattern`` merge into one
      metric named ``new_name``;
    - every capture group becomes a NEW label: named groups keep their
      name, unnamed groups get ``$i`` (``getSubexpNames``/:352-359);
    - submatch values are optionally lower/upper-cased
      (``replaceCaseOfSubmatch``);
    - points sharing (existing labels + submatch labels) merge with
      the ``sum`` aggregation (groupTimeseries/mergeTimeseries).

    Columnar form: a metric point is a row with ``metric_name``, label
    columns and ``value``. Returns the combined Dataset (one row per
    surviving label tuple, the sum in ``value_sum``); with
    ``keep_unmatched=True`` the non-matching rows pass through
    unchanged with a ``count`` of 1 and ``value_sum`` = value
    (removeMatchedMetricsAndAppendCombined keeps them in the stream).
    """
    import re

    pat = re.compile(include_pattern)
    inv = {v: k for k, v in pat.groupindex.items()}
    sub_labels = [inv.get(i, f"${i}") for i in range(1, pat.groups + 1)]

    def split(batch: pa.Table):
        s = pd.Series(batch["metric_name"].to_numpy(zero_copy_only=False), dtype=object)
        mask = s.str.contains(pat, regex=True, na=False).to_numpy(dtype=bool)
        return s, mask

    def matched(batch: pa.Table) -> pa.Table:
        s, mask = split(batch)
        batch = batch.filter(pa.array(mask))
        # one column per capture group (no groups → no new labels)
        sub = s[mask].str.extract(pat) if pat.groups else pd.DataFrame(index=s[mask].index)
        for i, lbl in enumerate(sub_labels):
            vals = sub.iloc[:, i].fillna("")
            if submatch_case == "lower":
                vals = vals.str.lower()
            elif submatch_case == "upper":
                vals = vals.str.upper()
            batch = _set_column(
                batch, lbl, pa.array(vals.to_numpy(dtype=object), pa.string())
            )
        return _set_column(
            batch,
            "metric_name",
            pa.array(np.full(len(batch), new_name, dtype=object), pa.string()),
        )

    combined = two_phase_agg(
        ds.map_batches(matched, batch_format="pyarrow"),
        ["metric_name", *label_cols, *sub_labels],
        {"value": ["sum"]},
        exact_sums={"value": exact_scale} if exact_scale else None,
    )
    if not keep_unmatched:
        return combined

    out_val = "value_sum"

    def unmatched(batch: pa.Table) -> pa.Table:
        s, mask = split(batch)
        rest = batch.filter(pa.array(~mask))
        cols = {"metric_name": rest["metric_name"]}
        for lbl in list(label_cols) + sub_labels:
            cols[lbl] = (
                rest[lbl]
                if lbl in rest.column_names
                else pa.nulls(len(rest), pa.string())
            )
        cols["count"] = pa.array(np.ones(len(rest), dtype=np.int64))
        cols[out_val] = pc.cast(rest["value"], pa.float64())
        return pa.table(cols)

    passthrough = ds.map_batches(unmatched, batch_format="pyarrow")
    cols = ["metric_name", *label_cols, *sub_labels, "count", out_val]
    return combined.select_columns(cols).union(passthrough.select_columns(cols))


def calculate_metric(batch: pa.Table, out: str, left: str, op: str, right: str | float) -> pa.Table:
    """metricsgenerationprocessor 'calculate'/'scale' (config.go:72-83;
    the reference's ProcessMetrics is a stub — semantics per its config
    docs: new metric = metric1 <op> metric2-or-constant)."""
    lcol = pc.cast(batch[left], pa.float64())
    rcol = pc.cast(batch[right], pa.float64()) if isinstance(right, str) else pa.scalar(float(right))
    fn = {
        "add": pc.add,
        "subtract": pc.subtract,
        "multiply": pc.multiply,
        "divide": pc.divide,
        "percent": lambda a, b: pc.multiply(pc.divide(a, b), pa.scalar(100.0)),
    }[op]
    return _set_column(batch, out, fn(lcol, rcol))
