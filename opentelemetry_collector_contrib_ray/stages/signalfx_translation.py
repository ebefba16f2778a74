"""SignalFx exporter metric-translation rules, Ray-Data-first.

Re-expresses the reference's translation-rule engine
(`exporter/signalfxexporter/translation/translator.go`) over a columnar
datapoint table. The reference mutates a ``[]*sfxpb.DataPoint`` slice in
rule order; here a datapoint is a row:

    metric: string, metric_type: string ('gauge'|'counter'|
    'cumulative_counter'), ts: int64, value_int: int64 (nullable),
    value_double: float64 (nullable), plus one COLUMN per dimension key
    (NULL = dimension absent on that point).

Rules are dicts in the exporter's YAML shape
(``{"action": "multiply_int", "scale_factors_int": {...}}`` ...).
Twelve actions (constants.go:33-137) in two classes:

* ROW-LOCAL (pure per-batch column ops, fused into one ``map_batches``
  stage per consecutive run): rename_dimension_keys
  (translator.go:261-270), rename_metrics (:271-281, incl.
  copy_dimensions and add_dimensions), multiply_int (:282-285),
  divide_int (:286-294), multiply_float (:295-298), copy_metrics
  (:299-307 + copyMetric:834-851 dimension filter), split_metric
  (:308-313 + splitMetric:781-809), convert_values (:314-322 +
  convertMetricValue:811-832), drop_metrics (:527-537),
  drop_dimensions (:542-546 + dropDimensions:853-885).
* WIDE (a shuffle): aggregate_metric (:323-333 +
  aggregateDatapoints:667-738 — count/sum/avg grouped by the
  dimension values that survive ``without_dimensions``),
  calculate_new_metric (:334-341 + calcNewMetricInputPairs:552-571 —
  operand pairs matched on EXACT dimension equality, division only,
  divide-by-zero pairs skipped), delta_metric (:539-540 +
  delta_translator.go:38-106 — per (metric, dims) series delta vs the
  previous point, first point dropped, negative delta = reset emits
  the current value, output renamed + GAUGE, original kept).

Batch-engine deviations, documented: the reference's wide rules assume
a consume-call batch holds one metric at one scrape timestamp; in the
batch engine ``ts`` is an explicit column, so aggregate_metric groups
per ts and calculate_new_metric matches operands per ts (an implicit
extra dimension).  delta_metric orders a series by (ts, seq?) instead
of arrival order, and its TTL cache (prevPts) collapses to
"the previous row of the sorted series" — the exact batch analogue.

``translate_datapoints`` is the planner: it validates the chain
(validateTranslationRules, translator.go:257-361), fuses consecutive
row-local rules into single map_batches stages, and lowers each wide
rule onto the engine's distributed primitives (two_phase_agg /
bucketed joins / bucketed sorted diffs).
"""

from __future__ import annotations

import fnmatch
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_LOCAL_ACTIONS = {
    "rename_dimension_keys",
    "rename_metrics",
    "multiply_int",
    "divide_int",
    "multiply_float",
    "copy_metrics",
    "split_metric",
    "convert_values",
    "drop_metrics",
    "drop_dimensions",
}
_WIDE_ACTIONS = {"aggregate_metric", "calculate_new_metric", "delta_metric"}

_BASE_COLS = ["metric", "metric_type", "ts", "value_int", "value_double"]


def validate_rules(rules: Sequence[dict]) -> None:
    """Mirror of validateTranslationRules (translator.go:257-361)."""
    rename_dim_global = False
    for tr in rules:
        a = tr.get("action")
        if a == "rename_dimension_keys":
            if not tr.get("mapping"):
                raise ValueError('field "mapping" is required for rename_dimension_keys')
            if not tr.get("metric_names"):
                if rename_dim_global:
                    raise ValueError(
                        'only one rename_dimension_keys rule without "metric_names" allowed'
                    )
                rename_dim_global = True
        elif a == "rename_metrics":
            if not tr.get("mapping"):
                raise ValueError('field "mapping" is required for rename_metrics')
            for k, v in (tr.get("copy_dimensions") or {}).items():
                if not k or not v:
                    raise ValueError("copy_dimensions must not contain empty keys/values")
        elif a in ("multiply_int", "divide_int"):
            if not tr.get("scale_factors_int"):
                raise ValueError(f'field "scale_factors_int" is required for {a}')
            if a == "divide_int" and any(v == 0 for v in tr["scale_factors_int"].values()):
                raise ValueError('"scale_factors_int" for divide_int has a 0 value')
        elif a == "multiply_float":
            if not tr.get("scale_factors_float"):
                raise ValueError('field "scale_factors_float" is required for multiply_float')
        elif a == "copy_metrics":
            if not tr.get("mapping"):
                raise ValueError('field "mapping" is required for copy_metrics')
            if tr.get("dimension_key") and not tr.get("dimension_values"):
                raise ValueError(
                    '"dimension_values_filer" has to be provided if "dimension_key" is set'
                )
        elif a == "split_metric":
            if not (tr.get("metric_name") and tr.get("dimension_key") and tr.get("mapping")):
                raise ValueError(
                    'fields "metric_name", "dimension_key", and "mapping" are required'
                )
        elif a == "convert_values":
            if not tr.get("types_mapping"):
                raise ValueError('field "types_mapping" are required for convert_values')
            for k, v in tr["types_mapping"].items():
                if v not in ("int", "double"):
                    raise ValueError(f'invalid value type "{v}" for metric "{k}"')
        elif a == "aggregate_metric":
            if not (
                tr.get("metric_name")
                and tr.get("aggregation_method")
                and tr.get("without_dimensions")
            ):
                raise ValueError(
                    'fields "metric_name", "without_dimensions", "aggregation_method" required'
                )
            if tr["aggregation_method"] not in ("count", "sum", "avg"):
                raise ValueError(f'invalid "aggregation_method": {tr["aggregation_method"]}')
        elif a == "calculate_new_metric":
            if not (
                tr.get("metric_name")
                and tr.get("operand1_metric")
                and tr.get("operand2_metric")
                and tr.get("operator")
            ):
                raise ValueError("calculate_new_metric requires metric/operands/operator")
            if tr["operator"] != "/":
                raise ValueError(f'invalid operator "{tr["operator"]}"')
        elif a == "drop_metrics":
            if not tr.get("metric_names"):
                raise ValueError('field "metric_names" is required for drop_metrics')
        elif a == "delta_metric":
            if not tr.get("mapping"):
                raise ValueError('field "mapping" is required for delta_metric')
        elif a == "drop_dimensions":
            if not tr.get("dimension_pairs"):
                raise ValueError('field "dimension_pairs" is required for drop_dimensions')
        else:
            raise ValueError(f'unknown "action" value: {a!r}')


def _metric_name_matcher(rule: dict):
    """dpfilters.StringFilter analogue: exact names + '*' globs from
    metric_name / metric_names; None = match everything."""
    names = list(rule.get("metric_names") or [])
    if rule.get("metric_name"):
        names.append(rule["metric_name"])
    if not names:
        return None
    exact = {n for n in names if "*" not in n and "?" not in n}
    globs = [n for n in names if n not in exact]

    def match(metric: pd.Series) -> np.ndarray:
        m = metric.isin(exact).to_numpy(dtype=bool)
        for g in globs:
            m |= metric.map(lambda s, g=g: fnmatch.fnmatchcase(str(s), g)).to_numpy(dtype=bool)
        return m

    return match


class SfxTranslateBatch:
    """Apply a run of consecutive ROW-LOCAL rules to one Arrow batch.

    Usable directly as a ``map_batches`` callable; ``translate_datapoints``
    instantiates one per fused local segment."""

    def __init__(self, rules: Sequence[dict], dim_cols: Sequence[str]):
        for tr in rules:
            if tr["action"] not in _LOCAL_ACTIONS:
                raise ValueError(f"{tr['action']} is not a row-local rule")
        validate_rules(rules)
        self.rules = list(rules)
        self.dim_cols = list(dim_cols)

    # -- individual rule appliers over a pandas frame -----------------
    def _rename_dimension_keys(self, df: pd.DataFrame, tr: dict) -> pd.DataFrame:
        names = tr.get("metric_names")
        mask = df["metric"].isin(set(names)).to_numpy() if names else np.ones(len(df), bool)
        for old, new in tr["mapping"].items():
            if old not in df.columns:
                continue
            if new not in df.columns:
                df[new] = None
            moved = mask & df[old].notna().to_numpy()
            df.loc[moved, new] = df.loc[moved, old]
            df.loc[moved, old] = None
        return df

    def _rename_metrics(self, df: pd.DataFrame, tr: dict) -> pd.DataFrame:
        hit = df["metric"].isin(set(tr["mapping"])).to_numpy()
        df.loc[hit, "metric"] = df.loc[hit, "metric"].map(tr["mapping"])
        for src, dst in (tr.get("copy_dimensions") or {}).items():
            if src in df.columns:
                if dst not in df.columns:
                    df[dst] = None
                m = hit & df[src].notna().to_numpy()
                df.loc[m, dst] = df.loc[m, src]
        for k, v in (tr.get("add_dimensions") or {}).items():
            if k not in df.columns:
                df[k] = None
            df.loc[hit, k] = v
        return df

    def _scale(self, df: pd.DataFrame, factors: dict, col: str, op) -> pd.DataFrame:
        for metric, factor in factors.items():
            m = (df["metric"] == metric).to_numpy() & df[col].notna().to_numpy()
            if m.any():
                df.loc[m, col] = op(df.loc[m, col], factor)
        return df

    def _copy_metrics(self, df: pd.DataFrame, tr: dict) -> pd.DataFrame:
        hit = df["metric"].isin(set(tr["mapping"])).to_numpy()
        dk = tr.get("dimension_key")
        if dk:
            allowed = set(tr["dimension_values"])
            if dk in df.columns:
                hit &= df[dk].isin(allowed).to_numpy()
            else:
                hit &= False
        copies = df[hit].copy()
        copies["metric"] = copies["metric"].map(tr["mapping"])
        return pd.concat([df, copies], ignore_index=True)

    def _split_metric(self, df: pd.DataFrame, tr: dict) -> pd.DataFrame:
        dk = tr["dimension_key"]
        if dk not in df.columns:
            return df
        m = (
            (df["metric"] == tr["metric_name"]).to_numpy()
            & df[dk].isin(set(tr["mapping"])).to_numpy()
        )
        df.loc[m, "metric"] = df.loc[m, dk].map(tr["mapping"])
        df.loc[m, dk] = None
        return df

    def _convert_values(self, df: pd.DataFrame, tr: dict) -> pd.DataFrame:
        for metric, newtype in tr["types_mapping"].items():
            if newtype == "int":
                m = (df["metric"] == metric).to_numpy() & df["value_double"].notna().to_numpy()
                # Go int64(float) truncates toward zero
                df.loc[m, "value_int"] = np.trunc(df.loc[m, "value_double"].astype(float)).astype(np.int64)
                df.loc[m, "value_double"] = None
            else:
                m = (df["metric"] == metric).to_numpy() & df["value_int"].notna().to_numpy()
                df.loc[m, "value_double"] = df.loc[m, "value_int"].astype(np.float64)
                df.loc[m, "value_int"] = None
        return df

    def _drop_metrics(self, df: pd.DataFrame, tr: dict) -> pd.DataFrame:
        return df[~df["metric"].isin(set(tr["metric_names"]))]

    def _drop_dimensions(self, df: pd.DataFrame, tr: dict) -> pd.DataFrame:
        matcher = _metric_name_matcher(tr)
        mask = matcher(df["metric"]) if matcher else np.ones(len(df), bool)
        for key, vals in tr["dimension_pairs"].items():
            if key not in df.columns:
                continue
            if vals:
                m = mask & df[key].isin(set(vals)).to_numpy()
            else:
                # empty matcher → drop the dimension for all values
                m = mask & df[key].notna().to_numpy()
            df.loc[m, key] = None
        return df

    def apply_df(self, df: pd.DataFrame) -> pd.DataFrame:
        for tr in self.rules:
            a = tr["action"]
            if a == "rename_dimension_keys":
                df = self._rename_dimension_keys(df, tr)
            elif a == "rename_metrics":
                df = self._rename_metrics(df, tr)
            elif a == "multiply_int":
                df = self._scale(df, tr["scale_factors_int"], "value_int", lambda s, f: s.astype(np.int64) * f)
            elif a == "divide_int":
                # Go integer division truncates toward zero
                df = self._scale(
                    df,
                    tr["scale_factors_int"],
                    "value_int",
                    lambda s, f: np.trunc(s.astype(np.int64) / f).astype(np.int64),
                )
            elif a == "multiply_float":
                df = self._scale(df, tr["scale_factors_float"], "value_double", lambda s, f: s.astype(np.float64) * f)
            elif a == "copy_metrics":
                df = self._copy_metrics(df, tr)
            elif a == "split_metric":
                df = self._split_metric(df, tr)
            elif a == "convert_values":
                df = self._convert_values(df, tr)
            elif a == "drop_metrics":
                df = self._drop_metrics(df, tr)
            elif a == "drop_dimensions":
                df = self._drop_dimensions(df, tr)
        return df

    def __call__(self, t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = self.apply_df(df).reset_index(drop=True)
        return _to_arrow(df, self.dim_cols_out(list(t.column_names)))

    def dim_cols_out(self, in_cols: list[str]) -> list[str]:
        """Dimension columns present after this segment (renames/copies
        may introduce new ones) — deterministic from the rule list."""
        dims = [c for c in in_cols if c not in _BASE_COLS]
        for tr in self.rules:
            if tr["action"] == "rename_dimension_keys":
                for new in tr["mapping"].values():
                    if new not in dims:
                        dims.append(new)
            elif tr["action"] == "rename_metrics":
                for dst in (tr.get("copy_dimensions") or {}).values():
                    if dst not in dims:
                        dims.append(dst)
                for k in (tr.get("add_dimensions") or {}):
                    if k not in dims:
                        dims.append(k)
        return _BASE_COLS + dims


def _col_type(c: str) -> pa.DataType:
    if c in ("value_int", "ts"):
        return pa.int64()
    if c == "value_double":
        return pa.float64()
    return pa.string()


def _to_arrow(df: pd.DataFrame, cols: list[str]) -> pa.Table:
    out = {}
    for c in cols:
        if c not in df.columns:
            df[c] = None
        if c == "value_int":
            out[c] = pa.array(
                [None if pd.isna(v) else int(v) for v in df[c]], pa.int64()
            )
        elif c == "value_double":
            out[c] = pa.array(pd.to_numeric(df[c], errors="coerce"), pa.float64(), from_pandas=True)
        elif c == "ts":
            out[c] = pa.array(df[c].astype(np.int64), pa.int64())
        else:
            vals = df[c].where(df[c].notna(), None)
            out[c] = pa.array([None if v is None else str(v) for v in vals], pa.string())
    return pa.table(out)


def _norm_arrow(t: pa.Table, cols: list[str]) -> pa.Table:
    """Zero-pandas schema alignment for union compatibility: select the
    columns in order, cast to the canonical types, null-fill missing."""
    out = {}
    for c in cols:
        want = _col_type(c)
        if c in t.column_names:
            col = t[c]
            if col.type != want:
                col = pc.cast(col, want)
        else:
            col = pa.nulls(t.num_rows, want)
        out[c] = col
    return pa.table(out)


# ---------------------------------------------------------------------------
# wide rules
# ---------------------------------------------------------------------------


# join/group sentinel for a NULL (absent) dimension. NOT "\x00..." —
# pandas' StringHashTable (groupby/unique/factorize) truncates object
# strings at an embedded NUL, silently collapsing distinct keys.
_ABSENT = "\x01absent\x01"


def _metric_filter(ds, name_or_names, keep: bool, cols: list[str]):
    names = [name_or_names] if isinstance(name_or_names, str) else list(name_or_names)

    def f(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["metric"], value_set=pa.array(names, pa.string()))
        if not keep:
            m = pc.invert(pc.fill_null(m, False))
        else:
            m = pc.fill_null(m, False)
        return _norm_arrow(t.filter(m), cols)

    return ds.map_batches(f, batch_format="pyarrow")


def _aggregate_metric(ds, tr: dict, dim_cols: list[str]):
    """aggregateDatapoints (translator.go:667-738) as a distributed
    two-phase aggregate: group matching points by (ts, metric_type,
    dims - without_dimensions); non-matching points pass through."""
    from .aggregate import two_phase_agg

    name = tr["metric_name"]
    without = set(tr["without_dimensions"])
    kept = [d for d in dim_cols if d not in without]
    method = tr["aggregation_method"]
    all_cols = _BASE_COLS + dim_cols

    rest = _metric_filter(ds, name, keep=False, cols=all_cols)

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.fill_null(pc.equal(t["metric"], name), False))
        cols = {"metric": t["metric"], "metric_type": t["metric_type"], "ts": t["ts"]}
        # NULL (absent) dims must group together — sentinel-encode (arrow)
        for d in kept:
            cols[d] = pc.coalesce(pc.cast(t[d], pa.string()), pa.scalar(_ABSENT))
        cols["value_int"] = t["value_int"]
        cols["value_double"] = t["value_double"]
        return pa.table(cols)

    keys = ["metric", "metric_type", "ts", *kept]
    agg = two_phase_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys,
        {"value_int": ["count", "sum"], "value_double": ["count", "sum"]},
        batch_size=16 * 1024,
    )

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        n = df["count"].astype(np.int64)
        vi_n = df["value_int_count"].fillna(0).astype(np.int64)
        vd_n = df["value_double_count"].fillna(0).astype(np.int64)
        vi_s = df["value_int_sum"].fillna(0)
        vd_s = df["value_double_sum"].fillna(0.0)
        if method == "count":
            df["value_int"] = n
            df["value_double"] = None
            df["metric_type"] = "gauge"  # translator.go:697-699
        elif method == "sum":
            df["value_int"] = vi_s.where(vi_n > 0).astype("float64")
            df["value_double"] = vd_s.where(vd_n > 0)
        else:  # avg → double mean over all numeric values
            df["value_double"] = (vi_s.astype(float) + vd_s) / n.astype(float)
            df["value_int"] = None
        for d in kept:
            df[d] = df[d].where(df[d] != _ABSENT, None)
        for d in dim_cols:
            if d not in df.columns:
                df[d] = None
        return _to_arrow(df, all_cols)

    return rest.union(agg.map_batches(finish, batch_format="pyarrow"))


def _calculate_new_metric(ds, tr: dict, dim_cols: list[str]):
    """calcNewMetricInputPairs + calculateNewMetric
    (translator.go:552-645): operand rows matched on exact dimension
    equality (per ts in batch mode), new double metric = o1 / o2,
    divide-by-zero and missing-value pairs skipped; originals kept."""
    from .join import bucketed_hash_join

    keys = ["ts", *dim_cols]

    def prep(which: str, metric: str):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(pc.fill_null(pc.equal(t["metric"], metric), False))
            v = pc.coalesce(pc.cast(t["value_int"], pa.float64()), t["value_double"])
            cols = {"ts": t["ts"], f"_v{which}": v}
            if which == "1":
                cols["metric_type"] = t["metric_type"]
            # join keys must be non-null for the hash join: encode dim
            # NULL (absent) as a sentinel so absent==absent matches,
            # mirroring dimensionsEqual's set equality
            for d in dim_cols:
                cols[d] = pc.coalesce(pc.cast(t[d], pa.string()), pa.scalar(_ABSENT))
            return pa.table(cols)

        return f

    left = ds.map_batches(prep("1", tr["operand1_metric"]), batch_format="pyarrow")
    right = ds.map_batches(prep("2", tr["operand2_metric"]), batch_format="pyarrow")
    joined = bucketed_hash_join(left, right, on=keys)

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["_v1"].notna() & df["_v2"].notna() & (df["_v2"] != 0.0)]
        out = pd.DataFrame(
            {
                "metric": tr["metric_name"],
                "metric_type": df["metric_type"],
                "ts": df["ts"],
                "value_int": None,
                "value_double": df["_v1"] / df["_v2"],
            }
        )
        for d in dim_cols:
            out[d] = df[d].where(df[d] != _ABSENT, None)
        return _to_arrow(out, _BASE_COLS + dim_cols)

    norm = ds.map_batches(
        lambda t: _norm_arrow(t, _BASE_COLS + dim_cols), batch_format="pyarrow"
    )
    return norm.union(joined.map_batches(finish, batch_format="pyarrow"))


def _delta_metric(ds, tr: dict, dim_cols: list[str]):
    """delta_translator.go:38-106 as a bucketed per-series sorted diff:
    for each mapped metric, series key = (metric, dims); delta vs the
    previous point in ts order; first point dropped; negative delta =
    reset emits the current value; delta point renamed + GAUGE;
    originals kept."""
    from .aggregate import keyed_apply, sorted_runs

    names = set(tr["mapping"])
    all_cols = _BASE_COLS + dim_cols

    def key_and_filter(t: pa.Table) -> pa.Table:
        m = pc.fill_null(pc.is_in(t["metric"], value_set=pa.array(sorted(names), pa.string())), False)
        t = _norm_arrow(t.filter(m), all_cols)
        parts = [pc.cast(t["metric"], pa.string())]
        for d in dim_cols:
            parts.append(pc.coalesce(pc.cast(t[d], pa.string()), pa.scalar(_ABSENT)))
        skey = pc.binary_join_element_wise(*parts, "\x1f")
        return t.append_column("_skey", skey)

    matching = ds.map_batches(key_and_filter, batch_format="pyarrow")

    src = pa.array(list(tr["mapping"]), pa.string())
    dst = pa.array(list(tr["mapping"].values()), pa.string())

    def per_bucket(t: pa.Table) -> pa.Table:
        # per-series ordered diff: sort by (series, ts); a row's
        # predecessor is the row before it unless it starts a series
        t = t.take(pc.sort_indices(t, [("_skey", "ascending"), ("ts", "ascending")]))
        has_prev = np.ones(len(t), bool)
        has_prev[sorted_runs(t, ["_skey"])] = False
        parts = []
        for col in ("value_int", "value_double"):
            v = t[col]  # a null or NaN value is a missing point
            present = ~np.isnan(v.to_numpy(zero_copy_only=False).astype(np.float64))
            rows = np.flatnonzero(has_prev & present & np.roll(present, 1))
            cur, prev = v.take(rows), v.take(rows - 1)
            delta = pc.subtract(cur, prev)
            delta = pc.if_else(pc.greater_equal(delta, 0), delta, cur)  # reset → current value
            sub = t.take(rows)
            parts.append(sub.set_column(sub.column_names.index(col), col, delta))
        out = pa.concat_tables(parts)
        out = out.set_column(0, "metric", dst.take(pc.index_in(out["metric"], value_set=src)))
        out = out.set_column(1, "metric_type", pa.repeat(pa.scalar("gauge"), len(out)))  # delta_translator.go:100-106
        return _norm_arrow(out, all_cols)

    deltas = keyed_apply(matching, "_skey", per_bucket)

    norm = ds.map_batches(
        lambda t: _norm_arrow(t, all_cols), batch_format="pyarrow"
    )
    return norm.union(deltas)


def translate_datapoints(ds, rules: Sequence[dict], dim_cols: Sequence[str]):
    """Planner: fuse consecutive row-local rules into single
    map_batches stages; lower wide rules onto distributed primitives.
    Returns (dataset, dim_cols_out)."""
    validate_rules(rules)
    dim_cols = list(dim_cols)
    i = 0
    while i < len(rules):
        if rules[i]["action"] in _LOCAL_ACTIONS:
            j = i
            while j < len(rules) and rules[j]["action"] in _LOCAL_ACTIONS:
                j += 1
            seg = SfxTranslateBatch(rules[i:j], dim_cols)
            dims_out = [c for c in seg.dim_cols_out(_BASE_COLS + dim_cols) if c not in _BASE_COLS]
            ds = ds.map_batches(seg, batch_format="pyarrow")
            dim_cols = dims_out
            i = j
        else:
            tr = rules[i]
            # a wide rule consumes ds on TWO branches (pass-through +
            # derived); without materialization the lazy upstream
            # lineage would re-execute once per branch — and compound
            # across chained wide rules. One bounded materialization
            # per wide rule keeps every stage computed exactly once.
            ds = ds.materialize()
            if tr["action"] == "aggregate_metric":
                ds = _aggregate_metric(ds, tr, dim_cols)
            elif tr["action"] == "calculate_new_metric":
                ds = _calculate_new_metric(ds, tr, dim_cols)
            else:
                ds = _delta_metric(ds, tr, dim_cols)
            i += 1
    return ds, dim_cols
