"""newrelicexporter translation, vectorized.

Re-expresses `exporter/newrelicexporter/transformer.go` as map_batches
stages over span / metric-datapoint / log rows → New Relic telemetry
records. Semantics (file:line under /root/reference):

Spans (transformer.go:91-119, 169-249):
* ID/TraceID are validated hex strings; an invalid (empty or
  malformed) span id or trace id is an error — the row is dropped and
  counted (:111-116, errors.go).
* Timestamp = start time, Duration = end - start (:92-100).
* Span attributes (:169-222): ``otel.status_code`` whenever the status
  code is set (UNSET omitted), rendered with the STATUS_CODE_ prefix
  trimmed (→ "OK"/"ERROR"); ``otel.status_description`` only when the
  code is set AND the message is non-empty; ``span.kind`` lowercased
  when the kind is specified; ``otel.dropped_attributes_count`` /
  ``otel.dropped_events_count`` when > 0; then the span's own
  attributes, EXCEPT keys shadowed by the collector override set
  (collector.name / collector.version, :79-81,215-217).
* Common (resource-level) attributes: resource attrs +
  instrumentation.name/version + the overrides (:67-84) — constant
  per stage instance here, rendered once.
* Span events → telemetry events with EventType = event name
  (:225-249); surfaced as the ``n_events`` count (payloads upstream).

Metrics (transformer.go:261-432):
* gauge (int/double) → Gauge{value, Timestamp}; StartTimestamp
  ignored (:269-304).
* sum: temporality != DELTA → downgraded to Gauge at Timestamp
  (:319-331,355-367); DELTA → Count{value, Timestamp = START
  timestamp, Interval = ts - start} (:332-341,368-377).
* histogram (int or double) → unsupported-type error, all points
  dropped (:379-386).
* summary → Summary{count, sum, min, max, Timestamp = start,
  Interval}: min is the FIRST quantile's value iff its quantile is 0;
  max is the LAST quantile's value iff its quantile is 1 (a single
  quantile==1 entry also sets max); otherwise NaN (:387-427).
* base attributes: ``unit`` / ``description`` when non-empty
  (:434-455); datapoint labels merged on top, override keys excluded
  (:457-471).

Logs (transformer.go:121-167):
* Message = body string if non-empty else the log record name.
* Attributes: the record's own attrs (override keys excluded), plus
  ``name``, ``trace.id``/``span.id`` when ids are non-empty,
  ``log.level`` when severity text != "", ``log.levelNum`` when the
  severity number != 0, ``otel.dropped_attributes_count`` when > 0.

Attribute maps are rendered as one canonical string ("k=v" joined by
";" in sorted key order) so grouped comparisons are deterministic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

_VALID_KINDS = {"client", "server", "producer", "consumer", "internal"}
_STATUS_NAMES = {1: "OK", 2: "ERROR"}  # STATUS_CODE_ prefix trimmed


def _render_tags(tags: dict[str, pd.Series], n: int) -> pd.Series:
    """Canonical 'k=v;k=v' render in sorted key order; None = absent."""
    rendered = pd.Series([""] * n)
    for k in sorted(tags):
        v = tags[k].reset_index(drop=True)
        frag = pd.Series(
            np.where(v.notna().to_numpy(), k + "=" + v.fillna("").astype(str), ""),
            dtype=object,
        )
        sep = np.where((rendered != "") & (frag != ""), ";", "")
        rendered = rendered + pd.Series(sep) + frag
    return rendered


def _opt(df: pd.DataFrame, col: str, default=None) -> pd.Series:
    if col in df.columns:
        return df[col].reset_index(drop=True)
    return pd.Series([default] * len(df), dtype=object)


def _num(df: pd.DataFrame, col: str) -> pd.Series:
    """Optional numeric column → int64 with NULL = 0 (no object-dtype
    fillna downcast warnings)."""
    if col in df.columns:
        return (
            pd.to_numeric(df[col], errors="coerce")
            .fillna(0)
            .astype(np.int64)
            .reset_index(drop=True)
        )
    return pd.Series(np.zeros(len(df), np.int64))


class NewRelicSpanTransformer:
    """Callable map_batches stage: span rows → NR span rows.

    ``resource_attrs``: constant resource attributes; ``instrumentation``:
    (name, version) or None; ``collector``: (command, version) override
    pair (transformer.go:55-64); ``attr_cols``: span-attribute columns
    (NULL = absent)."""

    def __init__(
        self,
        resource_attrs: Mapping[str, str] | None = None,
        instrumentation: tuple[str, str] | None = None,
        collector: tuple[str, str] = ("otelcol", ""),
        attr_cols: Sequence[str] = (),
    ):
        self.attr_cols = list(attr_cols)
        self.overrides = {"collector.name": collector[0]}
        if collector[1]:
            self.overrides["collector.version"] = collector[1]
        common = dict(resource_attrs or {})
        if instrumentation and instrumentation[0]:
            common["instrumentation.name"] = instrumentation[0]
            if instrumentation[1]:
                common["instrumentation.version"] = instrumentation[1]
        common.update(self.overrides)
        self.common_attrs = ";".join(f"{k}={v}" for k, v in sorted(common.items()))

    def __call__(self, t: pa.Table) -> pa.Table:
        df = t.to_pandas()

        tid = _opt(df, "trace_id").fillna("").astype(str).str.lower()
        sid = _opt(df, "span_id").fillna("").astype(str).str.lower()
        # HexString() yields "" for invalid/all-zero ids → error rows
        valid = (
            tid.str.fullmatch(r"[0-9a-f]{32}").fillna(False)
            & (tid != "0" * 32)
            & sid.str.fullmatch(r"[0-9a-f]{16}").fillna(False)
            & (sid != "0" * 16)
        )
        n_invalid = int((~valid).sum())
        keep = valid.to_numpy()
        df = df[keep].reset_index(drop=True)
        tid = tid[keep].reset_index(drop=True)
        sid = sid[keep].reset_index(drop=True)
        n = len(df)

        pid = _opt(df, "parent_span_id").fillna("").astype(str).str.lower()
        pid_ok = pid.str.fullmatch(r"[0-9a-f]{16}").fillna(False) & (pid != "0" * 16)

        start_ns = _num(df, "start_ns")
        end_ns = _num(df, "end_ns")
        ts_ms = start_ns // 1_000_000
        dur_us = (end_ns - start_ns) // 1_000

        tags: dict[str, pd.Series] = {}
        code = _num(df, "status_code")
        has_code = code != 0
        tags["otel.status_code"] = pd.Series(
            np.where(has_code, code.map(_STATUS_NAMES), None), dtype=object
        )
        msg = _opt(df, "status_message").fillna("")
        tags["otel.status_description"] = msg.where(has_code & (msg != ""), None)

        kind = _opt(df, "kind").fillna("").str.lower()
        tags["span.kind"] = kind.where(kind.isin(_VALID_KINDS), None)

        dac = _num(df, "dropped_attributes_count")
        tags["otel.dropped_attributes_count"] = pd.Series(
            np.where(dac > 0, dac.astype(str), None), dtype=object
        )
        dec = _num(df, "dropped_events_count")
        tags["otel.dropped_events_count"] = pd.Series(
            np.where(dec > 0, dec.astype(str), None), dtype=object
        )

        for c in self.attr_cols:
            if c in df.columns and c not in self.overrides:
                v = df[c].reset_index(drop=True)
                tags[c] = v.where(v.notna(), None)

        n_events = _num(df, "n_events")

        return pa.table(
            {
                "span_id": pa.array(sid.to_numpy(dtype=object), pa.string()),
                "trace_id": pa.array(tid.to_numpy(dtype=object), pa.string()),
                "parent_id": pa.array(
                    pid.where(pid_ok, "").to_numpy(dtype=object), pa.string()
                ),
                "name": pa.array(_opt(df, "name").to_numpy(dtype=object), pa.string()),
                "timestamp_ms": pa.array(ts_ms.to_numpy(), pa.int64()),
                "duration_us": pa.array(dur_us.to_numpy(), pa.int64()),
                "attrs": pa.array(_render_tags(tags, n).to_numpy(dtype=object), pa.string()),
                "common_attrs": pa.array([self.common_attrs] * n, pa.string()),
                "n_events": pa.array(n_events.to_numpy(), pa.int64()),
                "n_invalid": pa.array(
                    [n_invalid] + [0] * max(0, n - 1) if n else [], pa.int64()
                ),
            }
        )


class NewRelicMetricTransformer:
    """Callable map_batches stage: metric datapoint rows → NR metrics.

    Input rows carry ``name``, ``dtype`` (int_gauge | double_gauge |
    int_sum | double_sum | int_histogram | histogram | summary),
    ``temporality`` (delta | cumulative, sums only), ``value``,
    ``start_ns``, ``ts_ns``, ``unit``, ``description``; summaries add
    ``count``, ``sum``, ``q_first``, ``q_first_v``, ``q_last``,
    ``q_last_v`` (NaN quantile = no quantiles). ``label_cols`` become
    NR attributes (override keys excluded, transformer.go:462-468)."""

    def __init__(self, label_cols: Sequence[str] = ()):
        self.label_cols = list(label_cols)
        self.overrides = {"collector.name": "otelcol"}  # no collector version

    def __call__(self, t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        n = len(df)
        dtype = df["dtype"].fillna("")
        temp = _opt(df, "temporality").fillna("cumulative")
        val = _opt(df, "value", 0.0).astype(float)
        start_ns = _num(df, "start_ns")
        ts_ns = _num(df, "ts_ns")

        is_gauge_t = dtype.isin(["int_gauge", "double_gauge"])
        is_sum_t = dtype.isin(["int_sum", "double_sum"])
        is_hist = dtype.isin(["int_histogram", "histogram"])
        is_summary = dtype == "summary"
        is_delta = is_sum_t & (temp == "delta")

        # histogram points are an unsupported-type error (:379-386)
        nr_type = pd.Series(
            np.select(
                [is_gauge_t | (is_sum_t & ~is_delta), is_delta, is_summary],
                ["gauge", "count", "summary"],
                default="dropped",
            ),
            dtype=object,
        )
        # gauges (incl. downgraded sums) stamp Timestamp; counts and
        # summaries stamp the START timestamp + interval
        at_start = is_delta | is_summary
        out_ts_ms = np.where(at_start, start_ns // 1_000_000, ts_ns // 1_000_000)
        interval_ms = np.where(at_start, (ts_ns - start_ns) // 1_000_000, 0)

        cnt = _num(df, "count")
        ssum = _opt(df, "sum", 0.0).astype(float).fillna(0.0)
        qf = _opt(df, "q_first", np.nan).astype(float)
        qfv = _opt(df, "q_first_v", np.nan).astype(float)
        ql = _opt(df, "q_last", np.nan).astype(float)
        qlv = _opt(df, "q_last_v", np.nan).astype(float)
        # min iff first quantile is 0; max iff last quantile is 1
        # (a lone quantile==1 entry sets only max) — :396-412
        mn = np.where(is_summary & (qf == 0.0), qfv, np.nan)
        mx = np.where(is_summary & (ql == 1.0), qlv, np.nan)

        tags: dict[str, pd.Series] = {}
        unit = _opt(df, "unit").fillna("")
        tags["unit"] = unit.where(unit != "", None)
        desc = _opt(df, "description").fillna("")
        tags["description"] = desc.where(desc != "", None)
        for c in self.label_cols:
            if c in df.columns and c not in self.overrides:
                v = df[c].reset_index(drop=True)
                tags[c] = v.where(v.notna(), None)

        keep = (nr_type != "dropped").to_numpy()
        n_dropped = int((~keep).sum())
        out = pa.table(
            {
                "name": pa.array(df["name"][keep].to_numpy(dtype=object), pa.string()),
                "nr_type": pa.array(nr_type[keep].to_numpy(dtype=object), pa.string()),
                "value": pa.array(val.to_numpy()[keep], pa.float64()),
                "timestamp_ms": pa.array(out_ts_ms[keep], pa.int64()),
                "interval_ms": pa.array(interval_ms[keep], pa.int64()),
                "count": pa.array(cnt.to_numpy()[keep], pa.int64()),
                "sum": pa.array(ssum.to_numpy()[keep], pa.float64()),
                "min": pa.array(mn[keep], pa.float64()),
                "max": pa.array(mx[keep], pa.float64()),
                "attrs": pa.array(
                    _render_tags(tags, n)[keep].to_numpy(dtype=object), pa.string()
                ),
                "n_dropped": pa.array(
                    [n_dropped] + [0] * max(0, int(keep.sum()) - 1)
                    if keep.any()
                    else [],
                    pa.int64(),
                ),
            }
        )
        return out


class NewRelicLogTransformer:
    """Callable map_batches stage: log rows → NR log rows
    (transformer.go:121-167)."""

    def __init__(self, attr_cols: Sequence[str] = ()):
        self.attr_cols = list(attr_cols)
        self.overrides = {"collector.name": "otelcol"}  # no collector version

    def __call__(self, t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        n = len(df)

        body = _opt(df, "body").fillna("")
        name = _opt(df, "log_name").fillna("")
        message = body.where(body != "", name)

        tags: dict[str, pd.Series] = {}
        for c in self.attr_cols:
            if c in df.columns and c not in self.overrides:
                v = df[c].reset_index(drop=True)
                tags[c] = v.where(v.notna(), None)
        tags["name"] = name

        tid = _opt(df, "trace_id").fillna("").str.lower()
        tid_ok = tid.str.fullmatch(r"[0-9a-f]{32}").fillna(False) & (tid != "0" * 32)
        tags["trace.id"] = tid.where(tid_ok, None)
        sid = _opt(df, "span_id").fillna("").str.lower()
        sid_ok = sid.str.fullmatch(r"[0-9a-f]{16}").fillna(False) & (sid != "0" * 16)
        tags["span.id"] = sid.where(sid_ok, None)

        sev_text = _opt(df, "severity_text").fillna("")
        tags["log.level"] = sev_text.where(sev_text != "", None)
        sev_num = _num(df, "severity_number")
        tags["log.levelNum"] = pd.Series(
            np.where(sev_num != 0, sev_num.astype(str), None), dtype=object
        )
        dac = _num(df, "dropped_attributes_count")
        tags["otel.dropped_attributes_count"] = pd.Series(
            np.where(dac > 0, dac.astype(str), None), dtype=object
        )

        ts_ms = _num(df, "ts_ns") // 1_000_000
        return pa.table(
            {
                "message": pa.array(message.to_numpy(dtype=object), pa.string()),
                "timestamp_ms": pa.array(ts_ms.to_numpy(), pa.int64()),
                "attrs": pa.array(_render_tags(tags, n).to_numpy(dtype=object), pa.string()),
            }
        )
