"""Sink-side transforms: exporter semantics as batch stages + datasinks.

For the batch engine a "sink" is a partitioned Parquet directory; these
stages reproduce the observable transforms the reference's exporters
apply before shipping (SURVEY.md §2.6).
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .parse import _set_column


def _json_escape(s: pd.Series) -> pd.Series:
    """Vectorized JSON string-content escaping, byte-identical to
    json.dumps: backslash, quote, common control shorthands, then
    remaining C0 controls as \\u00XX (rare path, regex-callable)."""
    esc = (
        s.astype(str)
        .str.replace("\\", "\\\\", regex=False)
        .str.replace('"', '\\"', regex=False)
        .str.replace("\n", "\\n", regex=False)
        .str.replace("\r", "\\r", regex=False)
        .str.replace("\t", "\\t", regex=False)
        .str.replace("\b", "\\b", regex=False)
        .str.replace("\f", "\\f", regex=False)
    )
    ctrl = esc.str.contains("[\x00-\x1f]", regex=True)
    if ctrl.any():
        esc[ctrl] = esc[ctrl].str.replace(
            "[\x00-\x1f]", lambda m: "\\u%04x" % ord(m.group()), regex=True
        )
    return esc


class LokiLabeler:
    """lokiexporter label mapping (exporter/lokiexporter/exporter.go:123-187):
    only allow-listed attributes become Loki labels; a record none of
    whose attributes match is DROPPED and counted; records group into
    streams by their exact label set.

    Adds ``labels`` (canonical sorted JSON) and drops non-matching
    rows; dropped count is exposed per batch via the ``_dropped``
    column on a side-channel count table if ``count_dropped``.
    """

    def __init__(self, allowed_attributes: dict[str, str]):
        """allowed_attributes: {column_name: loki_label_name}."""
        self.allowed = allowed_attributes

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        # vectorized canonical JSON: per allowed label (sorted, matching
        # json.dumps(sort_keys=True)) build '"label": "value"' fragments
        # with pandas str kernels, then fold with ", " separators
        combined = pd.Series([None] * n, dtype=object)
        for label, col in sorted(
            (lbl, c) for c, lbl in self.allowed.items()
        ):
            if col not in batch.column_names:
                continue
            vals = pd.Series(batch[col].to_numpy(zero_copy_only=False), dtype=object)
            esc = _json_escape(vals.dropna())
            frag = pd.Series([None] * n, dtype=object)
            frag[esc.index] = '"' + label + '": "' + esc + '"'
            both = combined.notna() & frag.notna()
            combined = combined.where(~both, combined + ", " + frag)
            combined = combined.where(combined.notna(), frag)
        mask = combined.notna().to_numpy(dtype=bool)
        enc = pa.array(("{" + combined.dropna() + "}").reindex(range(n)), pa.string())
        out = _set_column(batch, "labels", enc)
        dropped = int((~mask).sum())
        out = out.filter(pa.array(mask))
        # per-batch dropped count as metadata column (summed by caller)
        return _set_column(
            out, "_batch_dropped", pa.array(np.full(len(out), dropped, np.int64))
        )


def loki_streams(ds, allowed_attributes: dict[str, str]):
    """Streams = counts per exact label set (exporter.go:138-160)."""
    from .aggregate import two_phase_agg

    labeled = ds.map_batches(
        LokiLabeler(allowed_attributes), batch_format="pyarrow"
    )
    return two_phase_agg(labeled, ["labels"], {"*": ["count"]})


def dedup_dedot_keys(obj: dict) -> dict:
    """elasticsearchexporter objmodel normalization
    (internal/objmodel/objmodel.go:187-233): sort keys, last-wins
    dedup, and expand dotted keys into nested objects ("dedot")."""
    items = sorted(obj.items())
    flat: dict = {}
    for k, v in items:
        flat[k] = v  # sorted + dict semantics = key dedup (last wins)
    out: dict = {}
    for k, v in flat.items():
        parts = k.split(".")
        cur = out
        for p in parts[:-1]:
            nxt = cur.get(p)
            if not isinstance(nxt, dict):
                nxt = {}
                cur[p] = nxt
            cur = nxt
        cur[parts[-1]] = v
    return out


class EsDocModel:
    """Render rows to Elasticsearch-style JSON docs with dedot'd keys
    (objmodel.go:187-233). ``attr_cols`` become document fields; output
    column ``doc``.

    Vectorized: the doc's JSON *structure* depends only on which columns
    are non-null in a row, so rows are grouped by null-pattern; each
    pattern's structure is rendered ONCE via json.dumps on placeholders,
    then per-column value fragments (escaped with pandas str kernels)
    are spliced in with vectorized concatenation — no per-row dict or
    json.dumps on the fixed-column path.
    """

    def __init__(self, attr_cols: Sequence[str]):
        self.attr_cols = list(attr_cols)

    @staticmethod
    def _render_values(typ: pa.DataType, sub: pd.Series) -> pd.Series:
        """Per-column JSON value fragments (incl. quotes for strings),
        matching json.dumps rendering per type."""
        if pa.types.is_string(typ) or pa.types.is_large_string(typ):
            return '"' + _json_escape(sub) + '"'
        if pa.types.is_boolean(typ):
            return sub.map(lambda v: "true" if v else "false")
        if pa.types.is_integer(typ):
            return sub.astype(np.int64).astype(str)
        if pa.types.is_floating(typ):
            # numpy's float64 str is the same shortest-roundtrip dragon4
            # as CPython repr (== json.dumps) — one C-loop cast instead
            # of a per-value Python lambda
            return pd.Series(
                sub.to_numpy(dtype=np.float64).astype(str), index=sub.index
            )
        return sub.map(lambda v: json.dumps(v, default=str))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import re

        n = len(batch)
        present = [c for c in self.attr_cols if c in batch.column_names]
        series = {
            c: pd.Series(batch[c].to_numpy(zero_copy_only=False), dtype=object)
            for c in present
        }
        frags = {
            c: self._render_values(batch.schema.field(c).type, s.dropna())
            for c, s in series.items()
        }
        if present:
            masks = np.column_stack(
                [series[c].notna().to_numpy(dtype=bool) for c in present]
            )
            pattern = masks.dot(1 << np.arange(len(present), dtype=np.int64))
        else:
            pattern = np.zeros(n, dtype=np.int64)
        docs = np.empty(n, dtype=object)
        for pat in np.unique(pattern):
            rows = np.flatnonzero(pattern == pat)
            cols_here = [c for j, c in enumerate(present) if (pat >> j) & 1]
            tmpl = json.dumps(
                dedup_dedot_keys(
                    {c: f"@@PH{j}@@" for j, c in enumerate(cols_here)}
                ),
                sort_keys=True,
            )
            parts = re.split(r'"@@PH(\d+)@@"', tmpl)
            out = pd.Series(parts[0], index=rows, dtype=object)
            for k in range(1, len(parts), 2):
                col = cols_here[int(parts[k])]
                vals = frags[col].to_numpy()[
                    np.searchsorted(frags[col].index.to_numpy(), rows)
                ]
                out = out + vals + parts[k + 1]
            docs[rows] = out.to_numpy()
        return _set_column(batch, "doc", pa.array(docs, pa.string()))


def splunk_hec_fields(batch: pa.Table, *, body_col: str = "msg") -> pa.Table:
    """splunkhecexporter outbound mapping
    (logdata_to_splunk.go:41-95,130): host/source/sourcetype/index from
    canonical attrs, body → event, ns → epoch-seconds float time."""
    out = batch
    mapping = {
        "host.name": "host",
        "com.splunk.source": "source",
        "com.splunk.sourcetype": "sourcetype",
        "com.splunk.index": "index",
    }
    for src, dst in mapping.items():
        if src in batch.column_names:
            out = _set_column(out, dst, out[src])
    if body_col in batch.column_names:
        out = _set_column(out, "event", out[body_col])
    if "ts" in batch.column_names:
        ns = pc.cast(out["ts"], pa.int64())
        out = _set_column(
            out, "time", pc.divide(pc.cast(ns, pa.float64(), safe=False), pa.scalar(1e9))
        )
    return out


def consistent_hash_partition(ds, key_col: str, num_backends: int):
    """loadbalancingexporter ring (consistent_hashing.go): assign each
    row a backend by key hash. In Ray the ring's rebalancing role is
    played by the shuffle; this materializes the ``backend`` column, and
    ``write_parquet(partition_cols=["backend"])`` realizes the fan-out.
    Logs route by traceID of the first record (log_exporter.go:85-106)
    — here per-row key for batch determinism."""
    from .._util import hash_str_u64

    def f(batch: pa.Table) -> pa.Table:
        vals = batch[key_col].to_numpy(zero_copy_only=False)
        h = hash_str_u64(vals) % np.uint64(num_backends)
        return _set_column(
            batch,
            "backend",
            pa.array(np.char.add("backend-", h.astype(np.int64).astype(str))),
        )

    return ds.map_batches(f, batch_format="pyarrow")


def render_carbon_lines(batch: pa.Table) -> pa.Table:
    """carbonexporter: metric rows (``metric_name``, ``value``,
    ``timestamp``) → Graphite plaintext lines ``name value epoch``
    (exporter/carbonexporter — inverse of the carbonreceiver parser).
    Vectorized string join."""
    epoch = pc.cast(pc.cast(batch["timestamp"], pa.timestamp("s"), safe=False), pa.int64())
    line = pc.binary_join_element_wise(
        pc.cast(batch["metric_name"], pa.string()),
        pc.cast(batch["value"], pa.string()),
        pc.cast(epoch, pa.string()),
        " ",
    )
    return batch.append_column("line", line)


def render_influx_lines(batch: pa.Table) -> pa.Table:
    """influxdbexporter: metric rows (``measurement``, optional
    ``tags``, ``field_key``, ``field_value``, optional ``ts_ns``) →
    InfluxDB line protocol ``measurement[,tags] key=value [ts]``
    (inverse of the receiver)."""
    meas = pc.cast(batch["measurement"], pa.string())
    if "tags" in batch.column_names:
        tags = pc.coalesce(batch["tags"], pa.scalar(""))
        head = pc.if_else(
            pc.equal(tags, ""),
            meas,
            pc.binary_join_element_wise(meas, tags, ","),
        )
    else:
        head = meas
    fields = pc.binary_join_element_wise(
        pc.cast(batch["field_key"], pa.string()),
        pc.cast(batch["field_value"], pa.string()),
        "=",
    )
    line = pc.binary_join_element_wise(head, fields, " ")
    if "ts_ns" in batch.column_names:
        ts = batch["ts_ns"]
        with_ts = pc.binary_join_element_wise(
            line, pc.cast(pc.coalesce(ts, pa.scalar(0)), pa.string()), " "
        )
        line = pc.if_else(pc.is_valid(ts), with_ts, line)  # ts optional per spec
    return batch.append_column("line", line)


# --------------------------------------------------------------------------
# dynatrace metric line protocol (exporter/dynatraceexporter/serialization/
# serialization.go + metrics_exporter.go:242-260)
# --------------------------------------------------------------------------

_DT_MAX_METRIC_KEY = 250
_DT_MAX_DIM_KEY = 100


def dt_normalize(s: pd.Series, max_len: int) -> pd.Series:
    """NormalizeString (serialization.go:137-156): disallowed chars →
    '_', leading digits/dots stripped, capped, trailing '_' stripped;
    empty result = error (NaN here, caller drops)."""
    out = (
        s.fillna("")
        .str.replace(r"[^A-Za-z0-9.-]+", "_", regex=True)
        .str.lstrip(".0123456789")
        .str.slice(0, max_len)
        .str.rstrip("_")
    )
    return out.where(out != "", None)


def _dt_float(v: pd.Series) -> pd.Series:
    """serializeFloat64 (serialization.go:170-181) reproduced
    bug-for-bug: FormatFloat(f, 'f', 6) then TrimRight over the CHAR
    SET "0." — so 100.000000 renders as "1" and 0.000000 as "0"."""
    s = v.map(lambda x: f"{x:.6f}").str.rstrip("0.")
    return s.where(s != "", "0")


def _dt_escape(v: pd.Series) -> pd.Series:
    """escapeDimension (serialization.go:133-135) in the reference's
    order: quotes escaped FIRST, then every backslash doubled — so a
    literal quote ends up as backslash-backslash-quote."""
    e = (
        v.fillna("")
        .str.replace('"', '\\"', regex=False)
        .str.replace("\\", "\\\\", regex=False)
    )
    return '"' + e + '"'


def render_dynatrace_lines(
    batch: pa.Table,
    prefix: str = "",
    exporter_tags: Sequence[str] = (),
    name_col: str = "name",
    ts_ns_col: str = "ts_ns",
    label_cols: Sequence[str] = (),
) -> pa.Table:
    """Metric rows → dynatrace line-protocol strings.

    Value sources per row: ``value_int`` → int line; else
    ``value_double`` → quirk-formatted float line; else
    ``hist_sum``+``hist_count`` → ``gauge,min=avg,max=avg,sum=..,
    count=..`` (SerializeHistogramMetrics: min and max are BOTH the
    average — a reference quirk kept). A histogram point with count 0
    voids every point of that metric NAME in the batch (the
    reference's early ``return []string{}`` discards the whole slice;
    points of one metric are assumed co-located per batch). Rows whose
    normalized name comes out empty are dropped (the error path).
    Timestamps render as ms (ns // 1e6)."""
    df = batch.to_pandas()
    name = dt_normalize(df[name_col], _DT_MAX_METRIC_KEY - (len(prefix) + 1 if prefix else 0))
    if prefix:
        name = prefix + "." + name

    tagline = pd.Series([",".join(exporter_tags)] * len(df))
    for c in label_cols:
        key = dt_normalize(pd.Series([c.lower()]), _DT_MAX_DIM_KEY).iloc[0]
        if key is None or c not in df.columns:
            continue  # unnormalizable key → tag skipped (:114-117)
        vals = df[c]
        frag = key + "=" + _dt_escape(vals)
        frag = frag.where(vals.notna(), "")
        sep = np.where((tagline != "") & (frag != ""), ",", "")
        tagline = tagline + pd.Series(sep) + frag

    vi = df["value_int"] if "value_int" in df.columns else pd.Series([None] * len(df))
    vd = df["value_double"] if "value_double" in df.columns else pd.Series([None] * len(df))
    hs = df["hist_sum"] if "hist_sum" in df.columns else pd.Series([None] * len(df))
    hc = df["hist_count"] if "hist_count" in df.columns else pd.Series([None] * len(df))

    vline = pd.Series([None] * len(df), dtype=object)
    m_i = vi.notna()
    vline[m_i] = vi[m_i].astype(np.int64).astype(str)
    m_d = ~m_i & vd.notna()
    if m_d.any():
        vline[m_d] = _dt_float(vd[m_d].astype(float))
    m_h = ~m_i & ~m_d & hc.notna()
    if m_h.any():
        cnt = hc[m_h].astype(np.int64)
        avg = hs[m_h].astype(float) / cnt.where(cnt != 0, 1)
        af = _dt_float(avg)
        vline[m_h] = (
            "gauge,min=" + af + ",max=" + af + ",sum=" + _dt_float(hs[m_h].astype(float))
            + ",count=" + cnt.astype(str)
        )
        # count==0 voids the whole metric name (serialization.go:44-47)
        bad_names = set(name[m_h & (hc.fillna(-1).astype(np.int64) == 0)])
        if bad_names:
            vline[name.isin(bad_names)] = None

    ts_ms = (df[ts_ns_col].fillna(0).astype(np.int64) // 1_000_000).astype(str)
    head = name + np.where(tagline != "", "," + tagline, "")
    line = head + " " + vline.astype(object) + " " + ts_ms
    keep = name.notna() & vline.notna()
    out = pd.DataFrame({"line": line[keep]})
    from .._util import table_from_pandas

    return table_from_pandas(out)


# --- awscloudwatchlogsexporter -----------------------------------------


def _json_escape_go(s: pd.Series) -> pd.Series:
    """Go encoding/json escaping = json.dumps escapes PLUS HTML-safe
    escapes for < > & (Marshal defaults to SetEscapeHTML(true))."""
    return (
        _json_escape(s)
        .str.replace("<", "\\u003c", regex=False)
        .str.replace(">", "\\u003e", regex=False)
        .str.replace("&", "\\u0026", regex=False)
    )


def _fold_json_fragments(frags: list[pd.Series]) -> pd.Series:
    """Comma-join per-row JSON member fragments, skipping omitted
    ('') members — vectorized equivalent of omitempty marshalling."""
    out = frags[0]
    for f in frags[1:]:
        sep = np.where((out != "") & (f != ""), ",", "")
        out = out + pd.Series(sep, index=out.index) + f
    return out


def render_cloudwatch_logs(
    batch: pa.Table,
    *,
    ts_ns_col: str,
    name_col: str | None = None,
    body_col: str | None = None,
    severity_number_col: str | None = None,
    severity_text_col: str | None = None,
    dropped_count_col: str | None = None,
    flags_col: str | None = None,
    trace_id_col: str | None = None,
    span_id_col: str | None = None,
    attr_cols: dict[str, str] | None = None,
    resource_cols: dict[str, str] | None = None,
) -> pa.Table:
    """awscloudwatchlogsexporter ``logToCWLog``
    (exporter/awscloudwatchlogsexporter/exporter.go:117-193): each log
    record becomes one CloudWatch ``InputLogEvent`` whose ``message``
    is the JSON body struct in declaration order — name, body,
    severity_number, severity_text, dropped_attributes_count, flags,
    trace_id, span_id, attributes, resource — with Go ``omitempty``
    semantics (empty string / 0 / empty map members dropped), map keys
    sorted, and Go's HTML-safe string escaping; ``timestamp`` is the
    record timestamp in milliseconds (ns / 1e6).

    ``attr_cols`` / ``resource_cols``: ``{json_key: column}``; string
    columns render quoted+escaped, integer columns render bare. A
    null/empty value omits that key; an empty map omits the member.
    Fully vectorized (pandas str kernels + numpy masks); appends
    ``cw_timestamp`` (int64 ms) and ``cw_message`` (string)."""
    n = len(batch)

    def col(name):
        return pd.Series(batch[name].to_numpy(zero_copy_only=False)).fillna("")

    def str_member(key, c):
        if c is None:
            return pd.Series([""] * n)
        v = col(c).astype(str)
        frag = '"' + key + '":"' + _json_escape_go(v) + '"'
        return pd.Series(np.where(v != "", frag, ""), dtype=object)

    def int_member(key, c):
        if c is None:
            return pd.Series([""] * n)
        v = batch[c].to_numpy(zero_copy_only=False).astype(np.int64)
        frag = '"' + key + '":' + pd.Series(v).astype(str)
        return pd.Series(np.where(v != 0, frag, ""), dtype=object)

    def map_member(key, cols):
        if not cols:
            return pd.Series([""] * n)
        pairs = []
        for k in sorted(cols):  # Go marshals map keys sorted
            c = cols[k]
            if pa.types.is_integer(batch.schema.field(c).type):
                v = pd.Series(
                    batch[c].to_numpy(zero_copy_only=False).astype(np.int64)
                ).astype(str)
                pairs.append(pd.Series(np.asarray('"' + k + '":' + v, dtype=object)))
            else:
                v = col(c).astype(str)
                frag = '"' + k + '":"' + _json_escape_go(v) + '"'
                pairs.append(pd.Series(np.where(v != "", frag, ""), dtype=object))
        inner = _fold_json_fragments(pairs)
        return pd.Series(
            np.where(inner != "", '"' + key + '":{' + inner + "}", ""), dtype=object
        )

    members = [
        str_member("name", name_col),
        str_member("body", body_col),
        int_member("severity_number", severity_number_col),
        str_member("severity_text", severity_text_col),
        int_member("dropped_attributes_count", dropped_count_col),
        int_member("flags", flags_col),
        str_member("trace_id", trace_id_col),
        str_member("span_id", span_id_col),
        map_member("attributes", attr_cols or {}),
        map_member("resource", resource_cols or {}),
    ]
    msg = "{" + _fold_json_fragments(members) + "}"
    ts_ms = batch[ts_ns_col].to_numpy(zero_copy_only=False).astype(np.int64) // 1_000_000
    out = _set_column(batch, "cw_timestamp", pa.array(ts_ms, pa.int64()))
    return _set_column(out, "cw_message", pa.array(msg.to_numpy(dtype=object), pa.string()))
