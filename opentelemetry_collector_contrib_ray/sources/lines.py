"""Line-protocol and JSON-event decoders (receiver equivalents).

Each decoder is a vectorized batch transform over a ``raw: string``
column — the batch-engine analogue of the reference's socket/HTTP
receivers (SURVEY.md §2.1): the transport is replaced by a file/parquet
scan, the wire-format parsing is reproduced faithfully.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.regexes import extract_named

# ------------------------------------------------------------------ carbon

_CARBON_PLAINTEXT = (
    r"^(?P<path>[^ ;]+)(?:;(?P<tags>[^ ]*))? (?P<value>[^ ]+) (?P<timestamp>\d+)$"
)


def parse_carbon_plaintext(batch: pa.Table) -> pa.Table:
    """Graphite plaintext: ``path[;tag=v;...] value timestamp``
    (receiver/carbonreceiver/protocol/plaintext_parser.go:51-100,
    incl. tag support). Adds metric_name, value, timestamp, tags."""
    src = batch["raw"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    cols = extract_named(src, _CARBON_PLAINTEXT)
    out = batch.append_column("metric_name", cols["path"])
    out = out.append_column("value", pc.cast(cols["value"], pa.float64()))
    ts = pc.cast(pc.cast(cols["timestamp"], pa.int64()), pa.timestamp("s"))
    out = out.append_column("timestamp", ts)
    return out.append_column("tags", cols["tags"])


class CarbonRegexParser:
    """carbonreceiver regex rules: path → (metric name, labels) via
    ``key_<label>`` / ``name_N`` capture groups + name prefix/joiner
    (protocol/regex_parser.go:32-160). Compiled once per actor."""

    def __init__(self, rules: list[dict]):
        import re

        self.rules = [
            {
                "rx": re.compile(r["regexp"]),
                "name_prefix": r.get("name_prefix", ""),
                "labels": r.get("labels", {}),
                "metric_type": r.get("metric_type", "gauge"),
            }
            for r in rules
        ]

    def _apply_one(self, path: str):
        for r in self.rules:
            m = r["rx"].match(path)
            if m is None:
                continue
            names, labels = [], dict(r["labels"])
            for gname, gval in m.groupdict().items():
                if gval is None:
                    continue
                if gname.startswith("key_"):
                    labels[gname[4:]] = gval
                elif gname.startswith("name_"):
                    names.append((gname, gval))
            names.sort(key=lambda kv: kv[0])
            name = r["name_prefix"] + ".".join(v for _, v in names)
            return name, labels, r["metric_type"]
        return None, {}, None

    def __call__(self, batch: pa.Table) -> pa.Table:
        parsed = parse_carbon_plaintext(batch)
        paths = parsed["metric_name"].to_pylist()
        names, labels, types = [], [], []
        for p in paths:
            n, l, t = self._apply_one(p or "")
            names.append(n)
            labels.append(json.dumps(l, sort_keys=True))
            types.append(t)
        parsed = parsed.drop_columns(["metric_name"])
        parsed = parsed.append_column("metric_name", pa.array(names, pa.string()))
        parsed = parsed.append_column("labels", pa.array(labels, pa.string()))
        return parsed.append_column("metric_type", pa.array(types, pa.string()))


# ------------------------------------------------------------------ statsd

_STATSD_RE = (
    r"^(?P<name>[^:]+):(?P<value>[^|]+)\|(?P<mtype>c|g|ms|h|s)"
    r"(?:\|@(?P<rate>[\d.]+))?(?:\|#(?P<tags>.*))?$"
)


def parse_statsd(batch: pa.Table) -> pa.Table:
    """statsd line: ``name:value|type[|@rate][|#k:v,...]``
    (receiver/statsdreceiver/protocol/statsd_parser.go:224-343).
    Counter values are upscaled by 1/sample-rate (:296-314); gauges may
    be signed deltas (+N/-N → is_delta flag). Adds name, mtype, value,
    rate, tags, is_delta.
    """
    src = batch["raw"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    cols = extract_named(src, _STATSD_RE)
    # RE2 reports unparticipating optional groups as "" — normalize to null
    cols = {
        k: pc.if_else(pc.equal(pc.coalesce(v, pa.scalar("")), ""), pa.scalar(None, pa.string()), v)
        for k, v in cols.items()
    }
    val_str = cols["value"]
    is_delta = pc.and_(
        pc.equal(cols["mtype"], "g"),
        pc.match_substring_regex(pc.coalesce(val_str, pa.scalar("")), r"^[+-]"),
    )
    value = pc.cast(val_str, pa.float64())
    rate = pc.cast(pc.coalesce(cols["rate"], pa.scalar("1")), pa.float64())
    # counters scale by 1/rate (statsd_parser.go:296-314)
    scaled = pc.if_else(
        pc.equal(cols["mtype"], "c"), pc.divide(value, rate), value
    )
    out = batch.append_column("name", cols["name"])
    out = out.append_column("mtype", cols["mtype"])
    out = out.append_column("value", scaled)
    out = out.append_column("rate", rate)
    out = out.append_column("tags", cols["tags"])
    return out.append_column("is_delta", is_delta)


# ------------------------------------------------------------- splunk HEC


_HEC_SPECIAL = ("host", "source", "sourcetype", "index")


class SplunkHecParser:
    """splunkhecreceiver event JSON → log rows
    (receiver/splunkhecreceiver/splunk_to_logdata.go:33-84): `event` →
    body, `time` (sec float) → ns timestamp, host/source/sourcetype/
    index → canonical attrs, `fields` → attributes (keys sorted for
    determinism, :67-71)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = batch["raw"].to_pylist()
        out: dict[str, list] = {
            "body": [],
            "ts_ns": [],
            "host.name": [],
            "com.splunk.source": [],
            "com.splunk.sourcetype": [],
            "com.splunk.index": [],
            "fields": [],
        }
        for r in rows:
            try:
                ev = json.loads(r) if r else {}
            except json.JSONDecodeError:
                ev = {}
            out["body"].append(
                ev.get("event") if isinstance(ev.get("event"), str) else json.dumps(ev.get("event"))
            )
            t = ev.get("time")
            out["ts_ns"].append(int(float(t) * 1e9) if t is not None else None)
            out["host.name"].append(ev.get("host"))
            out["com.splunk.source"].append(ev.get("source"))
            out["com.splunk.sourcetype"].append(ev.get("sourcetype"))
            out["com.splunk.index"].append(ev.get("index"))
            fields = ev.get("fields") or {}
            out["fields"].append(
                json.dumps({k: fields[k] for k in sorted(fields)}) if fields else None
            )
        res = batch
        for k, v in out.items():
            typ = pa.int64() if k == "ts_ns" else pa.string()
            res = res.append_column(k, pa.array(v, typ))
        return res


# ------------------------------------------------------------ RFC5424 syslog

_RFC5424 = (
    r"^<(?P<pri>\d+)>(?P<version>\d+) (?P<timestamp>\S+) (?P<hostname>\S+) "
    r"(?P<appname>\S+) (?P<procid>\S+) (?P<msgid>\S+) (?:\[(?P<sd>[^\]]*)\]|-)"
    r"(?: (?P<message>.*))?$"
)


def parse_rfc5424(batch: pa.Table) -> pa.Table:
    """RFC5424 syslog (receiver/syslogreceiver, protocol rfc5424)."""
    src = batch["raw"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    cols = extract_named(src, _RFC5424)
    out = batch
    for name, arr in cols.items():
        out = out.append_column(name, arr)
    return out


# --------------------------------------------------------- wavefront / influx

_WAVEFRONT_RE = (
    r'^(?P<name>(?:"[^"]+")|[^ ]+) (?P<value>[^ ]+)'
    r"(?: (?P<timestamp>\d{9,}))? source=(?P<source>[^ ]+)(?: (?P<tags>.*))?$"
)


def parse_wavefront(batch: pa.Table) -> pa.Table:
    """Wavefront data format: ``<name> <value> [<ts>] source=<src> [k=v ...]``
    (receiver/wavefrontreceiver/wavefront_parser.go:58; optional
    timestamp per :94-103). Adds metric_name, value, timestamp, source, tags."""
    src = batch["raw"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    cols = extract_named(src, _WAVEFRONT_RE)
    cols = {
        k: pc.if_else(
            pc.equal(pc.coalesce(v, pa.scalar("")), ""), pa.scalar(None, pa.string()), v
        )
        for k, v in cols.items()
    }
    out = batch.append_column(
        "metric_name", pc.replace_substring_regex(cols["name"], '^"|"$', "")
    )
    out = out.append_column("value", pc.cast(cols["value"], pa.float64()))
    ts = pc.cast(pc.cast(cols["timestamp"], pa.int64()), pa.timestamp("s"))
    out = out.append_column("timestamp", ts)
    out = out.append_column("source", cols["source"])
    return out.append_column("tags", cols["tags"])


_INFLUX_RE = (
    r"^(?P<measurement>[^, ]+)(?:,(?P<tags>[^ ]+))? (?P<fields>[^ ]+)"
    r"(?: (?P<timestamp>\d+))?$"
)


def parse_influx_line(batch: pa.Table) -> pa.Table:
    """InfluxDB line protocol: ``measurement[,tag=v...] field=v[,...] [ts]``
    (receiver/influxdbreceiver README). Measurement/tags/timestamp are
    vectorized regex extraction; the field set explodes into one row per
    field (field_key, field_value)."""
    src = batch["raw"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    cols = extract_named(src, _INFLUX_RE)
    meas = cols["measurement"].to_pylist()
    tags = cols["tags"].to_pylist()
    fields = cols["fields"].to_pylist()
    tss = cols["timestamp"].to_pylist()
    out = {"measurement": [], "tags": [], "field_key": [], "field_value": [], "ts_ns": []}
    for m, tg, fl, ts in zip(meas, tags, fields, tss):
        if not m or not fl:
            continue
        for pair in fl.split(","):
            if "=" not in pair:
                continue
            k, v = pair.split("=", 1)
            if v.endswith("i"):
                try:
                    fv = float(int(v[:-1]))
                except ValueError:
                    fv = None
            elif v.startswith('"'):
                fv = None  # string fields carried as tags in metric model
            else:
                try:
                    fv = float(v)
                except ValueError:
                    fv = None
            out["measurement"].append(m)
            out["tags"].append(tg or None)
            out["field_key"].append(k)
            out["field_value"].append(fv)
            out["ts_ns"].append(int(ts) if ts else None)
    return pa.table(
        {
            "measurement": pa.array(out["measurement"], pa.string()),
            "tags": pa.array(out["tags"], pa.string()),
            "field_key": pa.array(out["field_key"], pa.string()),
            "field_value": pa.array(out["field_value"], pa.float64()),
            "ts_ns": pa.array(out["ts_ns"], pa.int64()),
        }
    )


_COLLECTD_KEYS = ("host", "plugin", "plugin_instance", "type", "type_instance")


def parse_collectd_json(batch: pa.Table) -> pa.Table:
    """collectd JSON write payload → one row per (metric, dsname)
    (receiver/collectdreceiver/collectd.go): each record carries
    host/plugin/type identity, dsnames/dstypes/values arrays, and
    epoch time; metric name = plugin[.plugin_instance].type[.type_instance].dsname."""
    rows = {k: [] for k in ("metric_name", "host", "dstype", "value", "ts_ns")}
    for raw in batch["raw"].to_pylist():
        try:
            records = json.loads(raw) if raw else []
        except json.JSONDecodeError:
            continue
        for rec in records if isinstance(records, list) else []:
            parts = [rec.get("plugin"), rec.get("plugin_instance"), rec.get("type"), rec.get("type_instance")]
            base = ".".join(p for p in parts if p)
            t = rec.get("time")
            for dsname, dstype, value in zip(
                rec.get("dsnames", []), rec.get("dstypes", []), rec.get("values", [])
            ):
                rows["metric_name"].append(f"{base}.{dsname}" if dsname != "value" else base)
                rows["host"].append(rec.get("host"))
                rows["dstype"].append(dstype)
                rows["value"].append(float(value) if value is not None else None)
                rows["ts_ns"].append(int(t * 1e9) if t else None)
    return pa.table(
        {
            "metric_name": pa.array(rows["metric_name"], pa.string()),
            "host": pa.array(rows["host"], pa.string()),
            "dstype": pa.array(rows["dstype"], pa.string()),
            "value": pa.array(rows["value"], pa.float64()),
            "ts_ns": pa.array(rows["ts_ns"], pa.int64()),
        }
    )


def split_packet_lines(batch: pa.Table) -> pa.Table:
    """Explode the newline-separated protocol packets of ``raw`` into one
    ``raw`` row per line (statsd/carbon UDP packets may carry many
    metrics per datagram).
    Vectorized: arrow split_pattern → flatten with parent-row repeat of
    every other column."""
    src = batch["raw"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    parts = pc.split_pattern(src, pattern="\n")
    lengths = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths, nan=0).astype(np.int64)
    flat = parts.flatten()
    idx = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
    kept = batch.drop_columns(["raw"]).take(pa.array(idx))
    kept = kept.append_column("raw", flat)
    # drop empty lines (trailing newline)
    return kept.filter(pc.not_equal(kept["raw"], ""))
