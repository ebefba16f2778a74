"""Trace-signal decoders (SURVEY.md §2.1, the sapm/signalfx/awsxray row).

- AWS X-Ray segment JSON → spans, matching the reference translator
  (`receiver/awsxrayreceiver/internal/translator/translator.go:36-120`,
  `name.go:30-68`, `time.go:23-35`, `cause.go:27-110`, `http.go:25-69`):
  recursive subsegment flattening, X-Ray trace-id → 16-byte decode,
  kind rules (ClientIP → server, namespace → client, rootless parent →
  server, else internal), float-sec → ns timestamps, Cause → status +
  exception events with the Java-style stacktrace render.
- SignalFx protobuf DataPointUploadMessage codec (pure-Python varint
  wire format, like the fluentforward msgpack codec) + the datapoint →
  metric mapping of `receiver/signalfxreceiver/signalfxv2_to_metricdata
  .go:34-199`: gauge/counter/cumulative × int/double, ms → ns, nil/str
  datum and unknown types dropped, dimension Insert (first wins).
- SAPM (`receiver/sapmreceiver/trace_receiver.go:64-99`): optionally
  gzipped protobuf PostSpansRequest{repeated jaeger.Batch batches=1}
  (sapmprotocol.ParseTraceV2Request), decoded with a pure-Python codec
  for the public jaeger-idl model.proto, then translated with the
  public OpenTelemetry jaeger→traces rules (span.kind / error /
  otel.status_code tag extraction, CHILD_OF parent, FOLLOWS_FROM
  links, Process → resource, logs → events, binary tags → base64).

All are per-record FORMAT decoders — the per-document Python loop is
inherent to nested JSON / protobuf payloads; everything downstream of
the decode stays columnar.
"""

from __future__ import annotations

import base64
import gzip
import json
import struct

import numpy as np
import pyarrow as pa

# --------------------------------------------------------------- X-Ray

_SPAN_KIND_UNSPECIFIED = "unspecified"
_SPAN_KIND_INTERNAL = "internal"
_SPAN_KIND_SERVER = "server"
_SPAN_KIND_CLIENT = "client"


def decode_xray_trace_id(trace_id: str | None) -> str:
    """X-Ray "1-5f84c7a1-e7d1852db8c4fd35d88bf49a" → 32-hex OTLP trace
    id (translator.go:232-247)."""
    if trace_id is None:
        raise ValueError("traceID is null")
    if len(trace_id) < 35:
        raise ValueError("traceID length is wrong")
    hexpart = trace_id[2:10] + trace_id[11:]
    return bytes.fromhex(hexpart).hex()  # validates + canonicalizes


def decode_xray_span_id(span_id: str | None) -> str:
    """16-hex X-Ray segment id → 8-byte span id (translator.go:250-258)."""
    if span_id is None:
        raise ValueError("spanid is null")
    if len(span_id) != 16:
        raise ValueError("spanID length is wrong")
    return bytes.fromhex(span_id).hex()


def _status_from_http(code: int) -> str:
    # core tracetranslator.StatusCodeFromHTTP (tri-state, early-2021):
    # 100..398 → unset, else error
    return "unset" if 100 <= code < 399 else "error"


def _float_sec_to_ns(sec: float) -> int:
    # time.go:33-35 floatSecToNanoEpoch: float64 multiply THEN truncate
    # (precision loss at epoch scale is part of the reference semantics)
    return int(sec * 1e9)


def _stacktrace_str(excp: dict) -> str:
    # cause.go:86-110 convertStackFramesToStackTraceStr
    out = [f"{excp.get('type')}: {excp.get('message')}\n"]
    for frame in excp.get("stack", []):
        out.append(
            f"\tat {frame.get('label')}({frame.get('path')}: {frame.get('line')})\n"
        )
    return "".join(out)


def _annotation_attrs(annos: dict | None) -> dict:
    # annotations.go:21-41: typed upsert; unsupported types skipped
    out = {}
    for k, v in (annos or {}).items():
        if isinstance(v, (bool, int, float, str)):
            out[k] = v
    return out


def _populate_span(seg: dict, trace_id: str | None, parent_id: str | None) -> dict:
    """translator.go:122-201 populateSpan for one segment dict."""
    attrs: dict = {}
    span: dict = {"name": seg["name"], "kind": _SPAN_KIND_UNSPECIFIED}

    # name.go:30-68 addNameAndNamespace
    http = seg.get("http") or {}
    req = http.get("request") or {}
    if req.get("client_ip") is not None:
        span["kind"] = _SPAN_KIND_SERVER
    ns = seg.get("namespace")
    if ns is None:
        if span["kind"] == _SPAN_KIND_UNSPECIFIED:
            span["kind"] = _SPAN_KIND_INTERNAL
    else:
        span["kind"] = _SPAN_KIND_CLIENT
        if ns == "aws":
            attrs["aws.service"] = seg["name"]
        elif ns != "remote":
            raise ValueError(f"unexpected namespace: {ns}")

    span["trace_id"] = decode_xray_trace_id(seg.get("trace_id") or trace_id)
    eff_parent = parent_id if parent_id is not None else seg.get("parent_id")
    if eff_parent is not None:
        span["parent_span_id"] = decode_xray_span_id(eff_parent)
    else:
        span["parent_span_id"] = None
        span["kind"] = _SPAN_KIND_SERVER  # translator.go:176-181
    span["span_id"] = decode_xray_span_id(seg.get("id"))

    span["start_ns"] = _float_sec_to_ns(seg["start_time"])
    span["end_ns"] = (
        _float_sec_to_ns(seg["end_time"]) if seg.get("end_time") is not None else None
    )
    if seg.get("user") is not None:
        attrs["enduser.id"] = seg["user"]
    if seg.get("in_progress") is not None:
        attrs["aws.xray.inprogress"] = bool(seg["in_progress"])

    # http.go:25-69 addHTTP
    span["status_code"] = "unset"
    span["status_message"] = None
    if req:
        for src, dst in (
            ("method", "http.method"),
            ("client_ip", "http.client_ip"),
            ("user_agent", "http.user_agent"),
            ("url", "http.url"),
        ):
            if req.get(src) is not None:
                attrs[dst] = req[src]
    resp = http.get("response") or {}
    if resp.get("status") is not None:
        span["status_code"] = _status_from_http(int(resp["status"]))
        attrs["http.status_code"] = int(resp["status"])

    # cause.go:27-84 addCause
    span["n_exceptions"] = 0
    span["stack_trace"] = None
    cause = seg.get("cause")
    if cause is not None:
        if span["status_code"] == "unset":
            span["status_code"] = "error"
        if isinstance(cause, str):  # CauseTypeExceptionID
            span["status_message"] = cause
        else:
            excps = cause.get("exceptions", [])
            span["n_exceptions"] = len(excps)
            for excp in excps:
                if excp.get("stack"):
                    span["stack_trace"] = _stacktrace_str(excp)
                    break

    attrs.update(_annotation_attrs(seg.get("annotations")))
    # aws.go:69-78 addAWSToSpan (span-level subset)
    aws = seg.get("aws") or {}
    for src, dst in (
        ("account_id", "aws.account_id"),
        ("operation", "aws.operation"),
        ("request_id", "aws.request_id"),
        ("table_name", "aws.table_name"),
    ):
        if aws.get(src) is not None:
            attrs[dst] = aws[src]
    span["attrs"] = json.dumps(attrs, sort_keys=True)
    return span


def xray_segment_to_spans(seg: dict) -> list[dict]:
    """translator.go:83-120 segToSpans: flatten segment + subsegments
    depth-first (parent before children), propagating the root trace id
    and refining the parent's error status from its children."""

    def rec(s: dict, trace_id: str | None, parent_id: str | None, out: list) -> dict:
        span = _populate_span(s, trace_id, parent_id)
        out.append(span)
        for sub in s.get("subsegments", []) or []:
            child = rec(sub, trace_id, s.get("id"), out)
            if s.get("cause") is not None and child["status_code"] != "unset":
                # translator.go:104-117: parent already Error via
                # addCause; adopt the (possibly more specific) child code
                if span["status_code"] == "error":
                    span["status_code"] = child["status_code"]
        return span

    out: list[dict] = []
    rec(seg, seg.get("trace_id"), None, out)
    return out


class XRaySegmentDecoder:
    """Batch stage: a ``raw`` column of X-Ray segment JSON documents →
    one row per span (segment + flattened subsegments). Invalid
    documents are dropped and counted in ``_batch_dropped``."""

    SCHEMA = {
        "trace_id": pa.string(),
        "span_id": pa.string(),
        "parent_span_id": pa.string(),
        "name": pa.string(),
        "kind": pa.string(),
        "start_ns": pa.int64(),
        "end_ns": pa.int64(),
        "status_code": pa.string(),
        "status_message": pa.string(),
        "n_exceptions": pa.int64(),
        "stack_trace": pa.string(),
        "attrs": pa.string(),
    }

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        dropped = 0
        for raw in batch["raw"].to_pylist():
            try:
                seg = json.loads(raw)
                spans = xray_segment_to_spans(seg)
            except (ValueError, KeyError, TypeError):
                dropped += 1
                continue
            rows.extend(spans)
        cols = {
            c: pa.array([r.get(c) for r in rows], t) for c, t in self.SCHEMA.items()
        }
        cols["_batch_dropped"] = pa.array(np.full(len(rows), dropped, np.int64))
        return pa.table(cols)


# ------------------------------------------------------------ SignalFx

_WIRE_VARINT = 0
_WIRE_64BIT = 1
_WIRE_LEN = 2

SFX_GAUGE = 0
SFX_COUNTER = 1
SFX_ENUM = 2
SFX_CUMULATIVE_COUNTER = 3


def _varint(v: int) -> bytes:
    if v < 0:
        v += 1 << 64  # protobuf two's-complement int64
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _tag(field: int, wire: int) -> bytes:
    return _varint((field << 3) | wire)


def _len_delim(field: int, payload: bytes) -> bytes:
    return _tag(field, _WIRE_LEN) + _varint(len(payload)) + payload


def _encode_datum(value) -> bytes:
    # Datum: strValue=1, doubleValue=2, intValue=3
    if isinstance(value, bool):
        raise TypeError("bool datum unsupported")
    if isinstance(value, str):
        return _len_delim(1, value.encode())
    if isinstance(value, float):
        return _tag(2, _WIRE_64BIT) + struct.pack("<d", value)
    if isinstance(value, (int, np.integer)):
        return _tag(3, _WIRE_VARINT) + _varint(int(value))
    raise TypeError(f"unsupported datum {type(value)}")


def encode_datapoint(
    metric: str,
    value,
    *,
    timestamp_ms: int = 0,
    metric_type: int = SFX_GAUGE,
    dimensions: list[tuple[str, str]] | None = None,
) -> bytes:
    """Wire-encode one sfxpb.DataPoint (metric=2, timestamp=3, value=4,
    metricType=5, dimensions=6; no source=1)."""
    out = bytearray()
    out += _len_delim(2, metric.encode())
    if timestamp_ms:
        out += _tag(3, _WIRE_VARINT) + _varint(timestamp_ms)
    out += _len_delim(4, _encode_datum(value))
    if metric_type:
        out += _tag(5, _WIRE_VARINT) + _varint(metric_type)
    for k, v in dimensions or []:
        dim = _len_delim(1, k.encode()) + _len_delim(2, v.encode())
        out += _len_delim(6, dim)
    return bytes(out)


def encode_datapoint_upload(datapoints: list[bytes]) -> bytes:
    """DataPointUploadMessage: repeated DataPoint datapoints = 1."""
    out = bytearray()
    for dp in datapoints:
        out += _len_delim(1, dp)
    return bytes(out)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def _decode_fields(data: bytes):
    pos = 0
    while pos < len(data):
        key, pos = _read_varint(data, pos)
        field, wire = key >> 3, key & 7
        if wire == _WIRE_VARINT:
            val, pos = _read_varint(data, pos)
        elif wire == _WIRE_64BIT:
            val = data[pos : pos + 8]
            pos += 8
        elif wire == _WIRE_LEN:
            n, pos = _read_varint(data, pos)
            val = data[pos : pos + n]
            pos += n
        elif wire == 5:  # 32-bit
            val = data[pos : pos + 4]
            pos += 4
        else:
            raise ValueError(f"unsupported wire type {wire}")
        yield field, wire, val


def _decode_datum(data: bytes) -> dict:
    d: dict = {}
    for field, wire, val in _decode_fields(data):
        if field == 1:
            d["str"] = val.decode()
        elif field == 2:
            d["double"] = struct.unpack("<d", val)[0]
        elif field == 3:
            v = val if val < (1 << 63) else val - (1 << 64)
            d["int"] = v
    return d


def decode_datapoint_upload(data: bytes) -> list[dict]:
    """DataPointUploadMessage bytes → list of datapoint dicts
    (metric, source, timestamp_ms, metric_type, value{str,double,int},
    dimensions list — raw wire view, before pdata mapping)."""
    dps = []
    for field, _, val in _decode_fields(data):
        if field != 1:
            continue
        dp: dict = {"metric_type": SFX_GAUGE, "timestamp_ms": 0, "dimensions": []}
        for f2, _, v2 in _decode_fields(val):
            if f2 == 1:
                dp["source"] = v2.decode()
            elif f2 == 2:
                dp["metric"] = v2.decode()
            elif f2 == 3:
                dp["timestamp_ms"] = v2
            elif f2 == 4:
                dp["value"] = _decode_datum(v2)
            elif f2 == 5:
                dp["metric_type"] = v2
            elif f2 == 6:
                kv = {}
                for f3, _, v3 in _decode_fields(v2):
                    if f3 == 1:
                        kv["key"] = v3.decode()
                    elif f3 == 2:
                        kv["value"] = v3.decode()
                dp["dimensions"].append((kv.get("key"), kv.get("value")))
        dps.append(dp)
    return dps


def sfx_datapoints_to_rows(dps: list[dict]) -> tuple[list[dict], int]:
    """signalfxv2_to_metricdata.go:34-199: datapoint → metric mapping.
    Returns (rows, n_dropped). Drops: nil datum, str-only datum, ENUM /
    unknown metric types (the reference's default-case error)."""
    rows = []
    dropped = 0
    for dp in dps:
        datum = dp.get("value") or {}
        has_int = "int" in datum
        has_double = "double" in datum
        if not has_int and not has_double:
            dropped += 1  # errSFxNilDatum
            continue
        mt = dp.get("metric_type", SFX_GAUGE)
        if mt == SFX_GAUGE:
            dtype = "double_gauge" if has_double else "int_gauge"
            monotonic = False
        elif mt == SFX_COUNTER:
            dtype = "double_sum_delta" if has_double else "int_sum_delta"
            monotonic = True
        elif mt == SFX_CUMULATIVE_COUNTER:
            dtype = (
                "double_sum_cumulative" if has_double else "int_sum_cumulative"
            )
            monotonic = True
        else:
            dropped += 1  # "unknown data-point type" incl. ENUM
            continue
        labels: dict = {}
        for k, v in dp.get("dimensions", []):
            if k is not None and k not in labels:  # Insert: first wins
                labels[k] = v
        rows.append(
            {
                "metric": dp.get("metric"),
                "dtype": dtype,
                "monotonic": monotonic,
                "ts_ns": int(dp.get("timestamp_ms", 0)) * 1_000_000,
                "value_int": datum.get("int") if not has_double else None,
                "value_double": datum.get("double") if has_double else None,
                "labels": json.dumps(labels, sort_keys=True),
            }
        )
    return rows, dropped


class SignalFxDecoder:
    """Batch stage: a ``payload`` binary column of
    DataPointUploadMessage blobs → one row per accepted datapoint,
    with ``_batch_dropped`` carrying the per-batch drop count."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        dropped = 0
        for blob in batch["payload"].to_pylist():
            try:
                dps = decode_datapoint_upload(blob)
            except (ValueError, IndexError, struct.error):
                dropped += 1
                continue
            r, d = sfx_datapoints_to_rows(dps)
            rows.extend(r)
            dropped += d
        if rows:
            cols = {
                "metric": pa.array([r["metric"] for r in rows], pa.string()),
                "dtype": pa.array([r["dtype"] for r in rows], pa.string()),
                "monotonic": pa.array([r["monotonic"] for r in rows], pa.bool_()),
                "ts_ns": pa.array([r["ts_ns"] for r in rows], pa.int64()),
                "value_int": pa.array([r["value_int"] for r in rows], pa.int64()),
                "value_double": pa.array(
                    [r["value_double"] for r in rows], pa.float64()
                ),
                "labels": pa.array([r["labels"] for r in rows], pa.string()),
                "_batch_dropped": pa.array(
                    np.full(len(rows), dropped, np.int64)
                ),
            }
        else:
            cols = {
                "metric": pa.array([], pa.string()),
                "dtype": pa.array([], pa.string()),
                "monotonic": pa.array([], pa.bool_()),
                "ts_ns": pa.array([], pa.int64()),
                "value_int": pa.array([], pa.int64()),
                "value_double": pa.array([], pa.float64()),
                "labels": pa.array([], pa.string()),
                "_batch_dropped": pa.array([], pa.int64()),
            }
        return pa.table(cols)


# ---------------------------------------------------------------- SAPM

JAEGER_REF_CHILD_OF = 0
JAEGER_REF_FOLLOWS_FROM = 1

_JV_STRING = 0
_JV_BOOL = 1
_JV_INT64 = 2
_JV_FLOAT64 = 3
_JV_BINARY = 4

_SPAN_KIND_TAG_MAP = {
    "client": "client",
    "server": "server",
    "producer": "producer",
    "consumer": "consumer",
    "internal": "internal",
}


def _encode_jaeger_kv(key: str, value) -> bytes:
    """jaeger-idl model.proto KeyValue: key=1, v_type=2, v_str=3,
    v_bool=4, v_int64=5, v_float64=6, v_binary=7."""
    out = bytearray(_len_delim(1, key.encode()))
    if isinstance(value, bool):
        out += _tag(2, _WIRE_VARINT) + _varint(_JV_BOOL)
        if value:
            out += _tag(4, _WIRE_VARINT) + _varint(1)
    elif isinstance(value, str):
        out += _len_delim(3, value.encode())  # v_type STRING=0 (default)
    elif isinstance(value, (int, np.integer)):
        out += _tag(2, _WIRE_VARINT) + _varint(_JV_INT64)
        out += _tag(5, _WIRE_VARINT) + _varint(int(value))
    elif isinstance(value, float):
        out += _tag(2, _WIRE_VARINT) + _varint(_JV_FLOAT64)
        out += _tag(6, _WIRE_64BIT) + struct.pack("<d", value)
    elif isinstance(value, bytes):
        out += _tag(2, _WIRE_VARINT) + _varint(_JV_BINARY)
        out += _len_delim(7, value)
    else:
        raise TypeError(f"unsupported tag value {type(value)}")
    return bytes(out)


def _encode_pb_time(ns: int, field: int) -> bytes:
    """google.protobuf.Timestamp / Duration: seconds=1, nanos=2."""
    sec, nanos = divmod(int(ns), 1_000_000_000)
    payload = bytearray()
    if sec:
        payload += _tag(1, _WIRE_VARINT) + _varint(sec)
    if nanos:
        payload += _tag(2, _WIRE_VARINT) + _varint(nanos)
    return _len_delim(field, bytes(payload))


def encode_jaeger_span(
    trace_id: bytes,
    span_id: bytes,
    name: str,
    start_ns: int,
    duration_ns: int,
    *,
    tags: list[tuple] | None = None,
    references: list[tuple[bytes, bytes, int]] | None = None,
    logs: list[tuple[int, list[tuple]]] | None = None,
) -> bytes:
    """jaeger model.Span: trace_id=1, span_id=2, operation_name=3,
    references=4, start_time=6, duration=7, tags=8, logs=9 (flags=5
    stays unset)."""
    out = bytearray()
    out += _len_delim(1, trace_id)
    out += _len_delim(2, span_id)
    out += _len_delim(3, name.encode())
    for rt, rs, rtype in references or []:
        ref = bytearray(_len_delim(1, rt) + _len_delim(2, rs))
        if rtype:
            ref += _tag(3, _WIRE_VARINT) + _varint(rtype)
        out += _len_delim(4, bytes(ref))
    out += _encode_pb_time(start_ns, 6)
    out += _encode_pb_time(duration_ns, 7)
    for k, v in tags or []:
        out += _len_delim(8, _encode_jaeger_kv(k, v))
    for ts_ns, fields in logs or []:
        lg = bytearray(_encode_pb_time(ts_ns, 1))
        for k, v in fields:
            lg += _len_delim(2, _encode_jaeger_kv(k, v))
        out += _len_delim(9, bytes(lg))
    return bytes(out)


def encode_jaeger_batch(
    service_name: str,
    spans: list[bytes],
    process_tags: list[tuple] | None = None,
) -> bytes:
    """jaeger model.Batch: process=1 {service_name=1, tags=2}, spans=2."""
    proc = bytearray(_len_delim(1, service_name.encode()))
    for k, v in process_tags or []:
        proc += _len_delim(2, _encode_jaeger_kv(k, v))
    out = bytearray(_len_delim(1, bytes(proc)))
    for sp in spans:
        out += _len_delim(2, sp)
    return bytes(out)


def encode_sapm(batches: list[bytes], compress: bool = True) -> bytes:
    """sapm PostSpansRequest: repeated jaeger.Batch batches=1;
    gzip-wrapped like the SAPM HTTP body (trace_receiver.go:64-69)."""
    out = bytearray()
    for b in batches:
        out += _len_delim(1, b)
    raw = bytes(out)
    return gzip.compress(raw, mtime=0) if compress else raw


def _decode_varint_i64(v: int) -> int:
    return v - (1 << 64) if v >= (1 << 63) else v


def _decode_jaeger_kv(data: bytes) -> tuple[str | None, object]:
    key = None
    vtype = _JV_STRING
    vals: dict = {"str": "", "bool": False, "int": 0, "float": 0.0, "bin": b""}
    for field, _, val in _decode_fields(data):
        if field == 1:
            key = val.decode()
        elif field == 2:
            vtype = val
        elif field == 3:
            vals["str"] = val.decode()
        elif field == 4:
            vals["bool"] = bool(val)
        elif field == 5:
            vals["int"] = _decode_varint_i64(val)
        elif field == 6:
            vals["float"] = struct.unpack("<d", val)[0]
        elif field == 7:
            vals["bin"] = val
    if vtype == _JV_BOOL:
        return key, vals["bool"]
    if vtype == _JV_INT64:
        return key, vals["int"]
    if vtype == _JV_FLOAT64:
        return key, vals["float"]
    if vtype == _JV_BINARY:
        # public jaeger translator: binary tag → base64 string attr
        return key, base64.b64encode(vals["bin"]).decode()
    return key, vals["str"]


def _decode_pb_time(data: bytes) -> int:
    sec = nanos = 0
    for field, _, val in _decode_fields(data):
        if field == 1:
            sec = _decode_varint_i64(val)
        elif field == 2:
            nanos = _decode_varint_i64(val)
    return sec * 1_000_000_000 + nanos


def decode_sapm(data: bytes) -> list[dict]:
    """PostSpansRequest bytes (gzipped or raw) → list of batch dicts
    {service_name, process_tags, spans:[span dict]} — raw wire view."""
    if data[:2] == b"\x1f\x8b":  # sapmprotocol: Content-Encoding gzip
        data = gzip.decompress(data)
    batches = []
    for field, _, val in _decode_fields(data):
        if field != 1:
            continue
        batch: dict = {"service_name": "", "process_tags": [], "spans": []}
        for f2, _, v2 in _decode_fields(val):
            if f2 == 1:
                for f3, _, v3 in _decode_fields(v2):
                    if f3 == 1:
                        batch["service_name"] = v3.decode()
                    elif f3 == 2:
                        batch["process_tags"].append(_decode_jaeger_kv(v3))
            elif f2 == 2:
                span: dict = {
                    "trace_id": b"",
                    "span_id": b"",
                    "name": "",
                    "references": [],
                    "flags": 0,
                    "start_ns": 0,
                    "duration_ns": 0,
                    "tags": [],
                    "logs": [],
                }
                for f3, _, v3 in _decode_fields(v2):
                    if f3 == 1:
                        span["trace_id"] = v3
                    elif f3 == 2:
                        span["span_id"] = v3
                    elif f3 == 3:
                        span["name"] = v3.decode()
                    elif f3 == 4:
                        ref = {"trace_id": b"", "span_id": b"", "ref_type": 0}
                        for f4, _, v4 in _decode_fields(v3):
                            if f4 == 1:
                                ref["trace_id"] = v4
                            elif f4 == 2:
                                ref["span_id"] = v4
                            elif f4 == 3:
                                ref["ref_type"] = v4
                        span["references"].append(ref)
                    elif f3 == 5:
                        span["flags"] = v3
                    elif f3 == 6:
                        span["start_ns"] = _decode_pb_time(v3)
                    elif f3 == 7:
                        span["duration_ns"] = _decode_pb_time(v3)
                    elif f3 == 8:
                        span["tags"].append(_decode_jaeger_kv(v3))
                    elif f3 == 9:
                        log = {"ts_ns": 0, "fields": []}
                        for f4, _, v4 in _decode_fields(v3):
                            if f4 == 1:
                                log["ts_ns"] = _decode_pb_time(v4)
                            elif f4 == 2:
                                log["fields"].append(_decode_jaeger_kv(v4))
                        span["logs"].append(log)
                batch["spans"].append(span)
        batches.append(batch)
    return batches


def jaeger_batches_to_rows(batches: list[dict]) -> list[dict]:
    """Public OpenTelemetry jaeger→traces translation (the rules the
    reference delegates to via jaegertranslator.ProtoBatchesToInternal
    Traces, trace_receiver.go:78): Process.service_name →
    resource "service.name" + process tags → resource attrs; per span
    "span.kind" tag → kind, "otel.status_code"/"otel.status_description"
    → status (removed from attrs), else bool "error" tag → error status;
    first CHILD_OF reference → parent span id, remaining references →
    links; logs → events."""
    rows = []
    for batch in batches:
        res_attrs = {"service.name": batch["service_name"]}
        for k, v in batch["process_tags"]:
            if k is not None:
                res_attrs[k] = v
        res_json = json.dumps(res_attrs, sort_keys=True, default=str)
        for span in batch["spans"]:
            attrs = {k: v for k, v in span["tags"] if k is not None}
            kind = _SPAN_KIND_TAG_MAP.get(attrs.pop("span.kind", None), "unspecified")
            status_code = "unset"
            status_message = None
            if "otel.status_code" in attrs:
                sc = attrs.pop("otel.status_code")
                status_code = {
                    "OK": "ok", "ERROR": "error", "UNSET": "unset",
                    0: "unset", 1: "ok", 2: "error",
                }.get(sc, "unset")
                status_message = attrs.pop("otel.status_description", None)
            elif attrs.pop("error", False) is True:
                status_code = "error"
            parent = None
            n_links = 0
            for ref in span["references"]:
                if (
                    parent is None
                    and ref["ref_type"] == JAEGER_REF_CHILD_OF
                    and ref["trace_id"] == span["trace_id"]
                ):
                    parent = ref["span_id"].hex()
                else:
                    n_links += 1
            rows.append(
                {
                    "trace_id": span["trace_id"].hex(),
                    "span_id": span["span_id"].hex(),
                    "parent_span_id": parent,
                    "service_name": batch["service_name"],
                    "name": span["name"],
                    "kind": kind,
                    "start_ns": span["start_ns"],
                    "end_ns": span["start_ns"] + span["duration_ns"],
                    "status_code": status_code,
                    "status_message": status_message,
                    "n_links": n_links,
                    "n_events": len(span["logs"]),
                    "attrs": json.dumps(attrs, sort_keys=True, default=str),
                    "resource_attrs": res_json,
                }
            )
    return rows


class SapmDecoder:
    """Batch stage: a ``payload`` binary column of (optionally gzipped)
    SAPM PostSpansRequest blobs → one row per translated span, with
    ``_batch_dropped`` carrying the per-batch bad-payload count."""

    SCHEMA = {
        "trace_id": pa.string(),
        "span_id": pa.string(),
        "parent_span_id": pa.string(),
        "service_name": pa.string(),
        "name": pa.string(),
        "kind": pa.string(),
        "start_ns": pa.int64(),
        "end_ns": pa.int64(),
        "status_code": pa.string(),
        "status_message": pa.string(),
        "n_links": pa.int64(),
        "n_events": pa.int64(),
        "attrs": pa.string(),
        "resource_attrs": pa.string(),
    }

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        dropped = 0
        for blob in batch["payload"].to_pylist():
            try:
                rows.extend(jaeger_batches_to_rows(decode_sapm(blob)))
            except (ValueError, IndexError, struct.error, OSError, EOFError):
                dropped += 1
        cols = {
            c: pa.array([r.get(c) for r in rows], t) for c, t in self.SCHEMA.items()
        }
        cols["_batch_dropped"] = pa.array(np.full(len(rows), dropped, np.int64))
        return pa.table(cols)
