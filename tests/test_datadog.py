"""datadogexporter span/metric translation — ported reference semantics.

Golden tables ported from utils/trace_helpers_test.go,
translate_traces_test.go and metrics_translator_test.go.
"""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_span_parents import get_root

from opentelemetry_collector_contrib_ray.stages.datadog import (
    DEFAULT_SERVICE_NAME,
    DatadogMetricMapper,
    DatadogSpanTranslator,
    Denylister,
    apply_denylist,
    datadog_trace_translate,
    decode_apm_id_series,
    get_quantile_tag,
    hostname_from_attributes,
    mark_analyzed,
    normalize_service_name,
    normalize_span_name,
    normalize_span_name_series,
    normalize_tag,
    normalize_tag_series,
    running_metric,
    split_monotonic,
    tags_from_attributes,
    truncate_utf8,
)

# ---- trace_helpers_test.go:84-141 TestNormalizeTag ----
NORMALIZE_TAG_CASES = [
    ("#test_starting_hash", "test_starting_hash"),
    ("TestCAPSandSuch", "testcapsandsuch"),
    ("Test Conversion Of Weird !@#$%^&**() Characters", "test_conversion_of_weird_characters"),
    ("$#weird_starting", "weird_starting"),
    ("allowed:c0l0ns", "allowed:c0l0ns"),
    ("1love", "love"),
    ("ünicöde", "ünicöde"),
    ("ünicöde:metäl", "ünicöde:metäl"),
    ("Data🐨dog🐶 繋がっ⛰てて", "data_dog_繋がっ_てて"),
    (" spaces   ", "spaces"),
    (" #hashtag!@#spaces #__<>#  ", "hashtag_spaces"),
    (":testing", ":testing"),
    ("_foo", "foo"),
    (":::test", ":::test"),
    ("contiguous_____underscores", "contiguous_underscores"),
    ("foo_", "foo"),
    ("ſodd_ſcaseſ", "ſodd_ſcaseſ"),
    ("", ""),
    (" ", ""),
    ("ok", "ok"),
    ("™Ö™Ö™™Ö™", "ö_ö_ö"),
    ("AlsO:ök", "also:ök"),
    (":still_ok", ":still_ok"),
    ("___trim", "trim"),
    ("12.:trim@", ":trim"),
    ("12.:trim@@", ":trim"),
    ("fun:ky__tag/1", "fun:ky_tag/1"),
    ("fun:ky@tag/2", "fun:ky_tag/2"),
    ("fun:ky@@@tag/3", "fun:ky_tag/3"),
    ("tag:1/2.3", "tag:1/2.3"),
    ("---fun:k####y_ta@#g/1_@@#", "fun:k_y_ta_g/1"),
    ("AlsO:œ#@ö))œk", "also:œ_ö_œk"),
    ("a" * 888, "a" * 200),
    ("a" + "🐶" * 799 + "b", "a"),
    ("a�", "a"),
    ("a��", "a"),
    ("a��b", "a_b"),
]


@pytest.mark.parametrize("raw,want", NORMALIZE_TAG_CASES)
def test_normalize_tag(raw, want):
    assert normalize_tag(raw) == want


def test_normalize_tag_series_matches_scalar():
    vals = [c[0] for c in NORMALIZE_TAG_CASES]
    out = normalize_tag_series(pd.Series(vals))
    assert list(out) == [c[1] for c in NORMALIZE_TAG_CASES]


def test_normalize_span_name():
    # trace_helpers.go:45-115 semantics
    assert normalize_span_name("requests.SERVER") == "requests.server"
    assert normalize_span_name("9start-Letters") == "start_letters"
    assert normalize_span_name("9start-Letters", True) == "start-letters"
    assert normalize_span_name("__under__scores__") == "under_scores"
    assert normalize_span_name("!!!") == ""
    assert normalize_span_name("a" * 300) == "a" * 200
    assert normalize_span_name("Trailing_") == "trailing"
    s = normalize_span_name_series(
        pd.Series(["requests.SERVER", "9start-Letters", "__x__"]), False
    )
    assert list(s) == ["requests.server", "start_letters", "x"]


def test_normalize_service_name():
    assert normalize_service_name("") == DEFAULT_SERVICE_NAME
    assert normalize_service_name("!!!") == DEFAULT_SERVICE_NAME
    assert normalize_service_name("My Service") == "my_service"
    assert normalize_service_name("OTLPResourceNoServiceName") == "otlpresourcenoservicename"


def test_truncate_utf8():
    # trace_helpers_test.go:74-82
    assert truncate_utf8("", 5) == ""
    assert truncate_utf8("télé", 5) == "télé"
    assert truncate_utf8("télé", 2) == "t"
    assert truncate_utf8("ééééé", 5) == "éé"
    assert truncate_utf8("ééééé", 18) == "ééééé"
    assert truncate_utf8("ééééé", 10) == "ééééé"
    assert truncate_utf8("ééééé", 6) == "ééé"


def go_truncate_utf8(s: str, limit: int) -> str:
    """TruncateUTF8's per-rune loop (trace_helpers.go:181-195), the
    reference for ``truncate_utf8``: cut at the last rune start at or
    before ``limit`` once a rune starts past it."""
    b = s.encode("utf-8", errors="surrogatepass")
    if len(b) <= limit:
        return s
    last_valid = 0
    i = 0
    for ch in s:
        if i > limit:
            return s[: len(b[:last_valid].decode("utf-8", errors="surrogatepass"))]
        last_valid = i
        i += len(ch.encode("utf-8", errors="surrogatepass"))
    return s


# ASCII, 2-, 3- and 4-byte runes and lone surrogates (surrogatepass)
RUNES = st.one_of(st.sampled_from(["a", "é", "€", "𝄞", "\ud800", "\udfff"]), st.characters(exclude_categories=()))


@settings(max_examples=400, deadline=None)
@given(st.text(RUNES, max_size=24), st.integers(0, 80))
def test_truncate_utf8_matches_the_rune_loop(s, limit):
    assert truncate_utf8(s, limit) == go_truncate_utf8(s, limit)


def test_decode_apm_id():
    # translate_traces.go:457-474: last 16 hex chars → uint64; bad → 0
    s = pd.Series(["72df520af2bde7a5160ee4e3e17a4c1e", "160ee4e3e17a4c1e", "zz", "", None])
    out = decode_apm_id_series(s)
    assert out[0] == out[1] == int("160ee4e3e17a4c1e", 16)
    assert out[2] == 0 and out[3] == 0 and out[4] == 0


def _spans(rows):
    df = pd.DataFrame(rows)
    for c in ("trace_id", "span_id", "parent_span_id", "name", "kind",
              "status_code", "status_message", "start_ns", "end_ns"):
        if c not in df.columns:
            df[c] = None
    return pa.Table.from_pandas(df, preserve_index=False)


def _meta(row) -> dict:
    return dict(kv.split("=", 1) for kv in row["meta"].split(";") if kv)


class TestSpanTranslator:
    def test_basic_span(self):
        # translate_traces_test.go:233-301 TestObfuscatedResource-ish basic
        tr = DatadogSpanTranslator(
            resource_attrs={"namespace": "kube-system"},
            instrumentation=("flash", "v1"),
        )
        t = tr(_spans([
            {"trace_id": "72df520af2bde7a5160ee4e3e17a4c1e",
             "span_id": "160ee4e3e17a4c1e", "parent_span_id": "0e3e17a4c1e60ee4",
             "name": "End-To-End Here", "kind": "server", "status_code": 0,
             "start_ns": 1_600_000_000_000_000_000,
             "end_ns": 1_600_000_001_000_000_000},
        ])).to_pandas()
        r = t.iloc[0]
        assert r["trace_id_u64"] == int("160ee4e3e17a4c1e", 16)
        assert r["span_id_u64"] == int("160ee4e3e17a4c1e", 16)
        assert r["parent_id_u64"] == int("0e3e17a4c1e60ee4", 16)
        assert r["dd_resource"] == "End-To-End Here"
        assert r["dd_name"] == "flash.server"  # il name + trimmed kind, normalized
        assert r["dd_type"] == "web"
        assert r["dd_error"] == 0
        assert r["dd_service"] == "otlpresourcenoservicename"
        assert r["duration_ns"] == 1_000_000_000
        m = _meta(r)
        assert m["namespace"] == "kube-system"
        assert m["otel.library.name"] == "flash"

    def test_error_and_http_fallbacks(self):
        tr = DatadogSpanTranslator(
            resource_attrs={"service.name": "test-resource-service-name",
                            "deployment.environment": "Test-Env",
                            "service.version": "test-version"},
            attr_cols=["http.status_code", "http.status_text"],
        )
        t = tr(_spans([
            # status error + message → error.msg from message
            {"trace_id": "aa" * 16, "span_id": "bb" * 8, "name": "n",
             "kind": "server", "status_code": 2, "status_message": "boom",
             "start_ns": 0, "end_ns": 10},
            # error, no message, http code+text → "404 Not Found", type default
            {"trace_id": "aa" * 16, "span_id": "cc" * 8, "name": "n",
             "kind": "server", "status_code": 2, "status_message": "",
             "http.status_code": 404, "http.status_text": "Not Found",
             "start_ns": 0, "end_ns": 10},
            # unset status but 501 → error (≥500)
            {"trace_id": "aa" * 16, "span_id": "dd" * 8, "name": "n",
             "kind": "server", "status_code": 0, "http.status_code": 501,
             "start_ns": 0, "end_ns": 10},
            # client 404 → error; server 404 (row above) handled; client 302 ok
            {"trace_id": "aa" * 16, "span_id": "ee" * 8, "name": "n",
             "kind": "client", "status_code": 0, "http.status_code": 404,
             "start_ns": 0, "end_ns": 10},
            {"trace_id": "aa" * 16, "span_id": "ff" * 8, "name": "n",
             "kind": "client", "status_code": 0, "http.status_code": 302,
             "start_ns": 0, "end_ns": 10},
        ])).to_pandas()
        assert list(t["dd_error"]) == [1, 1, 1, 1, 0]
        m0, m1 = _meta(t.iloc[0]), _meta(t.iloc[1])
        assert m0["error.msg"] == "boom" and m0["error.type"] == "error"
        assert m1["error.msg"] == "404 Not Found" and m1["error.type"] == "error"
        assert t.iloc[0]["env"] == "test-env"  # resource env normalized
        assert t.iloc[0]["dd_service"] == "test-resource-service-name"
        assert _meta(t.iloc[0])["version"] == "test-version"

    def test_exception_events_last_wins(self):
        evts = json.dumps([
            {"name": "exception", "time": 1,
             "attributes": {"exception.type": "E1", "exception.message": "m1",
                            "exception.stacktrace": "s1"}},
            {"name": "other", "time": 2, "attributes": {}},
            {"name": "exception", "time": 3,
             "attributes": {"exception.type": "E2", "exception.message": "m2",
                            "exception.stacktrace": "s2"}},
        ])
        tr = DatadogSpanTranslator()
        t = tr(_spans([
            {"trace_id": "aa" * 16, "span_id": "bb" * 8, "name": "n",
             "kind": "server", "status_code": 2, "events_json": evts,
             "start_ns": 0, "end_ns": 1},
        ])).to_pandas()
        m = _meta(t.iloc[0])
        assert m["error.type"] == "E2" and m["error.msg"] == "m2" and m["error.stack"] == "s2"
        assert '"name":"exception"' in m["events"]

    def test_resource_name_priority(self):
        tr = DatadogSpanTranslator(attr_cols=[
            "http.method", "http.route", "grpc.path", "messaging.operation",
            "messaging.destination", "rpc.method", "rpc.service"])
        t = tr(_spans([
            {"trace_id": "aa" * 16, "span_id": "01" * 8, "name": "fallback",
             "kind": "server", "http.method": "GET", "http.route": "/api"},
            {"trace_id": "aa" * 16, "span_id": "02" * 8, "name": "f",
             "kind": "server", "http.method": "POST", "grpc.path": "/pkg.Svc/M"},
            {"trace_id": "aa" * 16, "span_id": "03" * 8, "name": "f",
             "kind": "server", "http.method": "HEAD"},
            {"trace_id": "aa" * 16, "span_id": "04" * 8, "name": "f",
             "kind": "server", "messaging.operation": "send",
             "messaging.destination": "queue"},
            {"trace_id": "aa" * 16, "span_id": "05" * 8, "name": "f",
             "kind": "server", "rpc.method": "Call", "rpc.service": "Auth"},
            {"trace_id": "aa" * 16, "span_id": "06" * 8, "name": "plainname",
             "kind": "server"},
        ])).to_pandas()
        assert list(t["dd_resource"]) == [
            "GET /api", "POST /pkg.Svc/M", "HEAD", "send queue", "Call Auth",
            "plainname"]

    def test_type_inference_and_special_tags(self):
        tr = DatadogSpanTranslator(attr_cols=[
            "db.system", "span.type", "service.name", "peer.service",
            "analytics.event"])
        t = tr(_spans([
            {"trace_id": "aa" * 16, "span_id": "01" * 8, "name": "n",
             "kind": "client", "db.system": "redis"},
            {"trace_id": "aa" * 16, "span_id": "02" * 8, "name": "n",
             "kind": "client", "db.system": "mysql"},
            {"trace_id": "aa" * 16, "span_id": "03" * 8, "name": "n",
             "kind": "client"},
            {"trace_id": "aa" * 16, "span_id": "04" * 8, "name": "n",
             "kind": "producer"},
            # span.type attr overrides; service.name attr overrides service
            {"trace_id": "aa" * 16, "span_id": "05" * 8, "name": "n",
             "kind": "server", "span.type": "CustomType",
             "service.name": "Attr Svc"},
            # peer.service wins over resource service
            {"trace_id": "aa" * 16, "span_id": "06" * 8, "name": "n",
             "kind": "server", "peer.service": "peer-svc"},
            # analytics.event → event sample rate metric
            {"trace_id": "aa" * 16, "span_id": "07" * 8, "name": "n",
             "kind": "server", "analytics.event": "true"},
            {"trace_id": "aa" * 16, "span_id": "08" * 8, "name": "n",
             "kind": "server", "analytics.event": "false"},
        ])).to_pandas()
        assert list(t["dd_type"]) == [
            "cache", "db", "http", "custom", "customtype", "web", "web", "web"]
        assert t.iloc[4]["dd_service"] == "attr_svc"
        assert t.iloc[5]["dd_service"] == "peer-svc"
        assert t.iloc[6]["event_sample_rate"] == 1.0
        assert t.iloc[7]["event_sample_rate"] == 0.0
        assert "_dd1.sr.eausr=1.0" in t.iloc[6]["metrics_tags"]

    def test_container_tags_and_meta_truncation(self):
        tr = DatadogSpanTranslator(
            resource_attrs={"container.id": "c1", "k8s.pod.name": "p1",
                            "aws.ecs.task.arn": "arn:x"},
            attr_cols=["big"],
        )
        t = tr(_spans([
            {"trace_id": "aa" * 16, "span_id": "01" * 8, "name": "n",
             "kind": "server", "big": "M" * 6000},
        ])).to_pandas()
        m = _meta(t.iloc[0])
        assert m["_dd.tags.container"] == "container_id:c1,pod_name:p1,task_arn:arn:x"
        assert len(m["big"]) == 5000

    def test_service_and_version_cfg_fallbacks(self):
        # cfg.Service only when resource has none; cfg.Version only when unset
        tr = DatadogSpanTranslator(service="cfg-svc", version="cfg-ver")
        t = tr(_spans([
            {"trace_id": "aa" * 16, "span_id": "01" * 8, "name": "n",
             "kind": "server"},
        ])).to_pandas()
        assert t.iloc[0]["dd_service"] == "cfg-svc"
        assert _meta(t.iloc[0])["version"] == "cfg-ver"
        tr2 = DatadogSpanTranslator(
            resource_attrs={"service.name": "real", "service.version": "v9"},
            service="cfg-svc", version="cfg-ver",
        )
        t2 = tr2(_spans([
            {"trace_id": "aa" * 16, "span_id": "01" * 8, "name": "n",
             "kind": "server"},
        ])).to_pandas()
        assert t2.iloc[0]["dd_service"] == "real"
        assert _meta(t2.iloc[0])["version"] == "v9"

    def test_zero_end_time_and_tracestate(self):
        tr = DatadogSpanTranslator()
        t = tr(_spans([
            {"trace_id": "aa" * 16, "span_id": "01" * 8, "name": "n",
             "kind": "server", "start_ns": 100, "end_ns": 0,
             "trace_state": "k=v"},
        ])).to_pandas()
        assert t.iloc[0]["duration_ns"] == 0
        assert _meta(t.iloc[0])["w3c.tracestate"] == "k=v"

    def test_span_name_remap(self):
        tr = DatadogSpanTranslator(
            instrumentation=("requests", "1"),
            span_name_remappings={"requests.server": "web.request"},
        )
        t = tr(_spans([
            {"trace_id": "aa" * 16, "span_id": "01" * 8, "name": "n",
             "kind": "server"},
            {"trace_id": "aa" * 16, "span_id": "02" * 8, "name": "n",
             "kind": "client"},
        ])).to_pandas()
        assert list(t["dd_name"]) == ["web.request", "requests.client"]


class TestTraceLevel:
    def _df(self):
        # trace_helpers_test.go:29-70 GetRoot fixtures
        return pd.DataFrame({
            "trace_id_u64": np.array([1234] * 5, np.uint64),
            "span_id_u64": np.array([12341, 12342, 12343, 12344, 12345], np.uint64),
            "parent_id_u64": np.array([0, 12341, 12341, 12342, 12344], np.uint64),
            "dd_service": ["s1", "s1", "s1", "s2", "s2"],
            "dd_resource": ["r"] * 5,
            "event_sample_rate": [np.nan] * 5,
        })

    @staticmethod
    def _engine_root(d: pd.DataFrame) -> int:
        """The span id whose resource ``apply_denylist`` reads: the
        engine's GetRoot of the one trace ``d``."""
        d = d.assign(dd_resource=[f"r{s}" for s in d["span_id_u64"]])
        t = pa.Table.from_pandas(d, preserve_index=False)
        dropped = [s for s in d["span_id_u64"] if apply_denylist(t, Denylister([f"^r{s}$"])).num_rows == 0]
        assert len(dropped) == 1 and apply_denylist(t, Denylister(["^x"])).num_rows == len(d)
        return dropped[0]

    def test_get_root_complete_and_partial(self):
        d = self._df()
        assert d["span_id_u64"][get_root(d["parent_id_u64"], d["span_id_u64"])] == 12341
        assert self._engine_root(d) == 12341
        part = d.iloc[:3].assign(parent_id_u64=np.array([12340, 12341, 12342], np.uint64))
        assert part["span_id_u64"][get_root(part["parent_id_u64"], part["span_id_u64"])] == 12341
        assert self._engine_root(part) == 12341

    def test_mark_analyzed(self):
        def top(d):
            return mark_analyzed(pa.Table.from_pandas(d, preserve_index=False))["top_level"].to_pylist()

        # root top; children of same service not; 12344 parent in other
        # service → top ("local root"); 12345 same-service child → not
        assert top(self._df()) == [True, False, False, True, False]
        # extracted-by-metric child becomes analyzed
        d = self._df()
        d.loc[1, "event_sample_rate"] = 1.0
        assert top(d) == [True, True, False, True, False]

    def test_denylist_drops_by_root_resource(self):
        d = self._df()
        d["dd_resource"] = ["DENY-this", "x", "x", "x", "x"]
        t = pa.Table.from_pandas(d, preserve_index=False)
        assert apply_denylist(t, Denylister(["^DENY"])).num_rows == 0
        assert apply_denylist(t, Denylister(["^nomatch"])).num_rows == 5

    def test_distributed_pipeline_matches_local(self):
        import ray.data as rd

        rows = []
        for t in range(40):
            rows.append({"trace_id": f"{t:032x}", "span_id": f"{1000 + t:016x}",
                         "parent_span_id": None, "name": f"root{t % 7}",
                         "kind": "server", "status_code": 0,
                         "start_ns": 0, "end_ns": 5})
            rows.append({"trace_id": f"{t:032x}", "span_id": f"{2000 + t:016x}",
                         "parent_span_id": f"{1000 + t:016x}", "name": "child",
                         "kind": "client", "status_code": 0,
                         "start_ns": 0, "end_ns": 3})
        tr = DatadogSpanTranslator(resource_attrs={"service.name": "svc"})
        ds = rd.from_pandas(pd.DataFrame(rows)).repartition(8)
        out = datadog_trace_translate(ds, tr, denylist=["root3"], num_buckets=4).to_pandas()
        # traces with root name root3 (resource) dropped entirely
        dropped = {t for t in range(40) if t % 7 == 3}
        assert len(out) == (40 - len(dropped)) * 2
        assert out["top_level"].sum() == 40 - len(dropped)  # only roots top


class TestMetricMapper:
    def _table(self, rows):
        df = pd.DataFrame(rows)
        for c in ("name", "dtype", "temporality", "monotonic", "ts_ns",
                  "value", "count", "sum"):
            if c not in df.columns:
                df[c] = None
        return pa.Table.from_pandas(df, preserve_index=False)

    def test_gauge_routing_and_tags(self):
        mp = DatadogMetricMapper(label_cols=["shard"])
        t = mp(self._table([
            {"name": "g", "dtype": "int_gauge", "ts_ns": 2_000_000_000,
             "value": 5, "shard": "a"},
            {"name": "g", "dtype": "double_gauge", "ts_ns": 2_000_000_000,
             "value": 5.5, "shard": ""},  # empty label → n/a
            # delta monotonic sum → gauge (only cumulative+monotonic differs)
            {"name": "s", "dtype": "int_sum", "temporality": "delta",
             "monotonic": True, "ts_ns": 2_000_000_000, "value": 3, "shard": "b"},
            # cumulative non-monotonic → gauge
            {"name": "s2", "dtype": "double_sum", "temporality": "cumulative",
             "monotonic": False, "ts_ns": 2_000_000_000, "value": 4.0, "shard": "b"},
        ])).to_pandas()
        assert len(t) == 4 and set(t["dd_type"]) == {"gauge"}
        assert list(t["ts"]) == [2, 2, 2, 2]
        assert t.iloc[1]["tags"] == "shard:n/a"

    def test_histogram_and_buckets(self):
        mp = DatadogMetricMapper(buckets=True)
        t = mp(self._table([
            {"name": "h", "dtype": "histogram", "ts_ns": 1_000_000_000,
             "count": 20, "sum": 200.0, "bucket_counts": [2, 18]},
        ])).to_pandas()
        names = list(t["metric"])
        assert names[:2] == ["h.count", "h.sum"]
        per_bucket = t[t["metric"] == "h.count_per_bucket"]
        assert list(per_bucket["value"]) == [2.0, 18.0]
        assert list(per_bucket["tags"]) == ["bucket_idx:0", "bucket_idx:1"]

    def test_summary_and_quantile_tags(self):
        mp = DatadogMetricMapper(quantiles=True)
        t = mp(self._table([
            {"name": "q", "dtype": "summary", "ts_ns": 1_000_000_000,
             "count": 100, "sum": 10_000.0,
             "quantiles": [0.0, 0.5, 1.0], "quantile_values": [1.0, 2.0, 3.0]},
        ])).to_pandas()
        qt = t[t["metric"] == "q.quantile"]
        # metrics_translator.go:259-269 canonical quantile rendering
        assert list(qt["tags"]) == ["quantile:0", "quantile:0.5", "quantile:1.0"]
        assert get_quantile_tag(0.999) == "quantile:0.999"

    def test_namespace_prepend_and_host(self):
        mp = DatadogMetricMapper(resource_attrs={"host.name": "h1"})
        t = mp(self._table([
            {"name": "system.cpu", "dtype": "int_gauge", "ts_ns": 0, "value": 1},
            {"name": "process.mem", "dtype": "int_gauge", "ts_ns": 0, "value": 1},
            {"name": "app.x", "dtype": "int_gauge", "ts_ns": 0, "value": 1},
        ])).to_pandas()
        assert list(t["metric"]) == ["otel.system.cpu", "otel.process.mem", "app.x"]
        assert set(t["host"]) == {"h1"}

    def test_split_monotonic(self):
        import ray.data as rd

        df = pd.DataFrame([
            {"name": "a", "dtype": "int_sum", "temporality": "cumulative",
             "monotonic": True, "ts_ns": 0, "value": 1.0},
            {"name": "b", "dtype": "int_sum", "temporality": "delta",
             "monotonic": True, "ts_ns": 0, "value": 1.0},
            {"name": "c", "dtype": "int_gauge", "temporality": "",
             "monotonic": False, "ts_ns": 0, "value": 1.0},
        ])
        gauge, mono = split_monotonic(rd.from_pandas(df))
        assert sorted(gauge.to_pandas()["name"]) == ["b", "c"]
        assert list(mono.to_pandas()["name"]) == ["a"]

    def test_running_metric(self):
        rm = running_metric("traces", ["h1", "h2"], 3_000_000_000, version="1.0")
        assert list(rm["metric"]) == ["otel.datadog_exporter.traces.running"] * 2
        assert list(rm["value"]) == [1.0, 1.0]
        assert set(rm["tags"]) == {"version:1.0"}


def test_tags_from_attributes():
    # attributes_test.go semantics: conventions + k8s + first process attr
    tags = tags_from_attributes({
        "deployment.environment": "prod",
        "service.name": "svc",
        "k8s.pod.name": "pod1",
        "app.kubernetes.io/name": "app1",
        "process.executable.name": "otelcol",
        "process.command_line": "otelcol --config",
        "os.type": "LINUX",
        "unmapped.attr": "x",
    })
    assert tags == [
        "env:prod", "service:svc", "pod_name:pod1", "kube_app_name:app1",
        "process.executable.name:otelcol", "os.type:LINUX"]


def test_hostname_chain():
    # metadata/host.go:87-136
    assert hostname_from_attributes({"datadog.host.name": "dd", "host.name": "x"}) == "dd"
    assert hostname_from_attributes({"k8s.node.name": "n", "k8s.cluster.name": "c"}) == "n-c"
    assert hostname_from_attributes({"k8s.node.name": "n"}) == "n"
    # azure MC_<rg>_<cluster>_<region> cluster parse
    assert hostname_from_attributes({
        "k8s.node.name": "n", "cloud.provider": "azure",
        "azure.resourcegroup.name": "MC_rg_mycluster_westus"}) == "n-mycluster"
    # ec2: default-prefixed host.name skipped → host.id
    assert hostname_from_attributes({
        "cloud.provider": "aws", "host.name": "ip-10-0-0-1",
        "host.id": "i-abc"}) == "i-abc"
    assert hostname_from_attributes({
        "cloud.provider": "aws", "host.name": "custom"}) == "custom"
    assert hostname_from_attributes({"host.id": "hid", "host.name": "hn"}) == "hid"
    assert hostname_from_attributes({"host.name": "hn"}) == "hn"
    assert hostname_from_attributes({"container.id": "c"}) == "c"
    assert hostname_from_attributes({}) is None
