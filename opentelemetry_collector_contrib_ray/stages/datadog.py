"""datadogexporter span + metric translation (the last exporter family).

Reference semantics re-expressed Ray-Data-first:

- **span translation** — ``exporter/datadogexporter/translate_traces.go:67-659``:
  OTLP spans → Datadog APM spans (uint64 id decode, operation-name
  normalization, resource-name inference, service-name precedence,
  span-type inference, error propagation from status/http/events,
  version tag rules, container tags, tag truncation) plus the
  trace-level steps (root lookup, denylist drop, analyzed/top-level
  span extraction — ``utils/trace_helpers.go:139-175``, ``model.go:45-74``,
  ``denylister.go:27-45``).
- **tag/name normalizers** — ``utils/trace_helpers.go:45-311``
  (NormalizeSpanName / NormalizeServiceName / NormalizeTag /
  NormalizeSpanKind / TruncateUTF8): exact scalar ports with
  regex-vectorized fast paths for ASCII batches.
- **metric translation** — ``metrics_translator.go:36-374`` +
  ``metrics/utils.go`` + ``attributes/attributes.go``: gauge routing,
  histogram count/sum (+opt-in per-bucket), summary count/sum (+opt-in
  quantile tags with OpenMetrics-canonical float rendering), label →
  tag mapping with the ``n/a`` empty-value rule, resource-attribute
  tags, the hostname resolution chain (``metadata/host.go:72-136``,
  ``metadata/ec2/ec2.go:39-103``, azure/gcp fallbacks), the ``otel.``
  namespace prepend (``metrics/utils.go:96-118``) and the per-host
  running metric. The **monotonic cumulative → delta** half is the
  already-implemented ``stages/aggregate.delta_convert`` path
  (``metrics_translator.go:106-179``) — ``route_monotonic`` below
  just splits the stream.

Execution shape: row-local translation is one vectorized
``map_batches`` pass; the per-TRACE steps (root/denylist/top-level)
run per bucket of one ``hash(trace_id)`` shuffle, over every trace of
the bucket at once (``aggregate.span_parents``), never one Ray group
or one Python call per trace.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._util import table_from_pandas
from .aggregate import keyed_apply, span_parents

MAX_TAG_LENGTH = 200  # utils/trace_helpers.go:29
MAX_META_VAL_LEN = 5000  # translate_traces.go:60
DEFAULT_SERVICE_NAME = "unnamed-otel-service"  # trace_helpers.go:32
RESOURCE_NO_SERVICE_NAME = "OTLPResourceNoServiceName"  # core tracetranslator
FALLBACK_HOST = "unknown-hostname"  # host when no resource attribute names one
KEY_SAMPLING_PRIORITY = "_sampling_priority_v1"  # translate_traces.go:40
EVENT_SAMPLE_RATE = "_dd1.sr.eausr"  # dd-trace-go ext.EventSampleRate
TAG_CONTAINERS = "_dd.tags.container"  # translate_traces.go:63
W3C_TRACESTATE = "w3c.tracestate"

# ---------------------------------------------------------------------------
# normalizers (utils/trace_helpers.go) — exact scalar ports
# ---------------------------------------------------------------------------


def _go_lower_rune(c: str) -> str:
    """Go unicode.ToLower for one rune (1:1 mapping; no full folding)."""
    if "A" <= c <= "Z":
        return chr(ord(c) + 32)
    low = c.lower()
    # Go maps rune→rune; python full-folds (e.g. 'İ' → 'i̇') — take the
    # base rune, matching unicode.ToLower
    return low[0] if low else c


def normalize_span_name(tag: str, is_service: bool = False) -> str:
    """trace_helpers.go:45-115 NormalizeSpanName: lowercase, bad chars →
    deduped underscores, leading non-alpha stripped, ≤200 chars,
    trailing underscore stripped; '-' kept only for service names."""
    buf: list[str] = []
    last_underscore = False
    i = 0  # byte offset, as Go's range-over-string index
    for ch in tag:
        if i > 2 * MAX_TAG_LENGTH:
            break
        if len(buf) >= MAX_TAG_LENGTH:
            break
        i += len(ch.encode("utf-8", errors="surrogatepass"))
        if "a" <= ch <= "z":
            buf.append(ch)
            last_underscore = False
            continue
        if "A" <= ch <= "Z":
            buf.append(chr(ord(ch) + 32))
            last_underscore = False
            continue
        c = _go_lower_rune(ch)
        if c.isalpha():
            buf.append(c)
            last_underscore = False
        elif not buf:
            continue  # chars that can't start the string are skipped
        elif c.isdigit() or c == ".":
            buf.append(c)
            last_underscore = False
        elif c == "-" and is_service:
            buf.append(c)
            last_underscore = False
        elif not last_underscore:
            buf.append("_")
            last_underscore = True
    if last_underscore:
        buf.pop()
    return "".join(buf)


def normalize_service_name(service: str) -> str:
    """trace_helpers.go:124-136: empty/unnormalizable → default name."""
    if not service:
        return DEFAULT_SERVICE_NAME
    s = normalize_span_name(service, True)
    return s or DEFAULT_SERVICE_NAME


def normalize_span_kind(kind) -> str:
    """trace_helpers.go:118-120: SPAN_KIND_ prefix trimmed from the
    pdata enum name; engine kinds are lowercase words."""
    k = (kind or "").upper()
    return k if k in ("SERVER", "CLIENT", "PRODUCER", "CONSUMER", "INTERNAL") else "UNSPECIFIED"


def truncate_utf8(s: str, limit: int) -> str:
    """trace_helpers.go:181-195 TruncateUTF8 (byte limit, whole runes):
    Go cuts at the last rune start at or before ``limit`` once a rune
    starts past it, so ``s`` is kept whole when only continuation bytes
    follow byte ``limit``."""
    b = s.encode("utf-8", errors="surrogatepass")
    if len(b) <= limit or all(0x80 <= c < 0xC0 for c in b[limit + 1 :]):
        return s
    cut = limit
    while cut and 0x80 <= b[cut] < 0xC0:
        cut -= 1
    return b[:cut].decode("utf-8", errors="surrogatepass")


def normalize_tag(v: str) -> str:
    """trace_helpers.go:200-311 NormalizeTag (the datadog-agent env/tag
    normalizer): lowercase; letters and ':' pass anywhere; digits and
    './/-' pass after the first letter/colon; anything before the first
    letter/colon is trimmed; an illegal-char run inside becomes ONE
    '_'; an illegal run that reaches the end is discarded; scan bails
    at 2×200 input bytes or 200 kept chars."""
    if not v:
        return ""
    out: list[str] = []
    chars = 0
    pending_cut = False
    i = 0  # byte offset of current rune
    for ch in v:
        jump = len(ch.encode("utf-8", errors="surrogatepass"))
        c = ch
        keep = False
        if ("a" <= c <= "z") or c == ":":
            keep = True
        elif "A" <= c <= "Z":
            c = chr(ord(c) + 32)
            keep = True
        else:
            if c.isupper():
                low = c.lower()
                if len(low) == 1 and len(low.encode("utf-8")) == jump:
                    c = low
            if c.isalpha():
                keep = True
            elif chars == 0:
                pass  # can't start the string → trim (no cut)
            elif c.isdigit() or c in "./-":
                keep = True
            else:
                pending_cut = True  # illegal char — merge into one cut
        if keep:
            if pending_cut:
                out.append("_")
                pending_cut = False
            out.append(c)
            chars += 1
        if i + jump >= 2 * MAX_TAG_LENGTH:
            break
        if chars >= MAX_TAG_LENGTH:
            break
        i += jump
    return "".join(out)  # a pending trailing cut is discarded


_ASCII_OK = re.compile(r"^[ -~]*$")


def _vector_normalize(s: pd.Series, scalar, fast) -> pd.Series:
    """Apply a regex fast path to short pure-ASCII values, the exact
    scalar port to the rest (batch columns are almost always ASCII)."""
    s = s.fillna("")
    mask = s.str.match(_ASCII_OK, na=False) & (s.str.len() <= MAX_TAG_LENGTH)
    out = pd.Series(np.empty(len(s), dtype=object), index=s.index)
    if mask.any():
        out[mask] = fast(s[mask])
    rest = ~mask
    if rest.any():
        out[rest] = s[rest].map(scalar)
    return out


def normalize_tag_series(s: pd.Series) -> pd.Series:
    def fast(x: pd.Series) -> pd.Series:
        x = x.str.lower()
        x = x.str.replace(r"^[^a-z:]+", "", regex=True)
        x = x.str.replace(r"[^a-z0-9:./-]+$", "", regex=True)
        return x.str.replace(r"[^a-z0-9:./-]+", "_", regex=True)

    return _vector_normalize(s, normalize_tag, fast)


def normalize_span_name_series(s: pd.Series, is_service: bool = False) -> pd.Series:
    allowed = "a-z0-9.\\-" if is_service else "a-z0-9."

    def fast(x: pd.Series) -> pd.Series:
        x = x.str.lower()
        x = x.str.replace(rf"[^{allowed}]+", "_", regex=True)
        x = x.str.replace(r"^[^a-z]+", "", regex=True)
        return x.str.replace(r"_$", "", regex=True)

    return _vector_normalize(s, lambda v: normalize_span_name(v, is_service), fast)


def normalize_service_name_series(s: pd.Series) -> pd.Series:
    out = normalize_span_name_series(s.fillna(""), True)
    return out.mask(out == "", DEFAULT_SERVICE_NAME)


# ---------------------------------------------------------------------------
# metric-side helpers (metrics/utils.go, attributes/, metadata/host.go)
# ---------------------------------------------------------------------------

# attributes/attributes.go:27-56 conventionsMapping
CONVENTIONS_MAPPING = {
    "deployment.environment": "env",
    "service.name": "service",
    "service.version": "version",
    "cloud.provider": "cloud_provider",
    "cloud.region": "region",
    "cloud.zone": "zone",
    "aws.ecs.task.family": "task_family",
    "aws.ecs.cluster.arn": "ecs_cluster_name",
    "aws.ecs.task.revision": "task_version",
    "k8s.pod.name": "pod_name",
    "k8s.deployment.name": "kube_deployment",
    "k8s.replicaset.name": "kube_replica_set",
    "k8s.statefulset.name": "kube_stateful_set",
    "k8s.daemonset.name": "kube_daemon_set",
    "k8s.job.name": "kube_job",
    "k8s.cronjob.name": "kube_cronjob",
}

# attributes/attributes.go:61-77 kubernetesMapping (incl. the reference's
# own 'kuberenetes' typo for the component label)
KUBERNETES_MAPPING = {
    "tags.datadoghq.com/env": "env",
    "tags.datadoghq.com/service": "service",
    "tags.datadoghq.com/version": "version",
    "app.kubernetes.io/name": "kube_app_name",
    "app.kubernetes.io/instance": "kube_app_instance",
    "app.kubernetes.io/version": "kube_app_version",
    "app.kuberenetes.io/component": "kube_app_component",
    "app.kubernetes.io/part-of": "kube_app_part_of",
    "app.kubernetes.io/managed-by": "kube_app_managed_by",
}

_PROCESS_PRIORITY = (  # attributes/process.go:32-55 first-available wins
    "process.executable.name",
    "process.executable.path",
    "process.command",
    "process.command_line",
)


def tags_from_attributes(attrs: dict) -> list[str]:
    """attributes/attributes.go:80-122 TagsFromAttributes over a plain
    dict (insertion order = pdata Range order)."""
    tags: list[str] = []
    for k, v in attrs.items():
        v = "" if v is None else str(v)
        dk = CONVENTIONS_MAPPING.get(k)
        if dk and v != "":
            tags.append(f"{dk}:{v}")
        dk = KUBERNETES_MAPPING.get(k)
        if dk and v != "":
            tags.append(f"{dk}:{v}")
    for k in _PROCESS_PRIORITY:
        if attrs.get(k):
            tags.append(f"{k}:{attrs[k]}")
            break
    if attrs.get("os.type"):
        tags.append(f"os.type:{attrs['os.type']}")
    return tags


_EC2_DEFAULT_PREFIXES = ("ip-", "domu", "ec2amaz-")  # metadata/ec2/ec2.go:28


def _cluster_name(attrs: dict) -> str | None:
    """metadata/host.go:72-85 getClusterName."""
    if attrs.get("k8s.cluster.name"):
        return str(attrs["k8s.cluster.name"])
    provider = attrs.get("cloud.provider")
    if provider == "azure":
        # metadata/azure/azure.go:56-65: MC_<...>_<cluster>_<region>
        rg = str(attrs.get("azure.resourcegroup.name", ""))
        parts = rg.split("_")
        if len(parts) >= 4 and parts[0].lower() == "mc":
            return parts[-2]
    elif provider == "aws":
        # metadata/ec2/ec2.go clusterTagPrefix
        for k in attrs:
            if k.startswith("ec2.tag.kubernetes.io/cluster/"):
                return k[len("ec2.tag.kubernetes.io/cluster/"):]
    return None


def hostname_from_attributes(attrs: dict) -> str | None:
    """metadata/host.go:87-136 HostnameFromAttributes resolution chain."""
    if attrs.get("datadog.host.name"):
        return str(attrs["datadog.host.name"])
    if attrs.get("k8s.node.name"):
        node = str(attrs["k8s.node.name"])
        cluster = _cluster_name(attrs)
        return f"{node}-{cluster}" if cluster else node
    provider = attrs.get("cloud.provider")
    if provider == "aws":
        hn = str(attrs.get("host.name", "") or "")
        if hn and not hn.startswith(_EC2_DEFAULT_PREFIXES):
            return hn
        if attrs.get("host.id"):
            return str(attrs["host.id"])
        return None
    if provider in ("gcp", "azure"):
        return str(attrs["host.name"]) if attrs.get("host.name") else None
    if attrs.get("host.id"):
        return str(attrs["host.id"])
    if attrs.get("host.name"):
        return str(attrs["host.name"])
    if attrs.get("container.id"):
        return str(attrs["container.id"])
    return None


def get_quantile_tag(q: float) -> str:
    """metrics_translator.go:259-269 getQuantileTag (OpenMetrics
    canonical numbers via the Go %g shortest float render)."""
    if q == 0:
        return "quantile:0"
    if q == 1.0:
        return "quantile:1.0"
    from .alibaba_sls import format_go_g

    return f"quantile:{format_go_g(q)}"


def add_namespace_series(names: pd.Series) -> pd.Series:
    """metrics/utils.go:96-118: prepend ``otel.`` to metric names that
    clash with Datadog Agent system checks (system./process. prefixes)."""
    clash = names.str.startswith("system.") | names.str.startswith("process.")
    return names.mask(clash, "otel." + names)


# ---------------------------------------------------------------------------
# span translation
# ---------------------------------------------------------------------------

_SPAN_KIND_TO_TYPE = {"server": "web"}  # + client handled with db.system


def decode_apm_id_series(hex_ids: pd.Series) -> np.ndarray:
    """translate_traces.go:457-474 decodeAPMId: parse the LAST 16 hex
    chars as uint64; invalid/empty → 0. Vectorized: right-slice then a
    base-16 conversion (errors → 0)."""
    s = hex_ids.fillna("").str.strip()
    tail = s.str.slice(-16)
    valid = tail.str.match(r"^[0-9a-fA-F]+$", na=False) & (tail.str.len() > 0)
    out = np.zeros(len(s), dtype=np.uint64)
    if valid.any():
        out[valid.to_numpy()] = np.array(
            [int(x, 16) for x in tail[valid]], dtype=np.uint64
        )
    return out


class Denylister:
    """denylister.go:27-59: regex list matched against the root span's
    Resource; a match drops the whole trace."""

    def __init__(self, exprs: Sequence[str]):
        self.patterns = [re.compile(e) for e in exprs or []]

    def allowed(self, resources: pa.Array) -> np.ndarray:
        """Per value: no pattern matches it (a null never matches);
        each distinct value is matched once."""
        enc = pc.dictionary_encode(resources, null_encoding="encode")
        words = enc.dictionary.to_pylist()
        ok = np.array([w is None or not any(p.search(w) for p in self.patterns) for w in words], bool)
        return ok[enc.indices.to_numpy(zero_copy_only=False)]


class DatadogSpanTranslator:
    """translate_traces.go:219-306 spanToDatadogSpan as one vectorized
    ``map_batches`` pass. Input columns: ``trace_id``/``span_id``/
    ``parent_span_id`` (hex strings), ``name``, ``kind`` (lowercase
    word), ``start_ns``/``end_ns`` (int64), ``status_code`` (0 unset /
    1 ok / 2 error), ``status_message``, optional ``trace_state``,
    optional ``events_json`` (JSON list of {name, time, attributes}),
    plus ``attr_cols`` (column name = span attribute key). Resource
    attributes and the instrumentation library are per-dataset
    constructor constants (the reference's per-ResourceSpans scope).

    Output adds: ``trace_id_u64``/``span_id_u64``/``parent_id_u64``,
    ``dd_name``, ``dd_resource``, ``dd_service``, ``dd_type``,
    ``dd_error``, ``duration_ns``, ``env``, ``hostname``, ``meta``
    (sorted ``k=v`` ';'-join), ``metrics_tags``, ``event_sample_rate``.
    """

    _SPECIAL_TAGS = ("service.name", "span.type", "analytics.event")

    def __init__(
        self,
        resource_attrs: dict | None = None,
        *,
        attr_cols: Sequence[str] = (),
        instrumentation: tuple[str, str] | None = None,
        service: str = "",
        version: str = "",
        span_name_remappings: dict | None = None,
    ):
        self.attr_cols = list(attr_cols)
        self.remap = span_name_remappings or {}
        self.cfg_service = service
        self.cfg_version = version
        res = dict(resource_attrs or {})
        # resourceToDatadogServiceNameAndAttributeMap (:308-337): the
        # service.name resource attr is CONSUMED into serviceName
        if res:
            self.resource_service = str(res.pop("service.name", "")) or RESOURCE_NO_SERVICE_NAME
        else:
            self.resource_service = RESOURCE_NO_SERVICE_NAME
        # :151-155 the resource env, else no env (no config env here)
        self.env = normalize_tag(str(res.get("deployment.environment") or ""))
        self.hostname = hostname_from_attributes(res) or FALLBACK_HOST
        if instrumentation:  # extractInstrumentationLibraryTags :339-346
            name, ver = instrumentation
            if name:
                res["otel.library.name"] = name
            if ver:
                res["otel.library.version"] = ver
        self.il_name = res.get("otel.library.name") or res.get(
            "otel.instrumentation_library.name"
        )
        # aggregateSpanTags (:348-365): resource tags with normalized keys
        self.resource_tags = {normalize_tag(k): str(v) for k, v in res.items()}

    # -- helpers ------------------------------------------------------

    def _col(self, df: pd.DataFrame, name: str) -> pd.Series:
        if name in df.columns:
            return df[name]
        return pd.Series([None] * len(df), index=df.index, dtype=object)

    def _str(self, df: pd.DataFrame, name: str) -> pd.Series:
        return self._col(df, name).fillna("").astype(str)

    def __call__(self, batch) -> pa.Table:
        df = batch.to_pandas() if isinstance(batch, pa.Table) else batch.copy()
        n = len(df)
        idx = df.index

        # --- per-span tag table: normalized attr keys, string values
        tags: dict[str, pd.Series] = {}
        present: dict[str, pd.Series] = {}
        for col in self.attr_cols:
            vals = self._col(df, col)
            mask = vals.notna()
            key = normalize_tag(col)
            tags[key] = vals.astype(object).where(mask, "")
            present[key] = mask
        for k, v in self.resource_tags.items():
            if k in tags:  # span-level attr wins (dict update order :353-360)
                tags[k] = tags[k].where(present[k], v)
                present[k] = present[k] | True
            else:
                tags[k] = pd.Series([v] * n, index=idx, dtype=object)
                present[k] = pd.Series(True, index=idx)

        def tag(key: str) -> pd.Series:
            return tags.get(key, pd.Series([""] * n, index=idx, dtype=object)).astype(str)

        def has(key: str) -> pd.Series:
            return present.get(key, pd.Series(False, index=idx))

        # _dd.tags.container (:369-384)
        frag = []
        for attr, label in (
            ("container.id", "container_id"),
            ("k8s.pod.name", "pod_name"),
            ("aws.ecs.task.arn", "task_arn"),
        ):
            frag.append((label + ":" + tag(attr) + ",").where(has(attr), ""))
        container = (frag[0] + frag[1] + frag[2]).str.rstrip(",")
        tags[TAG_CONTAINERS] = container
        present[TAG_CONTAINERS] = pd.Series(True, index=idx)

        # --- service precedence (:230-242)
        service = pd.Series([self.resource_service] * n, index=idx, dtype=object)
        if self.cfg_service and self.resource_service in ("", RESOURCE_NO_SERVICE_NAME):
            service[:] = self.cfg_service
        peer = has("peer.service")
        service = service.mask(peer, tag("peer.service"))
        service = normalize_service_name_series(service)

        # --- version tag (:245-254)
        ver = tag("service.version").where(has("service.version"), "")
        cur_version = tag("version").where(has("version"), "")
        new_version = cur_version.mask(ver != "", ver)
        if self.cfg_version:
            new_version = new_version.mask(new_version == "", self.cfg_version)
        vmask = new_version != ""
        tags["version"] = new_version
        present["version"] = vmask

        # --- tracestate (:257-259) and events (:262-264,637-649)
        ts_col = self._col(df, "trace_state")
        if ts_col.notna().any():
            tags[W3C_TRACESTATE] = ts_col.astype(object).where(ts_col.notna(), "")
            present[W3C_TRACESTATE] = ts_col.notna() & (ts_col.astype(str) != "")
        ev_raw = self._col(df, "events_json")
        exc_type = pd.Series([""] * n, index=idx, dtype=object)
        exc_msg = pd.Series([""] * n, index=idx, dtype=object)
        exc_stack = pd.Series([""] * n, index=idx, dtype=object)
        ev_tag = pd.Series([""] * n, index=idx, dtype=object)
        ev_mask = ev_raw.notna() & (ev_raw.astype(str) != "")
        if ev_mask.any():
            for i in idx[ev_mask]:
                evts = json.loads(ev_raw.at[i])
                # eventsToString: Go json.Marshal sorts map keys
                ev_tag.at[i] = json.dumps(
                    [
                        {
                            "attributes": e.get("attributes", {}),
                            "name": e.get("name", ""),
                            "time": e.get("time", 0),
                        }
                        for e in evts
                    ],
                    sort_keys=True,
                    separators=(",", ":"),
                )
                # extractErrorTagsFromEvents (:607-625): LAST exception wins
                for e in reversed(evts):
                    if e.get("name") == "exception":
                        a = e.get("attributes", {})
                        exc_type.at[i] = a.get("exception.type", "")
                        exc_msg.at[i] = a.get("exception.message", "")
                        exc_stack.at[i] = a.get("exception.stacktrace", "")
                        break
            tags[normalize_tag("events")] = ev_tag
            present["events"] = ev_mask

        # --- duration (:267-274)
        start = pd.to_numeric(self._col(df, "start_ns"), errors="coerce").fillna(0).astype(np.int64)
        end = pd.to_numeric(self._col(df, "end_ns"), errors="coerce").fillna(0).astype(np.int64)
        duration = (end - start).where(end != 0, 0)

        # --- error + error tags (getSpanErrorAndSetTags :537-592)
        status_code = pd.to_numeric(self._col(df, "status_code"), errors="coerce").fillna(0).astype(np.int64)
        status_msg = self._str(df, "status_message")
        is_error = (status_code == 2).to_numpy()
        kind = self._str(df, "kind").str.lower()
        http_status = pd.to_numeric(tag("http.status_code"), errors="coerce")
        http_text = tag("http.status_text").where(has("http.status_text"), "")

        err = pd.Series(is_error, index=idx)
        etype = exc_type.where(err, "")
        emsg = exc_msg.where(err, "")
        estack = exc_stack.where(err, "")
        no_msg = err & (emsg == "")
        emsg = emsg.mask(no_msg & (status_msg != ""), status_msg)
        http_fallback = no_msg & (status_msg == "") & http_status.notna()
        code_str = http_status.dropna().astype(np.int64).astype(str).reindex(idx, fill_value="")
        emsg = emsg.mask(http_fallback & (http_text != ""), code_str + " " + http_text)
        emsg = emsg.mask(http_fallback & (http_text == ""), code_str)
        etype = etype.mask(no_msg & (etype == "") & (emsg != ""), "error")
        # http status overrides (:578-589)
        http_err = http_status.notna() & (
            (http_status >= 500) | ((kind == "client") & (http_status >= 400))
        )
        dd_error = (err | http_err).astype(np.int32)
        for key, series in (("error.type", etype), ("error.msg", emsg), ("error.stack", estack)):
            m = series != ""
            if m.any():
                tags[key] = series
                present[key] = m

        # --- resource name (getDatadogResourceName :498-535)
        name = self._str(df, "name")
        resource = name.copy()
        rpc = has("rpc.method")
        resource = resource.mask(rpc, tag("rpc.method"))
        resource = resource.mask(rpc & has("rpc.service"), tag("rpc.method") + " " + tag("rpc.service"))
        msg = has("messaging.operation")
        resource = resource.mask(msg, tag("messaging.operation"))
        resource = resource.mask(
            msg & has("messaging.destination"),
            tag("messaging.operation") + " " + tag("messaging.destination"),
        )
        http = has("http.method")
        resource = resource.mask(http, tag("http.method"))
        resource = resource.mask(http & has("grpc.path"), tag("http.method") + " " + tag("grpc.path"))
        resource = resource.mask(http & has("http.route"), tag("http.method") + " " + tag("http.route"))

        # --- operation name (getDatadogSpanName :476-496 + remap :653-659)
        il = self.il_name or "opentelemetry"
        kind_names = kind.map(normalize_span_kind)
        dd_name = normalize_span_name_series(il + "." + kind_names, False)
        if self.remap:
            dd_name = dd_name.map(lambda x: self.remap.get(x) or x)

        # --- type (inferDatadogType :395-412)
        db = tag("db.system").where(has("db.system"), "")
        dd_type = pd.Series(["custom"] * n, index=idx, dtype=object)
        dd_type = dd_type.mask(kind == "server", "web")
        is_client = kind == "client"
        dd_type = dd_type.mask(is_client, "http")
        dd_type = dd_type.mask(is_client & (db != ""), "db")
        dd_type = dd_type.mask(is_client & db.isin(("redis", "memcached")), "cache")

        # --- setStringTag special cases (:423-444)
        svc_attr = has("service.name")
        if svc_attr.any():
            service = service.mask(svc_attr, normalize_tag_series(tag("service.name")))
        type_attr = has("span.type")
        if type_attr.any():
            dd_type = dd_type.mask(type_attr, normalize_tag_series(tag("span.type")))
        analytics = has("analytics.event")
        rate = pd.Series(np.nan, index=idx)
        if analytics.any():
            rate = rate.mask(analytics & (tag("analytics.event") != "false"), 1.0)
            rate = rate.mask(analytics & (tag("analytics.event") == "false"), 0.0)
        metrics_tags = ("" + EVENT_SAMPLE_RATE + "=" + rate.map(
            lambda x: "" if np.isnan(x) else repr(float(x))
        )).where(analytics, "")

        # --- meta render: every tag except the special-cased keys,
        # values truncated at MaxMetaValLen, sorted keys, ';'-joined
        meta_keys = sorted(k for k in tags if k not in self._SPECIAL_TAGS)
        parts = []
        for k in meta_keys:
            v = tags[k].astype(str)
            too_long = v.str.len() > MAX_META_VAL_LEN
            if too_long.any():
                v = v.mask(too_long, v[too_long].map(lambda x: truncate_utf8(x, MAX_META_VAL_LEN)))
            parts.append((k + "=" + v + ";").where(present.get(k, v != ""), ""))
        meta = parts[0].str.cat(parts[1:]) if len(parts) > 1 else (parts[0] if parts else pd.Series([""] * n, index=idx))
        meta = meta.str.rstrip(";")

        out = pd.DataFrame(
            {
                "trace_id_u64": decode_apm_id_series(self._str(df, "trace_id")),
                "span_id_u64": decode_apm_id_series(self._str(df, "span_id")),
                "parent_id_u64": decode_apm_id_series(self._str(df, "parent_span_id")),
                "dd_name": dd_name,
                "dd_resource": resource,
                "dd_service": service,
                "dd_type": dd_type,
                "dd_error": dd_error,
                "start_ns": start,
                "duration_ns": duration.astype(np.int64),
                "env": self.env,
                "hostname": self.hostname,
                "meta": meta,
                "metrics_tags": metrics_tags,
                "event_sample_rate": rate,
            },
            index=idx,
        )
        return table_from_pandas(out.reset_index(drop=True))


def _parents(t: pa.Table) -> np.ndarray:
    """Each span's parent row in its trace (``span_parents``); parent
    id 0 means none."""
    has_parent = pc.not_equal(t["parent_id_u64"], 0).to_numpy(zero_copy_only=False)
    return span_parents(t["trace_id_u64"], t["span_id_u64"], t["parent_id_u64"], has_parent)


def mark_analyzed(t: pa.Table) -> pa.Table:
    """model.go:45-74 getAnalyzedSpans over whole traces: a span is
    top-level (analyzed) unless its parent exists in the same trace with
    the SAME service and the span was not extracted by the
    event-sample-rate metric (rate > 0)."""
    p = _parents(t)
    has_parent = p >= 0
    service = t["dd_service"]
    same_service = pc.equal(service, service.take(np.where(has_parent, p, 0)))
    extracted = pc.greater(t["event_sample_rate"], 0)
    inherits = pc.and_not(pc.fill_null(same_service, False), pc.fill_null(extracted, False))
    return t.append_column("top_level", pa.array(~(has_parent & inherits.to_numpy(zero_copy_only=False))))


def apply_denylist(t: pa.Table, denylister: Denylister) -> pa.Table:
    """resourceSpansToDatadogSpans :184-213: drop a whole trace when its
    ROOT span's Resource matches the denylist. The root is GetRoot's
    (utils/trace_helpers.go:139-175): the trace's last span without a
    parent, else its first span whose parent is absent, else its last
    span (Go's random-map fallback order made deterministic)."""
    if not denylister.patterns or t.num_rows == 0:
        return t
    p = _parents(t)
    trace = pc.dictionary_encode(t["trace_id_u64"].combine_chunks()).indices.to_numpy(zero_copy_only=False)
    k, row = trace.max() + 1, np.arange(t.num_rows)
    last_root, last = np.full(k, -1), np.full(k, -1)
    first_orphan = np.full(k, t.num_rows)
    np.maximum.at(last_root, trace[p == -1], row[p == -1])
    np.minimum.at(first_orphan, trace[p == -2], row[p == -2])
    np.maximum.at(last, trace, row)
    root = np.where(last_root >= 0, last_root, np.where(first_orphan < t.num_rows, first_orphan, last))
    allowed = denylister.allowed(t["dd_resource"].combine_chunks().take(root))
    return t.filter(pa.array(allowed[trace]))


def datadog_trace_translate(
    ds,
    translator: DatadogSpanTranslator,
    *,
    denylist: Sequence[str] = (),
    num_buckets: int | None = None,
):
    """Full trace pipeline: row-local translation (one streaming
    ``map_batches``) then the per-trace steps through ONE bucketed
    ``hash(trace_id)`` shuffle (traces co-locate per bucket; each bucket
    finds its parent rows with one ``span_parents`` call per step)."""
    blk = Denylister(denylist)
    translated = ds.map_batches(translator, batch_format="pyarrow")
    return keyed_apply(
        translated, "trace_id_u64", lambda t: mark_analyzed(apply_denylist(t, blk)), num_buckets=num_buckets
    )


# ---------------------------------------------------------------------------
# metric translation (metrics_translator.go)
# ---------------------------------------------------------------------------


def render_label_tags(df: pd.DataFrame, label_cols: Sequence[str]) -> pd.Series:
    """metrics_translator.go:37-48 getTags: ``k:v`` per label with the
    empty-value → ``n/a`` rule; ','-joined in label-column order."""
    if not label_cols:
        return pd.Series([""] * len(df), index=df.index, dtype=object)
    parts = []
    for c in label_cols:
        v = df[c].fillna("").astype(str)
        parts.append(c + ":" + v.mask(v == "", "n/a") + ",")
    out = parts[0].str.cat(parts[1:]) if len(parts) > 1 else parts[0]
    return out.str.rstrip(",")


class DatadogMetricMapper:
    """metrics_translator.go:301-374 mapMetrics, row-local half, as one
    vectorized ``map_batches`` expansion. Input columns: ``name``,
    ``dtype`` ∈ {int_gauge, double_gauge, int_sum, double_sum,
    int_histogram, histogram, summary}, ``temporality``
    (delta|cumulative), ``monotonic`` (bool), ``ts_ns``, ``value``,
    ``count``, ``sum``, optional ``bucket_counts`` (list),
    optional ``quantiles``/``quantile_values`` (lists), plus
    ``label_cols``. Output: one row per Datadog point — ``metric``,
    ``dd_type`` (gauge), ``ts`` (sec), ``value``, ``tags``, ``host``.

    Monotonic-cumulative sums (``send_monotonic``) are NOT handled
    here — they need cross-row state (:106-179) and route through
    ``stages/aggregate.delta_convert``; use ``split_monotonic`` to
    partition the stream. Per :336-346 a sum that is delta OR
    non-monotonic maps as a gauge.
    """

    def __init__(
        self,
        resource_attrs: dict | None = None,
        *,
        label_cols: Sequence[str] = (),
        buckets: bool = False,
        quantiles: bool = False,
    ):
        self.label_cols = list(label_cols)
        self.buckets = buckets
        self.quantiles = quantiles
        res = dict(resource_attrs or {})
        # :311-314 resource attribute tags (not already labels)
        self.attr_tags = ",".join(tags_from_attributes(res))
        self.host = hostname_from_attributes(res) or FALLBACK_HOST

    def _emit(self, names, ts, values, tags) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "metric": np.asarray(names, dtype=object),
                "dd_type": "gauge",
                "ts": np.asarray(ts, dtype=np.int64),
                "value": np.asarray(values, dtype=np.float64),
                "tags": np.asarray(tags, dtype=object),
            }
        )

    def __call__(self, batch) -> pa.Table:
        df = batch.to_pandas() if isinstance(batch, pa.Table) else batch
        base_tags = render_label_tags(df, self.label_cols)
        if self.attr_tags:
            base_tags = (base_tags + "," + self.attr_tags).str.lstrip(",")
        ts = (df["ts_ns"].fillna(0).astype(np.int64) // 1_000_000_000).to_numpy()
        dtype = df["dtype"].astype(str)
        name = df["name"].astype(str)
        outs = []

        # gauges + delta/non-monotonic sums → one gauge point (:72-96)
        mono = (
            df["monotonic"].map(lambda x: bool(x) if pd.notna(x) else False).to_numpy(dtype=bool)
            if "monotonic" in df.columns
            else np.zeros(len(df), bool)
        )
        cumulative = (df["temporality"] == "cumulative").to_numpy() if "temporality" in df.columns else np.zeros(len(df), bool)
        as_gauge = dtype.isin(("int_gauge", "double_gauge")).to_numpy() | (
            dtype.isin(("int_sum", "double_sum")).to_numpy() & ~(mono & cumulative)
        )
        if as_gauge.any():
            g = df[as_gauge]
            outs.append(
                self._emit(name[as_gauge], ts[as_gauge], g["value"].astype(np.float64), base_tags[as_gauge])
            )

        # histograms → .count/.sum gauges (+ per-bucket opt-in) (:194-253)
        hist = dtype.isin(("int_histogram", "histogram")).to_numpy()
        if hist.any():
            h = df[hist]
            htags = base_tags[hist]
            outs.append(self._emit(name[hist] + ".count", ts[hist], h["count"].astype(np.float64), htags))
            outs.append(self._emit(name[hist] + ".sum", ts[hist], h["sum"].astype(np.float64), htags))
            if self.buckets and "bucket_counts" in h.columns:
                # flatten one row per (point, bucket_idx) with numpy
                # repeats — no per-point Python loop
                lens = h["bucket_counts"].map(lambda x: 0 if x is None else len(x)).to_numpy(np.int64)
                if lens.sum():
                    rep = np.repeat(np.arange(len(h)), lens)
                    bidx = np.concatenate([np.arange(m) for m in lens if m]) if lens.sum() else np.empty(0, np.int64)
                    vals = np.concatenate([np.asarray(x, np.float64) for x in h["bucket_counts"] if x is not None and len(x)])
                    names_r = (name[hist].to_numpy(dtype=object)[rep] + ".count_per_bucket")
                    bt = htags.to_numpy(dtype=object)[rep]
                    sep = np.where(bt == "", "", ",")
                    tags_r = bt + sep + "bucket_idx:" + bidx.astype(str).astype(object)
                    outs.append(self._emit(names_r, ts[hist][rep], vals, tags_r))

        # summaries → .count/.sum (+ quantile tags opt-in) (:272-299)
        summ = (dtype == "summary").to_numpy()
        if summ.any():
            s = df[summ]
            stags = base_tags[summ]
            outs.append(self._emit(name[summ] + ".count", ts[summ], s["count"].astype(np.float64), stags))
            outs.append(self._emit(name[summ] + ".sum", ts[summ], s["sum"].astype(np.float64), stags))
            if self.quantiles and "quantiles" in s.columns:
                # flatten one row per (point, quantile) with numpy
                # repeats, mirroring the histogram-bucket kernel above;
                # zip semantics → per-row min(len(q), len(qv))
                qlens = s["quantiles"].map(lambda x: 0 if x is None else len(x)).to_numpy(np.int64)
                vlens = s["quantile_values"].map(lambda x: 0 if x is None else len(x)).to_numpy(np.int64)
                lens = np.minimum(qlens, vlens)
                if lens.sum():
                    rep = np.repeat(np.arange(len(s)), lens)
                    qflat = np.concatenate(
                        [np.asarray(x[:n], np.float64) for x, n in zip(s["quantiles"], lens) if n]
                    )
                    vflat = np.concatenate(
                        [np.asarray(x[:n], np.float64) for x, n in zip(s["quantile_values"], lens) if n]
                    )
                    names_r = name[summ].to_numpy(dtype=object)[rep] + ".quantile"
                    # get_quantile_tag once per DISTINCT quantile level
                    # (a handful), then gather — no per-point Python
                    uq, inv = np.unique(qflat, return_inverse=True)
                    utags = np.array([get_quantile_tag(float(q)) for q in uq], dtype=object)
                    bt = stags.to_numpy(dtype=object)[rep]
                    sep = np.where(bt == "", "", ",")
                    tags_r = bt + sep + utags[inv]
                    outs.append(self._emit(names_r, ts[summ][rep], vflat, tags_r))

        out = pd.concat(outs, ignore_index=True) if outs else self._emit([], [], [], [])
        # ProcessMetrics namespace prepend + host attach (:358-360)
        out["metric"] = add_namespace_series(out["metric"])
        out["host"] = self.host
        return table_from_pandas(out)


def split_monotonic(ds):
    """Partition a metric Dataset into the row-local gauge path and the
    stateful monotonic-cumulative path (:336-346 isCumulativeMonotonic
    routing): returns (gauge_ds, monotonic_ds). The monotonic half
    feeds ``stages/aggregate.delta_convert`` (already driver-checked as
    ``delta_conversion``)."""

    def is_mono(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(t["temporality"], "cumulative"),
            pc.fill_null(pc.cast(t["monotonic"], pa.bool_()), False),
        )
        m = pc.and_(m, pc.is_in(t["dtype"], value_set=pa.array(["int_sum", "double_sum"])))
        return t.append_column("_mono", m)

    tagged = ds.map_batches(is_mono, batch_format="pyarrow")
    gauge = tagged.filter(expr="_mono == False").drop_columns(["_mono"])
    mono = tagged.filter(expr="_mono == True").drop_columns(["_mono"])
    return gauge, mono


def running_metric(exporter_type: str, hosts: Sequence[str], ts_ns: int, *, version: str = "") -> pd.DataFrame:
    """metrics/utils.go:69-90 DefaultMetrics: one
    ``otel.datadog_exporter.<type>.running`` gauge per seen host, tagged
    ``version:<version>`` when a version is given (no command tag)."""
    t = "version:" + version if version else ""
    return pd.DataFrame(
        {
            "metric": [f"otel.datadog_exporter.{exporter_type}.running"] * len(hosts),
            "dd_type": "gauge",
            "ts": int(ts_ns // 1_000_000_000),
            "value": 1.0,
            "tags": t,
            "host": list(hosts),
        }
    )
