"""AWS X-Ray exporter translation: OTLP-style span rows → X-Ray segment
documents (SURVEY.md §2.6; the inverse of ``sources/traces.XRaySegmentDecoder``).

Reference semantics (cited per function):
- ``exporter/awsxrayexporter/translator/segment.go:82-201`` MakeSegment —
  segment/subsegment typing, name-selection priority chain, namespace,
  annotation/metadata split with indexed keys.
- ``translator/http.go:27-232`` makeHTTP — attribute partitioning and
  client/server URL reconstruction.
- ``translator/cause.go:30-492`` makeCause — error/fault/throttle from
  http.status_code, exception events → Cause objects, and the four
  language-specific stacktrace parsers (java / python / javascript /
  dotnet), including their malformed-line tolerances.
- ``translator/aws.go:39-275`` makeAws — EC2/ECS/Beanstalk/EKS metadata,
  log-group coupling, X-Ray SDK metadata.
- ``translator/service.go:24-37`` makeService, ``translator/sql.go:23-96``
  makeSQL, ``translator/segment.go:213-272`` determineAwsOrigin,
  ``:436-470`` fixSegmentName / fixAnnotationKey,
  ``:274-321`` convertToAmazonTraceID (28-day age / 5-min skew window).

Differences from the reference, by necessity:
- Exception/segment IDs are DETERMINISTIC (derived from the span id and a
  per-span counter) instead of ``rand.Read`` — required for resumable,
  retry-idempotent distributed runs; the reference only asserts NotEmpty.
- Span attributes arrive as a JSON object column; per the reference's
  ``map[string]string`` plumbing (http.go:104 ``value.StringVal()``),
  non-string span-attribute values coerce to "" downstream of makeHTTP,
  while RESOURCE attributes keep their types (segment.go:394-434).

The per-row Python loop is inherent (nested JSON documents out); all
columns enter/leave as Arrow.
"""

from __future__ import annotations

import hashlib
import json
import re
from urllib.parse import urlparse

import numpy as np
import pyarrow as pa

# segment.go:35-42
ORIGIN_EC2 = "AWS::EC2::Instance"
ORIGIN_ECS = "AWS::ECS::Container"
ORIGIN_ECS_EC2 = "AWS::ECS::EC2"
ORIGIN_ECS_FARGATE = "AWS::ECS::Fargate"
ORIGIN_EB = "AWS::ElasticBeanstalk::Environment"
ORIGIN_EKS = "AWS::EKS::Container"

# segment.go:45-55
_RE_INVALID_NAME = re.compile(r"[^ 0-9\w.:/%&#=+,\-@]", re.UNICODE)
_DEFAULT_SEGMENT_NAME = "span"
_MAX_SEGMENT_NAME_LEN = 200

_MAX_TRACE_AGE_SEC = 60 * 60 * 24 * 28  # segment.go:289
_MAX_TRACE_SKEW_SEC = 60 * 5  # segment.go:292

# translator conventions v0.27 (public OpenTelemetry semantic conventions)
_CONV = {
    "peer_service": "peer.service",
    "aws_service": "aws.service",
    "db_name": "db.name",
    "db_conn": "db.connection_string",
    "rpc_service": "rpc.service",
    "http_host": "http.host",
    "net_peer_name": "net.peer.name",
    "enduser_id": "enduser.id",
}

_SQL_SYSTEMS = {  # sql.go:69-96
    "db2", "derby", "hive", "mariadb", "mssql", "mysql", "oracle",
    "postgresql", "sqlite", "teradata", "other_sql",
}


def _str_val(v) -> str:
    """pdata AttributeValue.StringVal(): "" unless the value is a string."""
    return v if isinstance(v, str) else ""


def _int_val(v) -> int:
    """pdata AttributeValue.IntVal(): 0 unless the value is an int."""
    return int(v) if isinstance(v, (int, np.integer)) and not isinstance(v, bool) else 0


def _atoi(s: str) -> int:
    """strconv.Atoi with the Go error→0 convention used by the parsers."""
    try:
        return int(s)
    except (TypeError, ValueError):
        return 0


def det_id(seed: str, n: int) -> str:
    """Deterministic 8-byte hex id (replaces segment.go:204-211
    newSegmentID's rand.Read; see module docstring)."""
    return hashlib.blake2b(f"{seed}:{n}".encode(), digest_size=8).hexdigest()


def fix_segment_name(name: str) -> str:
    """segment.go:439-452."""
    name = _RE_INVALID_NAME.sub("", name)
    if len(name) > _MAX_SEGMENT_NAME_LEN:
        name = name[:_MAX_SEGMENT_NAME_LEN]
    elif not name:
        name = _DEFAULT_SEGMENT_NAME
    return name


def fix_annotation_key(key: str) -> str:
    """segment.go:457-470: keep [0-9A-Za-z], replace the rest with '_'."""
    return "".join(c if c.isascii() and c.isalnum() else "_" for c in key)


def convert_to_amazon_trace_id(trace_id_hex: str, epoch_now: float) -> str:
    """segment.go:285-321: 32-hex OTLP id → "1-{8hex epoch}-{24hex}" with
    the 28-day max-age / 5-minute max-skew validation."""
    raw = bytes.fromhex(trace_id_hex)
    if len(raw) != 16:
        raise ValueError("invalid trace id length")
    epoch = int.from_bytes(raw[0:4], "big")
    delta = int(epoch_now) - epoch
    if delta > _MAX_TRACE_AGE_SEC or delta < -_MAX_TRACE_SKEW_SEC:
        raise ValueError(f"invalid xray traceid: {trace_id_hex}")
    return f"1-{raw[0:4].hex()}-{raw[4:16].hex()}"


# ------------------------------------------------------------- makeHTTP

_URL_PART_KEYS = (
    "http.url", "http.scheme", "http.host", "http.target",
    "http.server_name",
)


def make_http(span: dict) -> tuple[dict, dict | None]:
    """http.go:27-125 makeHTTP: partition span attrs into (filtered
    strings, HTTPData). Response content length from span/event message
    attrs (http.go:127-151)."""
    attrs = span.get("attrs") or {}
    filtered: dict = {}
    if not attrs:
        return filtered, None
    request: dict = {}
    response: dict = {}
    url_parts: dict = {}
    has_http = False
    has_url_attrs = False

    for key, value in attrs.items():
        if key == "http.method":
            request["method"] = _str_val(value)
            has_http = True
        elif key == "http.client_ip":
            request["client_ip"] = _str_val(value)
            request["x_forwarded_for"] = True
            has_http = True
        elif key == "http.user_agent":
            request["user_agent"] = _str_val(value)
            has_http = True
        elif key == "http.status_code":
            response["status"] = _int_val(value)
            has_http = True
        elif key == "http.url":
            url_parts[key] = _str_val(value)
            has_http = True
            has_url_attrs = True
        elif key == "http.scheme":
            url_parts[key] = _str_val(value)
            has_http = True
        elif key == "http.host":
            url_parts[key] = _str_val(value)
            has_http = True
            has_url_attrs = True
        elif key == "http.target":
            url_parts[key] = _str_val(value)
            has_http = True
        elif key == "http.server_name":
            url_parts[key] = _str_val(value)
            has_http = True
            has_url_attrs = True
        elif key == "http.host_port":
            url_parts[key] = _str_val(value) or str(_int_val(value))
            has_http = True
        elif key == "host.name":
            url_parts[key] = _str_val(value)
            has_url_attrs = True
        elif key == "net.host.name":
            url_parts[key] = _str_val(value)
            has_url_attrs = True
        elif key == "net.peer.name":
            url_parts[key] = _str_val(value)
        elif key == "net.peer.port":
            url_parts[key] = _str_val(value) or str(_int_val(value))
        elif key == "net.peer.ip":
            # http.go:96-102: prefer http.client_ip when present
            if "client_ip" not in request:
                request["client_ip"] = _str_val(value)
            url_parts[key] = _str_val(value)
            has_url_attrs = True
        else:
            filtered[key] = _str_val(value)

    if not has_http:
        return filtered, None

    if has_url_attrs:
        if span.get("kind") == "server":
            request["url"] = _construct_server_url(url_parts)
        else:
            request["url"] = _construct_client_url(url_parts)

    response["content_length"] = _response_size(span)
    return filtered, {"request": request, "response": response}


def _response_size(span: dict) -> int:
    """http.go:127-151: message.uncompressed_size of a RECEIVED message,
    from span attrs first, then events."""

    def from_attrs(a: dict) -> int:
        if a.get("message.type") == "RECEIVED":
            return _int_val(a.get("message.uncompressed_size", 0))
        return 0

    size = from_attrs(span.get("attrs") or {})
    if size:
        return size
    for ev in span.get("events") or []:
        size = from_attrs(ev.get("attrs") or {})
        if size:
            return size
    return size


def _construct_client_url(url_parts: dict) -> str:
    """http.go:153-190."""
    if "http.url" in url_parts:
        return url_parts["http.url"]
    scheme = url_parts.get("http.scheme", "http")
    port = ""
    host = url_parts.get("http.host")
    if host is None:
        host = url_parts.get("net.peer.name")
        if host is None:
            host = url_parts.get("net.peer.ip", "")
        port = url_parts.get("net.peer.port", "")
    url = scheme + "://" + host
    if port and not (scheme == "http" and port == "80") and not (
        scheme == "https" and port == "443"
    ):
        url += ":" + port
    return url + url_parts.get("http.target", "/")


def _construct_server_url(url_parts: dict) -> str:
    """http.go:192-232."""
    if "http.url" in url_parts:
        return url_parts["http.url"]
    scheme = url_parts.get("http.scheme", "http")
    port = ""
    host = url_parts.get("http.host")
    if host is None:
        host = url_parts.get("http.server_name")
        if host is None:
            host = url_parts.get("net.host.name")
            if host is None:
                host = url_parts.get("host.name", "")
        port = url_parts.get("http.host_port", "")
    url = scheme + "://" + host
    if port and not (scheme == "http" and port == "80") and not (
        scheme == "https" and port == "443"
    ):
        url += ":" + port
    return url + url_parts.get("http.target", "/")


# ------------------------------------------------------------ makeCause


def make_cause(span: dict, attributes: dict, resource: dict, id_gen):
    """cause.go:30-140 makeCause → (is_error, is_fault, is_throttle,
    filtered, cause)."""
    if span.get("status_code") != "error":
        return False, False, False, attributes, None
    filtered = attributes
    cause = None

    events = span.get("events") or []
    exception_events = [e for e in events if e.get("name") == "exception"]
    if exception_events:
        language = _str_val((resource or {}).get("telemetry.sdk.language", ""))
        exceptions: list[dict] = []
        for ev in exception_events:
            ea = ev.get("attrs") or {}
            exceptions.extend(
                parse_exception(
                    _str_val(ea.get("exception.type", "")),
                    _str_val(ea.get("exception.message", "")),
                    _str_val(ea.get("exception.stacktrace", "")),
                    language,
                    id_gen,
                )
            )
        cause = {"exceptions": exceptions}
    else:
        # cause.go:86-118 OpenCensus-style fallback
        message = span.get("status_message") or ""
        filtered = {}
        for key, value in attributes.items():
            if key == "http.status_text":
                if not message:
                    message = value
            else:
                filtered[key] = value
        if message:
            cause = {
                "exceptions": [
                    {"id": id_gen(), "type": "", "message": message}
                ]
            }

    code = (span.get("attrs") or {}).get("http.status_code")
    if isinstance(code, (int, np.integer)) and not isinstance(code, bool):
        code = int(code)
        if 400 <= code <= 499:
            is_error, is_fault = True, False
            is_throttle = code == 429
        else:
            is_error, is_fault, is_throttle = False, True, False
    else:
        is_error, is_fault, is_throttle = False, True, False
    return is_error, is_fault, is_throttle, filtered, cause


def parse_exception(
    exception_type: str, message: str, stacktrace: str, language: str, id_gen=None
) -> list[dict]:
    """cause.go:142-166."""
    if id_gen is None:
        counter = iter(range(1 << 30))
        id_gen = lambda: det_id("exc", next(counter))  # noqa: E731
    exceptions = [{"id": id_gen(), "type": exception_type, "message": message}]
    if not stacktrace:
        return exceptions
    if language == "java":
        return _fill_java(stacktrace, exceptions, id_gen)
    if language == "python":
        return _fill_python(stacktrace, exceptions, id_gen)
    if language == "javascript":
        return _fill_javascript(stacktrace, exceptions)
    if language == "dotnet":
        return _fill_dotnet(stacktrace, exceptions)
    return exceptions


def _frame(path: str, label: str, line: int) -> dict:
    return {"path": path, "label": label, "line": line}


def _fill_java(stacktrace: str, exceptions: list[dict], id_gen) -> list[dict]:
    """cause.go:168-261 fillJavaStacktrace."""
    lines = stacktrace.splitlines()
    # skip first line (top-level exception/message)
    i = 1
    if i >= len(lines):
        return exceptions
    exception = exceptions[0]
    exception["stack"] = []
    line = lines[i]
    while True:
        if line.startswith("\tat "):
            paren = line.find("(")
            if paren >= 0 and line.endswith(")"):
                label = line[len("\tat "):paren]
                slash = label.find("/")
                if slash >= 0:  # class loader / module prefix
                    label = label[slash + 1:]
                path = line[paren + 1:-1]
                lineno = 0
                colon = path.find(":")
                if colon >= 0:
                    lineno = _atoi(path[colon + 1:])
                    path = path[:colon]
                exception["stack"].append(_frame(path, label, lineno))
        elif line.startswith("Caused by: "):
            cause_type = line[len("Caused by: "):]
            colon = cause_type.find(":")
            cause_message = ""
            if colon >= 0:
                cause_message = cause_type[colon + 2:]
                cause_type = cause_type[:colon]
            while True:  # peek for multiline messages (cause.go:219-233)
                i += 1
                if i >= len(lines):
                    line = None
                    break
                line = lines[i]
                if line.startswith("\tat ") and "(" in line and line.endswith(")"):
                    break
                cause_message += line
            new_exc = {
                "id": id_gen(),
                "type": cause_type,
                "message": cause_message,
                "stack": [],
            }
            exceptions.append(new_exc)
            exceptions[-2]["cause"] = new_exc["id"]
            exception["cause"] = new_exc["id"]
            exception = new_exc
            if line is None:
                break
            continue  # current line is already the next frame
        i += 1
        if i >= len(lines):
            break
        line = lines[i]
    return exceptions


def _fill_python(stacktrace: str, exceptions: list[dict], id_gen) -> list[dict]:
    """cause.go:263-357 fillPythonStacktrace (reversed read order)."""
    lines = stacktrace.split("\n")
    line_idx = len(lines) - 2  # skip last line (exception/message)
    if line_idx < 0:
        return exceptions
    line = lines[line_idx]
    exception = exceptions[0]
    exception["stack"] = []
    while True:
        if line.startswith("  File "):
            parts = line.split(",")
            if len(parts) == 3:
                file_part = parts[0]
                file = file_part[8:-1]
                lineno = 0
                if parts[1].startswith(" line "):
                    lineno = _atoi(parts[1][6:])
                label = ""
                if parts[2].startswith(" in "):
                    label = parts[2][4:]
                exception["stack"].append(_frame(file, label, lineno))
        elif line.startswith(
            "During handling of the above exception, another exception occurred:"
        ):
            next_file_idx = line_idx - 1
            while True:
                if next_file_idx < 0:
                    return exceptions  # malformed
                if lines[next_file_idx].startswith("  File "):
                    break
                next_file_idx -= 1
            message = "\n".join(lines[next_file_idx + 2:line_idx - 1])
            line_idx = next_file_idx
            colon = message.find(":")
            if colon < 0:
                return exceptions  # malformed
            new_exc = {
                "id": id_gen(),
                "type": message[:colon],
                "message": message[colon + 2:],
                "stack": [],
            }
            exceptions.append(new_exc)
            exceptions[-2]["cause"] = new_exc["id"]
            exception["cause"] = new_exc["id"]
            exception = new_exc
            line = lines[line_idx]
            continue
        line_idx -= 1
        if line_idx < 0:
            break
        line = lines[line_idx]
    return exceptions


def _index_of(s: str, c: str, pos: int) -> int:
    """cause.go:483-492."""
    if pos < 0:
        return -1
    idx = s.find(c, pos + 1)
    return idx


def _fill_javascript(stacktrace: str, exceptions: list[dict]) -> list[dict]:
    """cause.go:359-413 fillJavaScriptStacktrace."""
    lines = stacktrace.splitlines()
    i = 1
    if i >= len(lines):
        return exceptions
    exception = exceptions[0]
    exception["stack"] = []
    while i < len(lines):
        line = lines[i]
        if line.startswith("    at "):
            paren = line.find("(")
            label = ""
            path = ""
            lineno = 0
            if paren >= 0 and line.endswith(")"):
                label = line[7:paren]
                path = line[paren + 1:-1]
            elif paren < 0:
                path = line[7:]
            colon1 = path.find(":")
            colon2 = _index_of(path, ":", colon1)
            if colon1 >= 0 and colon2 >= 0 and colon1 != colon2:
                lineno = _atoi(path[colon1 + 1:colon2])
                path = path[:colon1]
            elif colon1 < 0 and "native" in path:
                path = "native"
            if path or label or lineno:
                exception["stack"].append(_frame(path, label, lineno))
        i += 1
    return exceptions


def _fill_dotnet(stacktrace: str, exceptions: list[dict]) -> list[dict]:
    """cause.go:415-480 fillDotnetStacktrace."""
    lines = stacktrace.splitlines()
    i = 1
    if i >= len(lines):
        return exceptions
    exception = exceptions[0]
    exception["stack"] = []
    while i < len(lines):
        line = lines[i]
        if line.startswith("\tat "):
            if " in " in line:
                parts = line.split(" in ")
                label = parts[0][len("\tat "):]
                path = parts[1]
                lineno = 0
                colon = parts[1].rfind(":")
                if colon >= 0:
                    line_str = path[colon + 1:]
                    if line_str.startswith("line"):
                        line_str = line_str[5:]
                    path = path[:colon]
                    lineno = _atoi(line_str)
                exception["stack"].append(_frame(path, label, lineno))
            else:
                idx = line.rfind(")")
                if idx >= 0:
                    label = line[len("\tat "):idx + 1]
                    exception["stack"].append(_frame("", label, 0))
        i += 1
    return exceptions


# -------------------------------------------------------------- makeAws

_ECS_ATTR = {  # aws.go:28-37
    "cluster_arn": "aws.ecs.cluster.arn",
    "container_arn": "aws.ecs.container.arn",
    "task_arn": "aws.ecs.task.arn",
    "task_family": "aws.ecs.task.family",
    "launch_type": "aws.ecs.launchtype",
}


def make_aws(attributes: dict, resource: dict) -> tuple[dict, dict | None]:
    """aws.go:39-246 makeAws → (filtered span attrs, AWSData or None)."""
    r = resource or {}
    cloud = _str_val(r.get("cloud.provider", ""))
    service = _str_val(r.get("cloud.platform", ""))
    account = _str_val(r.get("cloud.account.id", ""))
    zone = _str_val(r.get("cloud.availability_zone", ""))
    host_id = _str_val(r.get("host.id", ""))
    host_type = _str_val(r.get("host.type", ""))
    ami_id = _str_val(r.get("host.image.id", ""))
    container = _str_val(r.get("container.name", ""))
    pod_uid = _str_val(r.get("k8s.pod.name", ""))
    namespace = _str_val(r.get("service.namespace", ""))
    deploy_id = _str_val(r.get("service.instance.id", ""))
    version_label = _str_val(r.get("service.version", ""))
    sdk_name = _str_val(r.get("telemetry.sdk.name", ""))
    sdk_language = _str_val(r.get("telemetry.sdk.language", ""))
    sdk_version = _str_val(r.get("telemetry.sdk.version", ""))
    auto_version = _str_val(r.get("telemetry.auto.version", ""))
    container_id = _str_val(r.get("container.id", ""))
    cluster_name = _str_val(r.get("k8s.cluster.name", ""))
    ecs_meta = {k: _str_val(r.get(a, "")) for k, a in _ECS_ATTR.items()}
    log_groups = r.get("aws.log.group.names")
    log_group_arns = r.get("aws.log.group.arns")

    operation = remote_region = request_id = queue_url = table_name = ""
    filtered: dict = {}
    for key, value in attributes.items():
        if key == "aws.operation":
            operation = value
        elif key == "aws.account_id":
            if value:
                account = value
        elif key == "aws.region":
            remote_region = value
        elif key in ("aws.request_id", "aws.requestId"):
            request_id = value
        elif key in ("aws.queue_url", "aws.queue.url"):
            queue_url = value
        elif key in ("aws.table_name", "aws.table.name"):
            table_name = value
        else:
            filtered[key] = value

    if cloud not in ("aws", ""):
        return filtered, None  # not AWS

    ec2 = ecs = ebs = eks = None
    if service == "EC2" or host_id:
        ec2 = {
            "instance_id": host_id or None,
            "availability_zone": zone or None,
            "instance_size": host_type or None,
            "ami_id": ami_id or None,
        }
    if service == "ECS" or container:
        ecs = {
            "container": container or None,
            "container_id": container_id or None,
            "availability_zone": zone or None,
            "container_arn": ecs_meta["container_arn"] or None,
            "cluster_arn": ecs_meta["cluster_arn"] or None,
            "task_arn": ecs_meta["task_arn"] or None,
            "task_family": ecs_meta["task_family"] or None,
            "launch_type": ecs_meta["launch_type"] or None,
        }
    if deploy_id:
        ebs = {
            "environment_name": namespace or None,
            "deployment_id": _atoi(deploy_id),
            "version_label": version_label or None,
        }
    if cluster_name:
        eks = {
            "cluster_name": cluster_name or None,
            "pod": pod_uid or None,
            "container_id": container_id or None,
        }

    cwl = None  # aws.go:209-215: ARNs preferred, names derived from them
    if isinstance(log_group_arns, (list, tuple)) and log_group_arns:
        cwl = [
            {"log_group": _parse_log_group(str(a)), "arn": str(a)}
            for a in log_group_arns
        ]
    elif isinstance(log_groups, (list, tuple)) and log_groups:
        cwl = [{"log_group": str(g)} for g in log_groups]

    if sdk_name and sdk_language:
        sdk = sdk_name + " for " + sdk_language  # aws.go:217-223
    else:
        sdk = sdk_name

    xray_meta = {
        "sdk": sdk or None,
        "sdk_version": sdk_version or None,
        "auto_instrumentation": bool(auto_version),
    }
    aws_data = {
        "account_id": account or None,
        "elastic_beanstalk": ebs,
        "cloudwatch_logs": cwl,
        "ecs": ecs,
        "ec2": ec2,
        "eks": eks,
        "xray": xray_meta,
        "operation": operation or None,
        "region": remote_region or None,
        "request_id": request_id or None,
        "queue_url": queue_url or None,
        "table_name": table_name or None,
    }
    return filtered, aws_data


def _parse_log_group(arn: str) -> str:
    """aws.go:268-275: last ':'-separated token."""
    i = arn.rfind(":")
    return arn[i + 1:] if i != -1 else arn


# -------------------------------------------- service / sql / origin


def make_service(resource: dict) -> dict | None:
    """service.go:24-37: version from service.version else
    container.image.tag."""
    r = resource or {}
    ver = r.get("service.version")
    if ver is None:
        ver = r.get("container.image.tag")
    if ver is None:
        return None
    return {"version": _str_val(ver)}


def make_sql(attributes: dict) -> tuple[dict, dict | None]:
    """sql.go:23-67 makeSQL."""
    filtered: dict = {}
    db_url = db_system = db_instance = db_statement = db_user = ""
    for key, value in attributes.items():
        if key == "db.connection_string":
            db_url = value
        elif key == "db.system":
            db_system = value
        elif key == "db.name":
            db_instance = value
        elif key == "db.statement":
            db_statement = value
        elif key == "db.user":
            db_user = value
        else:
            filtered[key] = value
    if db_system not in _SQL_SYSTEMS:
        return attributes, None
    if not db_url:
        db_url = "localhost"
    return filtered, {
        "url": db_url + "/" + db_instance,
        "database_type": db_system or None,
        "user": db_user or None,
        "sanitized_query": db_statement or None,
    }


def determine_aws_origin(resource: dict) -> str:
    """segment.go:213-272."""
    r = resource or {}
    if not r:
        return ""
    provider = r.get("cloud.provider")
    if provider is not None and provider != "aws":
        return ""
    platform = r.get("cloud.platform")
    if platform is not None:
        if platform == "EKS":
            return ORIGIN_EKS
        if platform == "ElasticBeanstalk":
            return ORIGIN_EB
        if platform == "ECS":
            lt = r.get("aws.ecs.launchtype")
            if lt is None:
                return ORIGIN_ECS
            return {"ec2": ORIGIN_ECS_EC2, "fargate": ORIGIN_ECS_FARGATE}.get(
                lt, ORIGIN_ECS
            )
        if platform == "EC2":
            return ORIGIN_EC2
        return ""  # non-AWS infrastructure service
    # EKS > EB > ECS > EC2 (segment.go:254-271)
    if "k8s.cluster.name" in r:
        return ORIGIN_EKS
    if "service.instance.id" in r:
        return ORIGIN_EB
    if "container.name" in r:
        return ORIGIN_ECS
    if "host.id" in r:
        return ORIGIN_EC2
    return ""


# -------------------------------------------------- makeXRayAttributes


def _annotation_value(value):
    """segment.go:394-406: scalars only."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return None


def _metadata_value(value):
    """segment.go:408-434: scalars + nested maps/arrays."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, dict):
        return {k: _metadata_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_metadata_value(v) for v in value]
    return None


def make_xray_attributes(
    attributes: dict,
    resource: dict,
    store_resource: bool,
    indexed_attrs,
    index_all_attrs: bool,
):
    """segment.go:327-392 → (user, annotations, metadata)."""
    annotations: dict = {}
    metadata: dict = {}
    user = ""
    attributes = dict(attributes)
    if "enduser.id" in attributes:
        user = attributes.pop("enduser.id")

    res_attrs = resource or {}
    if not attributes and (not store_resource or not res_attrs):
        return user, None, None

    default_metadata: dict = {}
    indexed_keys = set() if index_all_attrs else set(indexed_attrs or ())

    if store_resource:
        for key, value in res_attrs.items():
            key = "otel.resource." + key
            anno_val = _annotation_value(value)
            indexed = index_all_attrs or key in indexed_keys
            if anno_val is not None and indexed:
                annotations[fix_annotation_key(key)] = anno_val
            else:
                meta_val = _metadata_value(value)
                if meta_val is not None:
                    default_metadata[key] = meta_val

    if index_all_attrs:
        for key, value in attributes.items():
            annotations[fix_annotation_key(key)] = value
    else:
        for key, value in attributes.items():
            if key in indexed_keys:
                annotations[fix_annotation_key(key)] = value
            else:
                default_metadata[key] = value

    if default_metadata:
        metadata["default"] = default_metadata
    return user, annotations or None, metadata or None


# ----------------------------------------------------------- MakeSegment


def make_segment(
    span: dict,
    resource: dict,
    indexed_attrs=None,
    index_all_attrs: bool = False,
    *,
    epoch_now: float | None = None,
) -> dict:
    """segment.go:82-201 MakeSegment: one span-row dict → X-Ray segment
    dict ready for JSON encoding. Span keys: trace_id/span_id/
    parent_span_id (hex), name, kind, start_ns/end_ns, status_code,
    status_message, attrs (dict), events (list of {name, attrs})."""
    if epoch_now is None:
        import time

        epoch_now = time.time()
    attrs = span.get("attrs") or {}
    kind = span.get("kind")
    parent = span.get("parent_span_id") or ""

    segment_type = ""
    store_resource = True
    if kind != "server" and parent:
        segment_type = "subsegment"
        store_resource = False

    trace_id = convert_to_amazon_trace_id(span["trace_id"], epoch_now)

    n = iter(range(1 << 30))
    id_gen = lambda: det_id(span["span_id"], next(n))  # noqa: E731

    start_time = span["start_ns"] / 1e9  # segment.go:323-325
    end_time = span["end_ns"] / 1e9

    httpfiltered, http = make_http(span)
    is_error, is_fault, is_throttle, causefiltered, cause = make_cause(
        span, httpfiltered, resource, id_gen
    )
    origin = determine_aws_origin(resource)
    awsfiltered, aws = make_aws(causefiltered, resource)
    service = make_service(resource)
    sqlfiltered, sql = make_sql(awsfiltered)
    user, annotations, metadata = make_xray_attributes(
        sqlfiltered, resource, store_resource, indexed_attrs, index_all_attrs
    )

    # segment.go:113-177 name-selection priority chain
    name = ""
    namespace = ""
    if _CONV["peer_service"] in attrs:
        name = _str_val(attrs[_CONV["peer_service"]])
    if not name and _CONV["aws_service"] in attrs:
        name = _str_val(attrs[_CONV["aws_service"]])
        namespace = "aws"
    if not name and _CONV["db_name"] in attrs:
        name = _str_val(attrs[_CONV["db_name"]])
        db_url = attrs.get(_CONV["db_conn"])
        if isinstance(db_url, str):
            hostname = urlparse(db_url).hostname
            if hostname:
                name += "@" + hostname
    if not name and kind == "server":
        svc = (resource or {}).get("service.name")
        if svc is not None:
            name = _str_val(svc)
    if not name and _CONV["rpc_service"] in attrs:
        name = _str_val(attrs[_CONV["rpc_service"]])
    if not name and _CONV["http_host"] in attrs:
        name = _str_val(attrs[_CONV["http_host"]])
    if not name and _CONV["net_peer_name"] in attrs:
        name = _str_val(attrs[_CONV["net_peer_name"]])
    if not name:
        name = fix_segment_name(span.get("name") or "")
    if not namespace and kind == "client":
        namespace = "remote"

    seg = {
        "id": span["span_id"],
        "trace_id": trace_id,
        "name": name or None,
        "start_time": start_time,
        "end_time": end_time,
        "parent_id": parent or None,
        "fault": is_fault,
        "error": is_error,
        "throttle": is_throttle,
        "cause": cause,
        "origin": origin or None,
        "namespace": namespace or None,
        "user": user or None,
        "http": http,
        "aws": aws,
        "service": service,
        "sql": sql,
        "annotations": annotations,
        "metadata": metadata,
        "type": segment_type or None,
    }
    return seg


def segment_to_json(seg: dict) -> str:
    """MakeSegmentDocumentString (segment.go:67-79): compact JSON with
    null/omitted empties dropped (Go omitempty on nil pointers)."""

    def prune(obj):
        # Go omitempty drops nil pointers and len-0 slices; non-nil
        # struct pointers serialize even when empty ({} stays).
        if isinstance(obj, dict):
            return {
                k: prune(v)
                for k, v in obj.items()
                if v is not None and not (isinstance(v, list) and not v)
            }
        if isinstance(obj, list):
            return [prune(v) for v in obj]
        return obj

    return json.dumps(prune(seg), separators=(",", ":"), ensure_ascii=False)


class XRaySegmentEncoder:
    """Batch stage: span rows (the ``SapmDecoder``/span-table layout:
    hex id columns, ``attrs``/``events``/``resource_attrs`` JSON columns)
    → one X-Ray segment document per span in ``segment_json`` plus
    flattened contract columns; spans with out-of-window trace ids are
    dropped and counted in ``_batch_dropped`` (the exporter surfaces the
    conversion error per span, segment.go:94-97)."""

    OUT_SCHEMA = {
        "segment_json": pa.string(),
        "trace_id_xray": pa.string(),
        "seg_name": pa.string(),
        "seg_type": pa.string(),
        "namespace": pa.string(),
        "origin": pa.string(),
        "fault": pa.bool_(),
        "error": pa.bool_(),
        "throttle": pa.bool_(),
        "n_exceptions": pa.int64(),
    }

    def __init__(self, epoch_now: float | None = None):
        self.epoch_now = epoch_now

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = set(batch.column_names)

        def col(name):
            return (
                batch[name].to_pylist() if name in names else [None] * len(batch)
            )

        rows = list(
            zip(
                col("trace_id"), col("span_id"), col("parent_span_id"),
                col("name"), col("kind"), col("start_ns"), col("end_ns"),
                col("status_code"), col("status_message"), col("attrs"),
                col("events"), col("resource_attrs"),
            )
        )
        out: list[dict] = []
        dropped = 0
        for (tid, sid, pid, nm, kd, s_ns, e_ns, sc, sm, at, ev, ra) in rows:
            span = {
                "trace_id": tid,
                "span_id": sid,
                "parent_span_id": pid,
                "name": nm,
                "kind": kd,
                "start_ns": s_ns,
                "end_ns": e_ns,
                "status_code": sc,
                "status_message": sm,
                "attrs": json.loads(at) if at else {},
                "events": json.loads(ev) if ev else [],
            }
            resource = json.loads(ra) if ra else {}
            try:
                seg = make_segment(span, resource, epoch_now=self.epoch_now)
            except (ValueError, KeyError, TypeError):
                dropped += 1
                continue
            exceptions = (seg.get("cause") or {}).get("exceptions", [])
            out.append(
                {
                    "segment_json": segment_to_json(seg),
                    "trace_id_xray": seg["trace_id"],
                    "seg_name": seg["name"],
                    "seg_type": seg["type"] or "",
                    "namespace": seg["namespace"] or "",
                    "origin": seg["origin"] or "",
                    "fault": seg["fault"],
                    "error": seg["error"],
                    "throttle": seg["throttle"],
                    "n_exceptions": len(exceptions),
                }
            )
        cols = {
            c: pa.array([r.get(c) for r in out], t)
            for c, t in self.OUT_SCHEMA.items()
        }
        cols["_batch_dropped"] = pa.array(np.full(len(out), dropped, np.int64))
        return pa.table(cols)
