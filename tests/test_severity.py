"""Golden tests for the severity conversion table — ported from the
switch in /root/reference/internal/stanza/converter.go:532-582 and the
table-driven cases in converter_test.go."""

import numpy as np

from opentelemetry_collector_contrib_ray.functions import severity as sev


def conv1(level):
    t, n = sev.convert_severity(np.array([level]))
    return t[0], int(n[0])


def test_standard_levels():
    assert conv1(sev.CATASTROPHE) == ("Fatal", 24)
    assert conv1(sev.EMERGENCY) == ("Error", 21)
    assert conv1(sev.ALERT) == ("Error", 19)
    assert conv1(sev.CRITICAL) == ("Error", 18)
    assert conv1(sev.ERROR) == ("Error", 17)
    assert conv1(sev.WARNING) == ("Info", 12)
    assert conv1(sev.NOTICE) == ("Info", 11)
    assert conv1(sev.INFO) == ("Info", 9)
    assert conv1(sev.DEBUG) == ("Debug", 5)
    assert conv1(sev.TRACE) == ("Trace", 2)
    assert conv1(sev.DEFAULT) == ("Undefined", 0)


def test_custom_levels_bucketed():
    # converter.go:559-579 `>` comparisons
    assert conv1(95) == ("Fatal", 22)     # > Emergency
    assert conv1(85) == ("Error", 20)     # > Alert
    assert conv1(75) == ("Error", 19)     # > Critical
    assert conv1(65) == ("Error", 18)     # > Error
    assert conv1(55) == ("Info", 12)      # > Warning
    assert conv1(45) == ("Info", 11)      # > Notice
    assert conv1(35) == ("Info", 10)      # > Info
    assert conv1(25) == ("Debug", 6)      # > Debug
    assert conv1(15) == ("Trace", 3)      # > Trace
    assert conv1(5) == ("Trace", 1)       # > Default


def test_text_parsing():
    levels = sev.parse_severity_text(
        np.array(["ERROR", "warn", "Info", "garbage", None], dtype=object)
    )
    assert levels.tolist() == [sev.ERROR, sev.WARNING, sev.INFO, sev.DEFAULT, sev.DEFAULT]


def test_syslog_pri():
    # pri 34 = facility 4, severity 2 (Critical); pri 13 = sev 5 (Notice)
    levels = sev.syslog_pri_to_level(np.array([34, 13]))
    assert levels.tolist() == [sev.CRITICAL, sev.NOTICE]


def test_severity_parser_custom_mapping():
    """stanza `mapping:` config: custom aliases map to standard levels
    or raw numeric stanza levels (custom levels bucket via `>`)."""
    import pyarrow as pa

    from opentelemetry_collector_contrib_ray.stages.parse import SeverityParser

    t = pa.table({"sev": ["panic", "5xx", "ERROR", "meh"]})
    p = SeverityParser(mapping={"panic": "emergency", "5xx": 65, "meh": "info"})
    out = p(t)
    assert out["severity_text"].to_pylist() == ["Error", "Error", "Error", "Info"]
    # emergency→FATAL(21); 65 buckets `> Error` → ERROR2(18); error→17; info→9
    assert out["severity_number"].to_pylist() == [21, 18, 17, 9]


def test_severity_parser_edge_values():
    """Padded and mixed-case text, nulls, and a non-string column: the
    alias lookup trims and lower-cases each value's text; null and
    unknown values are Undefined/0."""
    import pyarrow as pa

    from opentelemetry_collector_contrib_ray.stages.parse import SeverityParser

    out = SeverityParser()(pa.table({"sev": [" Error ", None, "wArN", "", "nope", " Error "]}))
    assert out["severity_text"].to_pylist() == ["Error", "Undefined", "Info", "Undefined", "Undefined", "Error"]
    assert out["severity_number"].to_pylist() == [17, 0, 12, 0, 0, 17]
    assert out.schema.field("severity_number").type == pa.int32()

    ints = pa.table({"sev": pa.array([3, 7, 3], pa.int64())})
    out = SeverityParser()(ints)
    assert out["severity_text"].to_pylist() == ["Undefined"] * 3
    out = SeverityParser(mapping={"3": "warn"})(ints)
    assert out["severity_text"].to_pylist() == ["Info", "Undefined", "Info"]
    assert out["severity_number"].to_pylist() == [12, 0, 12]

    missing = SeverityParser(parse_from="absent")(pa.table({"x": [1, 2]}))
    assert missing["severity_text"].to_pylist() == ["Undefined", "Undefined"]
    assert missing["severity_number"].to_pylist() == [0, 0]


def test_severity_parser_custom_alias_overrides_a_default_name():
    import pyarrow as pa

    from opentelemetry_collector_contrib_ray.stages.parse import SeverityParser

    out = SeverityParser(mapping={"error": "info", "Panic": 95})(pa.table({"sev": ["ERROR", "panic", "warn"]}))
    assert out["severity_text"].to_pylist() == ["Info", "Fatal", "Info"]
    assert out["severity_number"].to_pylist() == [9, 22, 12]


def test_syslog_pri_parser_columns():
    """severity = pri & 7, facility = pri >> 3; a null PRI reads as 0."""
    import pyarrow as pa

    from opentelemetry_collector_contrib_ray.stages.parse import SyslogPriParser

    out = SyslogPriParser()(pa.table({"pri": ["34", "13", None, "191"]}))
    assert out["severity_text"].to_pylist() == ["Error", "Info", "Error", "Debug"]
    assert out["severity_number"].to_pylist() == [18, 11, 21, 5]
    assert out["facility"].to_pylist() == [4, 1, 0, 23]
    assert out.schema.field("facility").type == pa.int32()
