"""Parse-stage goldens, ported from the reference's own fixtures:
- F2 simple filelog (receiver/filelogreceiver/testdata/simple.log +
  config.yaml:5-11, asserted in filelog_test.go:85-120)
- F3 k8s router chain (testbed/datasenders/k8s.go:164-228)
"""

import pyarrow as pa

from opentelemetry_collector_contrib_ray.pipelines.log_pipeline import build_parse_chain
from opentelemetry_collector_contrib_ray.stages.parse import (
    Chain,
    JsonParser,
    Metadata,
    RegexParser,
    Restructure,
    Router,
    SeverityParser,
    TimeParser,
    recombine_lines_grouped,
)


def _tbl(lines):
    return pa.table({"raw": pa.array(lines, pa.string())})


def test_simple_log_golden():
    """The exact 3-line fixture from filelogreceiver/testdata/simple.log."""
    lines = [
        "2020-08-25 INFO Something routine",
        "2020-08-25 ERROR Something bad happened!",
        "2020-08-25 DEBUG Some details...",
    ]
    chain = Chain(
        [
            RegexParser(r"^(?P<time>\d{4}-\d{2}-\d{2}) (?P<sev>[A-Z]*) (?P<msg>.*)$"),
            TimeParser(parse_from="time", layout="%Y-%m-%d"),
            SeverityParser(parse_from="sev"),
        ]
    )
    out = chain(_tbl(lines))
    assert out["msg"].to_pylist() == [
        "Something routine",
        "Something bad happened!",
        "Some details...",
    ]
    assert out["severity_text"].to_pylist() == ["Info", "Error", "Debug"]
    assert out["severity_number"].to_pylist() == [9, 17, 5]
    ts = out["ts"].to_pylist()
    assert all(t is not None and t.year == 2020 and t.month == 8 and t.day == 25 for t in ts)


def test_k8s_router_chain():
    """Three k8s line formats routed by predicate (k8s.go:173-181)."""
    lines = [
        '{"log":"docker hello","stream":"stdout","time":"2021-03-01T19:00:00.000Z"}',
        "2021-03-01T19:00:00.000000000Z stdout F containerd hello",
        "2021-03-01T12:00:00.000000000-07:00 stderr F crio hello",
        "2020-08-25 WARN plain line",
    ]
    chain = build_parse_chain()
    out = chain(_tbl(lines))
    rows = {r["route"]: r for r in out.to_pylist()}
    assert set(rows) == {"docker", "containerd", "crio", "default"}
    assert rows["docker"]["msg"] == "docker hello"
    assert rows["docker"]["stream"] == "stdout"
    assert rows["containerd"]["msg"] == "containerd hello"
    assert rows["crio"]["msg"] == "crio hello"
    assert rows["crio"]["stream"] == "stderr"
    # CRI-O -07:00 offset normalizes to 19:00 UTC
    assert rows["crio"]["ts"].hour == 19
    assert rows["containerd"]["ts"].hour == 19
    assert rows["docker"]["ts"].hour == 19
    # k8s branches have no severity parser → stanza default (Undefined/0)
    assert rows["docker"]["severity_text"] == "Undefined"
    assert rows["default"]["severity_text"] == "Info"  # WARN → Info per table


def test_json_parser_coercion():
    t = pa.table({"raw": pa.array(['{"a": 1, "b": "x", "c": true}', "not json"])})
    out = JsonParser(parse_from="raw")(t)
    assert out["a"].to_pylist() == [1, None]
    assert out["b"].to_pylist() == ["x", None]
    assert out["c"].to_pylist() == [True, None]


def test_restructure_and_metadata():
    t = pa.table({"log": ["x"], "junk": ["y"]})
    out = Restructure(moves={"log": "msg"}, removes=["junk"])(t)
    assert out.column_names == ["msg"]
    out = Metadata({"env": "prod"})(out)
    assert out["env"].to_pylist() == ["prod"]
    t2 = pa.table({"host": ["h1"], "app": ["a1"]})
    out2 = Metadata({"source": "%{host}/%{app}"}, templated=True)(t2)
    assert out2["source"].to_pylist() == ["h1/a1"]


def test_regex_parser_drop_on_error():
    t = _tbl(["2020-08-25 INFO ok", "garbage"])
    kept = RegexParser(
        r"^(?P<time>\d{4}-\d{2}-\d{2}) (?P<sev>[A-Z]*) (?P<msg>.*)$", on_error="keep"
    )(t)
    assert len(kept) == 2 and kept["msg"].to_pylist()[1] is None
    dropped = RegexParser(
        r"^(?P<time>\d{4}-\d{2}-\d{2}) (?P<sev>[A-Z]*) (?P<msg>.*)$", on_error="drop"
    )(t)
    assert len(dropped) == 1


def test_recombine():
    """Rows of one group join in ``order`` onto the group's first row;
    the other columns keep that row's values."""
    import ray.data

    t = pa.table(
        {
            "gid": ["a", "a", "b"],
            "seq": [2, 1, 1],
            "raw": ["world", "hello", "solo"],
        }
    )
    out = recombine_lines_grouped(ray.data.from_arrow(t), "gid", "seq", is_first_entry="^(hello|solo)$")
    got = {r["gid"]: (r["raw"], r["seq"]) for r in out.take_all()}
    assert got == {"a": ("hello\nworld", 1), "b": ("solo", 1)}


def test_router_empty_and_no_match():
    chain = Router(routes=[("j", r"^\{", Chain([]))], default=None)
    out = chain(_tbl(["plain"]))
    assert out["route"].to_pylist() == ["default"]


def test_router_missing_match_column():
    """Missing match column → all rows default-routed, no crash."""
    chain = Router(routes=[("j", r"^\{", Chain([]))], default=None)
    out = chain(pa.table({"other": [1, 2]}))
    assert out["route"].to_pylist() == ["default", "default"]


def test_router_rejects_row_dropping_branch():
    """Scatter-back needs 1:1 rows; a dropping branch must fail loudly
    (not raise an opaque broadcast error)."""
    import pytest

    bad = Chain([RegexParser(r"^(?P<n>\d+)$", parse_from="raw", on_error="drop")])
    router = Router(routes=[("num", r".", bad)], match_on="raw")
    t = pa.table({"raw": ["123", "nope", "7"]})
    with pytest.raises(ValueError, match="preserve row count"):
        router(t)
