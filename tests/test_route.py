"""Routing semantics ported from processor/routingprocessor/routing_test.go:36-113
(default fallback, missing attribute, registered routes) and
routing.go:54-69 (config validation), :153-162 (multi-exporter fan-out)."""

import pyarrow as pa
import pytest

from opentelemetry_collector_contrib_ray.stages.route import BatchPerKey, RoutingTable


def _t(vals):
    return pa.table({"attr": pa.array(vals, pa.string()), "v": list(range(len(vals)))})


def test_registered_route():
    rt = RoutingTable("attr", {"acme": ["s1"]}, ["s0"])
    out = rt(_t(["acme", "other", None]))
    got = sorted(zip(out["sink"].to_pylist(), out["v"].to_pylist()))
    # acme → s1; no-match and missing → default s0
    assert got == [("s0", 1), ("s0", 2), ("s1", 0)]


def test_missing_attribute_column_goes_default():
    rt = RoutingTable("nope", {"acme": ["s1"]}, ["s0"])
    out = rt(_t(["acme"]))
    assert out["sink"].to_pylist() == ["s0"]


def test_multi_exporter_fanout():
    rt = RoutingTable("attr", {"acme": ["s1", "s2"]}, ["s0"])
    out = rt(_t(["acme"]))
    assert sorted(out["sink"].to_pylist()) == ["s1", "s2"]
    assert out["v"].to_pylist() == [0, 0]  # row duplicated per exporter


def test_validation():
    with pytest.raises(ValueError):
        RoutingTable("attr", {}, ["s0"])
    with pytest.raises(ValueError):
        RoutingTable("", {"a": ["s"]}, ["s0"])
    with pytest.raises(ValueError):
        RoutingTable("attr", {"a": []}, ["s0"])


def test_batch_per_key():
    t = pa.table({"tok": ["a", "b", "a"], "v": [1, 2, 3]})
    parts = BatchPerKey("tok")(t)
    sizes = sorted(len(p) for p in parts)
    assert sizes == [1, 2]


def test_null_key_and_absent_attribute_take_the_default():
    rt = RoutingTable("attr", {"acme": ["s1"]}, ["s0"])
    assert rt(_t([None, "acme", None]))["sink"].to_pylist() == ["s0", "s1", "s0"]
    absent = pa.table({"v": [0, 1]})
    assert rt(absent)["sink"].to_pylist() == ["s0", "s0"]


def test_non_string_key_column_never_matches_string_routes():
    """An int column holding 1 and 2 misses routes "1" and "2" and goes
    to the default, as a dict lookup of 1 in {"1": ...} misses."""
    rt = RoutingTable("attr", {"1": ["s1"], "2": ["s2", "s3"]}, ["s0"])
    out = rt(pa.table({"attr": pa.array([1, 2, None], pa.int64()), "v": [0, 1, 2]}))
    assert out["sink"].to_pylist() == ["s0", "s0", "s0"]
    assert out["v"].to_pylist() == [0, 1, 2]


def test_multi_sink_default_fans_out_only_unrouted_rows():
    """Order: every row with its first sink, then each multi-sink route's
    rows once per extra sink (table order), then the default's."""
    rt = RoutingTable("attr", {"acme": ["s1", "s2"], "solo": ["s3"]}, ["d1", "d2", "d3"])
    out = rt(_t(["acme", "other", "solo", None, "acme"]))
    got = list(zip(out["sink"].to_pylist(), out["v"].to_pylist()))
    assert got == [
        ("s1", 0), ("d1", 1), ("s3", 2), ("d1", 3), ("s1", 4),
        ("s2", 0), ("s2", 4),
        ("d2", 1), ("d2", 3),
        ("d3", 1), ("d3", 3),
    ]
    assert out.schema.field("sink").type == pa.string()
