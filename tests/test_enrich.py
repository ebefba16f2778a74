"""Enrich-stage semantics: association-rule chain + insert-if-absent
(processor/k8sprocessor/pod_association.go:31-87, processor.go:102-116;
resourcedetectionprocessor internal/resourcedetection.go:108-192)."""

import pyarrow as pa

from opentelemetry_collector_contrib_ray.stages.enrich import (
    ApplyResource,
    detect_resource,
    make_lookup_fn,
)


def test_association_order_first_hit_wins():
    cache = {"ip-1": {"pod": "p1"}, "host-a": {"pod": "p2"}}
    e = make_lookup_fn(cache, ["ip", "host"])
    t = pa.table(
        {
            "ip": ["ip-1", "ip-miss", None],
            "host": ["host-a", "host-a", "host-a"],
        }
    )
    out = e(t)
    # row0: ip hits first; row1: ip misses cache → host used; row2: null ip → host
    assert out["pod"].to_pylist() == ["p1", "p2", "p2"]


def test_insert_if_absent():
    cache = {"k": {"team": "cached"}}
    e = make_lookup_fn(cache, ["src"])
    t = pa.table({"src": ["k", "k"], "team": ["existing", None]})
    out = e(t)
    # InsertString semantics: existing value NOT overwritten; null filled
    assert out["team"].to_pylist() == ["existing", "cached"]


def test_detect_resource_first_wins_and_apply():
    r = detect_resource([{"a": "1", "b": "x"}, {"b": "y", "c": "2"}])
    assert r == {"a": "1", "b": "x", "c": "2"}
    t = pa.table({"a": ["keep"]})
    out = ApplyResource(r)(t)
    assert out["a"].to_pylist() == ["keep"]  # insert, not upsert
    assert out["b"].to_pylist() == ["x"]
    out2 = ApplyResource(r, override=True)(t)
    assert out2["a"].to_pylist() == ["1"]


def test_extraction_rules():
    from opentelemetry_collector_contrib_ray.stages.enrich import (
        DEPLOYMENT_REGEX,
        apply_extraction_rules,
    )

    cache = {
        "p1": {"pod": "api-7f9d4-x2x1z", "label.team": "core"},
        "p2": {"pod": "singleword"},
    }
    rules = [
        {"from": "pod", "name": "deployment", "regex": DEPLOYMENT_REGEX},
        {"from": "label.team", "name": "team"},
    ]
    out = apply_extraction_rules(cache, rules)
    # kube/client.go:226-232: name-rsrand-podrand → deployment name
    assert out["p1"]["deployment"] == "api"
    assert out["p1"]["team"] == "core"
    # no regex match → empty string (extractField :259-271)
    assert out["p2"]["deployment"] == ""
    assert "team" not in out["p2"]  # missing source attr → skipped
    assert cache["p1"].get("deployment") is None  # original untouched


def test_env_detector(monkeypatch):
    monkeypatch.setenv("OTEL_RESOURCE", "k1=v1, k2 = v2")
    r = detect_resource()
    assert r["k1"] == "v1" and r["k2"] == "v2"


def test_pod_cache_same_ip_starttime_resolution():
    """kube/client.go:293-304: an IP reused by a newer pod must not be
    clobbered by a late update event for the old pod."""
    from opentelemetry_collector_contrib_ray.stages.enrich import PodCache

    c = PodCache()
    c.add_pod(uid="u-old", ip="10.0.0.1", name="old", start_time=10.0,
              attributes={"who": "old"})
    c.add_pod(uid="u-new", ip="10.0.0.1", name="new", start_time=100.0,
              attributes={"who": "new"})
    # late update for the OLD pod arrives after the new pod took the IP
    c.add_pod(uid="u-old", ip="10.0.0.1", name="old", start_time=10.0,
              attributes={"who": "old"})
    assert c.get("10.0.0.1")["attributes"]["who"] == "new"  # IP kept by newer
    assert c.get("u-old")["attributes"]["who"] == "old"     # UID always updates


def test_pod_cache_delayed_deletion_grace():
    """client.go:149-188: deletion is queued and only applied after the
    grace period, re-checking the mapping still names the deleted pod."""
    from opentelemetry_collector_contrib_ray.stages.enrich import PodCache

    c = PodCache(grace_period=60.0)
    c.add_pod(uid="u1", ip="10.0.0.2", name="p1", start_time=1.0, attributes={"a": "1"})
    c.forget_pod(uid="u1", ip="10.0.0.2", name="p1", ts=100.0)
    c.sweep(now=130.0)  # inside grace → still resolvable
    assert c.get("u1") is not None and c.get("10.0.0.2") is not None
    # IP remapped to a new pod before the grace expires → sanity check
    # (p.Name == d.podName) protects the new mapping
    c.add_pod(uid="u2", ip="10.0.0.2", name="p2", start_time=200.0, attributes={"a": "2"})
    c.sweep(now=300.0)  # past grace
    assert c.get("u1") is None               # uid deleted
    assert c.get("10.0.0.2")["name"] == "p2"  # remapped IP survives


def test_pod_cache_ignore_flag():
    from opentelemetry_collector_contrib_ray.stages.enrich import PodCache

    c = PodCache()
    c.add_pod(uid="u9", ip=None, name="host-net", start_time=1.0,
              attributes={}, ignore=True)
    assert c.get("u9") is None
    assert "u9" not in c.snapshot()


def test_extract_pod_keys_association_chain():
    """pod_association.go:31-87: default chain k8s.pod.ip → ip →
    connection → host.name-if-IP; rules override the order; host.name
    must parse as an IP to be used."""
    from opentelemetry_collector_contrib_ray.stages.enrich import extract_pod_keys

    t = pa.table(
        {
            "k8s.pod.ip": ["1.2.3.4", None, None, None],
            "ip": [None, "5.6.7.8", None, None],
            "host.name": [None, None, "9.9.9.9", "not-an-ip"],
        }
    )
    out = extract_pod_keys(t, None, connection_ip=None)
    assert out["_pod_key"].to_pylist() == ["1.2.3.4", "5.6.7.8", "9.9.9.9", None]
    # connection beats attribute rules when listed first
    out2 = extract_pod_keys(
        t,
        [{"from": "connection"}, {"from": "resource_attribute", "name": "ip"}],
        connection_ip="7.7.7.7",
    )
    assert out2["_pod_key"].to_pylist() == ["7.7.7.7"] * 4
    # host.name rule: non-IP value is skipped (row 3 stays unresolved)
    out3 = extract_pod_keys(
        t, [{"from": "resource_attribute", "name": "host.name"}]
    )
    assert out3["_pod_key"].to_pylist() == [None, None, "9.9.9.9", None]


def test_two_association_columns_first_hit_per_row():
    cache = {"a": {"team": "ta"}, "b": {"team": "tb"}, "c": {"team": "tc"}}
    t = pa.table({"first": ["a", "zz", None, "b"], "second": ["c", "c", "b", None]})
    out = make_lookup_fn(cache, ["first", "second"])(t)
    assert out["team"].to_pylist() == ["ta", "tc", "tb", "tb"]


def test_keys_of_another_type_than_the_column_never_match():
    """String keys "1"/"2" miss an int column holding 1/2 (as a dict
    lookup does); the next association column still hits."""
    cache = {"1": {"team": "t1"}, "2": {"team": "t2"}}
    t = pa.table({"num": pa.array([1, 2, 3], pa.int64()), "txt": [None, "1", None]})
    assert make_lookup_fn(cache, ["num"])(t)["team"].to_pylist() == [None, None, None]
    out = make_lookup_fn(cache, ["num", "txt"])(t)
    assert out["team"].to_pylist() == [None, "t1", None]


def test_existing_prefixed_column_with_nulls_is_filled_not_overwritten():
    cache = {"k": {"team": "cached", "tier": "prod"}}
    t = pa.table({"src": ["k", "k", "miss", "k"], "meta.team": ["mine", None, None, "also"]})
    out = make_lookup_fn(cache, ["src"], "meta.")(t)
    assert out.column_names == ["src", "meta.team", "meta.tier"]
    assert out["meta.team"].to_pylist() == ["mine", "cached", None, "also"]
    assert out["meta.tier"].to_pylist() == ["prod", "prod", None, "prod"]


def test_lookup_fn_of_a_new_dict_never_sees_an_old_table():
    """A freed dict's id is reused by the next one: state keyed by id
    served the previous table to the new function."""
    t = pa.table({"k": ["a"]})
    for i in range(50):
        assert make_lookup_fn({"a": {"team": f"t{i}"}}, ["k"])(t)["team"].to_pylist() == [f"t{i}"]
