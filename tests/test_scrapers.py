"""Golden tests for the interval-scraper payload parsers
(sources/scrapers.py) against the reference semantics:
receiver/redisreceiver/info.go:32-74, keyspace.go:35-66,
metric_functions.go:23-352; receiver/zookeeperreceiver/scraper.go:144-181,
metrics.go:24-92; receiver/memcachedreceiver/scraper.go:75-92;
receiver/nginxreceiver/scraper.go:81-93."""

import pyarrow as pa
import pytest

from opentelemetry_collector_contrib_ray.sources.scrapers import (
    parse_memcached_stats,
    parse_nginx_stub_status,
    parse_prometheus_text,
    parse_redis_info,
    parse_zk_mntr,
)


def _rows(t: pa.Table):
    return t.to_pylist()


def _by_name(t: pa.Table, name: str):
    return [r for r in t.to_pylist() if r["name"] == name]


class TestRedisInfo:
    def _parse(self, payload: str) -> pa.Table:
        return parse_redis_info(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [payload]})
        )

    def test_fixed_metric_table(self):
        payload = "\n".join(
            [
                "# Server",
                "uptime_in_seconds:100",
                "used_cpu_sys:12.5",
                "used_memory:2048",
                "mem_fragmentation_ratio:1.25",
                "keyspace_hits:7",
            ]
        )
        out = self._parse(payload)
        up = _by_name(out, "redis/uptime")[0]
        assert up["value_int"] == 100 and up["mtype"] == "sum" and up["monotonic"]
        assert up["units"] == "s"
        cpu = _by_name(out, "redis/cpu/time")[0]
        assert cpu["value_double"] == 12.5 and cpu["label_key"] == "state"
        assert cpu["label_value"] == "sys"
        mem = _by_name(out, "redis/memory/used")[0]
        assert mem["value_int"] == 2048 and mem["mtype"] == "gauge"
        frag = _by_name(out, "redis/memory/fragmentation_ratio")[0]
        assert frag["value_double"] == 1.25
        hits = _by_name(out, "redis/keyspace/hits")[0]
        assert hits["value_int"] == 7 and hits["monotonic"]

    def test_missing_and_empty_and_invalid_skipped(self):
        # missing key → skip (info.go:36-39); empty value → skip (:40-42);
        # parse failure → skip (:43-47)
        payload = "uptime_in_seconds:\nevicted_keys:notanumber\nused_memory:10"
        out = self._parse(payload)
        assert not _by_name(out, "redis/uptime")
        assert not _by_name(out, "redis/keys/evicted")
        assert _by_name(out, "redis/memory/used")[0]["value_int"] == 10

    def test_int_metric_rejects_float_string(self):
        # ParseInt("1.5") errors in Go → metric skipped
        out = self._parse("used_memory:1.5")
        assert not _by_name(out, "redis/memory/used")

    def test_keyspace_triplet(self):
        out = self._parse("db0:keys=10,expires=2,avg_ttl=300")
        keys = _by_name(out, "redis/db/keys")[0]
        assert keys["value_int"] == 10 and keys["label_key"] == "db"
        assert keys["label_value"] == "0"
        assert _by_name(out, "redis/db/expires")[0]["value_int"] == 2
        ttl = _by_name(out, "redis/db/avg_ttl")[0]
        assert ttl["value_int"] == 300 and ttl["units"] == "ms"

    def test_keyspace_break_on_missing_db(self):
        # info.go:59-63: loop breaks at first missing dbN — db3 after a
        # gap at db2 must be IGNORED
        payload = "db0:keys=1,expires=0,avg_ttl=0\ndb1:keys=2,expires=0,avg_ttl=0\ndb3:keys=99,expires=0,avg_ttl=0"
        out = self._parse(payload)
        keys = sorted(r["value_int"] for r in _by_name(out, "redis/db/keys"))
        assert keys == [1, 2]

    def test_keyspace_missing_pair_defaults_zero(self):
        out = self._parse("db0:keys=5")
        assert _by_name(out, "redis/db/expires")[0]["value_int"] == 0
        assert _by_name(out, "redis/db/avg_ttl")[0]["value_int"] == 0

    def test_multiple_servers(self):
        t = pa.table(
            {
                "server_id": pa.array([1, 2], pa.int64()),
                "payload": ["used_memory:10", "used_memory:20"],
            }
        )
        out = parse_redis_info(t)
        vals = {r["server_id"]: r["value_int"] for r in _rows(out)}
        assert vals == {1: 10, 2: 20}


class TestZkMntr:
    def _parse(self, payload: str) -> pa.Table:
        return parse_zk_mntr(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [payload]})
        )

    def test_metrics_and_resource_attrs(self):
        payload = "\n".join(
            [
                "zk_version\t3.4.14-4c25d480e66aadd371de8bd2fd8da255ac140bcf",
                "zk_server_state\tleader",
                "zk_znode_count\t5",
                "zk_packets_received\t101",
                "zk_avg_latency\t100",
            ]
        )
        out = self._parse(payload)
        zn = _by_name(out, "zookeeper.znodes")[0]
        assert zn["value_int"] == 5 and zn["mtype"] == "gauge"
        pr = _by_name(out, "zookeeper.packets.received")[0]
        assert pr["value_int"] == 101 and pr["mtype"] == "sum" and pr["monotonic"]
        lat = _by_name(out, "zookeeper.latency.avg")[0]
        assert lat["value_int"] == 100 and lat["units"] == "ms"
        res = {r["label_key"]: r["label_value"] for r in _rows(out) if r["mtype"] == "resource"}
        assert res["server.state"] == "leader"
        assert res["zk.version"].startswith("3.4.14")

    def test_unknown_and_noninteger_skipped(self):
        # scraper.go:166-178: no descriptor → skipped; non-int → skipped
        out = self._parse("zk_bogus_metric\t7\nzk_znode_count\tabc")
        assert len([r for r in _rows(out) if r["mtype"] != "resource"]) == 0

    def test_malformed_line_skipped(self):
        out = self._parse("this is not a zk line\nzk_watch_count\t3")
        assert _by_name(out, "zookeeper.watches")[0]["value_int"] == 3
        assert len(_rows(out)) == 1


class TestMemcached:
    def test_five_mapped_stats_only(self):
        payload = "\n".join(
            [
                "STAT pid 12345",
                "STAT bytes 1024",
                "STAT curr_connections 3",
                "STAT total_connections 17",
                "STAT get_hits 9",
                "STAT get_misses 4",
                "END",
            ]
        )
        out = parse_memcached_stats(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [payload]})
        )
        by = {r["name"]: r for r in _rows(out)}
        assert set(by) == {
            "memcached.bytes",
            "memcached.current_connections",
            "memcached.total_connections",
            "memcached.get_hits",
            "memcached.get_misses",
        }
        assert by["memcached.bytes"]["value_int"] == 1024
        assert by["memcached.bytes"]["mtype"] == "gauge"
        assert by["memcached.total_connections"]["mtype"] == "sum"
        assert by["memcached.get_misses"]["value_int"] == 4


class TestNginx:
    PAYLOAD = (
        "Active connections: 291\n"
        "server accepts handled requests\n"
        " 16630948 16630946 31070465\n"
        "Reading: 6 Writing: 179 Waiting: 106\n"
    )

    def test_stub_status(self):
        out = parse_nginx_stub_status(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [self.PAYLOAD]})
        )
        by_state = {
            r["label_value"]: r["value_int"]
            for r in _by_name(out, "nginx.connections_current")
        }
        assert by_state == {"active": 291, "reading": 6, "writing": 179, "waiting": 106}
        assert _by_name(out, "nginx.requests")[0]["value_int"] == 31070465
        assert _by_name(out, "nginx.connections_accepted")[0]["value_int"] == 16630948
        assert _by_name(out, "nginx.connections_handled")[0]["value_int"] == 16630946

    def test_malformed_payload_produces_no_rows(self):
        out = parse_nginx_stub_status(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": ["<html>error</html>"]})
        )
        assert out.num_rows == 0


class TestDockerStats:
    def _payload(self, **over):
        import json

        base = {
            "cpu_stats": {
                "cpu_usage": {
                    "total_usage": 1100,
                    "usage_in_kernelmode": 300,
                    "usage_in_usermode": 800,
                    "percpu_usage": [550, 550],
                },
                "system_cpu_usage": 2000,
                "online_cpus": 0,
                "throttling_data": {"periods": 5, "throttled_periods": 2, "throttled_time": 99},
            },
            "precpu_stats": {"cpu_usage": {"total_usage": 1000}, "system_cpu_usage": 1000},
            "memory_stats": {
                "usage": 1300,
                "limit": 512,
                "max_usage": 4000,
                "stats": {"cache": 300, "total_cache": 300, "pgfault": 42, "rss": 77},
            },
            "networks": {"eth0": {"rx_bytes": 10, "tx_bytes": 20}},
            "blkio_stats": {
                "io_service_bytes_recursive": [
                    {"major": 8, "minor": 0, "op": "Read", "value": 111},
                    {"major": 8, "minor": 0, "op": "", "value": 999},
                ]
            },
        }
        base.update(over)
        return json.dumps(base)

    def _parse(self, payload):
        from opentelemetry_collector_contrib_ray.sources.scrapers import parse_docker_stats

        return parse_docker_stats(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [payload]})
        )

    def test_cpu_percent_docker_formula(self):
        # cpuΔ=100, sysΔ=1000, online falls back to len(percpu)=2
        # → (100/1000)*2*100 = 20.0 (metrics.go:184-204)
        out = self._parse(self._payload())
        assert _by_name(out, "cpu.percent")[0]["value_double"] == 20.0

    def test_cpu_percent_zero_when_no_delta(self):
        p = self._payload(precpu_stats={"cpu_usage": {"total_usage": 1100}, "system_cpu_usage": 1000})
        out = self._parse(p)
        assert _by_name(out, "cpu.percent")[0]["value_double"] == 0.0

    def test_memory_derived_metrics(self):
        out = self._parse(self._payload())
        # usage - total_cache (metrics.go:224)
        assert _by_name(out, "memory.usage.total")[0]["value_int"] == 1000
        # 100*(usage - cache)/limit (metrics.go:230-235)
        assert _by_name(out, "memory.percent")[0]["value_double"] == pytest.approx(195.3125)
        # cumulative set membership (metrics.go:205-213)
        assert _by_name(out, "memory.pgfault")[0]["mtype"] == "sum"
        assert _by_name(out, "memory.rss")[0]["mtype"] == "gauge"

    def test_blockio_empty_op_skipped(self):
        out = self._parse(self._payload())
        names = [r["name"] for r in _rows(out) if r["name"].startswith("blockio.")]
        assert names == ["blockio.io_service_bytes_recursive.read"]
        r = _by_name(out, "blockio.io_service_bytes_recursive.read")[0]
        assert r["label_value"] == "device_major=8,device_minor=0"
        assert r["value_int"] == 111

    def test_network_per_interface_labels(self):
        out = self._parse(self._payload())
        r = _by_name(out, "network.io.usage.rx_bytes")[0]
        assert r["label_key"] == "interface" and r["label_value"] == "eth0"
        assert r["mtype"] == "sum" and r["monotonic"]


class TestEcsTaskStats:
    def _payload(self):
        return {
            "metadata": {
                "TaskARN": "arn:aws:ecs:us-west-2:123:task/t1",
                "Limits": {"Memory": 4096},
                "Containers": [
                    {"DockerId": "d1", "Name": "c1"},
                    {"DockerId": "d2", "Name": "c2", "Limits": {"CPU": 512, "Memory": 256}},
                    {
                        "DockerId": "d3",
                        "Name": "c3",
                        "StartedAt": "2020-09-13T00:00:00Z",
                        "FinishedAt": "2020-09-13T00:00:15Z",
                    },
                ],
            },
            "stats": [
                {
                    "id": "d1",
                    "read": "2020-09-13T00:00:01Z",
                    "preread": "2020-09-13T00:00:00Z",
                    "memory_stats": {
                        "usage": 3145728,
                        "max_usage": 100,
                        "limit": 536870912,
                        "stats": {"cache": 1048576},
                    },
                    "cpu_stats": {
                        "cpu_usage": {"total_usage": 196312500, "percpu_usage": [1, 1]},
                        "online_cpus": 2,
                        "system_cpu_usage": 99,
                    },
                    "precpu_stats": {"cpu_usage": {"total_usage": 1000000}},
                    "networks": {
                        "eth0": {"rx_bytes": 10, "tx_bytes": 20},
                        "eth1": {"rx_bytes": 1, "tx_bytes": 1},
                    },
                    "blkio_stats": {
                        "io_service_bytes_recursive": [
                            {"op": "Read", "value": 30},
                            {"op": "Write", "value": 40},
                            {"op": "Total", "value": 70},
                        ]
                    },
                },
                {
                    "id": "d2",
                    "read": "2020-09-13T00:00:01Z",
                    "preread": "2020-09-13T00:00:00Z",
                    "memory_stats": {"usage": 2097152, "stats": {"cache": 0}},
                    "cpu_stats": {"cpu_usage": {"total_usage": 97656250, "percpu_usage": [1]}},
                    "precpu_stats": {"cpu_usage": {"total_usage": 0}},
                },
            ],
        }

    def _parse(self):
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            parse_ecs_task_stats,
        )

        t = pa.table(
            {"server_id": pa.array([1], pa.int64()), "payload": [json.dumps(self._payload())]}
        )
        return parse_ecs_task_stats(t)

    def _get(self, out, name, label):
        return [
            r for r in out.to_pylist() if r["name"] == name and r["label_value"] == label
        ][0]

    def test_memory_utilized_integer_mib_division(self):
        # (usage - cache) // MiB in uint math (metrics_helper.go:29-31)
        out = self._parse()
        assert self._get(out, "container.memory.utilized", "container=c1,task=t1")["value_int"] == 2

    def test_cpu_vcpu_and_limit_scaled_utilization(self):
        out = self._parse()
        c1 = self._get(out, "container.cpu.usage.vcpu", "container=c1,task=t1")
        assert c1["value_double"] == 0.1953125  # cpuΔ/readΔns
        # utilization divided by the container CPU limit (accumulator.go:87-89)
        c2 = self._get(out, "container.cpu.utilized", "container=c2,task=t1")
        assert c2["value_double"] == pytest.approx(9.765625 / 512)

    def test_task_rollup_and_limit_overrides(self):
        out = self._parse()
        # task memory.reserved overridden by task-level limit
        assert self._get(out, "ecs.task.memory.reserved", "task=t1")["value_int"] == 4096
        # task cpu.reserved = Σcontainer CPU units / 1024
        assert self._get(out, "ecs.task.cpu.reserved", "task=t1")["value_double"] == 0.5
        # task utilized recomputed against the reserve (accumulator.go:106-109)
        assert self._get(out, "ecs.task.cpu.utilized", "task=t1")["value_double"] == pytest.approx(58.59375)
        # network summed across containers and interfaces
        assert self._get(out, "ecs.task.network.io.usage.rx_bytes", "task=t1")["value_int"] == 11
        # storage from Read/Write ops only, Total ignored
        assert self._get(out, "ecs.task.storage.read_bytes", "task=t1")["value_int"] == 30

    def test_stopped_container_duration(self):
        out = self._parse()
        d = self._get(out, "container.duration", "container=c3,task=t1")
        assert d["value_double"] == 15.0
        # stopped container contributes nothing else
        assert (
            len([r for r in out.to_pylist() if r["label_value"] == "container=c3,task=t1"]) == 1
        )


class TestK8sObjects:
    def _parse(self, objs):
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            parse_k8s_objects,
        )

        return parse_k8s_objects(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [json.dumps(objs)]})
        )

    def test_pod_phase_values(self):
        # pods.go:92-105: Pending=1..Unknown=5, default 5
        for phase, want in (("Pending", 1), ("Running", 2), ("Succeeded", 3), ("Failed", 4), ("Weird", 5)):
            out = self._parse({"kind": "Pod", "metadata": {"name": "p", "namespace": "ns"}, "status": {"phase": phase}})
            assert _by_name(out, "k8s.pod.phase")[0]["value_int"] == want

    def test_container_status_and_spec_metrics(self):
        out = self._parse(
            {
                "kind": "Pod",
                "metadata": {"name": "p", "namespace": "ns"},
                "status": {
                    "phase": "Running",
                    "containerStatuses": [
                        {"name": "c1", "containerID": "docker://x", "restartCount": 3, "ready": True},
                        {"name": "ghost", "containerID": "", "restartCount": 9},
                    ],
                },
                "spec": {
                    "containers": [
                        {"name": "c1", "resources": {"requests": {"cpu": "500m", "memory": "128Mi"}, "limits": {"cpu": "2"}}}
                    ]
                },
            }
        )
        assert _by_name(out, "k8s.container.restarts")[0]["value_int"] == 3
        assert _by_name(out, "k8s.container.ready")[0]["value_int"] == 1
        # cpu uses MilliValue (containers.go:75-78)
        assert _by_name(out, "k8s.container.cpu_request")[0]["value_int"] == 500
        assert _by_name(out, "k8s.container.cpu_limit")[0]["value_int"] == 2000
        assert _by_name(out, "k8s.container.memory_request")[0]["value_int"] == 128 * 1024 * 1024
        # empty containerID skipped entirely (pods.go:46-48)
        assert len(_by_name(out, "k8s.container.restarts")) == 1

    def test_deployment_nil_replicas_skipped(self):
        out = self._parse({"kind": "Deployment", "metadata": {"name": "d", "namespace": "ns"}, "status": {"availableReplicas": 2}})
        assert out.num_rows == 0
        out2 = self._parse(
            {"kind": "Deployment", "metadata": {"name": "d", "namespace": "ns"}, "spec": {"replicas": 5}, "status": {"availableReplicas": 2}}
        )
        assert _by_name(out2, "k8s.deployment.desired")[0]["value_int"] == 5
        assert _by_name(out2, "k8s.deployment.available")[0]["value_int"] == 2

    def test_node_condition_values_and_snake_name(self):
        for status, want in (("True", 1), ("False", 0), ("Unknown", -1)):
            out = self._parse(
                {"kind": "Node", "metadata": {"name": "n"}, "status": {"conditions": [{"type": "Ready", "status": status}]}}
            )
            assert _by_name(out, "k8s.node.condition_ready")[0]["value_int"] == want
        from opentelemetry_collector_contrib_ray.sources.scrapers import parse_k8s_objects
        import json

        out = parse_k8s_objects(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [json.dumps({"kind": "Node", "metadata": {"name": "n"}, "status": {}})]}),
            node_conditions=("MemoryPressure",),
        )
        assert out.to_pylist()[0]["name"] == "k8s.node.condition_memory_pressure"

    def test_namespace_phase(self):
        out = self._parse({"kind": "Namespace", "metadata": {"name": "x"}, "status": {"phase": "Active"}})
        assert _by_name(out, "k8s.namespace.phase")[0]["value_int"] == 1
        out2 = self._parse({"kind": "Namespace", "metadata": {"name": "x"}, "status": {"phase": "Terminating"}})
        assert _by_name(out2, "k8s.namespace.phase")[0]["value_int"] == 0


class TestKubeletSummary:
    def _parse(self, payload):
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            parse_kubelet_summary,
        )

        return parse_kubelet_summary(
            pa.table(
                {"server_id": pa.array([1], pa.int64()), "payload": [json.dumps(payload)]}
            )
        )

    def test_node_cpu_scaling(self):
        # kubelet/cpu.go: utilization = usageNanoCores/1e9 (double
        # gauge), time = usageCoreNanoSeconds/1e9 (cumulative double)
        out = self._parse(
            {"node": {"cpu": {"usageNanoCores": 500000000, "usageCoreNanoSeconds": 2000000000}}}
        )
        u = _by_name(out, "k8s.node.cpu.utilization")[0]
        assert u["value_double"] == 0.5 and u["mtype"] == "gauge"
        t = _by_name(out, "k8s.node.cpu.time")[0]
        assert t["value_double"] == 2.0 and t["mtype"] == "sum" and t["monotonic"]

    def test_pod_container_volume_labels(self):
        out = self._parse(
            {
                "pods": [
                    {
                        "podRef": {"name": "p1", "namespace": "ns1"},
                        "memory": {"usageBytes": 99},
                        "containers": [
                            {"name": "c1", "rootfs": {"usedBytes": 8}}
                        ],
                        "volume": [{"name": "v1", "inodesUsed": 5}],
                    }
                ]
            }
        )
        pm = _by_name(out, "k8s.pod.memory.usage")[0]
        assert pm["label_value"] == "ns=ns1,pod=p1"
        cf = _by_name(out, "container.filesystem.usage")[0]
        assert cf["label_value"] == "ns=ns1,pod=p1,container=c1"
        vi = _by_name(out, "k8s.volume.inodes.used")[0]
        assert vi["label_value"] == "ns=ns1,pod=p1,volume=v1" and vi["value_int"] == 5

    def test_network_direction_labels(self):
        out = self._parse(
            {"node": {"network": {"name": "eth0", "rxBytes": 11, "txErrors": 2}}}
        )
        io = {r["label_value"]: r["value_int"] for r in _by_name(out, "k8s.node.network.io")}
        assert io == {"interface=eth0,direction=receive": 11}
        err = {r["label_value"]: r["value_int"] for r in _by_name(out, "k8s.node.network.errors")}
        assert err == {"interface=eth0,direction=transmit": 2}

    def test_missing_fields_skipped(self):
        out = self._parse({"node": {"memory": {"rssBytes": 1}}})
        assert len(_rows(out)) == 1
        assert _by_name(out, "k8s.node.memory.rss")[0]["value_int"] == 1


class TestPrometheusText:
    def _parse(self, payload: str) -> pa.Table:
        return parse_prometheus_text(
            pa.table({"server_id": pa.array([1], pa.int64()), "payload": [payload]})
        )

    def test_counter_gauge_and_untyped(self):
        payload = "\n".join(
            [
                "# HELP http_requests_total Total requests.",
                "# TYPE http_requests_total counter",
                'http_requests_total{method="get",code="200"} 1027',
                'http_requests_total{code="400",method="get"} 3',
                "# TYPE temp gauge",
                "temp 36.6",
                "no_decl 7",
            ]
        )
        out = self._parse(payload)
        reqs = _by_name(out, "http_requests_total")
        assert len(reqs) == 2
        assert all(r["mtype"] == "sum" and r["monotonic"] for r in reqs)
        # label sets canonicalize sorted → both rows share the key shape
        lv = sorted(r["label_value"] for r in reqs)
        assert lv == ['code="200",method="get"', 'code="400",method="get"']
        by_lv = {r["label_value"]: r["value_double"] for r in reqs}
        assert by_lv['code="200",method="get"'] == 1027.0
        t = _by_name(out, "temp")[0]
        assert t["mtype"] == "gauge" and t["value_double"] == 36.6
        nd = _by_name(out, "no_decl")[0]
        assert nd["mtype"] == "gauge" and not nd["monotonic"]

    def test_histogram_components_inherit_type(self):
        payload = "\n".join(
            [
                "# TYPE lat histogram",
                'lat_bucket{le="0.1"} 5',
                'lat_bucket{le="+Inf"} 9',
                "lat_sum 12.5",
                "lat_count 9",
            ]
        )
        out = self._parse(payload)
        rows = _rows(out)
        assert all(r["mtype"] == "sum" and r["monotonic"] for r in rows)
        buckets = _by_name(out, "lat_bucket")
        assert {r["label_value"] for r in buckets} == {'le="0.1"', 'le="+Inf"'}
        assert _by_name(out, "lat_sum")[0]["value_double"] == 12.5

    def test_inf_and_garbage_lines(self):
        payload = "x 1e3\ny +Inf\nthis is garbage\nz notanumber"
        out = self._parse(payload)
        assert _by_name(out, "x")[0]["value_double"] == 1000.0
        import math

        assert math.isinf(_by_name(out, "y")[0]["value_double"])
        assert not _by_name(out, "z")
        assert len(_rows(out)) == 2

    def test_timestamp_suffix_accepted(self):
        out = self._parse("m{a=\"1\"} 4 1395066363000")
        assert _by_name(out, "m")[0]["value_double"] == 4.0


def test_union_compatible_schemas():
    """All four parsers share one output schema so results union."""
    t = pa.table({"server_id": pa.array([1], pa.int64()), "payload": ["used_memory:10"]})
    r = parse_redis_info(t)
    z = parse_zk_mntr(pa.table({"server_id": pa.array([1], pa.int64()), "payload": ["zk_znode_count\t1"]}))
    m = parse_memcached_stats(pa.table({"server_id": pa.array([1], pa.int64()), "payload": ["STAT bytes 1"]}))
    n = parse_nginx_stub_status(pa.table({"server_id": pa.array([1], pa.int64()), "payload": [TestNginx.PAYLOAD]}))
    assert r.schema == z.schema == m.schema == n.schema
    combined = pa.concat_tables([r, z, m, n])
    assert combined.num_rows == r.num_rows + z.num_rows + m.num_rows + n.num_rows


class TestContainerInsights:
    def test_cluster_metrics(self):
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            parse_container_insights,
        )

        snap = {
            "cluster": "c1",
            "nodes": [
                # failed: MemoryPressure True
                {"status": {"conditions": [{"type": "MemoryPressure", "status": "True"}]}},
                # failed: Unknown counts as not-False (node.go:100-110)
                {"status": {"conditions": [
                    {"type": "NetworkUnavailable", "status": "Unknown"},
                    {"type": "Ready", "status": "True"},
                ]}},
                # healthy: pressure False; Ready is not a failure cond
                {"status": {"conditions": [
                    {"type": "DiskPressure", "status": "False"},
                    {"type": "Ready", "status": "False"},
                ]}},
            ],
            "pods": [
                {"namespace": "ns0", "phase": "Running"},
                {"namespace": "ns0", "phase": "Running"},
                {"namespace": "ns1", "phase": "Pending"},
            ],
            "endpoints": [
                {"service": "s1", "namespace": "ns0", "podKeys": ["a", "b"]},
                {"service": "s0", "namespace": "ns0", "podKeys": []},  # dropped
            ],
        }
        out = parse_container_insights(
            pa.table(
                {
                    "server_id": [1, 2],
                    "payload": [json.dumps(snap), json.dumps({"cluster": ""})],
                }
            )
        ).to_pandas()
        # empty cluster name drops the whole snapshot (k8sapiserver.go:121-126)
        assert (out["server_id"] == 1).all()
        got = out.set_index(["name", "label_value"])["value_int"]
        assert got[("ci.cluster_node_count", "cluster=c1")] == 3
        assert got[("ci.cluster_failed_node_count", "cluster=c1")] == 2
        assert got[("ci.namespace_number_of_running_pods", "cluster=c1,ns=ns0")] == 2
        # ns1 has no running pods -> no row (pod.go:71-80)
        assert ("ci.namespace_number_of_running_pods", "cluster=c1,ns=ns1") not in got.index
        assert got[("ci.service_number_of_running_pods", "cluster=c1,ns=ns0,service=s1")] == 2
        assert ("ci.service_number_of_running_pods", "cluster=c1,ns=ns0,service=s0") not in got.index


class TestContainerInsightOTLP:
    """internal/aws/containerinsight/utils.go translation layer."""

    def test_sum_fields_semantics(self):
        from opentelemetry_collector_contrib_ray.sources.scrapers import sum_ci_fields

        # utils.go:30-58: base = first map's float64 keys; later maps
        # add only floats for existing keys; ints excluded (Go float64
        # type assertion); empty input -> nil
        assert sum_ci_fields([]) == {}
        got = sum_ci_fields(
            [
                {"a": 1.5, "b": 2.0, "n": 7},      # n is int -> not in base
                {"a": 0.5, "c": 9.0},              # c not in base -> ignored
                {"b": 1.0, "a": "x"},              # non-float a -> skipped
            ]
        )
        assert got == {"a": 2.0, "b": 3.0}

    def test_convert_tags_fields_units(self):
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            convert_ci_otlp,
        )

        doc = {
            "fields": {
                "pod_cpu_utilization": 12.5,       # float -> double gauge, Percent
                "pod_memory_rss": 42,              # int -> int gauge, Bytes
                "pod_number_of_containers": 3,     # Count
                "pod_custom": 1.5,                 # unmapped -> empty unit
                "flagged": True,                   # bool -> type-switch default, skipped
                "note": "x",                       # string -> skipped
            },
            "tags": {
                "Type": "Pod",
                "Timestamp": "1600000000123456789",
                "PodName": "p0",
            },
        }
        out = convert_ci_otlp(
            pa.table({"server_id": [1], "payload": [json.dumps(doc)]})
        ).to_pandas()
        res = out[out["mtype"] == "resource"].set_index("label_key")["label_value"]
        # ns -> ms truncation (utils.go:177-182)
        assert res["Timestamp"] == "1600000000123"
        assert res["Type"] == "Pod"
        assert res["PodName"] == "p0"
        g = out[out["mtype"] != "resource"].set_index("name")
        assert g.loc["pod_cpu_utilization", "mtype"] == "double_gauge"
        assert g.loc["pod_cpu_utilization", "units"] == "Percent"
        assert g.loc["pod_cpu_utilization", "value_double"] == 12.5
        assert g.loc["pod_memory_rss", "mtype"] == "int_gauge"
        assert g.loc["pod_memory_rss", "units"] == "Bytes"
        assert g.loc["pod_memory_rss", "value_int"] == 42
        assert g.loc["pod_number_of_containers", "units"] == "Count"
        assert g.loc["pod_custom", "units"] == ""
        assert "flagged" not in g.index and "note" not in g.index

    def test_unknown_type_and_prefix_strip(self):
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            convert_ci_otlp,
        )

        docs = [
            # unknown Type -> empty prefix (utils.go:144-146): the raw
            # key itself is the unit-map lookup key
            {"fields": {"memory_usage": 7}, "tags": {"Type": "Weird"}},
            # NodeNet strips "node_interface_" before the lookup
            {
                "fields": {"node_interface_network_rx_bytes": 1.25},
                "tags": {"Type": "NodeNet"},
            },
            # bad Timestamp -> ParseUint error ignored -> 0 (utils.go:178)
            {"fields": {}, "tags": {"Type": "Node", "Timestamp": "nope"}},
        ]
        out = convert_ci_otlp(
            pa.table(
                {
                    "server_id": [1, 2, 3],
                    "payload": [json.dumps(d) for d in docs],
                }
            )
        ).to_pandas()
        g = out[out["mtype"] != "resource"].set_index("name")
        assert g.loc["memory_usage", "units"] == "Bytes"
        assert g.loc["node_interface_network_rx_bytes", "units"] == "Bytes/Second"
        ts = out[(out["label_key"] == "Timestamp")]["label_value"].iloc[0]
        assert ts == "0"

    def test_fields_list_folds_before_convert(self):
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            convert_ci_otlp,
        )

        doc = {
            "fields": [
                {"pod_cpu_utilization": 1.5, "pod_memory_pgfault": 2.0},
                {"pod_cpu_utilization": 2.5},
            ],
            "tags": {"Type": "Pod"},
        }
        out = convert_ci_otlp(
            pa.table({"server_id": [1], "payload": [json.dumps(doc)]})
        ).to_pandas()
        g = out[out["mtype"] != "resource"].set_index("name")
        assert g.loc["pod_cpu_utilization", "value_double"] == 4.0
        assert g.loc["pod_memory_pgfault", "value_double"] == 2.0
        assert g.loc["pod_memory_pgfault", "units"] == "Count/Second"

    def test_timestamp_parseuint_strictness(self):
        # strconv.ParseUint(v, 10, 64): '+', whitespace and '_' are
        # syntax errors -> 0; values above MaxUint64 saturate (ErrRange
        # returns MaxUint64, error ignored per utils.go:178)
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            convert_ci_otlp,
        )

        cases = {
            1: "+1600000000000000000",   # leading '+' -> syntax error -> 0
            2: " 1600000000000000000",   # whitespace -> 0
            3: "1_000000000",            # underscore separator -> 0
            4: str(2**64 + 5),           # over uint64 -> MaxUint64
            5: "-5",                     # sign -> 0
        }
        out = convert_ci_otlp(
            pa.table(
                {
                    "server_id": list(cases),
                    "payload": [
                        json.dumps({"fields": {}, "tags": {"Type": "Node", "Timestamp": v}})
                        for v in cases.values()
                    ],
                }
            )
        ).to_pandas()
        ts = out[out["label_key"] == "Timestamp"].set_index("server_id")["label_value"]
        assert ts[1] == "0" and ts[2] == "0" and ts[3] == "0" and ts[5] == "0"
        assert ts[4] == str((2**64 - 1) // 1_000_000)

    def test_non_string_tag_skips_the_doc(self):
        # tags is map[string]string in the Go reference: an integer
        # Timestamp (or any non-string tag value) fails the strict
        # decode, so the whole doc is skipped, not coerced
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            convert_ci_otlp,
        )

        docs = [
            {"fields": {"pod_memory_rss": 1}, "tags": {"Type": "Pod", "Timestamp": 1600000000123456789}},
            {"fields": {"pod_memory_rss": 2}, "tags": {"Type": "Pod", "Timestamp": "1600000000123456789", "N": 3}},
            {"fields": {"pod_memory_rss": 3}, "tags": {"Type": "Pod", "Timestamp": "1600000000123456789"}},
        ]
        out = convert_ci_otlp(
            pa.table({"server_id": [1, 2, 3], "payload": [json.dumps(d) for d in docs]})
        ).to_pandas()
        assert set(out["server_id"]) == {3}
        assert out.loc[out["label_key"] == "Timestamp", "label_value"].tolist() == ["1600000000123"]

    def test_malformed_payload_rows_skipped(self):
        # structurally malformed payloads skip the ROW (like undecodable
        # JSON) instead of raising and failing the whole batch
        import json

        from opentelemetry_collector_contrib_ray.sources.scrapers import (
            convert_ci_otlp,
            sum_ci_fields,
        )

        payloads = [
            json.dumps([1, 2, 3]),                       # top-level list
            json.dumps("just a string"),                 # top-level scalar
            json.dumps({"fields": "oops", "tags": {}}),  # non-dict fields
            json.dumps({"fields": {}, "tags": [1]}),     # non-dict tags
            json.dumps({"fields": [{"a": 1.0}, 7, None, {"a": 2.0}], "tags": {"Type": "Pod"}}),
            json.dumps({"fields": {"pod_memory_rss": 1}, "tags": {"Type": "Pod"}}),
        ]
        out = convert_ci_otlp(
            pa.table({"server_id": list(range(len(payloads))), "payload": payloads})
        ).to_pandas()
        # rows 0/1/3 skipped entirely; 2 contributes nothing metric-wise
        assert set(out["server_id"]) <= {2, 3, 4, 5}
        g = out[out["mtype"] != "resource"]
        assert set(g["server_id"]) == {4, 5}
        a = g[g["name"] == "a"]
        assert len(a) == 1 and a["value_double"].iloc[0] == 3.0  # non-dict list entries skipped
        # sum_ci_fields directly: non-dict first element doesn't raise
        assert sum_ci_fields([7, {"x": 1.0}, {"x": 2.5}]) == {"x": 3.5}
