"""Tests for stages/sentry.py — semantics from
exporter/sentryexporter/sentry_exporter.go (+_test.go)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray

from opentelemetry_collector_contrib_ray.stages.sentry import (
    generate_span_descriptors,
    sentry_transactions,
)


def spans(rows):
    df = pd.DataFrame(rows)
    for c in ("trace_id", "span_id", "parent_span_id", "name", "kind", "status_code",
              "http.method", "db.system", "db.statement", "rpc.service",
              "messaging.system", "faas.trigger"):
        if c not in df.columns:
            df[c] = None
    df["name"] = df["name"].fillna("op")
    df["trace_id"] = df["trace_id"].fillna("t1")
    return df


class TestDescriptors:
    def run(self, row):
        return generate_span_descriptors(spans([row])).iloc[0]

    def test_http(self):
        r = self.run({"span_id": "a", "http.method": "GET", "kind": "server", "name": "/api"})
        assert r["op"] == "http.server" and r["description"] == "GET /api"
        r2 = self.run({"span_id": "a", "http.method": "POST", "kind": "client"})
        assert r2["op"] == "http.client"
        r3 = self.run({"span_id": "a", "http.method": "GET", "kind": "internal"})
        assert r3["op"] == "http"

    def test_db_with_statement_fallback(self):
        r = self.run({"span_id": "a", "db.system": "mysql", "db.statement": "SELECT 1"})
        assert r["op"] == "db" and r["description"] == "SELECT 1"
        r2 = self.run({"span_id": "a", "db.system": "mysql", "name": "q"})
        assert r2["description"] == "q"

    def test_priority_http_over_db(self):
        r = self.run({"span_id": "a", "http.method": "GET", "db.system": "x", "name": "n"})
        assert r["op"] == "http"

    def test_rpc_messaging_faas_default(self):
        assert self.run({"span_id": "a", "rpc.service": "s"})["op"] == "rpc"
        assert self.run({"span_id": "a", "messaging.system": "kafka"})["op"] == "message"
        assert self.run({"span_id": "a", "faas.trigger": "timer"})["op"] == "timer"
        d = self.run({"span_id": "a", "name": "plain"})
        assert d["op"] == "" and d["description"] == "plain"


class TestTransactions:
    def _run(self, rows):
        df = spans(rows)
        ds = ray.data.from_pandas(df)
        return sentry_transactions(ds).to_pandas()

    def test_root_and_children(self, ray_session):
        out = self._run(
            [
                {"span_id": "r", "parent_span_id": None},
                {"span_id": "c1", "parent_span_id": "r"},
                {"span_id": "c2", "parent_span_id": "c1"},  # transitive
            ]
        )
        assert len(out) == 1
        assert out.iloc[0]["root_span_id"] == "r"
        assert out.iloc[0]["n_child_spans"] == 2
        assert not out.iloc[0]["is_orphan"]

    def test_orphans_become_transactions(self, ray_session):
        out = self._run(
            [
                {"span_id": "r", "parent_span_id": None},
                {"span_id": "o", "parent_span_id": "missing"},
                {"span_id": "oc", "parent_span_id": "o"},  # child of orphan stays orphan
            ]
        )
        assert len(out) == 3
        orphans = out[out["is_orphan"]]
        assert set(orphans["root_span_id"]) == {"o", "oc"}
        assert (orphans["n_child_spans"] == 0).all()

    def test_duplicate_span_ids(self, ray_session):
        # each row is a span; a parent id names the first row with that id
        out = self._run(
            [
                {"span_id": "r", "parent_span_id": None, "name": "first"},
                {"span_id": "r", "parent_span_id": None, "name": "second"},
                {"span_id": "c", "parent_span_id": "r"},
                {"span_id": "c", "parent_span_id": "r"},
            ]
        )
        got = sorted(zip(out["description"], out["n_child_spans"], out["is_orphan"]))
        assert got == [("first", 2, False), ("second", 0, False)]

    def test_multiple_traces_isolated(self, ray_session):
        out = self._run(
            [
                {"trace_id": "ta", "span_id": "r1", "parent_span_id": None},
                {"trace_id": "tb", "span_id": "r2", "parent_span_id": None},
                # same span id as r1's child but in another trace
                {"trace_id": "tb", "span_id": "c", "parent_span_id": "r2"},
            ]
        )
        assert len(out) == 2
        byt = out.set_index("trace_id")
        assert byt.loc["ta", "n_child_spans"] == 0
        assert byt.loc["tb", "n_child_spans"] == 1

    def test_status_mapping(self, ray_session):
        out = self._run(
            [
                {"span_id": "a", "status_code": 0},
                {"trace_id": "t2", "span_id": "b", "status_code": 1},
                {"trace_id": "t3", "span_id": "c", "status_code": 2},
                {"trace_id": "t4", "span_id": "d", "status_code": None},  # unset
            ]
        )
        got = dict(zip(out["root_span_id"], out["status"]))
        assert got == {"a": "undefined", "b": "ok", "c": "unknown", "d": "undefined"}
