"""``aggregate.span_parents`` and its three users against per-trace
reference walkers.

The references are the per-trace Python the engine replaced: the Sentry
dict walker (``walk_transactions``) and Datadog's scalar ``get_root``
(utils/trace_helpers.go:139-175), plus a dict lookup for
``mark_analyzed``. In every one a row is a span, and a parent id names
the first row of the trace with that span id.

Traces are drawn with span ids from a small range, so duplicate span
ids, self-parents, cycles, missing parents and children of orphans all
occur; ``SHAPES`` names each of them once, with a 1,000-span chain,
one-span traces and an empty input.
"""

import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from opentelemetry_collector_contrib_ray.stages import aggregate
from opentelemetry_collector_contrib_ray.stages.aggregate import span_parents
from opentelemetry_collector_contrib_ray.stages.datadog import (
    DatadogSpanTranslator,
    Denylister,
    apply_denylist,
    datadog_trace_translate,
    mark_analyzed,
)
from opentelemetry_collector_contrib_ray.stages.sentry import sentry_transactions, transactions

# one trace as (span id, parent id) pairs; parent 0 is no parent, ids
# above 6 are never a span id (a missing parent)
SHAPES = {
    "root_chain": [(1, 0), (2, 1), (3, 2), (4, 1)],
    "orphan_and_child": [(1, 0), (2, 9), (3, 2)],
    "self_parent": [(1, 1), (2, 1)],
    "two_cycle": [(1, 2), (2, 1), (3, 1)],
    "three_cycle": [(1, 2), (2, 3), (3, 1), (4, 0)],
    "chain_1000": [(i + 1, i) for i in reversed(range(1000))],
    "duplicate_ids": [(1, 0), (1, 0), (2, 1), (2, 9), (3, 2)],
    "one_span_root": [(1, 0)],
    "one_span_orphan": [(1, 9)],
}

TRACE = st.lists(st.tuples(st.integers(1, 6), st.one_of(st.just(0), st.integers(1, 8))), min_size=1, max_size=10)


@st.composite
def span_rows(draw):
    """(trace, span, parent) rows of up to 6 traces, interleaved."""
    rows = [(k, s, p) for k, tr in enumerate(draw(st.lists(TRACE, max_size=6))) for s, p in tr]
    return draw(st.permutations(rows))


def shape_rows(rng: random.Random):
    """Every shape as its own trace, rows interleaved."""
    rows = [(k, s, p) for k, tr in enumerate(SHAPES.values()) for s, p in tr]
    rng.shuffle(rows)
    return rows


# ------------------------------------------------------------ references


def _by_trace(rows):
    """trace -> (its rows in order, span id -> its first row)."""
    out = {}
    for i, (k, s, _) in enumerate(rows):
        idx, first = out.setdefault(k, ([], {}))
        idx.append(i)
        first.setdefault(s, i)
    return out


def walk_transactions(rows):
    """The Sentry dict walker (sentry_exporter.go:51-148), one trace at a
    time: a span with no parent is a root; every other span whose parent
    chain reaches a root adds one child to that root; a span whose chain
    meets a missing parent or a cycle is an orphan, its own transaction.
    Returns (trace, root row, n_child_spans, is_orphan) per transaction."""
    out = []
    for k, (idx, first) in _by_trace(rows).items():
        root_of = {}

        def resolve(i):
            chain, cur = [], i
            while True:
                if cur in root_of:
                    r = root_of[cur]
                    break
                chain.append(cur)
                p = rows[cur][2]
                if p == 0:
                    r = cur  # root span (:295-298)
                    break
                if p not in first:
                    r = None  # orphan chain (:131-148)
                    break
                cur = first[p]
                if cur in chain:  # cycle guard
                    r = None
                    break
            for c in chain:
                root_of[c] = r
            return r

        n_children = {}
        for i in idx:
            r = resolve(i)
            if r is not None and r != i:
                n_children[r] = n_children.get(r, 0) + 1
        for i in idx:
            if rows[i][2] == 0:
                out.append((k, i, n_children.get(i, 0), False))
            elif root_of[i] is None:
                out.append((k, i, 0, True))
    return sorted(out)


def get_root(parent, span) -> int:
    """utils/trace_helpers.go:139-175 GetRoot over one trace's spans in
    row order (positional): the last span without a parent, else the
    first span whose parent is absent (Go's random-map order made
    deterministic), else the last span."""
    parent, span = np.asarray(parent), np.asarray(span)
    if len(parent) == 0:
        return -1
    roots = np.flatnonzero(parent == 0)
    if len(roots):
        return int(roots[-1])  # scan from the end (:152-157)
    orphans = np.flatnonzero(~np.isin(parent, span))
    if len(orphans):
        return int(orphans[0])
    return len(parent) - 1  # gracefully fail with the last span (:174)


def reference_kept_and_top(rows, resource, service, rate):
    """Rows the denylist ``^deny`` keeps (a trace stays when its GetRoot
    span's resource is allowed) and each kept row's top-level mark
    (model.go:45-74: not top when its parent row has the same service
    and the span was not extracted by a rate > 0)."""
    out = []
    for idx, first in _by_trace(rows).values():
        root = idx[get_root([rows[i][2] for i in idx], [rows[i][1] for i in idx])]
        if resource[root].startswith("deny"):
            continue
        for i in idx:
            j = first.get(rows[i][2]) if rows[i][2] else None
            inherits = j is not None and service[j] == service[i] and not rate[i] > 0
            out.append((i, not inherits))
    return sorted(out)


# ------------------------------------------------------- engine, no Ray


def sentry_table(rows) -> pa.Table:
    """Spans with descriptors; each row's ``description`` is its row."""
    return pa.table(
        {
            "trace_id": pa.array([f"t{k}" for k, _, _ in rows], pa.string()),
            "span_id": pa.array([f"s{s}" for _, s, _ in rows], pa.string()),
            "parent_span_id": pa.array([f"s{p}" if p else None for _, _, p in rows], pa.string()),
            "op": pa.array([""] * len(rows), pa.string()),
            "description": pa.array([str(i) for i in range(len(rows))], pa.string()),
            "status_code": pa.array([0] * len(rows), pa.int64()),
        }
    )


def sentry_result(out: pa.Table):
    """(trace, root row, n_child_spans, is_orphan) per transaction."""
    return sorted(
        (int(k[1:]), int(d), n, o)
        for k, d, n, o in zip(
            out["trace_id"].to_pylist(),
            out["description"].to_pylist(),
            out["n_child_spans"].to_pylist(),
            out["is_orphan"].to_pylist(),
        )
    )


def dd_table(rows, resource, service, rate) -> pa.Table:
    """Translated Datadog spans; ``start_ns`` is each row's index."""
    return pa.table(
        {
            "trace_id_u64": pa.array([k + 100 for k, _, _ in rows], pa.uint64()),
            "span_id_u64": pa.array([s for _, s, _ in rows], pa.uint64()),
            "parent_id_u64": pa.array([p for _, _, p in rows], pa.uint64()),
            "dd_resource": pa.array(resource, pa.string()),
            "dd_service": pa.array(service, pa.string()),
            "event_sample_rate": pa.array(rate, pa.float64()),
            "start_ns": pa.array(range(len(rows)), pa.int64()),
        }
    )


def dd_result(out: pa.Table):
    """(row, top_level) per kept row."""
    return sorted(zip(out["start_ns"].to_pylist(), out["top_level"].to_pylist()))


def marks(rows, seed: int):
    """Seeded per-row resource (``deny``/``keep``), service and rate."""
    rng = random.Random(seed)
    resource = [rng.choice(["deny", "keep"]) for _ in rows]
    service = [rng.choice(["a", "b"]) for _ in rows]
    rate = [rng.choice([float("nan"), 0.0, 1.0]) for _ in rows]
    return resource, service, rate


def test_span_parents_on_strings_and_uint64():
    trace = ["a", "a", "b", "b", "a", "b"]
    span = [1, 2, 1, 1, 1, 3]
    parent = [0, 1, 1, 9, 2, 1]
    want = [-1, 0, 2, -2, 1, 2]
    has = np.array(parent) != 0
    assert span_parents(pa.array(trace), pa.array(span, pa.uint64()), pa.array(parent, pa.uint64()), has).tolist() == want
    s = pa.array([f"x{v}" for v in span])
    p = pa.array([f"x{v}" if v else None for v in parent])
    assert span_parents(pa.chunked_array([trace[:3], trace[3:]]), s, p, has).tolist() == want
    assert span_parents(pa.array([], pa.string()), pa.array([], pa.uint64()), pa.array([], pa.uint64()), []).tolist() == []


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_each_shape_matches_the_references(shape):
    rows = [(0, s, p) for s, p in SHAPES[shape]]
    assert sentry_result(transactions(sentry_table(rows))) == walk_transactions(rows)
    m = marks(rows, 1)
    got = mark_analyzed(apply_denylist(dd_table(rows, *m), Denylister(["^deny"])))
    assert dd_result(got) == reference_kept_and_top(rows, *m)


def test_empty_input():
    assert transactions(sentry_table([])).num_rows == 0
    assert mark_analyzed(apply_denylist(dd_table([], [], [], []), Denylister(["^deny"]))).num_rows == 0


@settings(max_examples=300, deadline=None)
@given(span_rows())
def test_sentry_transactions_match_the_dict_walker(rows):
    assert sentry_result(transactions(sentry_table(rows))) == walk_transactions(rows)


@settings(max_examples=300, deadline=None)
@given(span_rows(), st.integers(0, 2**16))
def test_datadog_root_and_marks_match_get_root(rows, seed):
    m = marks(rows, seed)
    got = mark_analyzed(apply_denylist(dd_table(rows, *m), Denylister(["^deny"])))
    assert dd_result(got) == reference_kept_and_top(rows, *m)


# ------------------------------------------------ through keyed_apply


@pytest.mark.parametrize("num_buckets", [1, 7])
def test_sentry_transactions_keyed(num_buckets, monkeypatch, ray_session):
    rows = shape_rows(random.Random(num_buckets))
    t = sentry_table(rows).drop_columns(["op", "description"])
    t = t.append_column("name", pa.array([str(i) for i in range(len(rows))], pa.string()))
    monkeypatch.setattr(aggregate, "derived_num_partitions", lambda: num_buckets)
    out = sentry_transactions(ray.data.from_arrow(t).repartition(3)).to_pandas()
    assert sentry_result(pa.Table.from_pandas(out)) == walk_transactions(rows)


@pytest.mark.parametrize("num_buckets", [1, 7])
def test_datadog_trace_translate_keyed(num_buckets, ray_session):
    rows = shape_rows(random.Random(num_buckets))
    resource, service, rate = marks(rows, num_buckets)
    spans = pd.DataFrame(
        {
            "trace_id": [f"{k + 100:032x}" for k, _, _ in rows],
            "span_id": [f"{s:016x}" for _, s, _ in rows],
            "parent_span_id": [f"{p:016x}" if p else None for _, _, p in rows],
            "name": resource,
            "kind": "server",
            "status_code": 0,
            "status_message": "",
            "start_ns": range(len(rows)),
            "end_ns": 0,
            "peer.service": service,
            "analytics.event": ["true" if r > 0 else None for r in rate],
        }
    )
    tr = DatadogSpanTranslator(attr_cols=["peer.service", "analytics.event"])
    local = tr(pa.Table.from_pandas(spans, preserve_index=False)).to_pandas()
    ds = ray.data.from_pandas(spans).repartition(3)
    out = datadog_trace_translate(ds, tr, denylist=["^deny"], num_buckets=num_buckets).to_pandas()
    want = reference_kept_and_top(
        rows, list(local["dd_resource"]), list(local["dd_service"]), list(local["event_sample_rate"].fillna(0))
    )
    assert sorted(zip(out["start_ns"], out["top_level"])) == want
