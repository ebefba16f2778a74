"""sentryexporter span → transaction grouping, Ray-Data-first.

Re-expresses `exporter/sentryexporter/sentry_exporter.go`:

* descriptors (:196-258): op/description chosen by convention priority
  http.method ("http" + ".client"/".server" by kind, desc =
  "METHOD name") → db.system ("db", desc = db.statement else name) →
  rpc.service ("rpc") → messaging.system ("message") → faas.trigger
  (op = trigger value); default op "" desc name.
* root detection (:295-298): empty parent span id ⇒ the span starts a
  transaction.
* transaction assembly (:51-148): every other span is attached to the
  transaction of the ROOT reachable through its parent chain
  (classifyAsOrphanSpans iterates until a fixpoint — i.e. the
  transitive closure); spans whose chain dead-ends at a missing span
  are orphans, and EVERY orphan becomes its own transaction (children
  of orphans stay orphans — the idMap only ever contains spans that
  reached a real root).

Scale shape: one bucketed shuffle on ``trace_id`` co-locates each
trace; each bucket resolves every span's parent row with one
``aggregate.span_parents`` call and finds each span's root by pointer
jumping over those rows, with no per-trace Python.

Output: one row per TRANSACTION: (trace_id, root_span_id, op,
description, status, n_child_spans, is_orphan).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._util import table_from_pandas
from .aggregate import keyed_apply, span_parents


def generate_span_descriptors(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized op/description columns (:196-258)."""
    n = len(df)
    get = lambda c: df[c] if c in df.columns else pd.Series([None] * n)  # noqa: E731
    http = get("http.method")
    db = get("db.system")
    stmt = get("db.statement")
    rpc = get("rpc.service")
    msg = get("messaging.system")
    faas = get("faas.trigger")
    kind = get("kind").fillna("")
    name = df["name"].fillna("")

    op = pd.Series([""] * n)
    desc = name.copy()
    m_faas = faas.notna()
    op = op.where(~m_faas, faas.fillna(""))
    m_msg = msg.notna()
    op = op.where(~m_msg, "message")
    m_rpc = rpc.notna()
    op = op.where(~m_rpc, "rpc")
    m_db = db.notna()
    op = op.where(~m_db, "db")
    desc = desc.where(~m_db, stmt.where(stmt.notna(), name))
    m_http = http.notna()
    http_op = "http" + pd.Series(
        np.where(kind == "client", ".client", np.where(kind == "server", ".server", ""))
    )
    op = op.where(~m_http, http_op)
    desc = desc.where(~m_http, http.fillna("") + " " + name)
    out = df.copy()
    out["op"] = op
    out["description"] = desc
    return out


def transactions(t: pa.Table) -> pa.Table:
    """One row per transaction of ``t``, spans of whole traces with their
    descriptors (``generate_span_descriptors``): each root, and each
    orphan as its own transaction. A row is a span; a parent id names
    the first row of the trace with that span id (``span_parents``).
    Pointer jumping takes every span to the end of its parent chain in
    at most ``n.bit_length()`` rounds (2**k hops after k rounds); an end
    with no parent is the span's root, any other end (a missing parent
    or a cycle) makes the span an orphan."""
    n = t.num_rows
    parent = t["parent_span_id"]
    has_parent = pc.fill_null(pc.not_equal(parent.cast(t["span_id"].type), ""), False).to_numpy(zero_copy_only=False)
    p = span_parents(t["trace_id"], t["span_id"], parent, has_parent)
    end = np.where(p >= 0, p, np.arange(n))
    for _ in range(n.bit_length()):
        nxt = end[end]
        if np.array_equal(nxt, end):
            break
        end = nxt
    is_root = p == -1
    in_tx = is_root[end]
    rows = np.flatnonzero(is_root | ~in_tx)
    children = np.bincount(end[in_tx], minlength=n) - 1  # a root reaches itself
    # sentry span status by OTLP code (sentry_exporter.go:36-42,284-293):
    # 0 → Undefined, 1 → OK, 2 → Unknown; out-of-range → Unknown
    code = np.asarray(t["status_code"].to_numpy(zero_copy_only=False), dtype=float)
    status = np.select([np.isnan(code) | (code == 0), code == 1], ["undefined", "ok"], "unknown")
    return pa.table(
        {
            "trace_id": t["trace_id"].take(rows),
            "root_span_id": t["span_id"].take(rows),
            "op": t["op"].take(rows),
            "description": t["description"].take(rows),
            "status": pa.array(status[rows], pa.string()),
            "n_child_spans": pa.array(np.where(is_root, children, 0)[rows], pa.int64()),
            "is_orphan": pa.array(~is_root[rows]),
        }
    )


def sentry_transactions(ds):
    """Distributed transaction assembly: descriptor pass fused into the
    bucketing map, one shuffle on trace_id, ``transactions`` per bucket."""

    def prep(t: pa.Table) -> pa.Table:
        return table_from_pandas(generate_span_descriptors(t.to_pandas()))

    withdesc = ds.map_batches(prep, batch_format="pyarrow")
    return keyed_apply(withdesc, "trace_id", transactions)
