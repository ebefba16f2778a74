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
trace; the per-trace closure is a memoized parent-walk inside the
bucket task (bounded by trace size — the same per-trace state bound
the reference's maps have per consume call).

Output: one row per TRANSACTION: (trace_id, root_span_id, op,
description, status, n_child_spans, is_orphan).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .._util import table_from_pandas

# sentry span status by OTLP code (sentry_exporter.go:36-42,284-293):
# 0 → Undefined, 1 → OK, 2 → Unknown; out-of-range → Unknown
_CANONICAL = {0: "undefined", 1: "ok", 2: "unknown"}


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


def _per_bucket_transactions(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for tid, g in df.groupby("trace_id", sort=False):
        ids = g["span_id"].tolist()
        parents = g["parent_span_id"].fillna("").tolist()
        parent_of = dict(zip(ids, parents))
        present = set(ids)
        root_of: dict[str, str | None] = {}

        def resolve(sid: str) -> str | None:
            chain = []
            cur = sid
            while True:
                if cur in root_of:
                    r = root_of[cur]
                    break
                chain.append(cur)
                p = parent_of.get(cur, "")
                if p == "":
                    r = cur  # root span (:295-298)
                    break
                if p not in present:
                    r = None  # orphan chain (:131-148)
                    break
                cur = p
                if cur in chain:  # cycle guard
                    r = None
                    break
            for c in chain:
                root_of[c] = r
            return r

        n_children: dict[str, int] = {}
        orphans = []
        for sid in ids:
            r = resolve(sid)
            if r is None:
                orphans.append(sid)
            elif r != sid:
                n_children[r] = n_children.get(r, 0) + 1

        meta = g.set_index("span_id")
        for sid in ids:
            is_root = parent_of.get(sid, "") == ""
            if not is_root and sid not in orphans:
                continue
            row = meta.loc[sid]
            rows.append(
                {
                    "trace_id": tid,
                    "root_span_id": sid,
                    "op": row["op"],
                    "description": row["description"],
                    "status": _CANONICAL.get(int(row.get("status_code", 0) or 0), "unknown"),
                    "n_child_spans": n_children.get(sid, 0) if is_root else 0,
                    "is_orphan": not is_root,
                }
            )
    return pd.DataFrame(
        rows,
        columns=["trace_id", "root_span_id", "op", "description", "status", "n_child_spans", "is_orphan"],
    )


def sentry_transactions(ds):
    """Distributed transaction assembly: descriptor pass fused into the
    bucketing map, one shuffle on trace_id, per-bucket closure."""
    from .aggregate import keyed_apply

    def prep(t: pa.Table) -> pa.Table:
        return table_from_pandas(generate_span_descriptors(t.to_pandas()))

    def per_bucket(t: pa.Table) -> pa.Table:
        # the root walk is per-trace Python over pandas groups
        return table_from_pandas(_per_bucket_transactions(t.to_pandas()))

    withdesc = ds.map_batches(prep, batch_format="pyarrow")
    return keyed_apply(withdesc, "trace_id", per_bucket)
