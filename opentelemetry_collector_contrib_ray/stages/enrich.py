"""Enrich stage: broadcast lookup enrichment and constant resource attributes.

Two reference semantics re-expressed:

- **ResourceDetection** (processor/resourcedetectionprocessor/internal/
  resourcedetection.go:108-192): a detector chain runs ONCE producing a
  small attribute dict, then every batch gets those attributes merged
  with insert-if-absent (first-wins unless override). Here: detect on
  the driver, broadcast via ``ray.put``, apply as constant columns.

- **K8s-style metadata lookup** (processor/k8sprocessor): a metadata
  cache keyed by an identifier extracted from each row through an
  association-rule chain (pod_association.go:31-87 — try each rule in
  order, first one that yields a key present in the cache wins), then
  the cached attributes are added with insert-if-absent semantics
  (processor.go:102-116 InsertString = do not overwrite existing).

The lookup table is broadcast once and turned into Arrow arrays once
per worker process (``make_lookup_fn``).
A batch's lookup is one ``pc.index_in`` per association column and one
``take`` per attribute — a broadcast hash join, never a shuffle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .parse import _constant, _index_in, _set_column


def detect_resource(detectors: Sequence[dict] | None = None) -> dict:
    """Run a detector chain once (driver-side), merging first-wins.

    Each detector is a dict of attributes (stand-ins for env/ec2/gce/...
    detectors — the sandbox has no cloud metadata endpoints). Mirrors
    internal/resourcedetection.go:108-139 with override off: iterate
    detectors in order, merge into one resource; existing keys win.
    """
    merged: dict = {}
    chain = list(detectors) if detectors is not None else [_env_detector(), _system_detector()]
    for d in chain:
        for k, v in d.items():
            if k not in merged:
                merged[k] = v
    return merged


def _env_detector() -> dict:
    """OTEL_RESOURCE env var: comma-separated k=v (reference env detector)."""
    import os

    raw = os.environ.get("OTEL_RESOURCE", "")
    out = {}
    for pair in raw.split(","):
        if "=" in pair:
            k, v = pair.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _system_detector() -> dict:
    """host.name + os.type (reference system detector,
    internal/system/system.go + GOOS mapping resourcedetection.go:199-205)."""
    import platform

    return {"host.name": platform.node(), "os.type": platform.system().upper()}


class ApplyResource:
    """Add detected resource attributes as constant columns,
    insert-if-absent: existing non-null columns are NOT overwritten
    (resourcedetection.go:178-192 Insert semantics)."""

    def __init__(self, resource: dict, override: bool = False):
        self.resource = resource
        self.override = override

    def __call__(self, batch: pa.Table) -> pa.Table:
        for k, v in self.resource.items():
            if k in batch.column_names and not self.override:
                continue
            batch = _set_column(batch, k, _constant(v, len(batch)))
        return batch


DEPLOYMENT_REGEX = r"^(.*)-[0-9a-zA-Z]*-[0-9a-zA-Z]*$"


def apply_extraction_rules(cache: dict, rules: Sequence[dict]) -> dict:
    """k8sprocessor field-extraction rules, applied at cache-fill time
    (kube/client.go:204-271): each rule reads a source attribute and
    derives a new one, optionally through a single-capture-group regex
    (extractField, :259-271 — no match → empty string, exactly one
    group required). The ``deployment`` rule is the canonical example:
    pod name ``name-rsrand-podrand`` → deployment ``name``
    (client.go:226-232).

    rules: [{"from": attr, "name": new_attr, "regex": optional}]
    Returns a NEW cache with derived attributes added per key.
    """
    import re

    compiled = [
        (r["from"], r["name"], re.compile(r["regex"]) if r.get("regex") else None)
        for r in rules
    ]
    out = {}
    for key, attrs in cache.items():
        new_attrs = dict(attrs)
        for src, name, rx in compiled:
            v = attrs.get(src)
            if v is None:
                continue
            if rx is None:
                new_attrs[name] = v
            else:
                m = rx.match(str(v))
                groups = m.groups() if m else ()
                new_attrs[name] = groups[0] if len(groups) == 1 else ""
        out[key] = new_attrs
    return out


class _LookupState:
    """Column-oriented view of a {key: {attr: value}} cache: the keys as
    one Arrow array, and one string array per attribute in key order."""

    def __init__(self, table: dict):
        self.keys = pa.array(list(table))
        self.attr_names = sorted({a for m in table.values() for a in m})
        self.attr_arrays = {
            a: pa.array([m.get(a) for m in table.values()], pa.string()) for a in self.attr_names
        }

    def apply(self, batch: pa.Table, association, prefix: str) -> pa.Table:
        idx = pa.nulls(len(batch), pa.int32())
        for col in association:
            if col in batch.column_names:
                idx = pc.coalesce(idx, _index_in(batch[col], self.keys))  # first hit wins
        for a in self.attr_names:
            out_name = prefix + a
            new = self.attr_arrays[a].take(idx)
            if out_name in batch.column_names:
                new = pc.coalesce(batch[out_name].cast(pa.string()), new)  # insert-if-absent
            batch = _set_column(batch, out_name, new)
        return batch


_PROC_LOOKUP_CACHE: dict = {}


def make_lookup_fn(table_ref, association, prefix: str = ""):
    """The lookup stage: a plain function whose state is built once per
    worker PROCESS (module-level cache keyed by the broadcast
    ObjectRef), so it scales elastically to every CPU. A ``{key:
    {attr: value}}`` dict instead of a ref builds its state here, once:
    a dict has no key that outlives it."""
    import ray

    association = list(association)
    if isinstance(table_ref, dict):
        state = _LookupState(table_ref)
        return lambda batch: state.apply(batch, association, prefix)
    cache_key = table_ref.hex()

    def lookup_enrich(batch: pa.Table) -> pa.Table:
        state = _PROC_LOOKUP_CACHE.get(cache_key)
        if state is None:
            state = _PROC_LOOKUP_CACHE[cache_key] = _LookupState(ray.get(table_ref))
        return state.apply(batch, association, prefix)

    return lookup_enrich


class PodCache:
    """k8sprocessor WatchClient cache DYNAMICS (kube/client.go):

    - ``add_pod``: the UID key always updates; the IP key only updates
      when the new pod's StartTime is not older than the incumbent's —
      the scheduler can reuse an IP, and a LATE update event for the
      old pod must not clobber the new pod's mapping
      (client.go:293-304).
    - ``forget_pod``: deletion is DELAYED — the id goes on a delete
      queue (only if the current mapping still points at this pod
      name), and ``sweep(now)`` removes entries older than the grace
      period, re-checking the name so an IP remapped in the interim
      survives (client.go:149-188 deleteLoop + forgetPod).
    - ``get``: honors the Ignore flag (host-network pods etc. resolve
      to nothing, client.go:191-199).

    The batch engine builds this on the driver from a pod event log,
    snapshots it (``snapshot()`` → {key: attrs}), and broadcasts the
    snapshot to the vectorized ``make_lookup_fn`` stage.
    """

    def __init__(self, grace_period: float = 120.0):
        self.pods: dict = {}  # identifier (uid or ip) → pod dict
        self.delete_queue: list = []  # (ts, identifier, pod_name)
        self.grace = grace_period

    def add_pod(self, *, uid: str | None, ip: str | None, name: str,
                start_time: float, attributes: dict, ignore: bool = False) -> None:
        pod = {
            "name": name,
            "start_time": start_time,
            "attributes": dict(attributes),
            "ignore": ignore,
        }
        if uid:
            self.pods[uid] = pod
        if ip:
            incumbent = self.pods.get(ip)
            if incumbent is not None and start_time < incumbent["start_time"]:
                return  # same-IP reuse: older pod's late update loses
            self.pods[ip] = pod

    def forget_pod(self, *, uid: str | None, ip: str | None, name: str, ts: float) -> None:
        for ident in (ip, uid):
            if ident is None:
                continue
            cur = self.pods.get(ident)
            if cur is not None and cur["name"] == name:
                self.delete_queue.append((ts, ident, name))

    def sweep(self, now: float) -> None:
        """deleteLoop pass: drop queue entries whose grace expired,
        deleting only if the mapping still names the queued pod."""
        keep = []
        for ts, ident, name in self.delete_queue:
            if ts + self.grace > now:
                keep.append((ts, ident, name))
                continue
            cur = self.pods.get(ident)
            if cur is not None and cur["name"] == name:
                del self.pods[ident]
        self.delete_queue = keep

    def get(self, identifier: str):
        pod = self.pods.get(identifier)
        if pod is None or pod["ignore"]:
            return None
        return pod

    def snapshot(self) -> dict:
        """{identifier: attributes} view for the ``make_lookup_fn`` broadcast."""
        return {
            k: dict(p["attributes"]) for k, p in self.pods.items() if not p["ignore"]
        }


_IPV4_RE = None


def _is_ipv4(values: np.ndarray) -> np.ndarray:
    """Vectorized net.ParseIP-shaped check (IPv4 dotted quad with each
    octet in 0-255 — ParseIP rejects e.g. '999.300.1.1')."""
    import pandas as pd

    s = pd.Series(values, dtype=object)
    ext = s.str.extract(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
    ok = ext.notna().all(axis=1).to_numpy(dtype=bool)
    if ok.any():
        # Go 1.16 dtoi: ≤3 digits, value ≤255 (leading zeros accepted)
        vals = ext[ok].astype(np.int64).to_numpy()
        ok[ok] = (vals <= 255).all(axis=1)
    return ok


def extract_pod_keys(
    batch: pa.Table,
    associations: Sequence[dict] | None,
    connection_ip: str | None = None,
    out: str = "_pod_key",
) -> pa.Table:
    """pod_association.go:31-87 extractPodID as a column: per row, the
    first association rule that yields a value wins.

    No rules configured → the default chain: ``k8s.pod.ip`` attribute,
    then ``ip`` attribute, then the connection IP, then ``host.name``
    if it parses as an IP (:38-57). With rules: ``from: connection``
    uses the connection IP; ``from: resource_attribute`` reads the
    named column — except ``host.name``, which only matches when the
    value is an IP (:60-87).
    """
    import pandas as pd

    n = len(batch)
    key = np.full(n, None, dtype=object)
    unresolved = np.ones(n, dtype=bool)

    def take_col(col: str, require_ip: bool = False):
        nonlocal key, unresolved
        if col not in batch.column_names or not unresolved.any():
            return
        vals = batch[col].to_numpy(zero_copy_only=False)
        ok = pd.Series(vals, dtype=object).notna().to_numpy() & unresolved
        if require_ip:
            ok &= _is_ipv4(vals)
        key[ok] = vals[ok]
        unresolved &= ~ok

    def take_connection():
        nonlocal key, unresolved
        if connection_ip:
            key[unresolved] = connection_ip
            unresolved[:] = False

    if not associations:
        take_col("k8s.pod.ip")
        take_col("ip")
        take_connection()
        take_col("host.name", require_ip=True)
    else:
        for asso in associations:
            if asso.get("from") == "connection":
                take_connection()
            elif asso.get("from") == "resource_attribute":
                name = asso.get("name", "")
                take_col(name, require_ip=(name == "host.name"))
    return _set_column(batch, out, pa.array(key, pa.string()))


def build_source_metadata(sources: Sequence[str]) -> dict:
    """Deterministic source→metadata cache for the flagship pipeline
    (stands in for the k8s informer-fed cache; same shape)."""
    out = {}
    for s in sources:
        h = sum(s.encode())
        out[s] = {
            "team": f"team-{h % 7}",
            "cluster": f"cluster-{h % 3}",
            "tier": ["prod", "staging", "dev"][h % 3],
        }
    return out
