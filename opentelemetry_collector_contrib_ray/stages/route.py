"""Route stage: routingprocessor semantics + single-pass fan-out sinks.

Reference (processor/routingprocessor/routing.go:40-183):
- a routing table ``value → [exporters]`` keyed on ``from_attribute``;
- rows whose key is missing or matches no table entry go to the
  ``default`` exporters (routing.go:133-147);
- a route fans out to EVERY exporter in its list (routing.go:153-162).

Ray-Data design: one ``pc.index_in`` over the table's keys gives each
row its route, and the sink label is one ``take`` by that index — no
shuffle; multi-exporter routes duplicate their rows once per extra sink
inside the same pass; the whole
dataset is written ONCE with ``partition_cols=["sink"]`` so fan-out
never re-executes the upstream pipeline per sink.
"""

from __future__ import annotations

from typing import Sequence

import pyarrow as pa
import pyarrow.compute as pc

from .parse import _constant, _index_in, _set_column


class RoutingTable:
    """value → list of sink names, with default fallback."""

    def __init__(self, from_attribute: str, table: dict[str, Sequence[str]], default: Sequence[str]):
        if not table:
            raise ValueError("routing table must be non-empty")  # routing.go:54-69
        if not from_attribute:
            raise ValueError("from_attribute must be set")
        for v, sinks in table.items():
            if not sinks:
                raise ValueError(f"route {v!r} needs >=1 exporter")
        self.from_attribute = from_attribute
        self.table = {k: list(v) for k, v in table.items()}
        self.default = list(default)
        # route i is table entry i; the default is route len(table)
        self._keys = pa.array(list(self.table))
        self._routes = list(self.table.values()) + [self.default]
        self._first_sinks = pa.array([sinks[0] for sinks in self._routes], pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Assign sinks; duplicate rows for multi-sink routes. Adds a
        ``sink`` string column.

        Scale design: each row's route index comes from one
        ``pc.index_in`` (misses and null keys → the default), and the
        primary (first) sink of every route is one ``take`` by that
        index — no row copying. Only rows of multi-exporter routes are
        gathered (once per extra exporter) and appended as new chunks;
        concat is zero-copy.
        """
        n = len(batch)
        if self.from_attribute in batch.column_names:
            keys = batch[self.from_attribute]
        else:
            keys = pa.nulls(n, pa.string())  # missing key → default
        idx = pc.fill_null(_index_in(keys, self._keys), len(self.table))
        main = _set_column(batch, "sink", self._first_sinks.take(idx))

        pieces = [main]
        for i, sinks in enumerate(self._routes):
            if len(sinks) <= 1:
                continue
            sub = batch.filter(pc.equal(idx, i))
            if not len(sub):
                continue
            for s in sinks[1:]:
                pieces.append(_set_column(sub, "sink", _constant(s, len(sub))))
        if len(pieces) == 1:
            return main
        return pa.concat_tables(pieces, promote_options="permissive")


class BatchPerKey:
    """pkg/batchperresourceattr (batchperresourceattr.go:42-75): split a
    batch into one sub-batch per distinct value of a column. As a batch
    engine this is a grouped yield — used by sinks that need one payload
    per key (e.g. per-access-token export)."""

    def __init__(self, key: str):
        self.key = key

    def __call__(self, batch: pa.Table) -> list[pa.Table]:
        import pyarrow.compute as pc

        out = []
        for v in pc.unique(batch[self.key]).to_pylist():
            if v is None:
                out.append(batch.filter(pc.is_null(batch[self.key])))
            else:
                out.append(batch.filter(pc.equal(batch[self.key], v)))
        return out
