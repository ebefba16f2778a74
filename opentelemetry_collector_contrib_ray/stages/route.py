"""Route stage: routingprocessor semantics + single-pass fan-out sinks.

Reference (processor/routingprocessor/routing.go:40-183):
- a routing table ``value → [exporters]`` keyed on ``from_attribute``;
- rows whose key is missing or matches no table entry go to the
  ``default`` exporters (routing.go:133-147);
- a route fans out to EVERY exporter in its list (routing.go:153-162).

Ray-Data design: one vectorized pass computes the sink label per row
(dictionary lookup via pandas map — no shuffle); multi-exporter routes
duplicate their rows once per sink inside the same pass; the whole
dataset is written ONCE with ``partition_cols=["sink"]`` so fan-out
never re-executes the upstream pipeline per sink.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from .parse import _set_column


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

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Assign sinks; duplicate rows for multi-sink routes. Adds a
        ``sink`` string column.

        Scale design: the primary (first) sink of every route is
        assigned via one vectorized dictionary map — no row copying.
        Only rows of multi-exporter routes are gathered (once per extra
        exporter) and appended as new chunks; concat is zero-copy.
        """
        n = len(batch)
        if self.from_attribute in batch.column_names:
            keys = pd.Series(
                batch[self.from_attribute].to_numpy(zero_copy_only=False), dtype=object
            )
        else:
            keys = pd.Series([None] * n, dtype=object)  # missing key → default
        first_sink = {v: sinks[0] for v, sinks in self.table.items()}
        sink = keys.map(first_sink)
        sink = sink.where(sink.notna(), self.default[0])
        main = _set_column(batch, "sink", pa.array(sink.to_numpy(dtype=object), pa.string()))

        pieces = [main]
        for value, sinks in self.table.items():
            if len(sinks) <= 1:
                continue
            m = (keys == value).to_numpy()
            if not m.any():
                continue
            sub = batch.filter(pa.array(m))
            for s in sinks[1:]:
                pieces.append(_set_column(sub, "sink", pa.array([s] * len(sub), pa.string())))
        if len(self.default) > 1:
            m = (~keys.isin(list(self.table))).to_numpy()
            if m.any():
                sub = batch.filter(pa.array(m))
                for s in self.default[1:]:
                    pieces.append(
                        _set_column(sub, "sink", pa.array([s] * len(sub), pa.string()))
                    )
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
