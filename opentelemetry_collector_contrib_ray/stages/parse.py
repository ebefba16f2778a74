"""Parse stage: stanza-operator equivalents as vectorized Arrow transforms.

The reference registers these operators for every log receiver
(internal/stanza/register.go:19-27): parsers json/regex/severity/time,
transformers metadata/restructure/router/recombine. Here each is a
composable callable ``pa.Table -> pa.Table``; a ``Chain`` of them is
passed to ``Dataset.map_batches(Chain([...]), batch_format="pyarrow")``
so a whole operator chain fuses into one zero-copy pass per block.

Semantics parity notes are cited per class. Unlike the reference's
per-entry Go loops, every kernel here is columnar (pyarrow.compute /
numpy); no Python row iteration in any hot path.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa

from .._util import table_from_pandas
import pyarrow.compute as pc

from ..functions import regexes, severity as sevmod, timeparse
from ..functions.coerce import coerce_value

Stage = Callable[[pa.Table], pa.Table]


def _set_column(t: pa.Table, name: str, arr) -> pa.Table:
    if isinstance(arr, np.ndarray):
        arr = pa.array(arr)
    if name in t.column_names:
        return t.set_column(t.column_names.index(name), name, arr)
    return t.append_column(name, arr)


class Chain:
    """Compose stages left-to-right; the unit Ray Data maps over blocks."""

    def __init__(self, stages: Sequence[Stage]):
        self.stages = list(stages)

    def __call__(self, batch: pa.Table) -> pa.Table:
        for s in self.stages:
            batch = s(batch)
        return batch


class RegexParser:
    """stanza regex_parser: named capture groups → new columns.

    Reference: receiver/filelogreceiver/testdata/config.yaml:5-11 and
    testbed/datasenders/k8s.go:183-198. ``on_error``: "keep" leaves
    nulls for non-matching rows (stanza send-on-error), "drop" removes
    them (stanza drop-on-error).
    """

    def __init__(
        self,
        pattern: str,
        parse_from: str = "raw",
        on_error: str = "keep",
        keep_groups: Sequence[str] | None = None,
    ):
        self.pattern = pattern
        self.parse_from = parse_from
        self.on_error = on_error
        self.keep_groups = keep_groups

    def __call__(self, batch: pa.Table) -> pa.Table:
        src = batch[self.parse_from]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        cols = regexes.extract_named(src, self.pattern)
        names = self.keep_groups or list(cols)
        for n in names:
            batch = _set_column(batch, n, cols[n])
        if self.on_error == "drop" and names:
            batch = batch.filter(pc.is_valid(cols[names[0]]))
        return batch


class JsonParser:
    """stanza json_parser: parse a JSON-string column into columns.

    Reference: testbed/datasenders/k8s.go:200-205. ``fields`` limits
    extraction to known keys (each becomes a column, coerced per
    internal/stanza/converter.go:432-471). Fast path: polars'
    vectorized ``str.json_path_match``; fallback: stdlib json per row.
    """

    def __init__(self, parse_from: str = "raw", fields: Sequence[str] | None = None):
        self.parse_from = parse_from
        self.fields = list(fields) if fields else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        src = batch[self.parse_from]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        try:
            import polars as pl

            s = pl.from_arrow(src)
            if self.fields:
                for f in self.fields:
                    vals = s.str.json_path_match(f"$.{f}").to_arrow()
                    batch = _set_column(batch, f, vals.cast(pa.string()))
                return batch
            # generic fast path: vectorized full decode → struct → columns
            # (falls back below when any row is invalid JSON)
            decoded = s.str.json_decode()
            if isinstance(decoded.dtype, pl.Struct):
                for f in decoded.struct.fields:
                    batch = _set_column(
                        batch, f, decoded.struct.field(f).to_arrow()
                    )
                return batch
        except Exception:
            pass
        # generic path: parse rows, union of keys (or requested fields)
        rows = src.to_pylist()
        parsed = []
        for r in rows:
            try:
                v = json.loads(r) if r is not None else {}
                parsed.append(v if isinstance(v, dict) else {})
            except (json.JSONDecodeError, TypeError):
                parsed.append({})
        keys = self.fields or sorted({k for p in parsed for k in p})
        for k in keys:
            batch = _set_column(
                batch, k, pa.array([coerce_value(p.get(k)) for p in parsed])
            )
        return batch


class SeverityParser:
    """stanza severity_parser + ingest conversion: a raw severity string
    column → ``severity_text``/``severity_number`` per the exact table in
    internal/stanza/converter.go:532-582. Missing/unknown → Undefined/0.

    ``mapping`` adds custom aliases on top of the defaults (stanza's
    ``mapping:`` config): {"panic": "emergency", "5xx": 60, ...} —
    values are either a standard alias name or a numeric stanza level
    (custom levels bucket via the `>` switch, converter.go:559-579).
    """

    def __init__(self, parse_from: str = "sev", mapping: dict | None = None):
        self.parse_from = parse_from
        self.custom = {}
        for alias, target in (mapping or {}).items():
            if isinstance(target, (int, float)):
                self.custom[str(alias).lower()] = int(target)
            else:
                self.custom[str(alias).lower()] = sevmod.TEXT_TO_LEVEL.get(
                    str(target).lower(), sevmod.DEFAULT
                )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.parse_from in batch.column_names:
            raw = batch[self.parse_from].to_numpy(zero_copy_only=False)
            levels = sevmod.parse_severity_text(raw)
            if self.custom:
                low = np.array(
                    [str(v).strip().lower() if v is not None else "" for v in raw],
                    dtype=object,
                )
                for alias, lvl in self.custom.items():
                    levels[low == alias] = lvl
        else:
            levels = np.zeros(len(batch), dtype=np.int32)
        text, num = sevmod.convert_severity(levels)
        batch = _set_column(batch, "severity_text", pa.array(text, pa.string()))
        batch = _set_column(batch, "severity_number", pa.array(num, pa.int32()))
        return batch


class SyslogPriParser:
    """Syslog <PRI> integer string → severity columns (RFC3164/RFC5424
    facility*8+severity; receiver/syslogreceiver semantics)."""

    def __init__(self, parse_from: str = "pri"):
        self.parse_from = parse_from

    def __call__(self, batch: pa.Table) -> pa.Table:
        pri = pc.cast(
            pc.coalesce(batch[self.parse_from], pa.scalar("0")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        levels = sevmod.syslog_pri_to_level(pri)
        text, num = sevmod.convert_severity(levels)
        batch = _set_column(batch, "severity_text", pa.array(text, pa.string()))
        batch = _set_column(batch, "severity_number", pa.array(num, pa.int32()))
        facility = (np.asarray(pri) >> 3).astype(np.int32)
        return _set_column(batch, "facility", pa.array(facility))


class TimeParser:
    """stanza time_parser: string column → ``ts`` timestamp column.

    layout_type "strptime" | "gotime" | "rfc3339" (CRI nanosecond+offset
    form, k8s.go:187-198).
    """

    def __init__(
        self, parse_from: str = "time", layout: str = "%Y-%m-%d", layout_type: str = "strptime", out: str = "ts"
    ):
        self.parse_from, self.layout, self.layout_type, self.out = parse_from, layout, layout_type, out

    def __call__(self, batch: pa.Table) -> pa.Table:
        src = batch[self.parse_from]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        if self.layout_type == "rfc3339":
            ts = timeparse.parse_rfc3339_ns(src)
        else:
            ts = timeparse.parse_timestamp(src, self.layout, self.layout_type)
        return _set_column(batch, self.out, ts)


class Metadata:
    """stanza metadata operator: add constant or templated attribute
    columns (testbed/datasenders/k8s.go:212-219)."""

    def __init__(self, attributes: dict[str, str], templated: bool = False):
        self.attributes = attributes
        self.templated = templated

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.templates import render_template

        for k, v in self.attributes.items():
            if self.templated and "%{" in v:
                batch = _set_column(batch, k, render_template(v, batch))
            else:
                batch = _set_column(
                    batch, k, pa.array(np.full(len(batch), v, dtype=object), pa.string())
                )
        return batch


class Restructure:
    """stanza restructure: move/remove/retain fields as column ops
    (testbed/datasenders/k8s.go:221-227)."""

    def __init__(
        self,
        moves: dict[str, str] | None = None,
        removes: Sequence[str] | None = None,
        retains: Sequence[str] | None = None,
    ):
        self.moves = moves or {}
        self.removes = list(removes or [])
        self.retains = list(retains or [])

    def __call__(self, batch: pa.Table) -> pa.Table:
        for src, dst in self.moves.items():
            if src in batch.column_names:
                col = batch[src]
                batch = batch.drop_columns([src])
                batch = _set_column(batch, dst, col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
        if self.removes:
            batch = batch.drop_columns([c for c in self.removes if c in batch.column_names])
        if self.retains:
            batch = batch.select([c for c in self.retains if c in batch.column_names])
        return batch


def _scatter(small: pa.Array, mask: np.ndarray, n: int) -> pa.Array:
    """Scatter ``small`` (values for mask==True rows, in order) into a
    full-length array with nulls elsewhere. Type-generic & vectorized:
    append one null sentinel to ``small`` and gather with an index that
    points non-mask rows at the sentinel — no Python per-row work, no
    copying of unrelated columns."""
    if isinstance(small, pa.ChunkedArray):
        small = small.combine_chunks()
    k = len(small)
    padded = pa.concat_arrays([small, pa.nulls(1, small.type)])
    idx = np.full(n, k, dtype=np.int64)
    idx[mask] = np.arange(k, dtype=np.int64)
    return padded.take(pa.array(idx))


class Router:
    """stanza router: first-matching regex predicate selects a sub-chain
    (testbed/datasenders/k8s.go:173-181). Adds a ``route`` column.

    Scale design: branch chains run on a PROJECTED slice (just the
    match column), and their output
    columns are scattered back into full-length arrays. The wide
    payload columns (e.g. ``tokens``) are never filtered/copied —
    router cost is proportional to the string column, not the row.
    Columns produced by several branches (e.g. ``ts``) merge via
    coalesce. Original columns pass through untouched.
    """

    def __init__(
        self,
        routes: Sequence[tuple[str, str, Chain]],
        default: Chain | None = None,
        match_on: str = "raw",
    ):
        """routes: [(name, predicate_regex, chain)]; unmatched rows run
        ``default`` (or pass through) with route='default'."""
        self.routes = list(routes)
        self.default = default
        self.match_on = match_on

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        if self.match_on not in batch.column_names:
            # missing match column → every row takes the default route
            # (mirrors routingprocessor's missing-attribute fallback)
            out = _set_column(
                batch, "route", pa.array(np.full(n, "default", dtype=object), pa.string())
            )
            if self.default is not None and n:
                sub_out = self.default(out.select(out.column_names[:1]))
                for f in sub_out.schema:
                    if f.name not in out.column_names:
                        out = _set_column(out, f.name, sub_out[f.name])
            return out
        src = batch[self.match_on]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        assigned = np.zeros(n, dtype=bool)
        route = np.full(n, "default", dtype=object)
        branch_masks: list[tuple[np.ndarray, Chain | None]] = []
        for name, pattern, chain in self.routes:
            m = pc.match_substring_regex(src, pattern).to_numpy(zero_copy_only=False)
            m = np.asarray(m, dtype=bool) & ~assigned
            assigned |= m
            route[m] = name
            branch_masks.append((m, chain))
        rest = ~assigned
        if rest.any():
            branch_masks.append((rest, self.default))

        proj = batch.select([self.match_on])
        added: dict[str, pa.Array] = {}
        for m, chain in branch_masks:
            if chain is None or not m.any():
                continue
            sub_out = chain(proj.filter(pa.array(m)))
            if len(sub_out) != int(m.sum()):
                # scatter-back requires 1:1 rows; a row-dropping branch
                # (e.g. RegexParser(on_error="drop")) cannot be a Router
                # branch — use on_error="keep" and filter after routing.
                raise ValueError(
                    "Router branch chains must preserve row count: branch "
                    f"produced {len(sub_out)} rows for {int(m.sum())} inputs. "
                    'Row-dropping stages (on_error="drop") are not routable; '
                    'parse with on_error="keep" and filter downstream.'
                )
            for f in sub_out.schema:
                if f.name == self.match_on:
                    continue
                scattered = _scatter(sub_out[f.name], m, n)
                if f.name in added:
                    added[f.name] = pc.coalesce(added[f.name], scattered)
                else:
                    added[f.name] = scattered
        out = _set_column(batch, "route", pa.array(route, pa.string()))
        for name, arr in added.items():
            out = _set_column(out, name, arr)
        return out


class RecombineLines:
    """stanza recombine with boundary predicates: multiline entries are
    delimited by an ``is_first_entry`` (or ``is_last_entry``) regex on
    the combine field — the stack-trace use case. Vectorized: one
    regex pass marks boundaries, cumsum assigns group ids, one pandas
    groupby joins. PARTITIONING ASSUMPTION (same as stanza's file
    ordering): rows are in source order within the batch and a logical
    entry never spans batches — read each file as one block, or apply
    per file through ``recombine_lines_grouped``.
    """

    def __init__(
        self,
        field: str = "raw",
        is_first_entry: str | None = None,
        is_last_entry: str | None = None,
        separator: str = "\n",
    ):
        if (is_first_entry is None) == (is_last_entry is None):
            raise ValueError("exactly one of is_first_entry / is_last_entry required")
        self.field = field
        self.is_first = is_first_entry
        self.is_last = is_last_entry
        self.separator = separator

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        n = len(batch)
        if n == 0:
            return batch
        col = batch[self.field]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if self.is_first:
            marks = pc.match_substring_regex(col, self.is_first).to_numpy(
                zero_copy_only=False
            )
            gid = np.cumsum(np.asarray(marks, dtype=np.int64))
            gid[gid == 0] = 1  # leading continuation lines join group 1
        else:
            marks = pc.match_substring_regex(col, self.is_last).to_numpy(
                zero_copy_only=False
            )
            # a group ENDS at a match: next row starts a new group
            ends = np.asarray(marks, dtype=np.int64)
            gid = np.concatenate([[0], np.cumsum(ends)[:-1]]) + 1
        df = batch.to_pandas()
        df["_gid"] = gid
        agg = {c: "first" for c in df.columns if c not in (self.field, "_gid")}
        agg[self.field] = self.separator.join
        out = df.groupby("_gid", sort=True).agg(agg).reset_index(drop=True)
        return table_from_pandas(out[[c for c in df.columns if c != "_gid"]])


# k8s container-log file-path metadata (testbed/datasenders/k8s.go:207-219):
# .../<namespace>_<pod_name>_<36-hex-uid>/<container_name>/<run_id>.log
K8S_PATH_REGEX = (
    r"^.*\/(?P<namespace>[^_]+)_(?P<pod_name>[^_]+)_"
    r"(?P<uid>[a-f0-9\-]{36})\/(?P<container_name>[^\._]+)\/(?P<run_id>\d+)\.log$"
)

_K8S_PATH_ATTRS = {
    "namespace": "k8s.namespace.name",
    "pod_name": "k8s.pod.name",
    "uid": "k8s.pod.uid",
    "container_name": "k8s.container.name",
    "run_id": "run_id",
}


class K8sPathMetadata:
    """Extract k8s attributes from the container log file path and add
    them under their canonical names (k8s.go:212-219 metadata EXPRs)."""

    def __init__(self, path_col: str = "file_path"):
        self.path_col = path_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions import regexes

        src = batch[self.path_col]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        cols = regexes.extract_named(src, K8S_PATH_REGEX)
        for group, attr in _K8S_PATH_ATTRS.items():
            batch = _set_column(batch, attr, cols[group])
        return batch


class TraceParser:
    """stanza trace_parser (register.go:23): hex trace context strings →
    fixed-width binary columns (pdata TraceID 16 bytes / SpanID 8 bytes,
    internal/stanza/converter.go:412-421). Invalid hex / wrong length →
    null. Adds ``trace_id`` (binary(16)), ``span_id`` (binary(8)),
    ``trace_flags`` (int32, low 8 bits per W3C, converter.go:425-430)."""

    def __init__(self, trace_from: str = "trace_id_hex", span_from: str = "span_id_hex", flags_from: str | None = "trace_flags_hex"):
        self.trace_from, self.span_from, self.flags_from = trace_from, span_from, flags_from

    @staticmethod
    def _hex_to_fixed(col, width: int):
        """Vectorized hex→binary(width): regex validity mask, ONE
        bytes.fromhex over the concatenated valid strings, scatter into
        a zero-filled data buffer, validity bitmap via packbits."""
        import pandas as pd

        s = pd.Series(col.to_numpy(zero_copy_only=False), dtype=object)
        n = len(s)
        low = s.str.lower()
        valid = low.str.fullmatch(f"[0-9a-f]{{{2 * width}}}", na=False).to_numpy(
            dtype=bool
        )
        data = np.zeros(n * width, dtype=np.uint8)
        idx = np.flatnonzero(valid)
        if len(idx):
            blob = np.frombuffer(
                bytes.fromhex("".join(low.iloc[idx])), dtype=np.uint8
            )
            target = (idx[:, None] * width + np.arange(width)[None, :]).ravel()
            data[target] = blob
        validity = np.packbits(valid, bitorder="little")
        return pa.Array.from_buffers(
            pa.binary(width),
            n,
            [pa.py_buffer(validity.tobytes()), pa.py_buffer(data.tobytes())],
            null_count=int((~valid).sum()),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.trace_from in batch.column_names:
            batch = _set_column(
                batch,
                "trace_id",
                self._hex_to_fixed(batch[self.trace_from].combine_chunks(), 16),
            )
        if self.span_from in batch.column_names:
            batch = _set_column(
                batch,
                "span_id",
                self._hex_to_fixed(batch[self.span_from].combine_chunks(), 8),
            )
        if self.flags_from and self.flags_from in batch.column_names:
            import pandas as pd

            s = pd.Series(
                batch[self.flags_from].to_numpy(zero_copy_only=False), dtype=object
            )
            ok = s.str.fullmatch(r"[0-9a-fA-F]{1,16}", na=False)
            flags = pd.Series(np.full(len(s), None, dtype=object))
            flags[ok] = s[ok].map(lambda v: int(v, 16) & 0xFF)
            batch = _set_column(
                batch, "trace_flags", pa.array(flags.tolist(), pa.int32())
            )
        return batch


def recombine_lines_grouped(ds, file_col: str, order_col: str, is_first_entry: str, field: str = "raw"):
    """Partition-safe predicate recombine: co-locate each source file's
    lines (one shuffle on ``file_col``), restore source order by
    ``order_col``, then join each entry that starts at an
    ``is_first_entry`` match with ``"\\n"`` — entries may span input
    blocks because the whole file is reassembled per group. The
    per-file work is the vectorized ``RecombineLines``; use for
    multi-block files where plain RecombineLines' contiguity
    assumption fails."""
    rl = RecombineLines(field=field, is_first_entry=is_first_entry)
    from .aggregate import keyed_apply

    def per_bucket(df):
        import pandas as pd

        outs = [
            rl(
                table_from_pandas(g.sort_values(order_col, kind="stable"))
            ).to_pandas()
            for _, g in df.groupby(file_col, sort=False)
        ]
        return pd.concat(outs, ignore_index=True) if outs else df.iloc[0:0]

    # bucketed: one shuffle on hash(file) co-locates each file's lines;
    # boundary-joining runs per file inside each bucket task
    return keyed_apply(ds, file_col, per_bucket)
