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


def _constant(value, n: int) -> pa.Array:
    """A string column of ``n`` rows that all hold ``value``."""
    return pa.repeat(pa.scalar(value, pa.string()), n)


def _kind(t: pa.DataType):
    if pa.types.is_dictionary(t):
        t = t.value_type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "string"
    return "integer" if pa.types.is_integer(t) else t


def _index_in(col, keys: pa.Array) -> pa.Array:
    """Per row, the position of the row's value in ``keys``: null for a
    null value, a value not in ``keys``, or a column of another kind
    than the keys (string, integer, else the exact type). A string key
    never matches an integer value, as in a Python dict lookup, where
    ``pc.index_in`` alone would cast the keys to the column's type."""
    if _kind(col.type) != _kind(keys.type):
        return pa.nulls(len(col), pa.int32())
    return pc.index_in(col, value_set=keys, skip_nulls=True)


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

    The column is dictionary-encoded, so the alias lookup runs once per
    distinct value and each row takes its value's entry.
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
        if self.parse_from not in batch.column_names:
            return _set_severity(batch, np.zeros(1, np.int32), pa.array(np.zeros(len(batch), np.int8)))
        col = batch[self.parse_from]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pc.dictionary_encode(col, null_encoding="encode")
        levels = [sevmod.text_to_level(v, self.custom) for v in enc.dictionary.to_pylist()]
        return _set_severity(batch, np.array(levels, np.int32), enc.indices)


def _set_severity(batch: pa.Table, levels: np.ndarray, index) -> pa.Table:
    """Set ``severity_text``/``severity_number``: ``convert_severity``
    runs over the distinct ``levels`` only, and row i takes entry
    ``index[i]`` of its result."""
    text, num = sevmod.convert_severity(levels)
    batch = _set_column(batch, "severity_text", pa.array(text, pa.string()).take(index))
    return _set_column(batch, "severity_number", pa.array(num, pa.int32()).take(index))


# the stanza level of each RFC5424 severity, indexed by ``pri & 7``
_SYSLOG_LEVELS = sevmod.syslog_pri_to_level(np.arange(8))


class SyslogPriParser:
    """Syslog <PRI> integer string → severity columns (RFC3164/RFC5424
    facility*8+severity; receiver/syslogreceiver semantics)."""

    def __init__(self, parse_from: str = "pri"):
        self.parse_from = parse_from

    def __call__(self, batch: pa.Table) -> pa.Table:
        pri = pc.cast(pc.coalesce(batch[self.parse_from], pa.scalar("0")), pa.int64())
        batch = _set_severity(batch, _SYSLOG_LEVELS, pc.bit_wise_and(pri, 7))
        # a PRI past the int32 range wraps instead of raising
        facility = pc.cast(pc.shift_right(pri, 3), pa.int32(), safe=False)
        return _set_column(batch, "facility", facility)


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
                batch = _set_column(batch, k, _constant(v, len(batch)))
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


class Router:
    """stanza router: first-matching regex predicate selects a sub-chain
    (testbed/datasenders/k8s.go:173-181). Adds a ``route`` column.

    One permutation per batch: each row gets the code of its first
    matching route (the default is the last code), one stable argsort
    groups the rows by code, and each branch chain runs on its slice of
    the sorted match column. The wide payload columns (e.g. ``tokens``)
    are never filtered or copied. Each column the branches produce is
    one concat of their outputs in code order (nulls for a branch that
    lacks it, types unified as ``pc.coalesce`` unifies them) and one
    take through the inverse permutation; ``route`` is the route names
    taken by code. Original columns pass through untouched.

    ``routes`` and ``default`` are read on every call, so a caller may
    swap the branch chains after construction.
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
            out = _set_column(batch, "route", _constant("default", n))
            if self.default is not None and n:
                sub_out = self.default(out.select(out.column_names[:1]))
                for f in sub_out.schema:
                    if f.name not in out.column_names:
                        out = _set_column(out, f.name, sub_out[f.name])
            return out
        src = batch[self.match_on]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        names = [name for name, _, _ in self.routes] + ["default"]
        chains = [chain for _, _, chain in self.routes] + [self.default]
        codes = np.full(n, len(self.routes), dtype=np.min_scalar_type(len(self.routes)))
        for code in reversed(range(len(self.routes))):  # the first match is set last
            m = pc.fill_null(pc.match_substring_regex(src, self.routes[code][1]), False)
            codes[m.to_numpy(zero_copy_only=False)] = code
        order = np.argsort(codes, kind="stable")
        sizes = np.bincount(codes, minlength=len(chains))
        starts = np.cumsum(sizes) - sizes
        sorted_src = batch.select([self.match_on]).take(order)
        outs: dict[int, pa.Table] = {}
        types: dict[str, pa.DataType] = {}
        for code, chain in enumerate(chains):
            rows = int(sizes[code])
            if chain is None or not rows:
                continue
            sub_out = chain(sorted_src.slice(int(starts[code]), rows))
            if len(sub_out) != rows:
                # the permutation back requires 1:1 rows; a row-dropping
                # branch (e.g. RegexParser(on_error="drop")) cannot be a
                # Router branch — use on_error="keep" and filter after routing.
                raise ValueError(
                    "Router branch chains must preserve row count: branch "
                    f"produced {len(sub_out)} rows for {rows} inputs. "
                    'Row-dropping stages (on_error="drop") are not routable; '
                    'parse with on_error="keep" and filter downstream.'
                )
            outs[code] = sub_out
            for f in sub_out.schema:
                if f.name == self.match_on:
                    continue
                prev = types.get(f.name, f.type)
                types[f.name] = pc.coalesce(pa.nulls(0, prev), pa.nulls(0, f.type)).type
        inverse = np.empty_like(order)
        inverse[order] = np.arange(n)
        out = _set_column(batch, "route", pa.array(names, pa.string()).take(codes))
        for name, typ in types.items():
            pieces = []
            for code, rows in enumerate(sizes):
                sub_out = outs.get(code)
                if sub_out is not None and name in sub_out.column_names:
                    pieces.extend(sub_out[name].cast(typ).chunks)
                elif rows:
                    pieces.append(pa.nulls(int(rows), typ))
            out = _set_column(out, name, pa.concat_arrays(pieces).take(inverse))
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
    assumption fails. Rows with a null ``file_col`` are dropped."""
    rl = RecombineLines(field=field, is_first_entry=is_first_entry)
    from .aggregate import keyed_apply, sorted_groups

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[file_col]))
        outs = [rl(g) for g in sorted_groups(t, [file_col], [(order_col, "ascending")])]
        # a file with nulls in an int column recombines it as float64
        return pa.concat_tables(outs, promote_options="permissive") if outs else t

    # bucketed: one shuffle on hash(file) co-locates each file's lines;
    # boundary-joining runs per file inside each bucket task
    return keyed_apply(ds, file_col, per_bucket)
