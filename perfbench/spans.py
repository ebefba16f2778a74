"""Spans and Ray operator statistics, recorded from outside the engine.

``Tracer`` keeps spans in memory (name, start, end, parent span, pass id)
and computes self time as a span's duration minus the time its child
spans cover. ``DatasetCapture`` remembers every ``ray.data.Dataset`` built
while it is active, so the operator statistics of every executed dataset
(parents included) can be read afterwards with ``_get_stats_summary()``.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counters: dict[str | None, dict[str, float]] = {}
        self.pass_id: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the current pass."""
        mine = self.counters.setdefault(self.pass_id, {})
        mine[name] = mine.get(name, 0) + value

    def self_times(self, pass_id: str | None = None) -> dict[str, float]:
        """Summed self time per span name. Spans run on one thread, so
        children never overlap and their durations simply add up."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if pass_id is None or s["pass"] == pass_id:
                own = s["end"] - s["start"] - child[s["id"]]
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


class TimedStage:
    """Wraps a stage callable so each call is a span. ``on_out`` may
    record counters from the input and output batches."""

    def __init__(self, tracer: Tracer, name: str, fn, on_out=None):
        self.tracer, self.name, self.fn, self.on_out = tracer, name, fn, on_out

    def __call__(self, batch):
        with self.tracer.span(self.name):
            out = self.fn(batch)
        if self.on_out is not None:
            self.on_out(self.tracer, batch, out)
        return out


class DatasetCapture:
    """Remembers every Dataset constructed while active (a wrapper around
    ``Dataset.__init__``, removed on exit)."""

    def __init__(self):
        self.datasets: list = []
        self.label: str = ""

    def __enter__(self):
        import ray.data

        self._cls = ray.data.Dataset
        self._orig = self._cls.__init__
        capture, orig = self, self._orig

        def init(ds, *args, **kwargs):
            orig(ds, *args, **kwargs)
            capture.datasets.append((capture.label, ds))

        self._cls.__init__ = init
        return self

    def __exit__(self, *exc):
        self._cls.__init__ = self._orig
        return False

    def take(self) -> list:
        out, self.datasets = self.datasets, []
        return out


_SUFFIX = re.compile(r"\(\d+\)$")
_WRAPPED = re.compile(r"^\w+\((.*)\)$")


def op_key(operator_name: str) -> str:
    """Short operator name: the last stage of a fused chain, unwrapped.
    'ReadParquet->SplitBlocks(9)' -> 'ReadParquet';
    'MapBatches(_strip_meta)->MapBatches(combine)' -> 'combine'."""
    parts = [p for p in operator_name.split("->") if not p.startswith("SplitBlocks")]
    last = _SUFFIX.sub("", parts[-1] if parts else operator_name)
    m = _WRAPPED.match(last)
    if m:
        last = m.group(1)
    return re.sub(r"[^A-Za-z0-9_.-]", "_", last).strip("_") or "op"


def operator_rows(captured: list) -> dict:
    """Operator statistics of every executed dataset in ``captured``.

    Returns ``rows`` (one per operator execution, deduplicated across the
    datasets that share it, in start order), ``schedule_s`` (streaming
    executor scheduling seconds) and ``spilled_mb`` summed over distinct
    executions, and ``stats_text``: Ray's own ``stats()`` text of each
    distinct execution. Executions that start from the output of an
    earlier one share its scheduling timer, so each timer counts once."""
    rows, seen_ops, seen_exec, seen_timers, texts = [], set(), set(), set(), []
    schedule_s = spilled_mb = 0.0

    def walk(label, summary, top):
        nonlocal spilled_mb
        if top and summary.operators_stats:
            last = summary.operators_stats[-1]
            exec_key = (last.operator_name, last.earliest_start_time)
            if exec_key not in seen_exec:
                seen_exec.add(exec_key)
                spilled_mb += (summary.dataset_bytes_spilled or 0) / 1e6
                texts.append(summary.to_string())
        for op in summary.operators_stats:
            key = (op.operator_name, op.earliest_start_time)
            if key in seen_ops:
                continue
            seen_ops.add(key)
            nrows = op.output_num_rows or {}
            mean_rows = nrows.get("mean") or 0
            rows.append(
                {
                    "layer": label,
                    "operator": op.operator_name,
                    "key": op_key(op.operator_name),
                    "sub_operator": bool(op.is_sub_operator),
                    "start": op.earliest_start_time,
                    "wall_s": (op.wall_time or {}).get("sum", 0.0),
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "udf_s": (op.udf_time or {}).get("sum", 0.0),
                    "rows_out": nrows.get("sum", 0),
                    "bytes_out": (op.output_size_bytes or {}).get("sum", 0),
                    "tasks": (op.task_rows or {}).get("count", 0),
                    "block_rows_skew": (nrows.get("max", 0) / mean_rows) if mean_rows else 0.0,
                    "peak_heap_mib": (op.memory or {}).get("max", 0),
                }
            )
        for parent in summary.parents:
            walk(label, parent, False)

    for label, ds in captured:
        walk(label, ds._get_stats_summary(), True)
        timer = ds._plan.stats().streaming_exec_schedule_s
        if timer is not None and id(timer) not in seen_timers:
            seen_timers.add(id(timer))
            schedule_s += timer.get()
    rows.sort(key=lambda r: r["start"])
    return {"rows": rows, "schedule_s": schedule_s, "spilled_mb": spilled_mb, "stats_text": texts}


def op_table(rows: list[dict]) -> str:
    """Fixed-width per-operator table in execution order."""
    head = f"{'layer':<16} {'operator':<48} {'wall_s':>8} {'cpu_s':>8} {'udf_s':>8} {'rows_out':>10} {'bytes_out':>12} {'skew':>6}"
    lines = [head, "-" * len(head)]
    for r in rows:
        name = r["operator"] if len(r["operator"]) <= 48 else "…" + r["operator"][-47:]
        lines.append(
            f"{r['layer']:<16} {name:<48} {r['wall_s']:>8.3f} {r['cpu_s']:>8.3f} "
            f"{r['udf_s']:>8.3f} {r['rows_out']:>10} {r['bytes_out']:>12} {r['block_rows_skew']:>6.2f}"
        )
    return "\n".join(lines)
