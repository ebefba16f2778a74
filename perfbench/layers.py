"""Per-layer metrics of a traced run, and the list of their names.

Every name in ``PER_LAYER`` is reported on every workload. A layer that a
workload does not run reads 0, and the trace file lists it under
``not_run``. Replay numbers are medians over the run's replays; operator
numbers are medians over its traced engine passes.
"""

from __future__ import annotations

import statistics

from inputs import BRANCHES
from spans import op_table

# operator keys (spans.op_key) reported as op.<key>.<field>
OP_KEYS = (
    "ReadParquet",
    "Write",
    "combine",
    "row_local",
    "add_bucket",
    "SortMap",
    "SortReduce",
    "per_bucket",
    "VocabEncoder",
)
OP_FIELDS = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("udf_s", "s"),
    ("rows_out", "count"),
    ("bytes_out", "bytes"),
    ("block_rows_skew", "ratio"),
)

PER_LAYER: list[tuple[str, str]] = (
    [("read.self_s", "s"), ("parse.self_s", "s"), ("parse.router_s", "s")]
    + [
        (f"parse.{b}.{m}", u)
        for b in BRANCHES
        for m, u in (("self_s", "s"), ("rows", "count"), ("miss_frac", "ratio"))
    ]
    + [
        ("enrich.lookup.self_s", "s"),
        ("enrich.lookup.hit_frac", "ratio"),
        ("enrich.resource.self_s", "s"),
        ("route.self_s", "s"),
        ("route.fanout_ratio", "ratio"),
        ("route.default_frac", "ratio"),
        ("write.self_s", "s"),
        ("write.bytes", "bytes"),
        ("write.files", "count"),
        ("aggregate.self_s", "s"),
        ("aggregate.combine_ratio", "ratio"),
        ("prep.row_local.self_s", "s"),
        ("prep.quality.pass_frac", "ratio"),
        ("prep.exact_dedup.self_s", "s"),
        ("prep.exact_dedup.drop_frac", "ratio"),
        ("prep.vocab.self_s", "s"),
        ("prep.encode.self_s", "s"),
        ("prep.pack.self_s", "s"),
        ("prep.pack.chunks", "count"),
        ("layers.self_sum_s", "s"),
        ("layers.pass_cpu_s", "s"),
        ("layers.unexplained_s", "s"),
        ("engine.schedule_s", "s"),
        ("engine.spilled_mb", "MB"),
        ("engine.wait_s", "s"),
        ("engine.exited_procs", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
    + [(f"op.{k}.{f}", u) for k in OP_KEYS for f, u in OP_FIELDS]
)

# layer spans whose self time adds up to the replay's layer time (the
# log workloads add parse, whose branch spans are its own sub-spans)
_LOG_LAYERS = ("read", "enrich.lookup", "enrich.resource", "route", "write", "aggregate")
_PREP_LAYERS = ("read", "prep.row_local", "prep.exact_dedup", "prep.vocab", "prep.encode", "prep.pack")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _replay_values(tracer, pass_id: str, ops: list[dict], workload) -> dict[str, float]:
    st = tracer.self_times(pass_id)
    c = tracer.counters.get(pass_id, {})
    v: dict[str, float] = {"read.self_s": st.get("read", 0.0)}
    if workload.name == "corpus_prep":
        for layer in ("row_local", "exact_dedup", "vocab", "encode", "pack"):
            v[f"prep.{layer}.self_s"] = st.get(f"prep.{layer}", 0.0)
        v["prep.quality.pass_frac"] = _ratio(c.get("prep.quality.rows_out", 0), c.get("prep.quality.rows_in", 0))
        v["prep.exact_dedup.drop_frac"] = _ratio(
            c.get("prep.exact_dedup.dropped", 0), c.get("prep.exact_dedup.rows_in", 0)
        )
        v["prep.pack.chunks"] = c.get("prep.pack.chunks", 0)
        v["layers.self_sum_s"] = sum(st.get(name, 0.0) for name in _PREP_LAYERS)
    else:
        branch_sum = 0.0
        for b in BRANCHES:
            rows = c.get(f"parse.{b}.rows", 0)
            v[f"parse.{b}.self_s"] = st.get(f"parse.{b}", 0.0)
            v[f"parse.{b}.rows"] = rows
            v[f"parse.{b}.miss_frac"] = _ratio(c.get(f"parse.{b}.miss", 0), rows)
            branch_sum += v[f"parse.{b}.self_s"]
        v["parse.router_s"] = st.get("parse", 0.0)
        v["parse.self_s"] = v["parse.router_s"] + branch_sum
        v["enrich.lookup.self_s"] = st.get("enrich.lookup", 0.0)
        v["enrich.lookup.hit_frac"] = _ratio(c.get("enrich.lookup.hits", 0), c.get("enrich.lookup.rows", 0))
        v["enrich.resource.self_s"] = st.get("enrich.resource", 0.0)
        v["route.self_s"] = st.get("route", 0.0)
        v["route.fanout_ratio"] = _ratio(c.get("route.rows_out", 0), c.get("route.rows_in", 0))
        v["route.default_frac"] = _ratio(c.get("route.default", 0), c.get("route.rows_in", 0))
        v["write.self_s"] = st.get("write", 0.0)
        v["write.bytes"] = c.get("write.bytes", 0)
        v["write.files"] = c.get("write.files", 0)
        v["aggregate.self_s"] = st.get("aggregate", 0.0)
        partial_rows = sum(r["rows_out"] for r in ops if r["layer"] == "aggregate" and r["key"] == "combine")
        v["aggregate.combine_ratio"] = _ratio(partial_rows, c.get("route.rows_out", 0))
        v["layers.self_sum_s"] = v["parse.self_s"] + sum(st.get(name, 0.0) for name in _LOG_LAYERS)
    return v


def _op_values(rows: list[dict]) -> dict[str, float]:
    """op.<key>.<field> summed over one pass's operators with that key
    (the skew is the largest of them). A shuffle reports only its
    sub-operators (SortMap, SortReduce), so they are included."""
    v: dict[str, float] = {}
    for r in rows:
        if r["key"] not in OP_KEYS:
            continue
        for f, _ in OP_FIELDS:
            name = f"op.{r['key']}.{f}"
            v[name] = max(v.get(name, 0.0), r[f]) if f == "block_rows_skew" else v.get(name, 0.0) + r[f]
    return v


def _median_dicts(dicts: list[dict]) -> dict[str, float]:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def per_layer_metrics(workload, tracer, plain, traced_passes, ops_by_pass, replays) -> tuple[dict, dict]:
    """``ops_by_pass`` and each replay's ``ops`` are ``spans.operator_rows`` results."""
    med = statistics.median
    values = _median_dicts(
        [_replay_values(tracer, f"replay{i}", r["ops"]["rows"], workload) for i, r in enumerate(replays)]
    )
    values.update(_median_dicts([_op_values(ops["rows"]) for ops in ops_by_pass]))
    values["engine.schedule_s"] = med(ops["schedule_s"] for ops in ops_by_pass)
    values["engine.spilled_mb"] = med(ops["spilled_mb"] for ops in ops_by_pass)
    # CPU steal during the pass (procstat.steal_s): the host ran other
    # tenants while the session's CPUs had work, so a host stall shows here
    values["engine.wait_s"] = med(p["steal_s"] for p in plain)
    values["engine.exited_procs"] = med(p["exited_procs"] for p in plain)
    values["layers.pass_cpu_s"] = med(p["cpu_s"] for p in plain)
    values["layers.unexplained_s"] = values["layers.pass_cpu_s"] - values["layers.self_sum_s"]
    plain_wall = med(p["unstolen_s"] for p in plain)
    values["trace.overhead_frac"] = med(p["unstolen_s"] for p in traced_passes) / plain_wall - 1.0
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
    not_run = sorted(name for name, _ in PER_LAYER if name not in values)
    report = {
        "per_layer": metrics,
        "not_run": not_run,
        "layer_time_vs_pass_cpu": {
            "layers_self_sum_s": values["layers.self_sum_s"],
            "pass_cpu_s": values["layers.pass_cpu_s"],
            "unexplained_s": values["layers.unexplained_s"],
            "note": "driver-side replay self time summed over layers, against the untraced "
            "pass's CPU over the whole session; the difference is not explained by any span",
        },
        "trace_overhead": {
            "untraced_pass_unstolen_s": plain_wall,
            "traced_pass_unstolen_s": med(p["unstolen_s"] for p in traced_passes),
            "overhead_frac": values["trace.overhead_frac"],
        },
        "operators": [dict(r, pass_index=i) for i, ops in enumerate(ops_by_pass) for r in ops["rows"]],
        "operator_table": op_table(ops_by_pass[0]["rows"]),
        "ray_stats_text": ops_by_pass[0]["stats_text"],
    }
    return metrics, report
