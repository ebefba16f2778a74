"""Repository benchmark: seeded workloads (``flagship``, ``corpus_prep``)
through the engine's public entry points, on a local Ray session sized to
this machine.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Run it from the repository root.

``--trace 0`` sets up one session (``ray.init`` plus an untimed warm-up
pass on the first input file) and then runs timed passes until
``--seconds`` of pass time and at least ``MIN_PASSES`` passes have been
measured. Each pass's output is checked after its clock stops. The last
stdout line is one JSON object with the end-to-end metrics: ``setup_s``
and the medians over the passes. ``setup_s`` and ``rows_per_s`` use
unstolen wall time (``procstat.unstolen``), so that time the host takes
the CPUs away for other tenants does not count against the program.

``--trace 1`` runs untraced passes, traced passes (spans around the
calls into each layer plus Ray operator statistics) and a driver-side
replay of every layer, prints the per-layer metrics, and writes all spans
and the per-operator table to ``.bench_work/traces/``.

All files live under ``.bench_work/`` in the repository root; a run
removes its inputs and outputs before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
MIN_PASSES = 3
MAX_PASSES = 200
OBJECT_STORE_MB = 512
# AF_UNIX paths hold at most 107 bytes; Ray appends about 65 to its temp dir
_SOCKET_BUDGET = 107 - 66


def _log(msg: str) -> None:
    print(msg, flush=True)


def nproc() -> int:
    """Processing units available, as coreutils ``nproc`` counts them:
    the CPU affinity mask, overridden by ``OMP_NUM_THREADS`` and capped
    by ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if ROOT not in paths:  # workers import the engine from this checkout
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + paths)
    kwargs = {}
    temp = os.path.join(WORK_ROOT, "ray")
    if len(temp) <= _SOCKET_BUDGET:
        kwargs["_temp_dir"] = temp
    else:
        print(f"note: {temp} is too long for Ray's sockets; using Ray's default temp dir", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_MB << 20,
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False


def stop_ray() -> int:
    import ray

    import procstat

    ray.shutdown()
    return procstat.stop_descendants()


@contextlib.contextmanager
def measured():
    """Measures the block: ``wall_s``, ``cpu_s`` (whole process tree),
    ``steal_s``, ``unstolen_s`` (see ``procstat.unstolen``), processes
    that exited, and the tree's snapshots ``before`` and ``after``."""
    import procstat

    sampler = procstat.CpuSampler()
    m = {"before": sampler.start()}
    steal0 = procstat.steal_s()
    t0 = time.perf_counter()
    try:
        yield m
    finally:
        wall = time.perf_counter() - t0
        steal = procstat.steal_s() - steal0
        cpu, exited, after = sampler.stop()
        m.update(
            wall_s=wall,
            cpu_s=cpu,
            steal_s=steal,
            unstolen_s=procstat.unstolen(wall, cpu, steal),
            exited_procs=exited,
            after=after,
        )


def run_pass(wl, out_dir: str, reference, tracer=None, capture=None) -> dict:
    """One pass: timed engine work, then (untimed) its output checks."""
    import procstat

    shutil.rmtree(out_dir, ignore_errors=True)
    with measured() as m:
        procstat.reset_peaks(m["before"])
        try:
            with tracer.span("pass") if tracer else contextlib.nullcontext():
                result = wl.run(wl.src, out_dir, tracer, capture)
            error = None
        except Exception:  # a failed pass is counted, not fatal
            result, error = None, traceback.format_exc()
    rec = {k: m[k] for k in ("wall_s", "cpu_s", "steal_s", "unstolen_s", "exited_procs")}
    rec.update(peak_rss_mb=procstat.peak_rss_mb(m["after"]), rows=wl.manifest["rows"], error=error)
    if result is not None:
        try:
            rec["checks"], rec["summary"] = wl.check(result, reference)
        except Exception:
            rec["checks"], rec["summary"] = {"check_ran": False}, None
            rec["error"] = traceback.format_exc()
    else:
        rec["checks"], rec["summary"] = {"pass_ran": False}, None
    rec["ok"] = all(rec["checks"].values())
    shutil.rmtree(out_dir, ignore_errors=True)
    if rec["error"]:
        print(rec["error"], file=sys.stderr)
    return rec


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def set_up(wl, work: str) -> float:
    """Start the session and run the untimed warm-up pass; returns the
    unstolen wall time of both (``setup_s``)."""
    with measured() as m:
        start_ray()
        wl.run(wl.warm_src, os.path.join(work, "warm-out"))
    shutil.rmtree(os.path.join(work, "warm-out"), ignore_errors=True)
    _log(f"setup: wall {m['wall_s']:.3f} s, cpu {m['cpu_s']:.2f} s, steal {m['steal_s']:.2f} s")
    return m["unstolen_s"]


def untraced(wl, work: str, seconds: float) -> tuple[dict, list]:
    setup = set_up(wl, work)
    passes, timed, reference = [], 0.0, None
    while (timed < seconds or len(passes) < MIN_PASSES) and len(passes) < MAX_PASSES:
        rec = run_pass(wl, os.path.join(work, f"out-{len(passes)}"), reference)
        if reference is None and rec["ok"]:
            reference = rec["summary"]
        timed += rec["wall_s"]
        passes.append(rec)
        _log(
            f"pass {len(passes)}: wall {rec['wall_s']:.3f} s, cpu {rec['cpu_s']:.2f} s, "
            f"steal {rec['steal_s']:.2f} s, unstolen {rec['unstolen_s']:.3f} s, exited procs {rec['exited_procs']}, "
            f"peak rss {rec['peak_rss_mb']:.0f} MB, ok {rec['ok']}" + ("" if rec["ok"] else f" {rec['checks']}")
        )
    ok = [p for p in passes if p["ok"]] or passes
    med = statistics.median
    metrics = {
        "rows_per_s": _metric(med(p["rows"] / p["unstolen_s"] for p in ok), "1/s"),
        "cpu_s_per_krow": _metric(med(p["cpu_s"] / (p["rows"] / 1000) for p in ok), "s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(med(p["peak_rss_mb"] for p in ok), "MB"),
        "pass_frac": _metric(sum(p["ok"] for p in passes) / len(passes), "ratio"),
    }
    fail = sum(not p["ok"] for p in passes)
    _log(
        f"fail_frac {fail / len(passes):.3f} ({fail} of {len(passes)} passes); "
        f"median pass wall {med(p['wall_s'] for p in passes):.3f} s, unstolen {med(p['unstolen_s'] for p in passes):.3f} s; "
        f"engine.wait_s (steal) median {med(p['steal_s'] for p in passes):.3f} s; "
        f"session processes exited mid-pass: {sum(p['exited_procs'] for p in passes)}"
    )
    return metrics, passes


def traced(wl, work: str, seed: int) -> tuple[dict, list]:
    import spans
    from layers import per_layer_metrics

    setup = set_up(wl, work)
    tracer = spans.Tracer()
    plain, traced_passes, ops_by_pass = [], [], []
    reference = None
    n_each = 2
    for i in range(n_each):
        rec = run_pass(wl, os.path.join(work, f"out-u{i}"), reference)
        plain.append(rec)
        reference = reference or (rec["summary"] if rec["ok"] else None)
        tracer.pass_id = f"pass{i}"
        with spans.DatasetCapture() as capture:
            rec = run_pass(wl, os.path.join(work, f"out-t{i}"), reference, tracer, capture)
        traced_passes.append(rec)
        ops_by_pass.append(spans.operator_rows(capture.take()))
    replays = []
    for i in range(n_each):
        tracer.pass_id = f"replay{i}"
        with spans.DatasetCapture() as capture, tracer.span("replay"):
            result = wl.replay(work, tracer, capture)
        replays.append({"result": result, "ops": spans.operator_rows(capture.take())})
    metrics, report = per_layer_metrics(wl, tracer, plain, traced_passes, ops_by_pass, replays)
    report.update(
        {
            "workload": wl.name,
            "seed": seed,
            "setup_s": setup,
            "input": wl.manifest,
            "untraced_passes": plain,
            "traced_passes": traced_passes,
            "replays": [{"result": r["result"], "operators": r["ops"]["rows"]} for r in replays],
            "spans": tracer.spans,
            "counters": tracer.counters,
        }
    )
    out = os.path.join(WORK_ROOT, "traces", f"trace-{wl.name}-seed{seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1, default=str)
    _log(report["operator_table"])
    _log(f"trace written to {os.path.relpath(out, ROOT)}")
    return metrics, plain + traced_passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import opentelemetry_collector_contrib_ray  # noqa: F401
    except ImportError as e:
        print(f"error: the engine package is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        t0 = time.perf_counter()
        manifest = wl.make_inputs(work, args.seed)
        _log(f"input ({time.perf_counter() - t0:.2f} s to generate): {json.dumps(manifest)}")
        if args.trace:
            metrics, passes = traced(wl, work, args.seed)
        else:
            metrics, passes = untraced(wl, work, args.seconds)
    finally:
        killed = stop_ray()
        if killed:
            print(f"note: killed {killed} leftover processes", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK_ROOT, "ray"), ignore_errors=True)
    for name, m in metrics.items():
        _log(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = sum(not p["ok"] for p in passes)
    record = os.path.join(WORK_ROOT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(record), exist_ok=True)
    with open(record, "w") as f:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "num_cpus": nproc(),
                "input": manifest,
                "passes": [{k: v for k, v in p.items() if k != "summary"} for p in passes],
                "metrics": metrics,
            },
            f,
            indent=1,
        )
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
