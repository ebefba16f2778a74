"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

1. Every workload completes, untraced and traced, and its result line
   carries exactly the metrics that ``BENCHMARK.json`` names, each with its
   unit.
2. Every output check passes on a correct pass and fails on deliberately
   corrupted results: one dropped row, one row moved to the wrong sink, one
   altered token, one altered aggregate; for ``corpus_prep``, a duplicated
   surviving text, a changed chunk count and a dropped vocabulary word.
   Each check must be caught failing at least once.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "flagship": lambda: workloads.LogWorkload(rows=2_000, files=4),
    "corpus_prep": lambda: workloads.PrepWorkload(docs=1_200, base_docs=600, files=4),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}", flush=True)


def result_line(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)])
    expect(code == 0, f"{workload} trace={trace} exits 0")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_result_lines(spec: dict) -> None:
    for workload in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = result_line(workload, trace)
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{workload} result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{workload} trace={trace} passes its checks")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} prints every {section} metric with its unit")
            expect(
                all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                f"{workload} trace={trace} metric values are numbers",
            )


def _rewrite(path: str, fn) -> None:
    t = pq.read_table(path)
    pq.write_table(fn(t), path)


def _first_file(out: str, sink: str) -> str:
    return sorted(glob.glob(os.path.join(out, f"sink={sink}", "*.parquet")))[0]


def _drop_row(out: str) -> None:
    _rewrite(_first_file(out, "sink_errors"), lambda t: t.slice(1))


def _move_row(out: str) -> None:
    src = _first_file(out, "sink_std")
    t = pq.read_table(src)
    pq.write_table(t.slice(1), src)
    pq.write_table(t.slice(0, 1), os.path.join(out, "sink=sink_debug", "moved.parquet"))


def _alter_token(out: str) -> None:
    def bump(t: pa.Table) -> pa.Table:
        tokens = t["tokens"].combine_chunks()
        values = pc.list_flatten(tokens).to_numpy().copy()
        values[0] += 1
        fixed = pa.ListArray.from_arrays(tokens.offsets, pa.array(values, pa.int32()))
        return t.set_column(t.column_names.index("tokens"), "tokens", fixed)

    _rewrite(_first_file(out, "sink_std"), bump)


def check_log_corruptions(work: str) -> None:
    from opentelemetry_collector_contrib_ray.pipelines.log_pipeline import DEFAULT_ROUTING

    wl = TINY["flagship"]()
    wl.make_inputs(work, 7)
    out = os.path.join(work, "out")
    result = wl.run(wl.src, out)
    reference = checks.agg_rows(result["agg"])

    def run_checks(out_dir: str, agg=result["agg"]) -> dict:
        return checks.check_log_pass(out_dir, agg, wl.manifest["rows"], wl.input_digest, reference, DEFAULT_ROUTING)

    clean = run_checks(out)
    expect(all(clean.values()), f"log checks pass on a correct pass {clean}")
    caught: set[str] = set()
    for name, corrupt in (("dropped row", _drop_row), ("row moved to another sink", _move_row), ("altered token", _alter_token)):
        copy = os.path.join(work, name.replace(" ", "_"))
        shutil.copytree(out, copy)
        corrupt(copy)
        failed = {k for k, v in run_checks(copy).items() if not v}
        expect(bool(failed), f"log checks catch one {name}: {sorted(failed)}")
        caught |= failed
    counts = result["agg"]["count"].to_numpy().copy()
    counts[0] += 1
    bad_agg = result["agg"].set_column(result["agg"].column_names.index("count"), "count", pa.array(counts))
    failed = {k for k, v in run_checks(out, bad_agg).items() if not v}
    expect(bool(failed), f"log checks catch an altered aggregate: {sorted(failed)}")
    caught |= failed
    expect(caught == set(clean), f"every log check fails on some corruption (missed {sorted(set(clean) - caught)})")


def check_prep_corruptions(work: str) -> None:
    wl = TINY["corpus_prep"]()
    wl.make_inputs(work, 7)
    result = wl.run(wl.src, os.path.join(work, "prep-out"))
    clean, summary = wl.check(result, None)
    again, _ = wl.check(result, summary)
    expect(all(clean.values()) and all(again.values()), f"prep checks pass on a correct pass {again}")
    prep = result["prep"]
    texts = workloads.surviving_texts(prep)
    dup = texts.copy()
    dup[1] = dup[0]
    vocab = prep.vocab.iloc[1:]
    caught: set[str] = set()
    for name, args in (
        ("duplicated surviving text", (result["chunks"], prep.vocab, dup)),
        ("changed chunk count", (result["chunks"] + 1, prep.vocab, texts)),
        ("dropped vocabulary word", (result["chunks"], vocab, texts)),
    ):
        bad = checks.prep_summary(prep.stats["exact_dropped"], *args)
        failed = {k for k, v in checks.check_prep_pass(bad, summary).items() if not v}
        expect(bool(failed), f"prep checks catch one {name}: {sorted(failed)}")
        caught |= failed
    expect(caught == set(clean), f"every prep check fails on some corruption (missed {sorted(set(clean) - caught)})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    expect(set(names) <= set(workloads.WORKLOADS), f"BENCHMARK.json workloads {names} are defined")
    from layers import PER_LAYER

    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER, "BENCHMARK.json per_layer matches layers.PER_LAYER")
    workloads.WORKLOADS.update(TINY)
    check_result_lines(spec)
    work = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        run.start_ray()
        check_log_corruptions(work)
        check_prep_corruptions(work)
    finally:
        run.stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(run.WORK_ROOT, "ray"), ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
