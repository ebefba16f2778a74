"""Flagship plan shape: each Parquet read fuses into its consumer.

Ray does not fuse ``Read`` into a ``MapBatches(batch_size=...)``, so every
``map_batches`` after a read takes whole blocks. Then the write layer runs
as ONE operator from ``ReadParquet`` to ``Write``, and the aggregate
layer's re-read runs as one ``ReadParquet->…->MapBatches(combine)``
operator. The corpus has as many files as the read asks for blocks, so
the read splits no file (a split read stays its own operator).

A keyed shuffle is one fixed-boundary ``Sort``, or, when it has one
bucket, one map with neither a ``Repartition`` nor a ``Sort``."""

import ray.data

from opentelemetry_collector_contrib_ray._util import cluster_cpus
from opentelemetry_collector_contrib_ray.pipelines import log_pipeline as lp
from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus
from opentelemetry_collector_contrib_ray.sources.synth import write_synth_corpus


def _operators(ds) -> list[str]:
    summary = ds._get_stats_summary()
    names = []
    while summary is not None:
        names = [op.operator_name for op in summary.operators_stats] + names
        summary = summary.parents[0] if summary.parents else None
    return names


def _logical_operators(ds) -> list[str]:
    ops, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        ops.append(op.name)
        todo.extend(op.input_dependencies)
    return ops


def test_one_bucket_is_one_map_no_repartition_no_sort():
    from opentelemetry_collector_contrib_ray.stages.aggregate import keyed_apply

    def plan(num_buckets):
        return _logical_operators(keyed_apply(ray.data.range(100), "id", lambda t: t, num_buckets=num_buckets))

    one, seven = plan(1), plan(7)
    assert "Repartition" not in one and "Sort" not in one, one
    assert seven.count("Sort") == 1 and "Repartition" not in seven, seven


def test_flagship_reads_fuse_into_their_consumers(tmp_path, monkeypatch):
    src = write_synth_corpus(str(tmp_path / "corpus"), 2000, num_files=2 * cluster_cpus())
    out = str(tmp_path / "out")
    routed = lp.build_pipeline(read_corpus(src))
    routed.write_parquet(out, partition_cols=["sink"])
    [write_op] = _operators(routed._write_ds)
    assert write_op.startswith("ReadParquet->") and write_op.endswith("->Write"), write_op

    built = []
    init = ray.data.Dataset.__init__

    def capture(ds, *args, **kwargs):
        init(ds, *args, **kwargs)
        built.append(ds)

    monkeypatch.setattr(ray.data.Dataset, "__init__", capture)
    agg = lp.aggregate_sinks(read_corpus(out, columns=["sink", "source", "severity_text", "doc_id"]), driver_finalize=True)
    monkeypatch.undo()
    assert agg["count"].to_numpy().sum() > 2000
    [combine_ops] = [ops for ops in map(_operators, built) if ops and ops[-1].endswith("MapBatches(combine)")]
    assert len(combine_ops) == 1 and combine_ops[0].startswith("ReadParquet->"), combine_ops
