"""otelray — a Ray-Data-native log/telemetry data-processing engine.

A from-scratch re-implementation of the query and data-processing
capabilities of the OpenTelemetry Collector Contrib reference
(BinaryHexer/opentelemetry-collector-contrib, surveyed in SURVEY.md),
re-expressed as Ray Data pipelines: parse → enrich → route → aggregate
over Arrow batches of pre-tokenized training sequences.

Design rules (see SURVEY.md §1.4, §7):
- every hot stage is ``Dataset.map_batches`` with ``batch_format="pyarrow"``
  (zero-copy from the object store) and vectorized pyarrow/numpy/pandas
  kernels — never a Python loop over rows;
- stateful stages (lookup caches, compiled pattern sets) build their
  state once per worker process or per callable-class instance, never
  per batch;
- wide operations are explicit and pre-aggregated per batch; every
  keyed shuffle goes through ``stages.aggregate.keyed_apply``;
- sinks are partitioned Parquet directories with per-partition checkpoint
  manifests so a failed run resumes without recomputing finished shards.
"""

__version__ = "0.1.0"
