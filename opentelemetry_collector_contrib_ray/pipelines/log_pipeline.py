"""Flagship pipeline: parse → enrich → route → aggregate over the
pre-tokenized sequence corpus (BASELINE.json north rule).

DAG (SURVEY.md §7), one task per read block:

    read_corpus(doc_id, tokens, n_tok, source, raw)   (2 × CPUs blocks)
      → map_batches(Chain[Router{docker-json, containerd, crio, syslog,
                    simple}] — stanza-parser chain from
                    testbed/datasenders/k8s.go:164-228 +
                    receiver/filelogreceiver/testdata/config.yaml:5-11)
      → map_batches(lookup enrich task — k8sprocessor semantics)
        + resourcedetection constant attrs
      → map_batches(RoutingTable — routingprocessor default-fallback +
                    multi-exporter fan-out)
      → write_parquet(partition_cols=['sink'])   (single-pass fan-out)
      → per-sink two-phase groupby counts (groupbyattrs semantics)

Every ``map_batches`` takes the block as its batch (``batch_size=None``),
so Ray fuses ``ReadParquet → parse → lookup → resource → route → Write``
into one task per read block and no block crosses the object store
between them (when the read splits no file: ``sources/parquet.py``). A ``batch_size`` would keep the read its own operator:
Ray does not fuse ``Read`` into a ``MapBatches(batch_size=...)``. The
aggregate's re-read fuses into its combine the same way.

``tokens`` (list<int32>) rides through every stage untouched — the
per-row token-array-equality invariant is asserted by checksum in the
checkpoint manifest and tests.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokens import corpus_checksum
from ..stages import aggregate as agg
from ..stages import enrich, route
from ..stages.parse import (
    Chain,
    JsonParser,
    RegexParser,
    Restructure,
    Router,
    SeverityParser,
    SyslogPriParser,
    TimeParser,
    _set_column,
)

# ---------------------------------------------------------------- parse

_CRI_REGEX = (
    r"^(?P<time>[^ Z]+) (?P<stream>stdout|stderr) (?P<logtag>[^ ]*) (?P<msg>.*)$"
)
_CONTAINERD_REGEX = (
    r"^(?P<time>[^ Z]+Z) (?P<stream>stdout|stderr) (?P<logtag>[^ ]*) (?P<msg>.*)$"
)
_SYSLOG_REGEX = (
    r"^<(?P<pri>\d+)>(?P<time>\w{3} [ \d]?\d \d{2}:\d{2}:\d{2}) (?P<host>[^ ]+) "
    r"(?P<app>[^\[]+)\[(?P<pid>\d+)\]: (?P<sev>[A-Z]+) (?P<msg>.*)$"
)
_SIMPLE_REGEX = r"^(?P<time>\d{4}-\d{2}-\d{2}) (?P<sev>[A-Z]*) (?P<msg>.*)$"


class _FillSeverityDefaults:
    """Rows from branches without a severity parser (k8s chains) get
    Undefined/0 — the stanza entry default (converter.go:580-581). A
    batch that took only such branches gains both columns, so every
    parsed batch has one schema."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        st = batch["severity_text"] if "severity_text" in batch.column_names else pa.nulls(n, pa.string())
        sn = batch["severity_number"] if "severity_number" in batch.column_names else pa.nulls(n, pa.int32())
        st = pc.coalesce(st, pa.scalar("Undefined"))
        sn = pc.coalesce(sn, pa.scalar(0, pa.int32()))
        batch = _set_column(batch, "severity_text", st)
        return _set_column(batch, "severity_number", sn)


def build_parse_chain() -> Chain:
    """The stanza operator chain, router-first (k8s.go:173-181 predicate
    order: docker JSON, containerd, CRI-O; then syslog; default=simple
    filelog format per filelogreceiver/testdata/config.yaml:5-11)."""
    docker = Chain(
        [
            JsonParser(parse_from="raw", fields=["log", "stream", "time"]),
            TimeParser(parse_from="time", layout_type="rfc3339"),
            Restructure(moves={"log": "msg"}),
        ]
    )
    containerd = Chain(
        [
            RegexParser(_CONTAINERD_REGEX, parse_from="raw"),
            TimeParser(parse_from="time", layout_type="rfc3339"),
        ]
    )
    crio = Chain(
        [
            RegexParser(_CRI_REGEX, parse_from="raw"),
            TimeParser(parse_from="time", layout_type="rfc3339"),
        ]
    )
    # RFC3164: the <PRI> integer is authoritative for severity
    # (facility*8 + severity); the embedded text token is informational
    syslog = Chain(
        [
            RegexParser(_SYSLOG_REGEX, parse_from="raw"),
            SyslogPriParser(parse_from="pri"),
        ]
    )
    simple = Chain(
        [
            RegexParser(_SIMPLE_REGEX, parse_from="raw"),
            TimeParser(parse_from="time", layout="%Y-%m-%d"),
            SeverityParser(parse_from="sev"),
        ]
    )
    router = Router(
        routes=[
            ("docker", r"^\{", docker),
            ("containerd", r"^[^ Z]+Z (stdout|stderr) ", containerd),
            ("crio", r"^[^ Z]+ (stdout|stderr) ", crio),
            ("syslog", r"^<\d+>", syslog),
        ],
        default=simple,
        match_on="raw",
    )
    return Chain([router, _FillSeverityDefaults()])


# ---------------------------------------------------------------- route

DEFAULT_ROUTING = {
    "from_attribute": "severity_text",
    "table": {
        # multi-exporter fan-out (routing.go:153-162); note the stanza
        # severity table folds FATAL/EMERGENCY input text into "Error"
        "Error": ["sink_errors", "sink_pager"],
        "Fatal": ["sink_errors"],  # reachable only for Catastrophe-level inputs
        "Info": ["sink_std"],
        "Debug": ["sink_debug"],
        "Trace": ["sink_debug"],
    },
    "default": ["sink_default"],  # Undefined & anything unmatched
}

AGG_KEYS = ["sink", "source", "severity_text"]

# deterministic resource (stands in for env/cloud detectors — sandbox
# has no metadata endpoints; shape mirrors resourcedetection detectors)
DEFAULT_RESOURCE_DETECTORS = [
    {"deployment.environment": "prod"},
    {"cloud.region": "us-east-1", "host.name": "ray-worker"},
]


def build_pipeline(ds, *, lookup_ref=None):
    """Compose the full DAG on a Dataset; returns the routed Dataset
    (with ``sink`` column, routed by ``DEFAULT_ROUTING``), ready to
    write/aggregate.

    All four stages take whole blocks, so they fuse with the read before
    them and the write after them into one elastic task per read block
    (module doc). The lookup enrich runs as a task-pool function whose
    broadcast state is built once per worker process (make_lookup_fn) —
    an actor pool would cap parallelism at its pool size and pay
    ramp-up, hurting scaling.
    """
    import ray

    parse = build_parse_chain()
    resource = enrich.detect_resource(DEFAULT_RESOURCE_DETECTORS)
    if lookup_ref is None:
        lookup_ref = ray.put(
            enrich.build_source_metadata(
                ["app-a", "app-b", "app-c", "syslog", "k8s", "unknown"]
            )
        )
    router = route.RoutingTable(
        DEFAULT_ROUTING["from_attribute"], DEFAULT_ROUTING["table"], DEFAULT_ROUTING["default"]
    )

    parsed = ds.map_batches(parse, batch_format="pyarrow")
    enriched = parsed.map_batches(
        enrich.make_lookup_fn(lookup_ref, ["source"], "meta."), batch_format="pyarrow"
    )
    enriched = enriched.map_batches(enrich.ApplyResource(resource), batch_format="pyarrow")
    return enriched.map_batches(router, batch_format="pyarrow")


def aggregate_sinks(routed_ds, keys=AGG_KEYS, driver_finalize: bool = False):
    """Per-sink grouped counts (groupbyattrsprocessor semantics),
    two-phase. ``driver_finalize`` merges the tiny partials on the
    driver instead of shuffling (group count is small here)."""
    return agg.two_phase_agg(routed_ds, keys, {"*": ["count"]}, driver_finalize=driver_finalize)


def _process_shard(
    src: str,
    shard_id: str,
    run_dir: str,
    manifest,
    lookup_ref,
) -> dict:
    """One shard: routed rows → atomic sink dir, aggregate → agg dir,
    token digests of input and output (must match), manifest record
    with lineage. Returns the shard metrics dict."""
    import shutil

    import pyarrow.parquet as pq

    from ..sources.parquet import read_corpus

    ds = read_corpus(src)
    in_rows, in_xor, in_ntok = corpus_checksum(read_corpus(src))
    in_digest = {"rows": in_rows, "xor": in_xor, "ntok": in_ntok}

    routed = build_pipeline(ds, lookup_ref=lookup_ref)
    sink_dir = os.path.join(run_dir, "sinks", shard_id)
    os.makedirs(os.path.dirname(sink_dir), exist_ok=True)
    tmp_dir = sink_dir + ".tmp"
    for d in (tmp_dir, sink_dir):
        if os.path.exists(d):
            shutil.rmtree(d)
    routed.write_parquet(tmp_dir, partition_cols=["sink"])
    os.replace(tmp_dir, sink_dir)

    written = read_corpus(
        sink_dir, columns=["sink", "source", "severity_text", "doc_id"]
    )
    agg_tbl = aggregate_sinks(written, driver_finalize=True)
    agg_dir = manifest.shard_output_dir("agg", shard_id)
    pq.write_table(agg_tbl, os.path.join(agg_dir, "agg.parquet.tmp"))
    os.replace(
        os.path.join(agg_dir, "agg.parquet.tmp"),
        os.path.join(agg_dir, "agg.parquet"),
    )

    sink_counts: dict = {}
    for s, c in zip(agg_tbl["sink"].to_pylist(), agg_tbl["count"].to_pylist()):
        sink_counts[s] = sink_counts.get(s, 0) + c
    # multi-sink routes duplicate rows once per extra exporter
    # (routing.go:153-162); exclude the non-first sinks so the
    # checksum compares each input row exactly once. Caveat: a
    # sink that is primary in one route and secondary in another
    # would need per-route dedup instead.
    dup_sinks = set()
    for sinks in list(DEFAULT_ROUTING["table"].values()) + [DEFAULT_ROUTING["default"]]:
        dup_sinks.update(sinks[1:])
    out_ds = read_corpus(sink_dir)
    for s in dup_sinks:
        out_ds = out_ds.filter(expr=f"sink != '{s}'")
    o_rows, o_xor, o_ntok = corpus_checksum(out_ds)
    out_digest = {"rows": o_rows, "xor": o_xor, "ntok": o_ntok}
    if out_digest["xor"] != in_digest["xor"] or out_digest["rows"] != in_digest["rows"]:
        raise RuntimeError(
            f"token-array invariant violated on shard {shard_id}: "
            f"{in_digest} -> {out_digest}"
        )
    shard_metrics = {
        "rows_in": in_digest["rows"],
        "rows_routed": sum(sink_counts.values()),
        **{f"sink.{k}": v for k, v in sink_counts.items()},
    }
    manifest.mark_complete(
        shard_id,
        {
            "input_file": src,
            "sink_dir": sink_dir,
            "agg_dir": agg_dir,
            "sink_counts": sink_counts,
            "tokens_in": in_digest,
            "tokens_out": out_digest,
            "metrics": shard_metrics,
        },
    )
    return shard_metrics


def run_checkpointed(input_dir: str, run_dir: str):
    """Resumable run: one checkpoint shard per input parquet file, with
    ``DEFAULT_ROUTING``.

    Per shard: routed rows → ``sinks/<shard>/sink=<name>/*.parquet``
    (atomic: temp dir + rename), aggregate counts →
    ``agg/<shard>/*.parquet``, then a manifest record with lineage
    (input file, rows in/out, per-sink counts, token checksums). A
    shard whose output token digest differs from its input's raises.
    Completed shards are skipped on rerun. Shards run one after another,
    each as its own streaming execution. Returns the run summary.
    """
    import ray

    from ..state.checkpoint import CheckpointManifest
    from ..state.metrics import MetricsRecorder

    manifest = CheckpointManifest(run_dir)
    metrics = MetricsRecorder()
    files = sorted(f for f in os.listdir(input_dir) if f.endswith(".parquet"))
    lookup_ref = ray.put(
        enrich.build_source_metadata(
            ["app-a", "app-b", "app-c", "syslog", "k8s", "unknown"]
        )
    )
    summary = {"shards_total": len(files), "shards_skipped": 0, "shards_run": 0}
    for f in files:
        shard_id = os.path.splitext(f)[0]
        if manifest.is_complete(shard_id):
            summary["shards_skipped"] += 1
            metrics.merge(manifest.read(shard_id).get("metrics", {}))
        else:
            metrics.merge(_process_shard(os.path.join(input_dir, f), shard_id, run_dir, manifest, lookup_ref))
            summary["shards_run"] += 1
    metrics.dump(os.path.join(run_dir, "metrics.json"))
    summary["metrics"] = metrics.snapshot()
    return summary
