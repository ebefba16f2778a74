"""The workloads: inputs, one pass through the engine's public entry
points, the pass's output checks, and a driver-side replay for tracing.

A pass reads Parquet paths only. Its timed part is the engine work; the
checks and the removal of its output run after the clock stops.
"""

from __future__ import annotations

import contextlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import checks
import inputs
from spans import DatasetCapture, TimedStage, Tracer

BATCH_ROWS = 64 * 1024  # build_pipeline's map_batches batch size
AGG_COLUMNS = ["sink", "source", "severity_text", "doc_id"]


def _batches(table: pa.Table, size: int):
    for lo in range(0, table.num_rows, size):
        yield table.slice(lo, size)


def _read_all(path: str) -> list[pa.Table]:
    """Read through the engine's source layer (``read_corpus``)."""
    from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus

    return list(read_corpus(path).iter_batches(batch_format="pyarrow", batch_size=None))


class LogWorkload:
    """``flagship``: read → build_pipeline → partitioned write →
    aggregate_sinks(driver_finalize=True). The set-up warm-up pass reads
    the first of the input's ``files``."""

    name = "flagship"

    def __init__(self, rows: int, files: int):
        self.rows, self.files = rows, files

    def make_inputs(self, work: str, seed: int) -> dict:
        self.src = os.path.join(work, "input")
        self.manifest = inputs.make_log_input(self.src, seed, self.rows, num_files=self.files)
        files = sorted(os.path.join(self.src, f) for f in os.listdir(self.src))
        self.warm_src = files[0]
        self.input_digest = checks.digest_files(files)
        return self.manifest

    def run(self, src: str, out_dir: str, tracer: Tracer | None = None, capture=None) -> dict:
        from opentelemetry_collector_contrib_ray.pipelines import log_pipeline as lp
        from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus

        routed = lp.build_pipeline(read_corpus(src))
        with _layer(tracer, capture, "write"):
            routed.write_parquet(out_dir, partition_cols=["sink"])
        with _layer(tracer, capture, "aggregate"):
            agg = lp.aggregate_sinks(read_corpus(out_dir, columns=AGG_COLUMNS), driver_finalize=True)
        return {"agg": agg, "out_dir": out_dir, "rows": self.manifest["rows"]}

    def check(self, result: dict, reference) -> tuple[dict, object]:
        from opentelemetry_collector_contrib_ray.pipelines.log_pipeline import DEFAULT_ROUTING

        got = checks.check_log_pass(
            result["out_dir"],
            result["agg"],
            self.manifest["rows"],
            self.input_digest,
            reference,
            DEFAULT_ROUTING,
        )
        return got, checks.agg_rows(result["agg"])

    def replay(self, work: str, tracer: Tracer, capture: DatasetCapture) -> dict:
        """Driver-side replay: each public stage callable of the flagship
        runs on the workload's own rows in 64Ki-row batches, each inside a
        span; then the engine's partitioned write and aggregate run on the
        replayed rows."""
        import ray.data

        from opentelemetry_collector_contrib_ray.pipelines import log_pipeline as lp
        from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus
        from opentelemetry_collector_contrib_ray.stages import enrich, route

        parse = lp.build_parse_chain()
        router = parse.stages[0]  # the Router: its five branch Chains are wrapped below

        def on_branch(name):
            def count(tr, batch, out):
                tr.count(f"parse.{name}.rows", len(batch))
                tr.count(f"parse.{name}.miss", out["msg"].null_count if "msg" in out.column_names else len(out))

            return count

        router.routes = [
            (name, pat, TimedStage(tracer, f"parse.{name}", chain, on_branch(name)))
            for name, pat, chain in router.routes
        ]
        router.default = TimedStage(tracer, "parse.default", router.default, on_branch("default"))
        lookup = enrich.make_lookup_fn(
            enrich.build_source_metadata(["app-a", "app-b", "app-c", "syslog", "k8s", "unknown"]),
            ["source"],
            "meta.",
        )
        resource = enrich.ApplyResource(enrich.detect_resource(lp.DEFAULT_RESOURCE_DETECTORS))
        rt = lp.DEFAULT_ROUTING
        router_table = route.RoutingTable(rt["from_attribute"], rt["table"], rt["default"])

        with tracer.span("read"):
            table = pa.concat_tables(_read_all(self.src))
        routed = []
        for batch in _batches(table, BATCH_ROWS):
            with tracer.span("parse"):
                b = parse(batch)
            with tracer.span("enrich.lookup"):
                b = lookup(b)
            tracer.count("enrich.lookup.rows", len(b))
            tracer.count("enrich.lookup.hits", len(b) - b["meta.team"].null_count)
            with tracer.span("enrich.resource"):
                b = resource(b)
            with tracer.span("route"):
                out = router_table(b)
            tracer.count("route.rows_in", len(b))
            tracer.count("route.rows_out", len(out))
            tracer.count("route.default", int(pc.sum(pc.equal(out["sink"], rt["default"][0])).as_py() or 0))
            routed.append(out)
        out_dir = os.path.join(work, "replay-out")
        shutil.rmtree(out_dir, ignore_errors=True)
        mem = ray.data.from_arrow(routed)
        with _layer(tracer, capture, "write"):
            mem.write_parquet(out_dir, partition_cols=["sink"])
        written = [os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs if f.endswith(".parquet")]
        tracer.count("write.files", len(written))
        tracer.count("write.bytes", sum(os.path.getsize(f) for f in written))
        with _layer(tracer, capture, "aggregate"):
            agg = lp.aggregate_sinks(read_corpus(out_dir, columns=AGG_COLUMNS), driver_finalize=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"agg_rows": checks.agg_rows(agg), "rows_in": table.num_rows}


PREP_CONFIG = dict(vocab_size=50_000, seq_len=2048, pack_emit_tokens=False)


class PrepWorkload:
    """``corpus_prep``: prepare_corpus over a seeded document table of
    ``docs`` rows, amplified from ``base_docs`` distinct base documents.
    The set-up warm-up pass reads the first of the input's ``files``."""

    name = "corpus_prep"

    def __init__(self, docs: int, base_docs: int, files: int):
        self.rows, self.base_docs, self.files = docs, base_docs, files

    def make_inputs(self, work: str, seed: int) -> dict:
        self.src = os.path.join(work, "input")
        self.manifest = inputs.make_docs_input(
            self.src, seed, self.rows, n_base=self.base_docs, num_files=self.files
        )
        self.warm_src = os.path.join(self.src, sorted(os.listdir(self.src))[0])
        return self.manifest

    def run(self, src: str, out_dir: str, tracer: Tracer | None = None, capture=None) -> dict:
        from opentelemetry_collector_contrib_ray.pipelines.corpus_prep import PrepConfig, prepare_corpus
        from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus

        with _layer(tracer, capture, "prep"):
            prep = prepare_corpus(read_corpus(src), PrepConfig(**PREP_CONFIG))
            chunks = prep.packed.count()
        return {"prep": prep, "chunks": chunks, "rows": self.manifest["rows"]}

    def check(self, result: dict, reference) -> tuple[dict, object]:
        prep = result["prep"]
        texts = surviving_texts(prep)
        summary = checks.prep_summary(prep.stats["exact_dropped"], result["chunks"], prep.vocab, texts)
        return checks.check_prep_pass(summary, reference), summary

    def replay(self, work: str, tracer: Tracer, capture: DatasetCapture) -> dict:
        """Spans around public calls made in ``prepare_corpus``'s order:
        row-local filters, exact dedup, vocabulary, encode, pack."""
        import ray.data

        from opentelemetry_collector_contrib_ray.pipelines.corpus_prep import (
            PACK_GROUP_SEP,
            PrepConfig,
            _anti_filter_ids,
            _exact_drop_ids,
        )
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            VocabEncoder,
            assign_split,
            corpus_word_counts,
            gopher_stats,
            pack_token_sequences,
            redact_pii,
            top_vocab,
        )

        cfg = PrepConfig(**PREP_CONFIG)
        with tracer.span("read"):
            batches = _read_all(self.src)
        kept = []
        with tracer.span("prep.row_local"):
            for b in batches:
                tracer.count("prep.quality.rows_in", len(b))
                b = gopher_stats(b, text_col="text")
                b = b.filter(b["passes_gopher"]).drop_columns(
                    ["dup_word_frac", "alpha_word_frac", "symbol_word_ratio", "passes_gopher"]
                )
                tracer.count("prep.quality.rows_out", len(b))
                b = redact_pii(b, text_col="text")
                b = b.set_column(b.column_names.index("text"), "text", b["redacted"])
                b = b.drop_columns(["redacted", "n_email", "n_ip", "n_phone"])
                kept.append(assign_split(b, id_col="doc_id", test_frac=cfg.test_frac, valid_frac=cfg.valid_frac))
        docs = pa.concat_tables(kept)

        # exact dedup exactly as prepare_corpus runs it: drop ids from the
        # (add_content_hash + bucketed_group_apply) shuffle, then the anti-filter
        with _layer(tracer, capture, "prep.exact_dedup"):
            ds = ray.data.from_arrow(docs)
            drop_ids = _exact_drop_ids(ds, "text", "doc_id")
            survivors = _anti_filter_ids(
                ds, drop_ids, "doc_id", broadcast_max=cfg.drop_broadcast_max, num_buckets=cfg.num_buckets
            )
            docs = pa.concat_tables(list(survivors.iter_batches(batch_format="pyarrow", batch_size=None)))
        tracer.count("prep.exact_dedup.rows_in", len(docs) + len(drop_ids))
        tracer.count("prep.exact_dedup.dropped", len(drop_ids))
        with _layer(tracer, capture, "prep.vocab"):
            counts = corpus_word_counts(ray.data.from_arrow(docs), text_col="text", num_buckets=cfg.num_buckets)
            vocab = top_vocab(counts, cfg.vocab_size)
        with tracer.span("prep.encode"):
            encoder = VocabEncoder(vocab["word"].to_numpy(), text_col="text")
            encoded = [encoder(b) for b in _batches(docs, BATCH_ROWS)]
        with _layer(tracer, capture, "prep.pack"):
            grouped = []
            for b in encoded:
                key = pc.binary_join_element_wise(b["source"], b["split"], PACK_GROUP_SEP)
                grouped.append(b.append_column("pack_group", key))
            chunks = pack_token_sequences(
                ray.data.from_arrow(grouped),
                group_col="pack_group",
                order_col="doc_id",
                tokens_col="tokens",
                seq_len=cfg.seq_len,
                emit_tokens=cfg.pack_emit_tokens,
                num_buckets=cfg.num_buckets or 64,
            ).count()
        tracer.count("prep.pack.chunks", chunks)
        return {"exact_dropped": int(len(drop_ids)), "chunks": int(chunks), "vocab_digest": checks.vocab_digest(vocab)}


def surviving_texts(prep) -> np.ndarray:
    """Texts of the documents ``prepare_corpus`` kept."""
    return np.concatenate(
        [
            b["text"].to_numpy(zero_copy_only=False)
            for b in prep.documents.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        or [np.array([], dtype=object)]
    )


@contextlib.contextmanager
def _layer(tracer: Tracer | None, capture: DatasetCapture | None, name: str):
    """Span plus dataset-capture label around a call into one layer; a
    no-op when the pass is untraced."""
    prev = capture.label if capture is not None else None
    if capture is not None:
        capture.label = name
    try:
        with tracer.span(name) if tracer is not None else contextlib.nullcontext():
            yield
    finally:
        if capture is not None:
            capture.label = prev


# Sizes: flagship is three of build_pipeline's 64Ki-row batches; at 20k
# documents corpus_prep's per-document work outweighs its fixed per-pass
# cost (about 3 s of scheduling and actor start-up on one CPU).
WORKLOADS = {
    "flagship": lambda: LogWorkload(rows=3 * BATCH_ROWS, files=8),
    "corpus_prep": lambda: PrepWorkload(docs=20_000, base_docs=5_000, files=8),
}
