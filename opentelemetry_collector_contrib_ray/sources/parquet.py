"""Parquet sources with column pruning and predicate pushdown.

The engine's "receiver" for batch workloads (SURVEY.md §2.1): every
pipeline reads only the columns it needs so a 2-column transform never
ships the whole table out of storage.

Every engine Parquet read goes through ``read_corpus`` and asks for
``2 × cluster CPUs`` blocks: Ray's own CPU term without its 200-block
floor. That floor sizes blocks by bytes (at least one per MiB, up to
200), so the flagship's 8-file, 112 MB input read as 200 blocks of
983 rows. Each extra read task costs about 13 ms: streaming that input
took 1.03 s in 2 blocks and 3.61 s in 200 (1-CPU session on a 1-vCPU
VM). Memory stays bounded because Ray still splits any block that
grows past ``DataContext.target_max_block_size``.

The read fuses into the ``map_batches`` after it (one task per read
block) only when that stage takes whole blocks (``batch_size=None``) and
the read splits no file, i.e. the input has at least as many files as
blocks asked for; otherwise the read runs as its own operator.
"""

from __future__ import annotations

import os

from .._util import cluster_cpus


def _strip_meta(t):
    # Parquet files written via pandas carry a schema-metadata blob;
    # pa.Schema with metadata is unhashable, which makes Ray's shuffle
    # schema-dedup log "Failed to hash the schemas" per aggregator.
    # Dropping it is zero-copy and fuses with the read task.
    return t.replace_schema_metadata(None)


def _clean_schema(path: str | list[str], columns: list[str] | None):
    """Metadata-free Arrow schema from the first footer under ``path``
    (the first file of a list).

    Passed to ``read_parquet`` so the READ operator itself emits
    metadata-free blocks — Ray hashes block schemas for dedup inside
    the read task, before any downstream ``_strip_meta`` runs, and a
    pandas-metadata dict there logs one "Failed to hash the schemas"
    warning per split.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    first = path if isinstance(path, str) else path[0]
    while os.path.isdir(first):
        entries = sorted(os.listdir(first))
        if any("=" in e for e in entries):
            # hive-partitioned layout: the partition column lives in the
            # directory names, not the footers — let Ray infer the schema
            return None
        pqs = [e for e in entries if e.endswith(".parquet")]
        sub = pqs or [e for e in entries if not e.startswith("_")]
        if not sub:
            return None
        first = os.path.join(first, sub[0])
    sch = pq.read_schema(first).remove_metadata()
    if columns:
        sch = pa.schema([sch.field(c) for c in columns])
    return sch


def read_table(sf_dir: str, name: str, columns: list[str] | None = None, **kw):
    """Read one named testdata table (e.g. 'events') with pruned columns."""
    return read_corpus(os.path.join(sf_dir, f"{name}.parquet"), columns=columns, **kw)


def read_corpus(path: str | list[str], columns: list[str] | None = None, **kw):
    """Read Parquet files or directories into ``2 × cluster CPUs`` blocks
    (module doc), with metadata-free schemas.

    The engine's one Parquet read: synth corpora, testdata tables
    (``read_table``), corpus_prep documents, re-reads of written sink
    directories and ``builder``'s ``kind: parquet`` source all come
    through here. ``kw`` passes to ``ray.data.read_parquet``; a caller's
    ``override_num_blocks`` wins.
    """
    import ray.data

    if "schema" not in kw:
        kw["schema"] = _clean_schema(path, columns)
    kw.setdefault("override_num_blocks", 2 * cluster_cpus())
    return ray.data.read_parquet(path, columns=columns, **kw).map_batches(
        _strip_meta, batch_format="pyarrow"
    )
