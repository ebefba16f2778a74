"""Output checks, run after every pass and outside its timed window.

Each check returns ``{name: bool}``; a pass fails if any is False. The
token digest is the benchmark's own code, independent of the engine's
``functions/tokens`` helpers.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_U64 = np.uint64
AGG_KEYS = ["sink", "source", "severity_text"]


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (wrapping uint64 arithmetic)."""
    z = z.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def row_hashes(doc_id, tokens) -> np.ndarray:
    """One uint64 per row over ``doc_id`` and the full token list.

    A token contributes ``(value * C1) ^ (position * C2)`` to its row's
    sum. For a fixed position that term is a bijection of the value, so
    changing any one token always changes its row's hash."""
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    lengths = pc.fill_null(pc.list_value_length(tokens), 0).to_numpy().astype(np.int64)
    offs = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offs[1:])
    with np.errstate(over="ignore"):
        elem = pc.list_flatten(tokens).to_numpy().astype(_U64)
        elem *= _U64(0x9E3779B97F4A7C15)
        pos = np.arange(len(elem), dtype=_U64)
        pos -= np.repeat(offs[:-1].astype(_U64), lengths)
        pos *= _U64(0xD6E8FEB86659FD93)
        elem ^= pos
        csum = np.zeros(len(elem) + 1, dtype=_U64)
        np.cumsum(elem, dtype=_U64, out=csum[1:])
        per_row = csum[offs[1:]] - csum[offs[:-1]]
        ids = np.asarray(
            pd.util.hash_array(np.asarray(doc_id.to_pylist(), dtype=object)), dtype=_U64
        )
        return _mix(ids ^ _mix(per_row + lengths.astype(_U64)))


def digest_tables(tables) -> tuple[int, int, int]:
    """Order-independent digest (rows, sum, xor) of ``(doc_id, tokens)``."""
    n, s, x = 0, 0, 0
    for t in tables:
        h = row_hashes(t["doc_id"], t["tokens"])
        n += len(h)
        with np.errstate(over="ignore"):
            s = (s + int(h.sum(dtype=_U64))) % (1 << 64)
        x ^= int(np.bitwise_xor.reduce(h)) if len(h) else 0
    return n, s, x


def digest_files(files) -> tuple[int, int, int]:
    return digest_tables(pq.read_table(f, columns=["doc_id", "tokens"]) for f in files)


def sink_files(out_dir: str) -> dict[str, list[str]]:
    out = {}
    for d in sorted(glob.glob(os.path.join(out_dir, "sink=*"))):
        out[os.path.basename(d)[len("sink=") :]] = sorted(
            glob.glob(os.path.join(d, "*.parquet"))
        )
    return out


def agg_rows(table: pa.Table) -> list[tuple]:
    """Aggregate as a sorted list of (sink, source, severity_text, count)."""
    cols = [table[k].to_pylist() for k in AGG_KEYS] + [table["count"].to_pylist()]
    return sorted(zip(*cols), key=lambda r: tuple("" if v is None else str(v) for v in r))


def duckdb_groupby(out_dir: str) -> list[tuple]:
    import duckdb

    pattern = os.path.join(out_dir, "sink=*", "*.parquet")
    con = duckdb.connect()
    try:
        rows = con.execute(
            "SELECT sink, source, severity_text, count(*)::BIGINT FROM "
            "read_parquet(?, hive_partitioning = true) GROUP BY ALL",
            [pattern],
        ).fetchall()
    finally:
        con.close()
    return sorted(rows, key=lambda r: tuple("" if v is None else str(v) for v in r))


def check_log_pass(out_dir: str, agg: pa.Table, input_rows: int, input_digest, reference, routing: dict) -> dict:
    """Checks for a flagship pass.

    ``routing`` is the pipeline's routing table; the first sink of each
    route is its primary sink, later sinks receive copies."""
    secondary = {s for sinks in list(routing["table"].values()) + [routing["default"]] for s in sinks[1:]}
    files = sink_files(out_dir)
    rows = {s: sum(pq.ParquetFile(f).metadata.num_rows for f in fs) for s, fs in files.items()}
    primary = [s for s in files if s not in secondary]
    got = agg_rows(agg)
    groups = duckdb_groupby(out_dir)
    allowed_ok = all(
        sink in routing["table"].get(sev, routing["default"]) for sink, _, sev, _ in groups
    )
    return {
        "primary_rows_equal_input": sum(rows[s] for s in primary) == input_rows,
        "errors_rows_equal_pager": rows.get("sink_errors", 0) == rows.get("sink_pager", 0),
        "duckdb_groupby_equals_engine": groups == got,
        "sinks_follow_routing": allowed_ok,
        "token_digest_equals_input": digest_files([f for s in primary for f in files[s]])
        == input_digest,
        "aggregate_same_as_first_pass": reference is None or got == reference,
    }


def vocab_digest(vocab: pd.DataFrame) -> int:
    h = pd.util.hash_pandas_object(vocab[["word", "c"]].reset_index(drop=True), index=True)
    return int(np.asarray(h, dtype=_U64).sum(dtype=_U64))


def prep_summary(exact_dropped: int, chunks: int, vocab: pd.DataFrame, texts: np.ndarray) -> dict:
    return {
        "exact_dropped": int(exact_dropped),
        "chunks": int(chunks),
        "vocab_size": int(len(vocab)),
        "vocab_digest": vocab_digest(vocab),
        "docs": int(len(texts)),
        "distinct_texts": int(pd.unique(texts).size),
    }


def check_prep_pass(summary: dict, reference: dict | None) -> dict:
    keys = ("exact_dropped", "chunks", "vocab_size", "vocab_digest", "docs")
    return {
        "surviving_texts_distinct": summary["distinct_texts"] == summary["docs"],
        "stats_same_as_first_pass": reference is None
        or all(summary[k] == reference[k] for k in keys),
    }
