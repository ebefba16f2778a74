"""Token-column kernels: checksums and equality for the per-row invariant.

The north rule requires every pipeline output row's `tokens`
(list<int32>) to be byte-identical to the input row's. We verify with a
vectorized order-sensitive checksum over the flattened values buffer —
no Python-level list materialization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .._util import splitmix64


def _flatten(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """→ (flat int64 values, row lengths) for a list<int32> column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lengths = np.asarray(pa.compute.list_value_length(col))
    flat = np.asarray(col.flatten())
    return flat, lengths


def token_checksum(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Order-sensitive uint64 checksum per row: sum of mix(token, position)."""
    flat, lengths = _flatten(col)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    pos = np.arange(len(flat), dtype=np.uint64) - np.repeat(
        offsets[:-1].astype(np.uint64), lengths
    )
    with np.errstate(over="ignore"):
        mixed = splitmix64(flat.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + pos)
    out = np.zeros(len(lengths), dtype=np.uint64)
    np.add.at(out, np.repeat(np.arange(len(lengths)), lengths), mixed)
    return out


def corpus_checksum(ds):
    """Dataset-level digest of the ``tokens`` column: per-batch checksums
    then a driver-side xor-merge of the (small) per-batch digests.

    Returns (total_rows, xor_of_all_row_checksums, sum_of_n_tok) — an
    order-insensitive corpus fingerprint used by tests and the
    checkpoint manifest to prove token-array equality end-to-end.
    """
    import pyarrow.compute as pc

    def _digest(batch: pa.Table) -> pa.Table:
        cks = token_checksum(batch["tokens"])
        x = np.bitwise_xor.reduce(cks) if len(cks) else np.uint64(0)
        ntok = pc.sum(pc.list_value_length(batch["tokens"])).as_py() or 0
        return pa.table(
            {
                "rows": pa.array([len(batch)], pa.int64()),
                "xor": pa.array([int(x)], pa.uint64()),
                "ntok": pa.array([int(ntok)], pa.int64()),
            }
        )

    parts = ds.map_batches(_digest, batch_format="pyarrow").take_all()
    rows = sum(p["rows"] for p in parts)
    xor = np.uint64(0)
    for p in parts:
        xor ^= np.uint64(p["xor"])
    ntok = sum(p["ntok"] for p in parts)
    return rows, int(xor), ntok
