"""Byte-stream decoding for file sources (filelogreceiver encodings).

The reference's filelog receiver decodes configured encodings before
line splitting (receiver/filelogreceiver README encoding table: nop,
utf-8, utf-16le, utf-16be, ascii, big5). Batch analogue: a binary
column of raw file bytes → string column via Python codecs per batch
(codecs are C-backed; one call per row, not per byte).
"""

from __future__ import annotations

import pyarrow as pa

SUPPORTED = {"utf-8", "utf-16le", "utf-16be", "ascii", "latin-1", "big5", "nop"}


def decode_bytes(batch: pa.Table, encoding: str = "utf-8") -> pa.Table:
    """Decode the binary ``payload`` column to a text ``raw`` column;
    undecodable bytes are replaced (filelog substitutes the replacement
    char rather than dropping)."""
    enc = encoding.lower()
    if enc not in SUPPORTED:
        raise ValueError(f"unsupported encoding {encoding!r}; one of {sorted(SUPPORTED)}")
    vals = batch["payload"].to_pylist()
    if enc == "nop":
        decoded = [v.decode("latin-1") if v is not None else None for v in vals]
    else:
        decoded = [v.decode(enc, errors="replace") if v is not None else None for v in vals]
    return batch.append_column("raw", pa.array(decoded, pa.string()))
