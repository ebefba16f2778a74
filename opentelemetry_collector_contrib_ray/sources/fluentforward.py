"""Fluent Forward event decoding (fluentforwardreceiver semantics).

Reference (receiver/fluentforwardreceiver/conversion.go): three event
shapes, all msgpack arrays ``[tag, ...]``:
  - Message mode      [tag, time, record(map)]           (:191)
  - Forward mode      [tag, [[time, record], ...]]       (:265)
  - PackedForward     [tag, bin(concatenated msgpack entries)], with
    optional gzip (CompressedPackedForward, :339/:399)

The sandbox has no msgpack library, so this module includes a minimal
pure-Python msgpack decoder for the subset the protocol uses (ints,
floats, str, bin, array, map, nil, bool, EventTime ext). Decoding runs
per batch over a ``payload: binary`` column — the batch analogue of the
socket receiver.
"""

from __future__ import annotations

import gzip
import struct
from typing import Any

import pyarrow as pa


class Unpacker:
    """Minimal msgpack decoder (public spec subset)."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.buf)

    def _take(self, n: int) -> bytes:
        b = self.buf[self.pos : self.pos + n]
        if len(b) < n:
            raise ValueError("truncated msgpack")
        self.pos += n
        return b

    def unpack(self) -> Any:
        (c,) = self._take(1)
        if c <= 0x7F:
            return c
        if c >= 0xE0:
            return c - 0x100
        if 0x80 <= c <= 0x8F:
            return self._map(c & 0x0F)
        if 0x90 <= c <= 0x9F:
            return self._array(c & 0x0F)
        if 0xA0 <= c <= 0xBF:
            return self._take(c & 0x1F).decode("utf-8", "replace")
        if c == 0xC0:
            return None
        if c == 0xC2:
            return False
        if c == 0xC3:
            return True
        if c == 0xC4:
            return self._take(self._take(1)[0])
        if c == 0xC5:
            return self._take(struct.unpack(">H", self._take(2))[0])
        if c == 0xC6:
            return self._take(struct.unpack(">I", self._take(4))[0])
        if c == 0xCA:
            return struct.unpack(">f", self._take(4))[0]
        if c == 0xCB:
            return struct.unpack(">d", self._take(8))[0]
        if c == 0xCC:
            return self._take(1)[0]
        if c == 0xCD:
            return struct.unpack(">H", self._take(2))[0]
        if c == 0xCE:
            return struct.unpack(">I", self._take(4))[0]
        if c == 0xCF:
            return struct.unpack(">Q", self._take(8))[0]
        if c == 0xD0:
            return struct.unpack(">b", self._take(1))[0]
        if c == 0xD1:
            return struct.unpack(">h", self._take(2))[0]
        if c == 0xD2:
            return struct.unpack(">i", self._take(4))[0]
        if c == 0xD3:
            return struct.unpack(">q", self._take(8))[0]
        if c == 0xD9:
            return self._take(self._take(1)[0]).decode("utf-8", "replace")
        if c == 0xDA:
            return self._take(struct.unpack(">H", self._take(2))[0]).decode("utf-8", "replace")
        if c == 0xDB:
            return self._take(struct.unpack(">I", self._take(4))[0]).decode("utf-8", "replace")
        if c == 0xDC:
            return self._array(struct.unpack(">H", self._take(2))[0])
        if c == 0xDD:
            return self._array(struct.unpack(">I", self._take(4))[0])
        if c == 0xDE:
            return self._map(struct.unpack(">H", self._take(2))[0])
        if c == 0xDF:
            return self._map(struct.unpack(">I", self._take(4))[0])
        if c == 0xD7:  # fixext8 — fluentd EventTime (type 0): sec+nsec
            ext_type = struct.unpack(">b", self._take(1))[0]
            data = self._take(8)
            if ext_type == 0:
                sec, nsec = struct.unpack(">II", data)
                return sec + nsec / 1e9
            return data
        if c == 0xC7:  # ext8
            n = self._take(1)[0]
            ext_type = struct.unpack(">b", self._take(1))[0]
            data = self._take(n)
            if ext_type == 0 and n == 8:
                sec, nsec = struct.unpack(">II", data)
                return sec + nsec / 1e9
            return data
        raise ValueError(f"unsupported msgpack byte 0x{c:02x}")

    def _array(self, n: int) -> list:
        return [self.unpack() for _ in range(n)]

    def _map(self, n: int) -> dict:
        return {self.unpack(): self.unpack() for _ in range(n)}


def pack(obj: Any) -> bytes:
    """Minimal msgpack encoder (tests / fixtures only)."""
    if obj is None:
        return b"\xc0"
    if obj is True:
        return b"\xc3"
    if obj is False:
        return b"\xc2"
    if isinstance(obj, int):
        if 0 <= obj <= 0x7F:
            return bytes([obj])
        if -32 <= obj < 0:
            return bytes([obj & 0xFF])
        return b"\xd3" + struct.pack(">q", obj)
    if isinstance(obj, float):
        return b"\xcb" + struct.pack(">d", obj)
    if isinstance(obj, str):
        b = obj.encode("utf-8")
        if len(b) <= 31:
            return bytes([0xA0 | len(b)]) + b
        return b"\xda" + struct.pack(">H", len(b)) + b
    if isinstance(obj, (bytes, bytearray)):
        return b"\xc5" + struct.pack(">H", len(obj)) + bytes(obj)
    if isinstance(obj, (list, tuple)):
        if len(obj) <= 15:
            head = bytes([0x90 | len(obj)])
        else:
            head = b"\xdc" + struct.pack(">H", len(obj))
        return head + b"".join(pack(x) for x in obj)
    if isinstance(obj, dict):
        if len(obj) <= 15:
            head = bytes([0x80 | len(obj)])
        else:
            head = b"\xde" + struct.pack(">H", len(obj))
        return head + b"".join(pack(k) + pack(v) for k, v in obj.items())
    raise TypeError(type(obj))


def decode_event(payload: bytes) -> list[dict]:
    """One Forward-protocol event → list of {tag, time, **record} rows
    (conversion.go:191 Message, :265 Forward, :339 PackedForward,
    :399 gzip)."""
    up = Unpacker(payload)
    msg = up.unpack()
    if not isinstance(msg, list) or len(msg) < 2:
        raise ValueError("not a fluent forward event")
    tag = msg[0]
    rows: list[dict] = []
    second = msg[1]
    if isinstance(second, list):  # Forward mode: [[time, record], ...]
        for t, rec in second:
            rows.append({"tag": tag, "time": float(t), **(rec or {})})
    elif isinstance(second, (bytes, bytearray)):  # PackedForward (+gzip)
        blob = bytes(second)
        if blob[:2] == b"\x1f\x8b":
            blob = gzip.decompress(blob)
        inner = Unpacker(blob)
        while not inner.eof():
            entry = inner.unpack()
            rows.append({"tag": tag, "time": float(entry[0]), **(entry[1] or {})})
    else:  # Message mode: [tag, time, record]
        rec = msg[2] if len(msg) > 2 else {}
        rows.append({"tag": tag, "time": float(second), **(rec or {})})
    return rows


class FluentForwardDecoder:
    """map_batches stage: ``payload: binary`` column → event rows.
    Row explosion (Forward/PackedForward carry many entries) makes this
    a flat-map-shaped batch transform."""

    def __init__(self, fields: list[str] | None = None):
        self.fields = fields

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for payload in batch["payload"].to_pylist():
            try:
                rows.extend(decode_event(payload))
            except (ValueError, TypeError):
                continue
        if not rows:
            return pa.table({"tag": pa.array([], pa.string()), "time": pa.array([], pa.float64())})
        keys = self.fields or sorted({k for r in rows for k in r})
        cols = {}
        for k in keys:
            vals = [r.get(k) for r in rows]
            cols[k] = pa.array(
                [str(v) if isinstance(v, (dict, list)) else v for v in vals]
            )
        return pa.table(cols)
