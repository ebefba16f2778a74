"""Helpers of the driver contract (``__ray_entry__.py``)."""

import pyarrow as pa

from __ray_entry__ import _last_byte


def test_last_byte_values_and_nulls():
    a = pa.array([bytes(range(16)), None, bytes([7] * 16)], pa.binary(16))
    assert _last_byte(a, 16).to_pylist() == [15, None, 7]
    assert _last_byte(pa.chunked_array([a.slice(1)]), 16).to_pylist() == [None, 7]


def test_last_byte_zero_rows():
    # a zero-row fixed-size binary array may carry no data buffer at all
    bufferless = pa.Array.from_buffers(pa.binary(16), 0, [None, None])
    for a in (bufferless, pa.array([], pa.binary(8)), pa.chunked_array([], pa.binary(16))):
        out = _last_byte(a, a.type.byte_width)
        assert out.type == pa.int64() and len(out) == 0
