"""Vectorized timestamp parsing (stanza time_parser kernel).

The reference's time_parser accepts strptime layouts and Go reference
layouts (testbed/datasenders/k8s.go:187-198). We normalize everything
to strptime and parse with ``pyarrow.compute.strptime`` (one C pass per
batch); timestamps are UTC-naive ns, matching pdata's uint64-ns model
(internal/stanza/converter.go:396).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# common Go layout → strptime translations (extend as needed)
GOTIME_TO_STRPTIME = {
    "2006-01-02": "%Y-%m-%d",
    "2006-01-02 15:04:05": "%Y-%m-%d %H:%M:%S",
    "2006/01/02 15:04:05": "%Y/%m/%d %H:%M:%S",
    "2006-01-02T15:04:05": "%Y-%m-%dT%H:%M:%S",
    "2006-01-02T15:04:05Z07:00": "%Y-%m-%dT%H:%M:%S%z",
    "01/02/2006 15:04:05": "%m/%d/%Y %H:%M:%S",
    "02/Jan/2006:15:04:05": "%d/%b/%Y:%H:%M:%S",  # Apache CLF
    "Jan _2 15:04:05": "%b %d %H:%M:%S",
    "Jan 2 15:04:05": "%b %d %H:%M:%S",
    "Mon Jan 2 15:04:05 2006": "%a %b %d %H:%M:%S %Y",  # asctime
    "15:04:05": "%H:%M:%S",
}


def parse_timestamp(arr: pa.Array, layout: str, layout_type: str = "strptime") -> pa.Array:
    """Parse a string column to a nanosecond timestamp; unmatched rows → null.

    layout_type: "strptime" | "gotime" (translated via GOTIME_TO_STRPTIME).
    """
    if layout_type == "gotime":
        layout = GOTIME_TO_STRPTIME.get(layout, layout)
    return pc.strptime(arr, format=layout, unit="ns", error_is_null=True)


def parse_rfc3339_ns(arr: pa.Array) -> pa.Array:
    """Parse RFC3339 with fractional seconds and offset (CRI timestamps).

    pyarrow's strptime (musl/glibc strptime) cannot consume both
    nanoseconds and a numeric offset portably, so we normalize the
    string first with vectorized kernels: strip fractional digits to
    microseconds, then parse with %z (or Z).
    """
    # '2021-03-01T12:00:00.000000000-07:00' / '...Z'. pyarrow strptime
    # has no %z, so: extract the numeric offset, strip it, parse the
    # naive part, then subtract the offset to land on UTC.
    off = pc.extract_regex(arr, pattern=r"(?P<sign>[+-])(?P<oh>\d{2}):(?P<om>\d{2})$")
    sign = pc.struct_field(off, "sign")
    oh = pc.struct_field(off, "oh")
    om = pc.struct_field(off, "om")
    minutes = pc.add(
        pc.multiply(pc.cast(pc.coalesce(oh, pa.scalar("0")), pa.int64()), 60),
        pc.cast(pc.coalesce(om, pa.scalar("0")), pa.int64()),
    )
    neg = pc.equal(pc.coalesce(sign, pa.scalar("+")), pa.scalar("-"))
    offset_min = pc.if_else(neg, pc.negate(minutes), minutes)

    naive = pc.replace_substring_regex(
        arr, pattern=r"(Z|[+-]\d{2}:\d{2})$", replacement=""
    )
    # system strptime has no %f: parse whole seconds, add the fraction
    # (right-padded to 9 digits = nanoseconds) separately
    secs_part = pc.replace_substring_regex(naive, pattern=r"\.\d+$", replacement="")
    frac = pc.struct_field(
        pc.extract_regex(naive, pattern=r"\.(?P<f>\d{1,9})"), "f"
    )
    frac_ns = pc.cast(
        pc.utf8_rpad(pc.coalesce(frac, pa.scalar("0")), width=9, padding="0"),
        pa.int64(),
    )
    out = pc.strptime(secs_part, format="%Y-%m-%dT%H:%M:%S", unit="ns", error_is_null=True)
    out = pc.add(out, frac_ns.cast(pa.duration("ns")))
    # UTC = naive-local-with-offset minus offset
    delta = pc.multiply(pc.cast(offset_min, pa.int64()), pa.scalar(60_000_000_000))
    return pc.subtract(out, delta.cast(pa.duration("ns")))
