"""Label sanitization (spanmetricsprocessor/processor.go:398-426).

Replace every non-alphanumeric rune with '_'; prefix 'key_' if the
result starts with a digit, 'key' if it starts with '_'.
"""

from __future__ import annotations


def sanitize(s: str) -> str:
    if not s:
        return s
    out = "".join(c if c.isalnum() else "_" for c in s)
    if out[0].isdigit():
        out = "key_" + out
    elif out[0] == "_":
        out = "key" + out
    return out
