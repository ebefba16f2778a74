"""Severity parsing and the stanza→pdata severity conversion table.

Mirrors the reference's two-step model:
  1. severity_parser maps raw strings (e.g. "ERROR", "warn", syslog
     priority) onto the stanza severity scale (Default=0 … Catastrophe=100);
  2. the ingest converter maps stanza levels to (SeverityText,
     SeverityNumber) — exact switch incl. the custom-level `>` bucketing,
     from internal/stanza/converter.go:532-582.

The parse stages (``stages/parse.py``) run these over the distinct
values of a batch only, and each row takes its value's result.
"""

from __future__ import annotations

import numpy as np

# stanza severity scale
DEFAULT, TRACE, DEBUG, INFO, NOTICE, WARNING, ERROR, CRITICAL, ALERT, EMERGENCY, CATASTROPHE = (
    0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
)

# severity_parser's default text aliases (case-insensitive)
TEXT_TO_LEVEL = {
    "default": DEFAULT,
    "trace": TRACE,
    "debug": DEBUG,
    "info": INFO,
    "information": INFO,
    "notice": NOTICE,
    "warn": WARNING,
    "warning": WARNING,
    "err": ERROR,
    "error": ERROR,
    "crit": CRITICAL,
    "critical": CRITICAL,
    "alert": ALERT,
    "emerg": EMERGENCY,
    "emergency": EMERGENCY,
    "fatal": EMERGENCY,
    "catastrophe": CATASTROPHE,
}

# pdata SeverityNumber constants
_SEV_UNDEFINED = 0
_TRACE1, _TRACE2, _TRACE3, _TRACE4 = 1, 2, 3, 4
_DEBUG1, _DEBUG2 = 5, 6
_INFO1, _INFO2, _INFO3, _INFO4 = 9, 10, 11, 12
_ERROR1, _ERROR2, _ERROR3, _ERROR4 = 17, 18, 19, 20
_FATAL1, _FATAL2, _FATAL4 = 21, 22, 24

# exact-level table from converter.go:536-556
_EXACT = {
    CATASTROPHE: ("Fatal", _FATAL4),
    EMERGENCY: ("Error", _FATAL1),
    ALERT: ("Error", _ERROR3),
    CRITICAL: ("Error", _ERROR2),
    ERROR: ("Error", _ERROR1),
    WARNING: ("Info", _INFO4),
    NOTICE: ("Info", _INFO3),
    INFO: ("Info", _INFO1),
    DEBUG: ("Debug", _DEBUG1),
    TRACE: ("Trace", _TRACE2),
}

# custom-level `>` bucketing from converter.go:559-579: (threshold, text, number)
_CUSTOM = [
    (EMERGENCY, "Fatal", _FATAL2),
    (ALERT, "Error", _ERROR4),
    (CRITICAL, "Error", _ERROR3),
    (ERROR, "Error", _ERROR2),
    (WARNING, "Info", _INFO4),
    (NOTICE, "Info", _INFO3),
    (INFO, "Info", _INFO2),
    (DEBUG, "Debug", _DEBUG2),
    (TRACE, "Trace", _TRACE3),
    (DEFAULT, "Trace", _TRACE1),
]


def text_to_level(value, custom: dict | None = None) -> int:
    """One raw severity value → stanza level: the trimmed, lower-cased
    text looked up in ``custom`` aliases first, then ``TEXT_TO_LEVEL``.
    Null and unknown values → Default=0."""
    key = "" if value is None else str(value).strip().lower()
    if custom and key in custom:
        return custom[key]
    return TEXT_TO_LEVEL.get(key, DEFAULT)


def parse_severity_text(values: np.ndarray) -> np.ndarray:
    """Raw severity strings → stanza levels (unknown/missing → Default=0)."""
    out = np.zeros(len(values), dtype=np.int32)
    # low-cardinality: loop over distinct values only
    vals = np.asarray(values, dtype=object)
    for v in set(vals.tolist()):
        out[vals == v] = text_to_level(v)
    return out


# RFC5424 syslog severity (pri & 7) → stanza level
_SYSLOG_SEV = np.array(
    [EMERGENCY, ALERT, CRITICAL, ERROR, WARNING, NOTICE, INFO, DEBUG], dtype=np.int32
)


def syslog_pri_to_level(pri: np.ndarray) -> np.ndarray:
    """Syslog <PRI> integer → stanza severity level (severity = pri & 7)."""
    return _SYSLOG_SEV[np.asarray(pri, dtype=np.int64) & 7]


def convert_severity(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stanza levels → (SeverityText, SeverityNumber) per converter.go:532-582."""
    levels = np.asarray(levels, dtype=np.int32)
    text = np.full(len(levels), "Undefined", dtype=object)
    num = np.zeros(len(levels), dtype=np.int32)
    done = np.zeros(len(levels), dtype=bool)
    for lvl, (t, sn) in _EXACT.items():
        m = (levels == lvl) & ~done
        text[m], num[m] = t, sn
        done |= m
    for thresh, t, sn in _CUSTOM:
        m = (levels > thresh) & ~done
        text[m], num[m] = t, sn
        done |= m
    return text.astype(str), num
