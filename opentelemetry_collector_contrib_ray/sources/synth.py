"""Deterministic synthetic corpus of pre-tokenized training sequences.

Schema per FIXTURES.md §F1 / BASELINE.json input_hint:

    doc_id : string      f"doc-{i:08d}"
    tokens : list<int32> uniform in [0, 50257), length n_tok
    n_tok  : int32       1..512, heavy-tailed with rare 4096-length rows
    source : string      skewed categorical (70% app-a) to exercise salting
    raw    : string      derived log line that drives the parse stage
                         (FIXTURES §F2/§F3 formats); tokens pass through
                         the pipeline untouched (per-row equality invariant)

Every value is a pure function of the row index via splitmix64
(_util.py) — generation is embarrassingly parallel and independent of
Ray block boundaries, so the same corpus can be produced at any
parallelism or scale factor. No sequential RNG state anywhere.

Raw-line formats (router predicates pick the parser, mirroring the
reference testbed chain at testbed/datasenders/k8s.go:164-228):
  - source in {app-a, app-b, app-c, unknown} → "simple" filelog format
      "2020-08-25 ERROR Something bad happened!"
      (receiver/filelogreceiver/testdata/simple.log, config.yaml:5-11)
  - source == "syslog" → RFC3164-ish
      "<34>Aug 25 05:14:15 host-3 app[123]: msg"
      (receiver/syslogreceiver/testdata/config.yaml)
  - source == "k8s" → one of CRI-O / CRI-Containerd / Docker-JSON
      (testbed/datasenders/k8s.go:173-205)
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .._util import hash_u64, uniform01

VOCAB_SIZE = 50257
SOURCES = np.array(["app-a", "app-b", "app-c", "syslog", "k8s", "unknown"])
# deliberately skewed: 70% app-a (FIXTURES F1) — exercises hot-key groupby
SOURCE_CUM = np.array([0.70, 0.80, 0.88, 0.94, 0.985, 1.0])

SEVERITIES = np.array(["TRACE", "DEBUG", "INFO", "WARN", "ERROR", "FATAL"])
SEVERITY_CUM = np.array([0.05, 0.20, 0.75, 0.90, 0.99, 1.0])

_WORDS = np.array(
    "request handled connection opened user login failed retry timeout queue "
    "flushed batch committed shard replica leader elected cache miss hit eviction "
    "disk read write latency spike probe ready live config reloaded worker".split()
)

_K8S_NAMESPACES = np.array(["default", "kube-system", "prod", "staging"])
_K8S_CONTAINERS = np.array(["app", "sidecar", "istio-proxy"])


def _pick(cum: np.ndarray, values: np.ndarray, u: np.ndarray) -> np.ndarray:
    return values[np.searchsorted(cum, u, side="right").clip(0, len(values) - 1)]


def _cat(*parts) -> pa.Array:
    """Element-wise string concat via Arrow's vectorized kernel.

    ``np.char.add`` chains call Python-level string ops per element
    (measured minutes per million rows); ``binary_join_element_wise``
    is a single C pass. Python ``str`` parts broadcast as scalars;
    numpy int arrays are cast to their decimal strings (identical to
    ``.astype(str)``)."""
    import pyarrow.compute as pc

    conv = []
    for p in parts:
        if isinstance(p, str):
            conv.append(pa.scalar(p))
        elif isinstance(p, (pa.Array, pa.ChunkedArray)):
            conv.append(p)
        elif p.dtype.kind in "iu":
            conv.append(pc.cast(pa.array(p), pa.string()))
        else:
            conv.append(pa.array(p, pa.string()))
    return pc.binary_join_element_wise(*conv, "")


def _pad(arr: np.ndarray, width: int, fill: str) -> pa.Array:
    import pyarrow.compute as pc

    a = pc.cast(pa.array(arr), pa.string()) if arr.dtype.kind in "iu" else pa.array(arr)
    return pc.utf8_lpad(a, width, fill)


def _np_str(arr: pa.Array) -> np.ndarray:
    return np.asarray(arr.to_numpy(zero_copy_only=False), dtype=object)


def _messages(ids: np.ndarray) -> np.ndarray:
    w1 = _WORDS[hash_u64(ids, 11) % len(_WORDS)]
    w2 = _WORDS[hash_u64(ids, 12) % len(_WORDS)]
    w3 = _WORDS[hash_u64(ids, 13) % len(_WORDS)]
    n = hash_u64(ids, 14) % 9000
    return _np_str(_cat(w1, " ", w2, " ", w3, " id=", n))


def gen_batch(ids: np.ndarray) -> pa.Table:
    """Render one Arrow batch of the corpus for the given row indices."""
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    n = len(ids)

    doc_id = _cat("doc-", _pad(ids, 8, "0"))
    source = _pick(SOURCE_CUM, SOURCES, uniform01(ids, 1))
    severity = _pick(SEVERITY_CUM, SEVERITIES, uniform01(ids, 2))

    # token lengths: 1..512, ~0.2% rows stretched to 4096 (wide-row stress)
    n_tok = (1 + hash_u64(ids, 3) % 512).astype(np.int64)
    n_tok[uniform01(ids, 4) < 0.002] = 4096

    # token values: splitmix of (row_id * 2^20 + position) — per-row
    # deterministic, vectorized over the flattened token stream
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    total = int(offsets[-1])
    flat_pos = np.arange(total, dtype=np.uint64) - np.repeat(
        offsets[:-1].astype(np.uint64), n_tok
    )
    flat_doc = np.repeat(ids, n_tok)
    with np.errstate(over="ignore"):
        seed = flat_doc * np.uint64(1 << 20) + flat_pos
    flat_tokens = (hash_u64(seed, 5) % VOCAB_SIZE).astype(np.int32)
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), pa.array(flat_tokens)
    )

    msg = _messages(ids)
    raw = np.empty(n, dtype=object)

    day = (1 + hash_u64(ids, 6) % 28).astype(np.int64)
    hour = (hash_u64(ids, 7) % 24).astype(np.int64)
    minute = (hash_u64(ids, 8) % 60).astype(np.int64)
    sec = (hash_u64(ids, 9) % 60).astype(np.int64)

    simple_mask = np.isin(source, ("app-a", "app-b", "app-c", "unknown"))
    if simple_mask.any():
        raw[simple_mask] = _np_str(
            _cat(
                "2021-03-",
                _pad(day[simple_mask], 2, "0"),
                " ",
                severity[simple_mask],
                " ",
                msg[simple_mask],
            )
        )

    syslog_mask = source == "syslog"
    if syslog_mask.any():
        sid = ids[syslog_mask]
        raw[syslog_mask] = _np_str(
            _cat(
                "<",
                hash_u64(sid, 20) % 192,
                ">Mar ",
                _pad(day[syslog_mask], 2, " "),  # RFC3164 right-justified day
                " ",
                _pad(hour[syslog_mask], 2, "0"),
                ":",
                _pad(minute[syslog_mask], 2, "0"),
                ":",
                _pad(sec[syslog_mask], 2, "0"),
                " host-",
                hash_u64(sid, 21) % 50,
                " app[",
                100 + hash_u64(sid, 22) % 900,
                "]: ",
                severity[syslog_mask],
                " ",
                msg[syslog_mask],
            )
        )

    k8s_mask = source == "k8s"
    if k8s_mask.any():
        kid = ids[k8s_mask]
        variant = hash_u64(kid, 30) % 3  # 0=CRI-O 1=containerd 2=docker-json
        base = _cat(
            "2021-03-",
            _pad(day[k8s_mask], 2, "0"),
            "T",
            _pad(hour[k8s_mask], 2, "0"),
            ":",
            _pad(minute[k8s_mask], 2, "0"),
            ":",
            _pad(sec[k8s_mask], 2, "0"),
        )
        stream = np.where(hash_u64(kid, 31) % 2 == 0, "stdout", "stderr")
        kmsg = msg[k8s_mask]
        crio = _np_str(_cat(base, ".000000000-07:00 ", stream, " F ", kmsg))
        ctd = _np_str(_cat(base, ".000000000Z ", stream, " F ", kmsg))
        dj = _np_str(
            _cat(
                '{"log":"', kmsg, '","stream":"', stream, '","time":"', base, '.000Z"}'
            )
        )
        raw[k8s_mask] = np.where(variant == 0, crio, np.where(variant == 1, ctd, dj))

    return pa.table(
        {
            "doc_id": doc_id,
            "tokens": tokens,
            "n_tok": pa.array(n_tok.astype(np.int32)),
            "source": pa.array(source, type=pa.string()),
            "raw": pa.array(raw, type=pa.string()),
        }
    )


def synth_dataset(n_rows: int, *, override_num_blocks: int | None = None):
    """Lazy Ray Dataset of the corpus — generation runs inside map_batches."""
    import ray.data

    ds = ray.data.range(n_rows, override_num_blocks=override_num_blocks)
    return ds.map_batches(
        lambda b: gen_batch(b["id"].to_numpy()),
        batch_format="pyarrow",
        batch_size=32 * 1024,
    )


def pending_shards(path: str, n_rows: int, num_files: int) -> list[tuple[str, int, int]]:
    """Prepare ``path`` for a corpus of ``n_rows`` in ``num_files`` shards
    and return ``(file, lo, hi)`` of each shard still to write.

    Shards are row-index ranges (shard-00000.parquet …). Idempotency is
    LAYOUT-AWARE: a ``_meta.json`` records (n_rows, num_files), and a
    request with a different layout wipes and regenerates the
    directory; a shard file that exists is done. (Filename-only
    idempotency once layered a 32×250k corpus with 32×125k extra shards
    into a silent 12M-row directory.)
    """
    import json as _json
    import shutil

    meta_path = os.path.join(path, "_meta.json")
    want = {"n_rows": int(n_rows), "num_files": int(num_files)}
    if os.path.isdir(path):
        have = None
        try:
            with open(meta_path) as f:
                have = _json.load(f)
        except (OSError, ValueError):
            pass
        if have != want:
            shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    if not os.path.exists(meta_path):
        with open(meta_path, "w") as f:
            _json.dump(want, f)
    bounds = np.linspace(0, n_rows, num_files + 1, dtype=np.int64)
    shards = [
        (os.path.join(path, f"shard-{i:05d}.parquet"), int(bounds[i]), int(bounds[i + 1]))
        for i in range(num_files)
    ]
    return [s for s in shards if not os.path.exists(s[0])]


def write_shard(fn: str, lo: int, hi: int) -> str:
    """Write rows ``[lo, hi)`` of the corpus to ``fn`` atomically."""
    import pyarrow.parquet as pq

    pq.write_table(gen_batch(np.arange(lo, hi, dtype=np.uint64)), fn + ".tmp")
    os.replace(fn + ".tmp", fn)
    return fn


def write_synth_corpus(path: str, n_rows: int, num_files: int = 8) -> str:
    """Write the corpus as ``num_files`` parquet shards under ``path``,
    one Ray task per shard ``pending_shards`` reports missing. Each
    shard is the checkpointing unit for resumable runs."""
    import ray

    write = ray.remote(write_shard)
    ray.get([write.remote(*s) for s in pending_shards(path, n_rows, num_files)])
    return path
