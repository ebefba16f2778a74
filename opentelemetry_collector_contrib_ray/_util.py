"""Deterministic, partition-independent hashing primitives.

Everything the synthetic generator and the salting/partitioning code
derives is a pure function of row identity (splitmix64 of the row index
or of a key hash), NOT of sequential RNG state — so results are
identical regardless of how Ray Data splits blocks or orders tasks.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: uint64 array -> uint64 array.

    Standard public-domain mix (Steele et al., used by java.util.SplittableRandom).
    """
    z = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def hash_u64(ids: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic uniform uint64 per id, varied by an integer salt."""
    with np.errstate(over="ignore"):
        mixed = ids.astype(_U64) + _U64(salt) * _U64(0xD1B54A32D192ED03)
    return splitmix64(mixed)


def uniform01(ids: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic float64 in [0, 1) per id."""
    return (hash_u64(ids, salt) >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def hash_str_u64(values, salt: int = 0) -> np.ndarray:
    """Deterministic uint64 hash of an array/iterable of strings.

    Vectorized: pandas' siphash (fixed key → stable across processes
    and sessions for a given pandas version) then splitmix64. Used for
    bucket/backend assignment and deterministic sampling — must never
    loop per row.
    """
    import pandas as pd

    arr = np.asarray(values, dtype=object)
    h = np.asarray(pd.util.hash_array(arr), dtype=_U64)
    if salt:
        with np.errstate(over="ignore"):
            h = h + _U64(salt) * _U64(0xD1B54A32D192ED03)
    return splitmix64(h)


def table_from_pandas(df) -> "pa.Table":
    """pa.Table.from_pandas without the pandas schema-metadata blob —
    schemas with metadata are unhashable and make Ray's shuffle
    schema-dedup warn on every aggregator."""
    import pyarrow as pa

    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


# the most rows one driver collect may hold (see ``collect``)
COLLECT_MAX_ROWS = 2**26


def collect(ds, stage: str) -> list["pa.Table"]:
    """The blocks of ``ds`` on the driver: the one driver collect of the
    engine's pipelines, with a stated bound. Raises ``RuntimeError``
    naming ``stage`` and the row count as soon as they pass
    ``COLLECT_MAX_ROWS`` rows. At the cap an exact-dedup collect (one
    int64 id per row) holds 512 MiB, and a line or passage collect
    (uint64 hash, int64 count, int64 id per row) 1.5 GiB. The cap stays
    above ``PrepConfig.drop_broadcast_max``, so a duplicate set too
    large to broadcast still reaches the distributed anti-join."""
    batches, n = [], 0
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        n += len(b)
        if n > COLLECT_MAX_ROWS:
            raise RuntimeError(
                f"{stage}: the driver collect reached {n} rows, past COLLECT_MAX_ROWS={COLLECT_MAX_ROWS}"
            )
        batches.append(b)
    return batches


def cluster_cpus() -> int:
    """CPUs in the connected Ray cluster (4 with no session).

    The one CPU count the engine sizes itself by: the default read
    block count and the default shuffle bucket count both derive from it.
    """
    import ray

    if not ray.is_initialized():
        return 4
    return int(ray.cluster_resources().get("CPU", 4))
