"""Local mirror of the driver's correctness gate: run every queries()
entry and its oracle_sql() side-by-side, compare row count + sorted
values. Each [OK] line carries the sha256 of the query's canonical
result (``digest``: values and dtypes), and every [OK], [FAIL] and
[rows-only] line ends with the query's engine wall time, ``(12.34 s)``;
two runs compare with a diff of their [OK] lines with that time cut
off. Usage: python tools/check_correctness.py [sf_dir] [names...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """sha256 of ``canon(df)``: every column's name, dtype and values."""
    df = canon(df)
    h = hashlib.sha256()
    for c in df.columns:
        h.update(f"{c}:{df[c].dtype}\n".encode())
        h.update(pd.util.hash_pandas_object(df[c], index=False).to_numpy().tobytes())
    return h.hexdigest()


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"row count: ray={len(ray_df)} sql={len(sql_df)}")
    rc, sc = sorted(ray_df.columns), sorted(sql_df.columns)
    if rc != sc:
        problems.append(f"columns: ray={rc} sql={sc}")
        return problems
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if np.issubdtype(a[c].dtype, np.floating):
                ok = np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=1e-9, equal_nan=True)
                exact = np.array_equal(av, bv, equal_nan=True)
                if not ok:
                    bad = np.where(~np.isclose(av.astype(float), bv.astype(float), rtol=0, atol=1e-9, equal_nan=True))[0][:3]
                    problems.append(f"col {c}: value mismatch at rows {bad.tolist()} ray={av[bad]} sql={bv[bad]}")
                elif not exact:
                    problems.append(f"col {c}: WARNING not bit-exact (within 1e-9) — hash may differ")
            else:
                if not np.array_equal(av, bv):
                    bad = np.where(av != bv)[0][:3]
                    problems.append(f"col {c}: mismatch at rows {bad.tolist()} ray={av[bad]} sql={bv[bad]}")
    return problems


def main():
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")

    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    # the flagship oracles embed the sf0.01 corpus path (the driver's
    # contract); when checking another sf, re-point them at that sf's
    # corpus (generated on demand — it is a pure function of row index)
    n = entrymod._corpus_rows(sf_dir)
    if n != 10_000:
        local = entrymod._ensure_corpus_inline(n)
        oracles = {
            k: v.replace("/tmp/otelray_corpus_10000", local) for k, v in oracles.items()
        }
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"[FAIL] {name}: query raised {type(e).__name__}: {e} ({time.perf_counter() - t0:.2f} s)")
            failures += 1
            continue
        wall = f"({time.perf_counter() - t0:.2f} s)"
        if name not in oracles:
            print(f"[rows-only] {name}: {len(ray_df)} rows, cols={sorted(ray_df.columns)} {wall}")
            continue
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"[FAIL] {name}: oracle raised {e} {wall}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            failures += 1
            print(f"[FAIL] {name}: {wall}")
            for p in problems:
                print(f"    {p}")
        else:
            print(f"[OK]   {name}: {len(ray_df)} rows match sha256={digest(ray_df)} {wall}")
    print(f"\n{failures} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
