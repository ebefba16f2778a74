"""Seeded benchmark inputs, written as Parquet before any timing starts.

The program under test only ever receives the Parquet paths made here.
Every input is a pure function of ``(workload, seed, size)``; each run
writes its inputs afresh into its own work directory, so a stale input
can never be reused.

* ``flagship``: rows of the engine's synthetic log corpus
  (``sources.synth.gen_batch``) for a seed-chosen window of row ids. The
  window keeps every id at eight digits, so ``doc_id`` bytes are the same
  width for every seed.
* ``corpus_prep``: a seeded base document table shaped like the engine's
  ``documents`` test table (int64 ``doc_id``, ``text``, ``lang``,
  ``source``, ``n_chars``), amplified into replicas that each carry a
  seed-dependent text prefix and fresh ids.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ID_LO = 10_000_000  # smallest eight-digit id
ID_HI = 100_000_000  # first nine-digit id

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer on one Python int (seed derivation)."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _id_window_start(seed: int, salt: int, n_needed: int) -> int:
    span = ID_HI - ID_LO - n_needed
    if span <= 0:
        raise ValueError(f"{n_needed} ids do not fit the eight-digit window")
    return ID_LO + mix64(seed * 1_000_003 + salt) % span


def _write_files(table: pa.Table, path: str, num_files: int) -> list[str]:
    os.makedirs(path, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, num_files + 1, dtype=np.int64)
    files = []
    for i in range(num_files):
        fn = os.path.join(path, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), fn)
        files.append(fn)
    return files


def _file_digest(files: list[str]) -> tuple[int, str]:
    h = hashlib.sha256()
    total = 0
    for fn in files:
        with open(fn, "rb") as f:
            data = f.read()
        total += len(data)
        h.update(data)
    return total, h.hexdigest()[:16]


def parse_router():
    """The flagship parse chain's ``Router`` (its first stage)."""
    from opentelemetry_collector_contrib_ray.pipelines.log_pipeline import build_parse_chain

    return build_parse_chain().stages[0]


# router branches in first-match order, then the fall-through
BRANCHES = tuple(name for name, _, _ in parse_router().routes) + ("default",)


def branch_of(raw: pa.ChunkedArray) -> np.ndarray:
    """Router branch each raw line takes: the first route whose predicate
    matches, else ``default``."""
    out = np.full(len(raw), "default", dtype=object)
    taken = np.zeros(len(raw), dtype=bool)
    for name, pattern, _ in parse_router().routes:
        m = pc.match_substring_regex(raw, pattern).to_numpy(zero_copy_only=False) & ~taken
        out[m] = name
        taken |= m
    return out


def _mix(values: np.ndarray) -> dict:
    names, counts = np.unique(values.astype(str), return_counts=True)
    return {str(k): int(v) for k, v in zip(names, counts)}


def make_log_input(path: str, seed: int, n_rows: int, *, num_files: int) -> dict:
    """Write a flagship input under ``path``; return its manifest."""
    from opentelemetry_collector_contrib_ray.sources import synth

    start = _id_window_start(seed, 1, n_rows)
    ids = np.arange(start, start + n_rows, dtype=np.uint64)
    table = synth.gen_batch(ids)
    files = _write_files(table, path, num_files)
    nbytes, digest = _file_digest(files)
    return {
        "path": path,
        "files": len(files),
        "rows": table.num_rows,
        "bytes": nbytes,
        "sha256_16": digest,
        "id_range": [int(ids.min()), int(ids.max())],
        "tokens": int(pc.sum(pc.list_value_length(table["tokens"])).as_py()),
        "source_mix": _mix(table["source"].to_numpy(zero_copy_only=False)),
        "branch_mix": _mix(branch_of(table["raw"])),
    }


# ---------------------------------------------------------------- corpus_prep

N_SOURCES = 20
_LANGS = np.array(["en", "en", "en", "de", "fr", "zh"])


def _word_list(rng: np.random.Generator, n_words: int) -> np.ndarray:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lens = rng.integers(3, 10, size=n_words)
    words = {"".join(rng.choice(letters, size=k)) for k in lens}
    return np.array(sorted(words), dtype=object)


def base_documents(seed: int, n_docs: int) -> pa.Table:
    """Seeded base document table. About 8% of documents fail the
    quality gate (repeated words or symbol runs), about 4% repeat the
    text of an earlier document, and about 5% carry an email or IPv4
    address for the PII stage."""
    rng = np.random.default_rng(mix64(seed * 7919 + 3))
    vocab = _word_list(rng, 3000)
    zipf = 1.0 / np.arange(1, len(vocab) + 1) ** 1.05
    zipf /= zipf.sum()
    n_words = rng.integers(8, 90, size=n_docs)
    flat = rng.choice(len(vocab), size=int(n_words.sum()), p=zipf)
    offs = np.concatenate([[0], np.cumsum(n_words)])
    kind = rng.random(n_docs)
    texts = []
    for i in range(n_docs):
        words = vocab[flat[offs[i] : offs[i + 1]]]
        if kind[i] < 0.05:  # repeated-word spam
            words = np.repeat(words[:2], len(words) // 2 + 1)
        elif kind[i] < 0.08:  # symbol runs
            words = np.array([w + " ###" for w in words], dtype=object)
        elif kind[i] < 0.105:
            words = np.append(words, f"mail {words[0]}.{i}@example.org")
        elif kind[i] < 0.13:
            words = np.append(words, f"host 10.{i % 250}.{(i // 250) % 250}.7")
        texts.append(" ".join(words))
    dup = np.flatnonzero((kind > 0.96) & (np.arange(n_docs) > 0))
    for i in dup:
        texts[i] = texts[int(rng.integers(0, i))]
    text = pa.array(texts, pa.string())
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": text,
            "lang": pa.array(_LANGS[rng.integers(0, len(_LANGS), size=n_docs)]),
            "source": pa.array([f"src{i % N_SOURCES}" for i in range(n_docs)]),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
        }
    )


def replica_tag(seed: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    x = mix64(seed * 104729 + 11)
    return "".join(letters[(x >> (5 * k)) % 26] for k in range(4))


def amplify(base: pa.Table, seed: int, n_docs: int) -> pa.Table:
    """Replicas of ``base`` up to ``n_docs`` rows. Replica ``r`` prefixes
    every text with ``<tag><r> `` (tag from the seed) and shifts ids by
    ``r * len(base)`` plus a seed offset, so replicas never share text
    or ids and exact duplicates exist only inside a replica."""
    n_base = base.num_rows
    reps = -(-n_docs // n_base)
    tag = replica_tag(seed)
    id0 = (mix64(seed * 31 + 5) % 1_000_000) * 1_000_000
    parts = []
    for r in range(reps):
        parts.append(
            pa.table(
                {
                    "doc_id": pc.add(base["doc_id"], id0 + r * n_base),
                    "text": pc.binary_join_element_wise(f"{tag}{r} ", base["text"], ""),
                    "source": base["source"],
                }
            )
        )
    return pa.concat_tables(parts).slice(0, n_docs)


def make_docs_input(path: str, seed: int, n_docs: int, *, n_base: int, num_files: int) -> dict:
    table = amplify(base_documents(seed, min(n_base, n_docs)), seed, n_docs)
    files = _write_files(table, path, num_files)
    nbytes, digest = _file_digest(files)
    texts = table["text"].to_numpy(zero_copy_only=False)
    return {
        "path": path,
        "files": len(files),
        "rows": table.num_rows,
        "bytes": nbytes,
        "sha256_16": digest,
        "replica_tag": replica_tag(seed),
        "distinct_texts": int(len(set(texts))),
        "source_mix": _mix(table["source"].to_numpy(zero_copy_only=False)),
    }
