"""The engine's Parquet read block rule (``sources/parquet.py:read_corpus``):
``2 × cluster CPUs`` blocks by default, whatever the input's size, and a
caller's ``override_num_blocks`` wins."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from opentelemetry_collector_contrib_ray._util import cluster_cpus
from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus, read_table


@pytest.fixture(scope="module")
def two_files(tmp_path_factory):
    """Two incompressible files of 2Mi int64 values: 32 MiB in memory,
    for which Ray's own autodetect asks for ~32 blocks (1 MiB minimum)."""
    d = tmp_path_factory.mktemp("two_files")
    rng = np.random.default_rng(0)
    for i in range(2):
        pq.write_table(pa.table({"x": rng.integers(0, 2**62, 2 * 1024 * 1024)}), d / f"part-{i}.parquet")
    return str(d)


def _blocks(ds) -> int:
    return ds.materialize().num_blocks()


def test_default_is_two_blocks_per_cpu(two_files):
    assert cluster_cpus() == 4  # the test session's size
    ds = read_corpus(two_files)
    assert _blocks(ds) == 8
    assert ds.count() == 4 * 1024 * 1024


@pytest.mark.parametrize("n", [1, 16])
def test_caller_override_wins(two_files, n):
    assert _blocks(read_corpus(two_files, override_num_blocks=n)) == n


def test_read_table_goes_through_read_corpus(tmp_path):
    pq.write_table(pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]}), tmp_path / "events.parquet")
    assert _blocks(read_table(str(tmp_path), "events")) == 8
    ds = read_table(str(tmp_path), "events", ["b"], override_num_blocks=1)
    assert ds.columns() == ["b"] and _blocks(ds) == 1
