"""Flagship pipeline end-to-end: routed counts vs an independent
pure-Python oracle derived from the generator's own field draws, plus
the per-row token-array-equality invariant (north rule)."""

import numpy as np
import pandas as pd
import pytest

from opentelemetry_collector_contrib_ray._util import hash_u64, uniform01
from opentelemetry_collector_contrib_ray.functions.tokens import corpus_checksum
from opentelemetry_collector_contrib_ray.pipelines import log_pipeline as lp
from opentelemetry_collector_contrib_ray.sources.synth import (
    SEVERITIES,
    SEVERITY_CUM,
    SOURCES,
    SOURCE_CUM,
    synth_dataset,
)

N = 3000

# independent severity-text → sink expectation (stanza table folds
# WARN→Info, FATAL→Error; k8s rows carry no severity → default sink)
_SEV_TO_SINKS = {
    "TRACE": ["sink_debug"],
    "DEBUG": ["sink_debug"],
    "INFO": ["sink_std"],
    "WARN": ["sink_std"],
    "ERROR": ["sink_errors", "sink_pager"],
    "FATAL": ["sink_errors", "sink_pager"],
}


# syslog severity comes from <PRI>&7 (RFC3164), not the embedded text
_PRI_TO_SINKS = {
    0: ["sink_errors", "sink_pager"],  # Emergency → "Error"
    1: ["sink_errors", "sink_pager"],  # Alert → "Error"
    2: ["sink_errors", "sink_pager"],  # Critical → "Error"
    3: ["sink_errors", "sink_pager"],  # Error
    4: ["sink_std"],                   # Warning → "Info"
    5: ["sink_std"],                   # Notice → "Info"
    6: ["sink_std"],                   # Info
    7: ["sink_debug"],                 # Debug
}


def _expected_counts():
    ids = np.arange(N, dtype=np.uint64)
    src = SOURCES[np.searchsorted(SOURCE_CUM, uniform01(ids, 1), side="right").clip(0, 5)]
    sev = SEVERITIES[np.searchsorted(SEVERITY_CUM, uniform01(ids, 2), side="right").clip(0, 5)]
    pri = hash_u64(ids, 20) % 192
    rows = []
    for i, (s, v) in enumerate(zip(src, sev)):
        if s == "k8s":
            sinks = ["sink_default"]
        elif s == "syslog":
            sinks = _PRI_TO_SINKS[int(pri[i]) & 7]
        else:
            sinks = _SEV_TO_SINKS[v]
        for sink in sinks:
            rows.append((sink, s))
    return pd.DataFrame(rows, columns=["sink", "source"]).value_counts().sort_index()


@pytest.fixture(scope="module")
def routed():
    ds = synth_dataset(N, override_num_blocks=4)
    return lp.build_pipeline(ds)


def test_routed_counts_match_oracle(routed):
    got = (
        lp.aggregate_sinks(routed, keys=["sink", "source"])
        .to_pandas()
        .set_index(["sink", "source"])["count"]
        .sort_index()
    )
    exp = _expected_counts()
    pd.testing.assert_series_equal(
        got, exp, check_names=False, check_dtype=False
    )


def test_token_equality_invariant(routed):
    import ray.data

    ds = synth_dataset(N, override_num_blocks=4)
    in_rows, in_xor, in_ntok = corpus_checksum(ds)
    once = routed
    for dup in ["sink_pager"]:
        once = once.filter(expr=f"sink != '{dup}'")
    out_rows, out_xor, out_ntok = corpus_checksum(once)
    assert (in_rows, in_xor, in_ntok) == (out_rows, out_xor, out_ntok)


def test_enrichment_columns_present(routed):
    row = routed.take(1)[0]
    assert row["meta.team"].startswith("team-")
    assert row["deployment.environment"] == "prod"
    assert row["cloud.region"] == "us-east-1"


def test_wide_rows_small_blocks_token_equality():
    """Heavy-tail 4096-token rows survive under a tiny block-size limit
    (blocks split aggressively; tokens must still pass through
    byte-identical — the FIXTURES F1 wide-row stress)."""
    import ray.data
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 256 * 1024  # 256 KB blocks
        ds = synth_dataset(2000, override_num_blocks=2)
        in_digest = corpus_checksum(ds)
        routed = lp.build_pipeline(synth_dataset(2000, override_num_blocks=2))
        once = routed.filter(expr="sink != 'sink_pager'")
        out_digest = corpus_checksum(once)
        assert in_digest == out_digest
    finally:
        ctx.target_max_block_size = old


def test_all_k8s_batch_gets_severity_defaults(tmp_path):
    """A batch whose rows all take k8s router branches (no severity
    parser) still carries severity_text/severity_number, as the stanza
    entry default Undefined/0, so the partitioned write re-reads under
    the aggregate's column list."""
    import pyarrow as pa
    import ray.data

    from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus

    raw = [
        '{"log":"hello","stream":"stdout","time":"2021-03-01T00:00:00.000Z"}',
        "2021-03-01T00:00:01.000000000Z stderr F world",
    ]
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
            "n_tok": pa.array([2, 1], pa.int32()),
            "source": pa.array(["k8s", "k8s"]),
            "raw": pa.array(raw),
        }
    )
    parsed = lp.build_parse_chain()(batch)
    assert parsed["severity_text"].to_pylist() == ["Undefined", "Undefined"]
    assert parsed["severity_number"].to_pylist() == [0, 0]
    assert parsed["msg"].to_pylist() == ["hello", "world"]

    out = str(tmp_path / "routed")
    lp.build_pipeline(ray.data.from_arrow(batch)).write_parquet(out, partition_cols=["sink"])
    agg = lp.aggregate_sinks(
        read_corpus(out, columns=["sink", "source", "severity_text", "doc_id"]), driver_finalize=True
    )
    assert isinstance(agg, pa.Table)
    assert agg.to_pylist() == [{"sink": "sink_default", "source": "k8s", "severity_text": "Undefined", "count": 2}]
