import numpy as np
import os
import pyarrow as pa

from opentelemetry_collector_contrib_ray.sources.synth import (
    SOURCES,
    gen_batch,
    write_synth_corpus,
)


def test_schema():
    t = gen_batch(np.arange(10, dtype=np.uint64))
    assert t.column_names == ["doc_id", "tokens", "n_tok", "source", "raw"]
    assert t.schema.field("tokens").type == pa.list_(pa.int32())
    assert t.schema.field("n_tok").type == pa.int32()


def test_partition_independence():
    whole = gen_batch(np.arange(0, 50, dtype=np.uint64))
    parts = pa.concat_tables(
        [
            gen_batch(np.arange(0, 13, dtype=np.uint64)),
            gen_batch(np.arange(13, 50, dtype=np.uint64)),
        ]
    ).combine_chunks()
    assert whole.equals(parts)


def test_skew_and_formats():
    t = gen_batch(np.arange(20000, dtype=np.uint64))
    src = t["source"].to_numpy(zero_copy_only=False)
    frac_a = (src == "app-a").mean()
    assert 0.65 < frac_a < 0.75  # FIXTURES F1: ~70% app-a
    raw = t["raw"].to_numpy(zero_copy_only=False)
    assert any(r.startswith("{") for r in raw)  # docker json
    assert any(r.startswith("<") for r in raw)  # syslog
    assert any("Z stdout" in r or "Z stderr" in r for r in raw)  # containerd


def test_write_corpus_idempotent(tmp_path):
    p = str(tmp_path / "corpus")
    write_synth_corpus(p, 1000, num_files=2)
    import pyarrow.parquet as pq
    import os

    files = sorted(os.listdir(p))
    assert [f for f in files if f.endswith(".parquet")] == [
        "shard-00000.parquet", "shard-00001.parquet"
    ]
    rows1 = pq.read_table(p + "/shard-00000.parquet")
    write_synth_corpus(p, 1000, num_files=2)  # no-op rerun
    assert pq.read_table(p + "/shard-00000.parquet").equals(rows1)


def test_corpus_layout_change_regenerates(tmp_path):
    """Filename-only idempotency once layered two shard layouts into one
    directory (12M rows from an 8M request); the layout meta file must
    force a clean regeneration instead."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_contrib_ray.sources.synth import write_synth_corpus

    d = str(tmp_path / "c")
    write_synth_corpus(d, 2000, num_files=2)
    files1 = sorted(os.listdir(d))
    assert "shard-00001.parquet" in files1
    # same layout → no rewrite (idempotent): mtimes unchanged
    m1 = os.path.getmtime(os.path.join(d, "shard-00000.parquet"))
    write_synth_corpus(d, 2000, num_files=2)
    assert os.path.getmtime(os.path.join(d, "shard-00000.parquet")) == m1
    # different layout → wiped and regenerated with the right row total
    write_synth_corpus(d, 2000, num_files=4)
    files2 = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    assert len(files2) == 4
    total = sum(pq.read_table(os.path.join(d, f)).num_rows for f in files2)
    assert total == 2000


def test_ray_free_writer_shares_the_layout(tmp_path):
    """A corpus written shard by shard without Ray (the driver contract's
    ``oracle_sql`` path) is the one ``write_synth_corpus`` writes: the
    Ray writer finds nothing pending and rewrites no file."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_contrib_ray.sources.synth import pending_shards, write_shard

    inline, d = str(tmp_path / "inline"), str(tmp_path / "ray")
    for shard in pending_shards(inline, 2000, 3):
        write_shard(*shard)
    assert pending_shards(inline, 2000, 3) == []
    m = {f: os.path.getmtime(os.path.join(inline, f)) for f in os.listdir(inline)}
    write_synth_corpus(inline, 2000, num_files=3)
    assert {f: os.path.getmtime(os.path.join(inline, f)) for f in os.listdir(inline)} == m
    write_synth_corpus(d, 2000, num_files=3)
    for f in sorted(x for x in os.listdir(d) if x.endswith(".parquet")):
        assert pq.read_table(os.path.join(d, f)).equals(pq.read_table(os.path.join(inline, f)))
