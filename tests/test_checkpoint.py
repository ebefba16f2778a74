"""Resumable execution: per-shard manifests, skip-on-resume, lineage
(reference analogue: filelog offsets via the storage extension,
extension/storage/filestorage/client.go:26-87)."""

import json
import os

from opentelemetry_collector_contrib_ray.pipelines.log_pipeline import run_checkpointed
from opentelemetry_collector_contrib_ray.sources.synth import write_synth_corpus
from opentelemetry_collector_contrib_ray.state.checkpoint import CheckpointManifest


def test_run_resume_and_partial(tmp_path):
    corpus = str(tmp_path / "corpus")
    run_dir = str(tmp_path / "run")
    write_synth_corpus(corpus, 2000, num_files=3)

    s1 = run_checkpointed(corpus, run_dir)
    assert s1["shards_run"] == 3 and s1["shards_skipped"] == 0
    assert s1["metrics"]["rows_in"] == 2000
    assert s1["metrics"]["rows_routed"] >= 2000  # fan-out duplicates

    # full resume: everything skipped, metrics identical from manifests
    s2 = run_checkpointed(corpus, run_dir)
    assert s2["shards_run"] == 0 and s2["shards_skipped"] == 3
    assert s2["metrics"] == s1["metrics"]

    # partial resume: drop one manifest → exactly that shard reruns
    m = CheckpointManifest(run_dir)
    done = m.completed_shards()
    os.remove(os.path.join(run_dir, "manifest", f"{done[1]}.json"))
    s3 = run_checkpointed(corpus, run_dir)
    assert s3["shards_run"] == 1 and s3["shards_skipped"] == 2
    assert s3["metrics"] == s1["metrics"]

    # a fresh run directory reproduces the same results
    run2 = str(tmp_path / "run_cc")
    s4 = run_checkpointed(corpus, run2)
    assert s4["shards_run"] == 3 and s4["metrics"] == s1["metrics"]

    # lineage record sanity
    rec = m.read(done[0])
    assert rec["tokens_in"]["xor"] == rec["tokens_out"]["xor"]
    assert os.path.isdir(rec["sink_dir"])
    assert set(rec["sink_counts"]) <= {
        "sink_errors", "sink_pager", "sink_std", "sink_debug", "sink_default",
    }
    assert os.path.exists(os.path.join(run_dir, "metrics.json"))
    with open(os.path.join(run_dir, "metrics.json")) as f:
        assert json.load(f) == s1["metrics"]


def test_torn_manifest_record_reruns_shard(tmp_path):
    """A crash can leave a renamed-but-empty manifest record; it must
    not mark the shard complete forever (state/checkpoint.py)."""
    from opentelemetry_collector_contrib_ray.state.checkpoint import CheckpointManifest

    m = CheckpointManifest(str(tmp_path / "run"))
    m.mark_complete("s1", {"ok": True})
    assert m.is_complete("s1")
    # simulate torn write: record file exists but is truncated garbage
    with open(os.path.join(str(tmp_path / "run"), "manifest", "s2.json"), "w") as f:
        f.write('{"trunc')
    assert not m.is_complete("s2")
