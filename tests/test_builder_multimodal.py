"""Config-driven pipeline builder + multimodal decode stages."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from opentelemetry_collector_contrib_ray.pipelines.builder import build, register_stage
from opentelemetry_collector_contrib_ray.stages.multimodal import ImageDecoder


def test_builder_synth_to_parquet(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "source": {"kind": "synth", "rows": 500, "blocks": 2},
        "stages": [
            {"op": "regex_parser", "pattern": r"^(?P<time>\S+) (?P<sev>[A-Z]*)", "parse_from": "raw"},
            {"op": "severity_parser", "parse_from": "sev"},
            {"op": "metadata", "attributes": {"env": "prod"}},
        ],
        "sink": {"path": out},
    }
    ds = build(cfg)
    import ray.data

    back = ray.data.read_parquet(out)
    assert back.count() == 500
    cols = set(back.schema().names)
    assert {"severity_text", "env", "tokens"} <= cols


def test_builder_unknown_op():
    with pytest.raises(ValueError, match="unknown stage op"):
        build({"source": {"kind": "synth", "rows": 10}, "stages": [{"op": "nope"}]})


def test_builder_custom_registered_stage():
    @register_stage("upper_source")
    def _factory(**kw):
        import pyarrow.compute as pc

        def f(batch):
            return batch.set_column(
                batch.column_names.index("source"), "source", pc.utf8_upper(batch["source"])
            )

        return f

    ds = build({"source": {"kind": "synth", "rows": 50}, "stages": [{"op": "upper_source"}]})
    assert ds.take(1)[0]["source"].isupper()


def test_image_decoder_rejects_opaque_payload():
    """Payloads that are no BMP/PPM (and no PIL image) raise a clear
    error; real BMP payloads decode (see test_bmp_roundtrip)."""
    t = pa.table({"item_id": ["img-0"], "payload": pa.array([bytes(range(64))], pa.binary())})
    with pytest.raises(ValueError, match="unsupported image payload"):
        ImageDecoder()(t)


def test_builder_full_dag():
    """Declarative end-to-end: synth → parse → enrich → route → aggregate."""
    cfg = {
        "source": {"kind": "synth", "rows": 800, "blocks": 2},
        "stages": [
            {"op": "regex_parser", "pattern": r"^(?P<time>\S+) (?P<sev>[A-Z]*)", "parse_from": "raw"},
            {"op": "severity_parser", "parse_from": "sev"},
        ],
        "enrich": {
            "table": {"app-a": {"team": "core"}, "syslog": {"team": "infra"}},
            "association": ["source"],
            "prefix": "meta.",
        },
        "routing": {
            "from_attribute": "severity_text",
            "table": {"Error": ["err"], "Info": ["std"]},
            "default": ["other"],
        },
        "aggregate": {"keys": ["sink"], "driver_finalize": True},
    }
    out = build(cfg)
    import pyarrow as pa

    assert isinstance(out, pa.Table)
    counts = dict(zip(out["sink"].to_pylist(), out["count"].to_pylist()))
    assert sum(counts.values()) == 800
    assert set(counts) <= {"err", "std", "other"}


def test_cli_main(tmp_path):
    """python -m opentelemetry_collector_contrib_ray <config> runs a
    pipeline end-to-end in a fresh process (the app.Run() analogue)."""
    import json
    import subprocess
    import sys

    cfg = {
        "source": {"kind": "synth", "rows": 300, "blocks": 1},
        "routing": {
            "from_attribute": "source",
            "table": {"app-a": ["a"]},
            "default": ["rest"],
        },
        "aggregate": {"keys": ["sink"], "driver_finalize": True},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = subprocess.run(
        [sys.executable, "-m", "opentelemetry_collector_contrib_ray", str(p), "--num-cpus", "2"],
        capture_output=True,
        text=True,
        check=True,
        cwd="/root/repo",
        timeout=180,
    ).stdout
    res = json.loads(out.strip().splitlines()[-1])
    assert sum(s["count"] for s in res["sample"]) == 300


def test_bmp_roundtrip_exact():
    """encode_bmp → decode_bmp is pixel-exact, incl. 4-byte row padding
    (non-multiple-of-4 widths) and bottom-up row order."""
    from opentelemetry_collector_contrib_ray.stages.multimodal import (
        decode_bmp,
        decode_image,
        encode_bmp,
    )

    rng = np.random.default_rng(5)
    for w, h in [(7, 3), (8, 8), (13, 2), (1, 1)]:
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        buf = encode_bmp(img)
        assert buf[:2] == b"BM"
        out = decode_bmp(buf)
        assert out.shape == (h, w, 3)
        assert np.array_equal(out, img)
        assert np.array_equal(decode_image(buf), img)  # dispatch path


def test_ppm_decode_exact():
    from opentelemetry_collector_contrib_ray.stages.multimodal import decode_image

    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    buf = b"P6\n# a comment\n3 2\n255\n" + img.tobytes()
    assert np.array_equal(decode_image(buf), img)


def test_image_decoder_real_values():
    """The actor stage decodes REAL BMP payloads: known solid-color
    image → exact channel means, thumbnail features, dims."""
    from opentelemetry_collector_contrib_ray.stages.multimodal import (
        ImageDecoder,
        encode_bmp,
    )

    solid = np.zeros((10, 6, 3), dtype=np.uint8)
    solid[..., 0] = 200  # R
    solid[..., 1] = 100  # G
    solid[..., 2] = 50   # B
    t = pa.table(
        {
            "item_id": ["a"],
            "payload": pa.array([encode_bmp(solid)], pa.binary()),
        }
    )
    out = ImageDecoder(thumb=(4, 4))(t)
    assert out["decoded"].to_pylist() == [True]
    assert out["img_width"].to_pylist() == [6] and out["img_height"].to_pylist() == [10]
    assert out["mean_r"].to_pylist() == [200.0]
    assert out["mean_g"].to_pylist() == [100.0]
    assert out["mean_b"].to_pylist() == [50.0]
    assert out["std_r"].to_pylist() == [0.0]
    feats = np.asarray(out["features"].to_pylist()[0])
    expect = (200 + 100 + 50) / 3 / 255.0
    assert np.allclose(feats, expect, atol=1e-6)


def test_image_decoder_actor_pool_over_synth_bmps():
    """Real decode as a Ray actor-pool stage over deterministic BMPs;
    on_error='null' tolerates a corrupt payload."""
    from opentelemetry_collector_contrib_ray.stages.multimodal import (
        ImageDecoder,
        synth_bmp_table,
    )

    tbl = synth_bmp_table(32)
    # corrupt one payload
    payloads = tbl["payload"].to_pylist()
    payloads[7] = b"garbage-not-an-image"
    tbl = tbl.set_column(1, "payload", pa.array(payloads, pa.binary()))
    ds = ray.data.from_arrow(tbl)
    out = ds.map_batches(
        ImageDecoder,
        fn_constructor_kwargs={"thumb": (8, 8), "on_error": "null"},
        batch_format="pyarrow",
        batch_size=8,
        concurrency=(1, 2),
    ).to_pandas()
    assert out["decoded"].sum() == 31
    good = out[out["decoded"]]
    # gradient images: mean R is the x-gradient mean ≈ 127.5 ± rounding
    assert (good["mean_r"].between(100, 155)).all()
    assert ((good["img_width"] >= 8) & (good["img_width"] <= 32)).all()


def test_builder_round2_stages():
    """Registry covers the round-2 ops: trace_parser, extract_pod_keys,
    image_decoder compose via config."""
    from opentelemetry_collector_contrib_ray.pipelines.builder import _defaults, _REGISTRY

    _defaults()
    for op in ("trace_parser", "k8s_path_metadata", "recombine_lines",
               "extract_pod_keys", "image_decoder"):
        assert op in _REGISTRY
    # extract_pod_keys factory builds a working stage
    stage = _REGISTRY["extract_pod_keys"](associations=None, connection_ip="9.9.9.9")
    out = stage(pa.table({"k8s.pod.ip": ["1.2.3.4", None]}))
    assert out["_pod_key"].to_pylist() == ["1.2.3.4", "9.9.9.9"]
    dec = _REGISTRY["image_decoder"](thumb=(4, 4))
    from opentelemetry_collector_contrib_ray.stages.multimodal import synth_bmp_table

    assert dec(synth_bmp_table(2))["decoded"].to_pylist() == [True, True]
