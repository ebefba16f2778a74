"""Multimodal columns: opaque binary payloads + typed metadata.

Engine additions for training-data pipelines. Images/audio/video ride
as ``binary`` columns; decode / resize / feature-extraction are
actor-pool map_batches stages sized for large rows (small batch_size,
list/binary kept in Arrow end-to-end).

Decode capability is REAL without external libraries: a pure-numpy
codec for uncompressed BMP (BITMAPINFOHEADER, 24/32 bpp, bottom-up or
top-down) and binary PPM (P6) backs ``ImageDecoder``; PIL is used
when importable (production path), the built-in codec otherwise, so
decode → resize → channel-stats → thumbnail-feature runs end to end
without PIL.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .._util import hash_u64


# --------------------------------------------------- pure-numpy codecs


def encode_bmp(img: np.ndarray) -> bytes:
    """RGB uint8 (H, W, 3) → uncompressed 24-bpp BMP bytes
    (BITMAPFILEHEADER + BITMAPINFOHEADER, bottom-up, 4-byte row pad)."""
    h, w, c = img.shape
    assert c == 3 and img.dtype == np.uint8
    row = w * 3
    pad = (-row) % 4
    data_size = (row + pad) * h
    header = struct.pack(
        "<2sIHHI", b"BM", 14 + 40 + data_size, 0, 0, 14 + 40
    ) + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, data_size, 2835, 2835, 0, 0)
    # bottom-up rows, BGR order, padded — one vectorized scatter
    bgr = img[::-1, :, ::-1]
    if pad:
        rows = np.zeros((h, row + pad), dtype=np.uint8)
        rows[:, :row] = bgr.reshape(h, row)
        body = rows.tobytes()
    else:
        body = bgr.tobytes()
    return header + body


def decode_bmp(buf: bytes) -> np.ndarray:
    """Uncompressed 24/32-bpp BMP bytes → RGB uint8 (H, W, 3)."""
    if buf[:2] != b"BM":
        raise ValueError("not a BMP payload")
    data_off = struct.unpack_from("<I", buf, 10)[0]
    hdr_size = struct.unpack_from("<I", buf, 14)[0]
    if hdr_size < 40:
        raise ValueError(f"unsupported BMP header size {hdr_size}")
    w, h = struct.unpack_from("<ii", buf, 18)
    bpp = struct.unpack_from("<H", buf, 28)[0]
    compression = struct.unpack_from("<I", buf, 30)[0]
    if compression != 0 or bpp not in (24, 32):
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={compression})")
    top_down = h < 0
    h = abs(h)
    nch = bpp // 8
    stride = (w * nch + 3) & ~3
    arr = np.frombuffer(buf, dtype=np.uint8, count=stride * h, offset=data_off)
    rows = arr.reshape(h, stride)[:, : w * nch].reshape(h, w, nch)
    rgb = rows[..., 2::-1]  # BGR(A) → RGB
    if not top_down:
        rgb = rgb[::-1]
    return np.ascontiguousarray(rgb)


def decode_ppm(buf: bytes) -> np.ndarray:
    """Binary PPM (P6, maxval 255) → RGB uint8 (H, W, 3)."""
    if buf[:2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    # header: magic, width, height, maxval as whitespace-separated
    # tokens (comments stripped), then one whitespace byte, then pixels
    pos, tokens = 2, []
    while len(tokens) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        tokens.append(int(buf[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    return np.frombuffer(buf, np.uint8, count=w * h * 3, offset=pos).reshape(h, w, 3)


def decode_image(buf: bytes) -> np.ndarray:
    """Payload bytes → RGB uint8 array: PIL when importable (any
    format), else the built-in BMP/PPM codecs."""
    try:
        import io

        from PIL import Image

        return np.asarray(Image.open(io.BytesIO(buf)).convert("RGB"))
    except ImportError:
        pass
    if buf[:2] == b"BM":
        return decode_bmp(buf)
    if buf[:2] == b"P6":
        return decode_ppm(buf)
    raise ValueError("unsupported image payload (no PIL; built-ins: BMP, PPM)")


def resize_nearest(img: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize via index gather (no external deps)."""
    th, tw = size
    h, w = img.shape[:2]
    ri = (np.arange(th) * h // th).clip(0, h - 1)
    ci = (np.arange(tw) * w // tw).clip(0, w - 1)
    return img[ri][:, ci]


class ImageDecoder:
    """REAL decode / resize / feature-extract actor stage.

    Per item: decode (PIL or built-in BMP/PPM) → per-channel mean/std
    → nearest-neighbor thumbnail → flattened grayscale features
    (float32, thumb_h×thumb_w). Per-item Python is inherent (payloads
    are variable-size opaque blobs); every kernel inside is numpy.

    Use: ``ds.map_batches(ImageDecoder, fn_constructor_kwargs=...,
    concurrency=N, batch_size=64, num_cpus=1)`` — small batches because
    payload bytes dominate block size. ``on_error='null'`` emits null
    features for undecodable payloads instead of failing the batch.
    """

    def __init__(self, thumb: tuple[int, int] = (8, 8), on_error: str = "raise"):
        self.thumb = thumb
        self.on_error = on_error

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, tw = self.thumb
        dim = th * tw
        n = len(batch)
        feats = np.zeros((n, dim), dtype=np.float32)
        means = np.full((n, 3), np.nan, dtype=np.float64)
        stds = np.full((n, 3), np.nan, dtype=np.float64)
        widths = np.zeros(n, dtype=np.int32)
        heights = np.zeros(n, dtype=np.int32)
        ok = np.zeros(n, dtype=bool)
        for i, payload in enumerate(batch["payload"].to_pylist()):
            try:
                img = decode_image(payload)
            except (ValueError, IndexError, struct.error):
                if self.on_error == "raise":
                    raise
                continue
            heights[i], widths[i] = img.shape[:2]
            means[i] = img.reshape(-1, 3).mean(axis=0)
            stds[i] = img.reshape(-1, 3).std(axis=0)
            gray = img.astype(np.float32).mean(axis=2)
            feats[i] = resize_nearest(gray, self.thumb).reshape(-1) / 255.0
            ok[i] = True
        flat = pa.array(feats.reshape(-1))
        offs = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
        out = batch.append_column("decoded", pa.array(ok))
        out = out.append_column("img_width", pa.array(widths))
        out = out.append_column("img_height", pa.array(heights))
        for ch, name in enumerate(("r", "g", "b")):
            out = out.append_column(f"mean_{name}", pa.array(means[:, ch]))
            out = out.append_column(f"std_{name}", pa.array(stds[:, ch]))
        return out.append_column("features", pa.ListArray.from_arrays(offs, flat))


def synth_bmp_table(n: int) -> pa.Table:
    """Deterministic REAL images: per item a (h × w) RGB gradient+hash
    pattern encoded as an actual 24-bpp BMP — the decode path exercises
    the genuine codec, and expected pixel stats are computable."""
    ids = np.arange(n, dtype=np.uint64)
    ws = (8 + hash_u64(ids, 41) % 25).astype(np.int32)
    hs = (8 + hash_u64(ids, 42) % 25).astype(np.int32)
    payloads = []
    for i, (w, h) in enumerate(zip(ws.tolist(), hs.tolist())):
        yy, xx = np.mgrid[0:h, 0:w]
        r = ((xx * 255) // max(1, w - 1)).astype(np.uint8)
        g = ((yy * 255) // max(1, h - 1)).astype(np.uint8)
        b = (hash_u64(np.arange(h * w, dtype=np.uint64), int(ids[i])) % 256).astype(
            np.uint8
        ).reshape(h, w)
        payloads.append(encode_bmp(np.stack([r, g, b], axis=2)))
    return pa.table(
        {
            "item_id": pa.array([f"img-{int(i):06d}" for i in ids]),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["image/bmp"] * n),
            "width": pa.array(ws),
            "height": pa.array(hs),
        }
    )


# ---------------------------------------------------------------- audio (WAV)
#
# REAL audio decode without external libraries: a pure-numpy RIFF/WAVE
# PCM16 codec. Chunk-walking (not fixed offsets) so files with extra
# chunks (LIST/fact/cue) decode like the canonical 44-byte-header case.


def encode_wav(pcm: np.ndarray, sample_rate: int) -> bytes:
    """Mono PCM16 samples → RIFF/WAVE bytes."""
    data = np.ascontiguousarray(pcm.astype("<i2")).tobytes()
    byte_rate = sample_rate * 2
    hdr = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(data)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, byte_rate, 2, 16),
            b"data",
            struct.pack("<I", len(data)),
        ]
    )
    return hdr + data


def decode_wav(buf: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE bytes → (mono int16 samples, sample_rate). Walks the
    chunk list; accepts any chunk order / extra chunks; PCM16 mono or
    interleaved multi-channel (averaged to mono) only."""
    if len(buf) < 12 or buf[0:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(buf):
        cid = buf[pos : pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        body = buf[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("missing fmt/data chunk")
    audio_fmt, channels, rate, _brate, _align, bits = fmt
    if audio_fmt != 1 or bits != 16:
        raise ValueError(f"unsupported WAV format {audio_fmt}/{bits}bit")
    pcm = np.frombuffer(data, dtype="<i2")
    if channels > 1:
        pcm = pcm[: len(pcm) - len(pcm) % channels]
        pcm = pcm.reshape(-1, channels).mean(axis=1).astype(np.int16)
    return pcm.astype(np.int16), int(rate)


class AudioFeatures:
    """Actor-pool map_batches stage: WAV ``payload`` column → per-item
    audio features (sample_rate, n_samples, duration_ms, rms, peak,
    zero_crossings). Per-item decode loop is inherent (variable-size
    opaque blobs); all math inside is numpy.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        rate = np.zeros(n, dtype=np.int32)
        nsamp = np.zeros(n, dtype=np.int64)
        dur = np.zeros(n, dtype=np.int64)
        rms = np.full(n, np.nan, dtype=np.float64)
        peak = np.zeros(n, dtype=np.int32)
        zc = np.zeros(n, dtype=np.int64)
        for i, payload in enumerate(batch["payload"].to_pylist()):
            pcm, sr = decode_wav(payload)
            f = pcm.astype(np.float64)
            rate[i] = sr
            nsamp[i] = len(pcm)
            dur[i] = (len(pcm) * 1000) // max(1, sr)
            rms[i] = float(np.sqrt(np.mean(f * f))) if len(pcm) else 0.0
            peak[i] = int(np.abs(f).max()) if len(pcm) else 0
            s = np.sign(f)
            zc[i] = int((s[1:] != s[:-1]).sum()) if len(pcm) > 1 else 0
        out = batch.append_column("decoded", pa.array(np.ones(n, dtype=bool)))
        out = out.append_column("sample_rate", pa.array(rate))
        out = out.append_column("n_samples", pa.array(nsamp))
        out = out.append_column("duration_ms", pa.array(dur))
        out = out.append_column("rms", pa.array(rms))
        out = out.append_column("peak", pa.array(peak))
        return out.append_column("zero_crossings", pa.array(zc))


def synth_wav_table(n: int) -> pa.Table:
    """Deterministic REAL audio: square waves (RMS == amplitude exactly,
    independent of truncation — unlike sines) with per-item amplitude,
    half-period, and length derived from the id, so every feature the
    decoder emits has a closed form."""
    rows_id, payloads = [], []
    amps = np.zeros(n, np.int32)
    halves = np.zeros(n, np.int32)
    lens = np.zeros(n, np.int64)
    for i in range(n):
        a = 1000 + (i % 8) * 3000
        half = 10 + (i % 10) * 4  # half-period in samples
        ln = 800 + (i % 5) * 400
        t = np.arange(ln)
        pcm = np.where((t // half) % 2 == 0, a, -a).astype(np.int16)
        payloads.append(encode_wav(pcm, 8000))
        amps[i], halves[i], lens[i] = a, half, ln
    return pa.table(
        {
            "item_id": pa.array([f"wav-{i:06d}" for i in range(n)]),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["audio/wav"] * n),
            "amp": pa.array(amps),
            "half_period": pa.array(halves),
            "n_samples_in": pa.array(lens),
        }
    )


# ------------------------------------------------------------- video (frames)
#
# A minimal length-prefixed frame container (real video codecs need
# external libs): magic + frame count + per-frame length-prefixed BMP
# payloads. The SAMPLER is the operator under test — parse the
# container, decode only every k-th frame through the real BMP codec,
# emit one row per sampled frame.

_VIDEO_MAGIC = b"VID0"


def encode_video(frames: list[bytes]) -> bytes:
    """List of encoded frame payloads (e.g. BMP) → container bytes."""
    parts = [_VIDEO_MAGIC, struct.pack("<I", len(frames))]
    for f in frames:
        parts.append(struct.pack("<I", len(f)))
        parts.append(f)
    return b"".join(parts)


def decode_video(buf: bytes) -> list[bytes]:
    """Container bytes → list of frame payloads (no frame decode)."""
    if len(buf) < 8 or buf[:4] != _VIDEO_MAGIC:
        raise ValueError("not a VID0 container")
    (count,) = struct.unpack_from("<I", buf, 4)
    pos = 8
    frames = []
    for _ in range(count):
        (ln,) = struct.unpack_from("<I", buf, pos)
        frames.append(buf[pos + 4 : pos + 4 + ln])
        pos += 4 + ln
    return frames


class VideoFrameSampler:
    """Actor-pool map_batches stage: video container column → one row
    per SAMPLED frame (every ``every_n``-th, frame 0 always included),
    each decoded through the real image codec with per-channel means.
    Only sampled frames are decoded — the container scan skips the
    rest, the point of frame-sampling at scale."""

    def __init__(self, every_n: int = 2):
        self.every_n = max(1, every_n)

    def __call__(self, batch: pa.Table) -> pa.Table:
        item_ids, fidx, nframes = [], [], []
        means = []
        for item, payload in zip(
            batch["item_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            frames = decode_video(payload)
            for k in range(0, len(frames), self.every_n):
                img = decode_image(frames[k])
                item_ids.append(item)
                fidx.append(k)
                nframes.append(len(frames))
                means.append(img.reshape(-1, 3).mean(axis=0))
        m = (
            np.stack(means)
            if means
            else np.zeros((0, 3), dtype=np.float64)
        )
        return pa.table(
            {
                "item_id": pa.array(item_ids, pa.string()),
                "frame_idx": pa.array(fidx, pa.int64()),
                "n_frames": pa.array(nframes, pa.int64()),
                "mean_r": pa.array(m[:, 0]),
                "mean_g": pa.array(m[:, 1]),
                "mean_b": pa.array(m[:, 2]),
            }
        )


def synth_video_table(n: int) -> pa.Table:
    """Deterministic REAL videos: per item 4-9 BMP frames where frame f
    carries a constant green channel of value (f * 29 + item) % 256 and
    the standard x-gradient red channel — the sampler's per-frame means
    have closed forms."""
    payloads = []
    counts = np.zeros(n, np.int32)
    for i in range(n):
        nf = 4 + i % 6
        w, h = 8 + i % 9, 8 + (i // 2) % 7
        frames = []
        for f in range(nf):
            yy, xx = np.mgrid[0:h, 0:w]
            r = ((xx * 255) // max(1, w - 1)).astype(np.uint8)
            g = np.full((h, w), (f * 29 + i) % 256, np.uint8)
            b = np.full((h, w), f % 256, np.uint8)
            frames.append(encode_bmp(np.stack([r, g, b], axis=2)))
        payloads.append(encode_video(frames))
        counts[i] = nf
    return pa.table(
        {
            "item_id": pa.array([f"vid-{i:06d}" for i in range(n)]),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["video/x-frames"] * n),
            "n_frames_in": pa.array(counts),
        }
    )
