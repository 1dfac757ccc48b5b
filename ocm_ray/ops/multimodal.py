"""Multimodal (image/audio/video) column plumbing.

Media payloads are opaque ``binary`` columns with typed metadata
(``mime``, declared dims/duration). The Ray-side structure — schema,
task-mode decode stages, batch sizing for large binaries, output layout
— is real and tested. Codec support is tiered honestly:

* **REAL decode, no external deps**: PPM (P6) images (pure-numpy header
  parse + luma + nearest-neighbor resize), PCM WAV audio (stdlib
  ``wave``), and YUV4MPEG2 (Y4M) raw video (pure-numpy plane parsing +
  frame sampling). ``synth_media_table`` emits genuine PPM/WAV/Y4M
  payloads, so the real paths are exercised end-to-end in tests.
* **Delegated**: JPEG/PNG decode uses PIL when importable.
* **STUBBED**: JPEG/PNG without PIL, and COMPRESSED video (MP4) frame
  decode (no ffmpeg in this container) raise ``NotImplementedError``;
  ``fake=True`` swaps in a deterministic payload-seeded synthetic decode
  so downstream stages still run.

Batch-size guidance encoded in the defaults: with ~1 MB payloads, a
batch of 32 rows ≈ 32 MB ≈ a sane per-task working set; callers with
10 MB video chunks should drop to batch_size=4 and raise
``DataContext.target_max_block_size`` so blocks aren't split absurdly
small (one row per block is fine for video).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from ocm_ray.core.hashing import wanghash

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("payload", pa.binary()),
    ("mime", pa.string()),
    ("width", pa.int32()),      # declared; -1 if unknown/not applicable
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


def _ppm_pixels(w: int, h: int, rng: np.random.Generator) -> np.ndarray:
    """The ground-truth (h, w, 3) uint8 array a synthetic PPM encodes:
    gradient + seeded noise. Split out so synthesis can ALSO hand the
    raw array to the expected-stats fixture (decode-independent truth)."""
    x = np.linspace(0, 255, w, dtype=np.float64)[None, :]
    y = np.linspace(0, 255, h, dtype=np.float64)[:, None]
    r = np.broadcast_to(x, (h, w))
    g = np.broadcast_to(y, (h, w))
    b = rng.integers(0, 256, (h, w)).astype(np.float64)
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


def _encode_ppm(rgb: np.ndarray) -> bytes:
    return b"P6\n%d %d\n255\n" % (rgb.shape[1], rgb.shape[0]) + rgb.tobytes()


def make_ppm(w: int, h: int, rng: np.random.Generator) -> bytes:
    """A genuine binary PPM (P6) image: gradient + seeded noise."""
    return _encode_ppm(_ppm_pixels(w, h, rng))


def _wav_pcm(duration_ms: int, rng: np.random.Generator,
             rate: int = 8000, freq: float = 440.0) -> np.ndarray:
    """Ground-truth little-endian PCM16 samples of a synthetic WAV
    (sine + seeded noise) — shared by the encoder and the
    expected-stats fixture."""
    n = max(1, rate * min(duration_ms, 500) // 1000)
    t = np.arange(n, dtype=np.float64) / rate
    sig = 0.5 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.standard_normal(n)
    return np.clip(sig * 32767, -32768, 32767).astype("<i2")


def _encode_wav(pcm: np.ndarray, rate: int = 8000) -> bytes:
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())
    return buf.getvalue()


def make_wav(duration_ms: int, rng: np.random.Generator,
             rate: int = 8000, freq: float = 440.0) -> bytes:
    """A genuine PCM16 mono WAV: sine + seeded noise (stdlib writer)."""
    return _encode_wav(_wav_pcm(duration_ms, rng, rate, freq), rate)


def synth_media_table(n: int = 64, seed: int = 42,
                      payload_bytes: int = 4096,
                      expected_stats: bool = False,
                      target_size: int = 16, every_ms: int = 1000):
    """Deterministic media rows. PPM images and WAV audio carry REAL
    payloads (decodable by the real code paths); JPEG/MP4 rows carry
    seeded pseudo-random bytes behind a 16-byte header (their decoders
    are stubbed — no PIL/ffmpeg in this container).

    ``expected_stats=True`` returns ``(table, fixture_df)`` where the
    fixture holds the GROUND-TRUTH stat per decodable row — mean
    ITU-R 601 luma of the nearest-resized image, float32 total RMS of
    the PCM, mean luma of the ``every_ms``-sampled Y4M frames —
    computed from the raw arrays at synthesis time, BEFORE any byte
    encoding. A decode pipeline can then be frame-compared exactly
    (an oracle without SQL-expressing the codec): any defect in the
    PPM/WAV/Y4M parser, the resize, the luma kernel, or the sampling
    schedule breaks equality with the fixture."""
    rng = np.random.default_rng(seed)
    rows = {k: [] for k in ("media_id", "payload", "mime", "width", "height",
                            "duration_ms")}
    mimes = ["image/x-portable-pixmap", "image/jpeg", "audio/wav",
             "video/mp4", "video/x-yuv4mpeg"]
    exp = {"media_id": [], "kind": [], "stat": []}
    for i in range(n):
        mime = mimes[i % len(mimes)]
        w, h = (int(rng.integers(32, 128)), int(rng.integers(32, 128))) \
            if mime.startswith(("image", "video")) else (-1, -1)
        dur = int(rng.integers(500, 60000)) if not mime.startswith("image") else -1
        if mime == "image/x-portable-pixmap":
            rgb = _ppm_pixels(w, h, rng)
            payload = _encode_ppm(rgb)
            if expected_stats:
                small = resize_nearest(rgb, target_size).astype(np.uint32)
                luma = (77 * small[:, :, 0] + 150 * small[:, :, 1]
                        + 29 * small[:, :, 2]) >> 8
                exp["media_id"].append(i)
                exp["kind"].append("image")
                exp["stat"].append(
                    round(float(luma.astype(np.uint8).mean()), 4))
        elif mime == "audio/wav":
            pcm = _wav_pcm(dur, rng)
            payload = _encode_wav(pcm)
            if expected_stats:
                x = pcm.astype(np.float64) / 32768.0
                rms = np.float32(np.sqrt((x * x).mean()))
                exp["media_id"].append(i)
                exp["kind"].append("audio")
                exp["stat"].append(round(float(rms), 4))
        elif mime == "video/x-yuv4mpeg":
            # REAL raw video: short clip, even dims, 25 fps; duration
            # follows the actual frame count
            w, h = (w + w % 2), (h + h % 2)
            n_frames = int(rng.integers(8, 40))
            dur = n_frames * 1000 // 25
            payload = make_y4m(w, h, n_frames)
            if expected_stats:
                # mean luma of every every_ms-sampled frame, straight
                # from the generator formula (x + 2y + 7f) mod 256
                xs = np.arange(w, dtype=np.int64)[None, :]
                ys = np.arange(h, dtype=np.int64)[:, None]
                step = max(1, int(round(25 * every_ms / 1000.0)))
                lumas = [float(((xs + 2 * ys + 7 * f) % 256)
                               .astype(np.uint8).mean())
                         for f in range(0, n_frames, step)]
                exp["media_id"].append(i)
                exp["kind"].append("video")
                exp["stat"].append(float(np.round(np.mean(lumas), 4)))
        else:
            body = rng.integers(0, 256, payload_bytes - 16,
                                dtype=np.uint8).tobytes()
            payload = struct.pack("<iiii", w, h, dur, payload_bytes) + body
        rows["media_id"].append(i)
        rows["payload"].append(payload)
        rows["mime"].append(mime)
        rows["width"].append(w)
        rows["height"].append(h)
        rows["duration_ms"].append(dur)
    tbl = pa.table(rows, schema=MEDIA_SCHEMA)
    if expected_stats:
        import pandas as pd

        return tbl, pd.DataFrame(exp)
    return tbl


def make_y4m(w: int, h: int, n_frames: int, fps: int = 25) -> bytes:
    """A genuine YUV4MPEG2 (Y4M) video: uncompressed 4:2:0 planar
    frames behind the standard ASCII header — the raw-video format
    ffmpeg-less pipelines exchange. Deterministic content: frame f's
    luma is ``(x + 2y + 7f) mod 256`` (so per-frame stats differ and
    decode can be verified exactly)."""
    assert w % 2 == 0 and h % 2 == 0, "4:2:0 needs even dims"
    parts = [b"YUV4MPEG2 W%d H%d F%d:1 Ip A1:1 C420jpeg\n" % (w, h, fps)]
    x = np.arange(w, dtype=np.int64)[None, :]
    y = np.arange(h, dtype=np.int64)[:, None]
    uv = np.full(((h // 2) * (w // 2)), 128, dtype=np.uint8).tobytes()
    for f in range(n_frames):
        luma = ((x + 2 * y + 7 * f) % 256).astype(np.uint8)
        parts.append(b"FRAME\n" + luma.tobytes() + uv + uv)
    return b"".join(parts)


def decode_y4m(payload: bytes):
    """Parse a YUV4MPEG2 stream into ``(luma_frames (n, h, w) uint8,
    fps float)`` — pure numpy/bytes, no ffmpeg. Handles the standard
    header tags (W/H/F required, others ignored) and per-FRAME
    parameter tails; chroma planes are skipped (4:2:0 / 4:2:2 / 4:4:4
    by the C tag, mono via Cmono)."""
    nl = payload.index(b"\n")
    header = payload[:nl].split(b" ")
    assert header[0] == b"YUV4MPEG2", "not a Y4M stream"
    w = h = None
    fps = 25.0
    chroma = b"420jpeg"
    for tag in header[1:]:
        if tag[:1] == b"W":
            w = int(tag[1:])
        elif tag[:1] == b"H":
            h = int(tag[1:])
        elif tag[:1] == b"F":
            num, den = tag[1:].split(b":")
            fps = int(num) / max(int(den), 1)
        elif tag[:1] == b"C":
            chroma = tag[1:]
    assert w and h, "Y4M header missing W/H"
    if chroma.startswith(b"420"):
        chroma_bytes = (w // 2) * (h // 2) * 2
    elif chroma.startswith(b"422"):
        chroma_bytes = (w // 2) * h * 2
    elif chroma.startswith(b"444"):
        chroma_bytes = w * h * 2
    else:  # mono
        chroma_bytes = 0
    frames = []
    pos = nl + 1
    ysz = w * h
    while pos < len(payload):
        assert payload[pos:pos + 5] == b"FRAME", "corrupt FRAME marker"
        pos = payload.index(b"\n", pos) + 1
        frames.append(np.frombuffer(payload, np.uint8, count=ysz,
                                    offset=pos).reshape(h, w))
        pos += ysz + chroma_bytes
    return (np.stack(frames) if frames
            else np.empty((0, h, w), np.uint8)), fps


def decode_ppm(payload: bytes) -> np.ndarray:
    """Parse a binary PPM (P6) into an (h, w, 3) uint8 array — pure
    numpy/stdlib, no imaging library."""
    assert payload[:2] == b"P6", "not a binary PPM"
    # header = magic, width, height, maxval tokens (comments stripped)
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(payload) and payload[pos:pos + 1].isspace():
            pos += 1
        if payload[pos:pos + 1] == b"#":
            pos = payload.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos:pos + 1].isspace():
            pos += 1
        tokens.append(int(payload[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = tokens
    assert maxval == 255, "only 8-bit PPM supported"
    return np.frombuffer(payload, dtype=np.uint8, count=w * h * 3,
                         offset=pos).reshape(h, w, 3)


def resize_nearest(img: np.ndarray, t: int) -> np.ndarray:
    """Nearest-neighbor resize to (t, t) via index striding (vectorized,
    zero-copy gather)."""
    h, w = img.shape[:2]
    yi = (np.arange(t) * h) // t
    xi = (np.arange(t) * w) // t
    return img[yi[:, None], xi[None, :]]


class DecodeImage:
    """Per-batch stage: payload → decoded pixel tensor + basic stats.

    PPM decodes natively, other formats need PIL (``fake=False`` raises
    NotImplementedError without it). ``fake=True`` produces a
    deterministic (seeded by payload hash) uint8 array of the declared
    dims — the Ray plumbing (state broadcast once, per-batch decode,
    fixed-size-list output column) is identical either way."""

    def __init__(self, fake: bool = False, target_size: int = 64):
        if not isinstance(target_size, int) or target_size <= 0:
            # fail at construction on the driver, not as a retried
            # TypeError inside a task ("None = native resolution" is NOT
            # supported: the output column is a fixed-size list)
            raise ValueError(f"target_size must be a positive int, got "
                             f"{target_size!r}")
        self.fake = fake
        self.target = target_size
        self._pil = None
        if not fake:
            try:
                from PIL import Image  # noqa: F401

                self._pil = Image
            except ImportError:
                self._pil = None

    def _decode_real(self, payload: bytes, mime: str) -> np.ndarray:
        """(h, w, 3) uint8 — PPM natively, PIL formats if PIL exists."""
        if mime == "image/x-portable-pixmap" or payload[:2] == b"P6":
            return decode_ppm(payload)
        if self._pil is not None:
            import io

            img = self._pil.open(io.BytesIO(payload)).convert("RGB")
            return np.asarray(img)
        raise NotImplementedError(
            f"decoding {mime} needs PIL (not in this container); PPM "
            "decodes natively, or construct DecodeImage(fake=True)")

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = self.target
        payloads = batch.column("payload").to_pylist()
        mimes = batch.column("mime").to_pylist() \
            if "mime" in batch.schema.names else [""] * len(payloads)
        ids = batch.column("media_id").to_numpy(zero_copy_only=False)
        out = np.empty((len(payloads), t * t), dtype=np.uint8)
        means = np.empty(len(payloads), dtype=np.float64)
        for i, (p, m) in enumerate(zip(payloads, mimes)):
            if p is None:
                # read_webdataset yields null payloads for missing tar
                # members — zero-fill instead of TypeError'ing the task
                out[i] = 0
                means[i] = 0.0
                continue
            if self.fake:
                seed = int(wanghash(np.frombuffer(p[:16].ljust(16, b"\0"),
                                                  dtype=np.uint64))[0])
                rng = np.random.default_rng(seed)
                px = rng.integers(0, 256, t * t, dtype=np.uint8)
            else:
                rgb = resize_nearest(self._decode_real(p, m), t) \
                    .astype(np.uint32)
                # integer ITU-R 601 luma (pure numpy; uint32 BEFORE the
                # multiplies — 150·uint8 would wrap under value-based
                # casting)
                luma = (77 * rgb[:, :, 0] + 150 * rgb[:, :, 1]
                        + 29 * rgb[:, :, 2]) >> 8
                px = luma.astype(np.uint8).ravel()
            out[i] = px
            means[i] = px.mean()
        pixels = pa.FixedSizeListArray.from_arrays(
            pa.array(out.ravel(), type=pa.uint8()), t * t)
        return pa.table({"media_id": pa.array(ids),
                         "pixels": pixels,
                         "mean_luma": pa.array(means)})


class ExtractAudioFeatures:
    """Per-batch stage: audio payload → fixed-length feature vector.

    REAL path (default): parse PCM WAV with the stdlib ``wave`` module
    and compute 30 band RMS energies + overall RMS + zero-crossing rate
    (vectorized numpy — no torchaudio/librosa needed for PCM).
    ``fake=True`` keeps the payload-byte stub for non-WAV formats."""

    N_FEATURES = 32

    def __init__(self, fake: bool = False):
        self.fake = fake

    @staticmethod
    def _wav_samples(payload: bytes) -> np.ndarray:
        import io
        import wave

        with wave.open(io.BytesIO(payload), "rb") as wf:
            assert wf.getsampwidth() == 2, "only PCM16 supported natively"
            raw = wf.readframes(wf.getnframes())
            x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
            if wf.getnchannels() > 1:
                x = x.reshape(-1, wf.getnchannels()).mean(axis=1)
        return x

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        feats = np.empty((len(payloads), self.N_FEATURES), dtype=np.float32)
        for i, p in enumerate(payloads):
            if p is None:
                feats[i] = 0.0
                continue
            if self.fake:
                arr = np.frombuffer(p, dtype=np.uint8)[:4096].astype(np.float32)
                chunks = np.array_split(arr, self.N_FEATURES)
                # short payloads yield EMPTY chunks whose mean is NaN —
                # zero-fill like the real path's empty bands
                feats[i] = [c.mean() if len(c) else 0.0 for c in chunks]
            else:
                x = self._wav_samples(p)
                bands = np.array_split(x, self.N_FEATURES - 2)
                rms = [float(np.sqrt((b * b).mean())) if len(b) else 0.0
                       for b in bands]
                total_rms = float(np.sqrt((x * x).mean())) if len(x) else 0.0
                zcr = float((np.diff(np.signbit(x)) != 0).mean()) if len(x) > 1 \
                    else 0.0
                feats[i] = rms + [total_rms, zcr]
        vec = pa.FixedSizeListArray.from_arrays(
            pa.array(feats.ravel(), type=pa.float32()), self.N_FEATURES)
        return pa.table({"media_id": batch.column("media_id"), "features": vec})


def sample_video_frames(batch: pa.Table, every_ms: int = 1000,
                        fake: bool = True) -> pa.Table:
    """Frame-sampling stage (flat_map-shaped: one output row per sampled
    frame) emitting ``(media_id, frame_idx, ts_ms, mean_luma)``.

    ``fake=False`` REALLY decodes YUV4MPEG2 payloads (``decode_y4m`` —
    uncompressed raw video, no ffmpeg needed): frames are picked at
    ``every_ms`` intervals from the actual stream timing and carry
    their true mean luma. Compressed formats (video/mp4) still raise
    without ffmpeg — the honest stub. ``fake=True`` keeps the
    declared-duration synthetic schedule with ``mean_luma = -1``."""
    ids = batch.column("media_id").to_numpy(zero_copy_only=False)
    dur = batch.column("duration_ms").to_numpy(zero_copy_only=False)
    out_id, out_fi, out_ts, out_ml = [], [], [], []
    if fake:
        for i, d in zip(ids, dur):
            n = max(0, int(d) // every_ms)
            out_id.extend([int(i)] * n)
            out_fi.extend(range(n))
            out_ts.extend(range(0, n * every_ms, every_ms))
            out_ml.extend([-1.0] * n)
    else:
        payloads = batch.column("payload").to_pylist()
        mimes = batch.column("mime").to_pylist() \
            if "mime" in batch.schema.names else [""] * len(payloads)
        for i, p, m in zip(ids, payloads, mimes):
            if not (m == "video/x-yuv4mpeg" or p[:9] == b"YUV4MPEG2"):
                raise NotImplementedError(
                    f"decoding {m} needs ffmpeg (absent); Y4M decodes "
                    "natively, or use fake=True")
            frames, fps = decode_y4m(p)
            step = max(1, int(round(fps * every_ms / 1000.0)))
            for fi in range(0, len(frames), step):
                out_id.append(int(i))
                out_fi.append(fi)
                out_ts.append(int(fi * 1000.0 / fps))
                out_ml.append(float(frames[fi].mean()))
    return pa.table({"media_id": pa.array(out_id, pa.int64()),
                     "frame_idx": pa.array(out_fi, pa.int32()),
                     "ts_ms": pa.array(out_ts, pa.int32()),
                     "mean_luma": pa.array(out_ml, pa.float64())})


def decode_images(ds: Dataset, fake: bool = False, target_size: int = 64,
                  batch_size: int = 32, concurrency: int = 4) -> Dataset:
    """images → pixel tensors via a :class:`DecodeImage` task stage (see
    batch-size note in the module docstring). A bad ``target_size``
    raises here, on the driver."""
    from ocm_ray.engine.build import map_batches_with

    dec = DecodeImage(fake=fake, target_size=target_size)
    return map_batches_with(ds, dec, batch_format="pyarrow",
                            batch_size=batch_size, concurrency=concurrency)


# ---------------------------------------------------------------------------
# MP4 / ISO-BMFF container metadata (round 4)
#
# Pixel/audio DECODE of compressed tracks still needs ffmpeg (absent in
# this container — the honest stub stands), but the CONTAINER layer is a
# simple length-prefixed box tree (ISO/IEC 14496-12) and parses fine in
# pure Python: brand, movie duration, per-track handler/codec/geometry,
# sample counts. At 100 TB this is the first-pass "what is this blob"
# triage stage that runs BEFORE any expensive decode is scheduled.


def _iter_boxes(buf: bytes, start: int, end: int):
    """Yield (type, body_start, body_end) for the boxes in [start, end).
    Handles 64-bit largesize boxes; stops cleanly on truncation."""
    off = start
    while off + 8 <= end:
        size = int.from_bytes(buf[off:off + 4], "big")
        btype = buf[off + 4:off + 8].decode("latin1")
        body = off + 8
        if size == 1:                       # 64-bit largesize
            if off + 16 > end:
                return
            size = int.from_bytes(buf[off + 8:off + 16], "big")
            body = off + 16
        elif size == 0:                     # box extends to EOF
            size = end - off
        if size < 8 or off + size > end:
            return
        yield btype, body, off + size
        off += size


def _find_box(buf: bytes, start: int, end: int, btype: str):
    for t, b, e in _iter_boxes(buf, start, end):
        if t == btype:
            return b, e
    return None


def parse_mp4_meta(payload: bytes) -> dict:
    """ISO-BMFF container metadata without decoding any samples:
    ``{brand, duration_ms, n_tracks, video_codec, width, height,
    n_samples}`` (video fields from the first video track; -1 / ''
    when absent). Raises ValueError if the payload is not a BMFF box
    tree (no ftyp/moov)."""
    out = {"brand": "", "duration_ms": -1, "n_tracks": 0,
           "video_codec": "", "width": -1, "height": -1, "n_samples": -1}
    top = list(_iter_boxes(payload, 0, len(payload)))
    types = [t for t, _, _ in top]
    if "ftyp" not in types and "moov" not in types:
        raise ValueError("not an ISO-BMFF container (no ftyp/moov box)")
    for t, b, e in top:
        if t == "ftyp":
            out["brand"] = payload[b:b + 4].decode("latin1")
        if t != "moov":
            continue
        mv = _find_box(payload, b, e, "mvhd")
        if mv:
            vb, _ = mv
            version = payload[vb]
            if version == 1:
                tscale = int.from_bytes(payload[vb + 20:vb + 24], "big")
                dur = int.from_bytes(payload[vb + 24:vb + 32], "big")
            else:
                tscale = int.from_bytes(payload[vb + 12:vb + 16], "big")
                dur = int.from_bytes(payload[vb + 16:vb + 20], "big")
            if tscale:
                out["duration_ms"] = int(dur * 1000 // tscale)
        for tt, tb, te in _iter_boxes(payload, b, e):
            if tt != "trak":
                continue
            out["n_tracks"] += 1
            mdia = _find_box(payload, tb, te, "mdia")
            if not mdia:
                continue
            hdlr = _find_box(payload, *mdia, "hdlr")
            handler = payload[hdlr[0] + 8:hdlr[0] + 12].decode("latin1") \
                if hdlr else ""
            if handler != "vide" or out["video_codec"]:
                continue
            tkhd = _find_box(payload, tb, te, "tkhd")
            if tkhd:
                hb, he = tkhd
                # width/height are the last two 16.16 fixed-point words
                out["width"] = int.from_bytes(payload[he - 8:he - 6], "big")
                out["height"] = int.from_bytes(payload[he - 4:he - 2], "big")
            minf = _find_box(payload, *mdia, "minf")
            stbl = _find_box(payload, *minf, "stbl") if minf else None
            if stbl:
                stsd = _find_box(payload, *stbl, "stsd")
                if stsd:
                    sb, se = stsd
                    for et, eb, ee in _iter_boxes(payload, sb + 8, se):
                        out["video_codec"] = et
                        break
                stsz = _find_box(payload, *stbl, "stsz")
                if stsz:
                    zb, _ = stsz
                    out["n_samples"] = int.from_bytes(
                        payload[zb + 8:zb + 12], "big")
    return out


def make_mp4_meta_fixture(n_samples: int = 48, w: int = 64, h: int = 36,
                          duration_ms: int = 2000) -> bytes:
    """Deterministic minimal-but-valid ISO-BMFF byte tree (ftyp + moov
    with one avc1 video track + empty mdat) for tests — built from the
    spec's box layout, no encoder involved. The sample payloads are
    absent (decode would need ffmpeg); the container metadata is real."""
    def box(btype: bytes, body: bytes) -> bytes:
        return struct.pack(">I", 8 + len(body)) + btype + body

    tscale = 1000
    ftyp = box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2")
    mvhd = box(b"mvhd", struct.pack(">B3x4I", 0, 0, 0, tscale,
                                    duration_ms) + b"\0" * 80)
    tkhd = box(b"tkhd", struct.pack(">B3x3I", 0, 0, 0, 1) + b"\0" * 60
               + struct.pack(">II", w << 16, h << 16))
    hdlr = box(b"hdlr", b"\0" * 8 + b"vide" + b"\0" * 12 + b"v\0")
    mdhd = box(b"mdhd", struct.pack(">B3x4I", 0, 0, 0, tscale,
                                    duration_ms) + b"\0" * 4)
    avc1 = box(b"avc1", b"\0" * 78)
    stsd = box(b"stsd", struct.pack(">B3xI", 0, 1) + avc1)
    stsz = box(b"stsz", struct.pack(">B3xII", 0, 0, n_samples))
    stbl = box(b"stbl", stsd + stsz)
    minf = box(b"minf", stbl)
    mdia = box(b"mdia", mdhd + hdlr + minf)
    trak = box(b"trak", tkhd + mdia)
    moov = box(b"moov", mvhd + trak)
    mdat = box(b"mdat", b"")
    return ftyp + moov + mdat


def video_container_meta(ds: Dataset, payload_col: str = "payload",
                         id_col: str = "media_id") -> Dataset:
    """Dataset of media blobs → one metadata row per MP4/BMFF payload
    (stateless map pass; non-BMFF payloads raise — filter by mime
    upstream). The triage stage scheduled BEFORE any decode fan-out."""
    def meta(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        rows = [parse_mp4_meta(p)
                for p in batch.column(payload_col).to_pylist()]
        return pa.table({
            id_col: ids,
            "brand": pa.array([r["brand"] for r in rows]),
            "duration_ms": pa.array([r["duration_ms"] for r in rows],
                                    pa.int64()),
            "n_tracks": pa.array([r["n_tracks"] for r in rows], pa.int32()),
            "video_codec": pa.array([r["video_codec"] for r in rows]),
            "width": pa.array([r["width"] for r in rows], pa.int32()),
            "height": pa.array([r["height"] for r in rows], pa.int32()),
            "n_samples": pa.array([r["n_samples"] for r in rows],
                                  pa.int64()),
        })

    return ds.map_batches(meta, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# WebDataset tar shards (the standard multimodal training-data container)


def write_webdataset(ds: Dataset, out_dir: str, key_col: str = "sample_id",
                     cols: dict = None, overwrite: bool = False) -> list:
    """Write a Dataset as WebDataset-style tar shards: each sample's
    columns become members ``<key>.<ext>`` inside the shard, one tar
    per input block (the resume unit — rerunning a shard overwrites its
    file). ``cols`` maps column name → member extension (binary columns
    written raw, everything else utf-8). Returns the shard manifest
    ``[(path, n_samples), ...]`` (driver-held, one row per shard).

    A non-empty ``out_dir`` is refused unless ``overwrite=True`` (the
    same dirty-sink guard as ``pipelines.pretraining.curate``): a rerun
    with a DIFFERENT block layout writes differently-named shards, and
    stale tars from the earlier layout would silently duplicate samples
    on read. With ``overwrite=True``, tars not in the new manifest are
    reconciled away after the write.

    Stdlib ``tarfile`` only; shards stream member-by-member, so a task
    holds one block + one open tar."""
    import glob as _glob
    import io
    import os
    import tarfile

    os.makedirs(out_dir, exist_ok=True)
    preexisting = set(_glob.glob(os.path.join(out_dir, "*.tar")))
    if preexisting and not overwrite:
        raise ValueError(
            f"write_webdataset: out_dir {out_dir!r} already holds "
            f"{len(preexisting)} .tar shard(s) from a previous run — "
            "pass overwrite=True to reconcile, or use a fresh dir")
    cols = cols or {"payload": "bin", "meta": "json"}

    def write_block(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        if not keys:
            return pa.table({"path": pa.array([], pa.string()),
                             "n_samples": pa.array([], pa.int64())})
        # shard name = first key + a digest of ALL keys: deterministic
        # given the block layout (sorted inputs => reproducible shard
        # files) and collision-proof when two blocks share a first key
        import hashlib

        digest = hashlib.sha1(
            "\x00".join(map(str, keys)).encode()).hexdigest()[:10]
        name = f"shard-{str(keys[0]).replace('/', '_')}-{digest}.tar"
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with tarfile.open(tmp, "w") as tf:
            for i, key in enumerate(keys):
                for col, ext in cols.items():
                    v = batch.column(col)[i].as_py()
                    if v is None:
                        continue
                    data = v if isinstance(v, (bytes, bytearray)) \
                        else str(v).encode()
                    info = tarfile.TarInfo(name=f"{key}.{ext}")
                    info.size = len(data)
                    tf.addfile(info, io.BytesIO(bytes(data)))
        os.replace(tmp, path)   # atomic: a killed task leaves no shard
        return pa.table({"path": pa.array([path]),
                         "n_samples": pa.array([len(keys)], pa.int64())})

    manifest = ds.map_batches(write_block, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    out = list(manifest.itertuples(index=False, name=None))
    # reconcile: delete tars the new manifest doesn't claim (stale
    # shards from a previous layout would duplicate samples on read)
    written = {p for p, _ in out}
    for stale in preexisting - written:
        try:
            os.remove(stale)
        except OSError:
            pass
    return out


def read_webdataset(paths, exts: tuple = ("bin", "json"),
                    key_col: str = "sample_id") -> Dataset:
    """Read WebDataset-style tar shards into a Dataset: members group by
    basename key, requested extensions become binary columns (missing
    member → null). One task per shard (tar has no random access — the
    member stream is the natural scan unit); parallelism = shard count,
    the format's own scaling rule. Keys are grouped WITHIN a shard (the
    WebDataset contract keeps a sample's members adjacent in one shard);
    a key appearing in two shards yields two rows — dedupe downstream
    with :func:`ocm_ray.ops.dedup.exact_dedup_groups` if shards may
    overlap."""
    import glob as _glob
    import os
    import tarfile

    import ray.data as rd

    if isinstance(paths, str):
        paths = sorted(_glob.glob(os.path.join(paths, "*.tar"))
                       if os.path.isdir(paths) else _glob.glob(paths))
    if not paths:
        raise FileNotFoundError("no tar shards found")

    def parse_shard(batch: pa.Table) -> pa.Table:
        tables = [tar_shard_table(p, exts, key_col)
                  for p in batch.column("shard").to_pylist()]
        return pa.concat_tables(tables) if len(tables) != 1 else tables[0]

    shards = rd.from_items([{"shard": p} for p in paths],
                           override_num_blocks=len(paths))
    return shards.map_batches(parse_shard, batch_format="pyarrow",
                              batch_size=None)


def tar_shard_table(path: str, exts: tuple = ("bin", "json"),
                    key_col: str = "sample_id") -> pa.Table:
    """One WebDataset tar shard → one Arrow table (members grouped by
    basename key, requested extensions as binary columns, missing
    member → null). The per-shard unit :func:`read_webdataset` maps
    over, also usable as a resumable-ETL shard reader."""
    import tarfile

    rows = {}
    with tarfile.open(path, "r") as tf:
        for m in tf:
            if not m.isfile():
                continue
            key, dot, ext = m.name.rpartition(".")
            if not dot or ext not in exts:
                continue
            rows.setdefault(key, {})[ext] = tf.extractfile(m).read()
    keys = sorted(rows)
    cols = {key_col: pa.array(keys, pa.string())}
    for ext in exts:
        cols[ext] = pa.array([rows[k].get(ext) for k in keys],
                             pa.binary())
    return pa.table(cols)
