"""Multimodal columns: opaque binary payloads + typed metadata.

Images/audio/video travel as ``binary`` columns with a sidecar metadata
struct. Every kernel is dual-path with a ``decode_ok`` marker and a
``strict`` mode that refuses fabricated values:

* IMAGE decode / feature / resize — real PIL branch when the library
  imports, deterministic stub otherwise (PIL absent in this container;
  skip-marked real tests run wherever it exists).
* AUDIO features — REAL stdlib-``wave`` decode for RIFF/WAV payloads
  (8/16/24/32-bit PCM, tested in-container), soundfile branch for other
  formats when importable, headerless-PCM stub otherwise.
* VIDEO frame sampling — real pyav demux branch when importable
  (skip-marked test), deterministic stride stub otherwise.

The Ray-side plumbing is real and tested on every branch: schemas,
stateless task stages, batch sizing for wide binary rows, and output
layout. Each stage class is a per-batch kernel that loads no weights; its
public wrapper builds it on the driver (so ``strict=True`` without the
decoder raises at call time) and runs it as one ``map_batches`` task per
batch.

Batch-size guidance encoded here: payload stages default to small
``batch_size`` (64) so a batch of multi-MB blobs fits a worker heap;
callers scale it by payload size (SURVEY §"memory-aware").
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MEDIA_SCHEMA = pa.schema([
    pa.field("media_id", pa.int64()),
    pa.field("payload", pa.binary()),
    pa.field("mime", pa.string()),
    pa.field("meta", pa.struct([
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("duration_ms", pa.int32()),
    ])),
])

DEFAULT_MEDIA_BATCH_SIZE = 64


def _try_import_pil():
    try:
        from PIL import Image  # noqa: F401

        return Image
    except ImportError:
        return None


class ImageDecodeStage:
    """Per-batch kernel: decode image payloads -> (height, width, channels).

    Dual-path kernel, same contract as :class:`ImageResizeStage`: a REAL
    PIL branch when the library imports, and a deterministic hash-derived
    (h, w, c) stub otherwise (PIL is absent in this container), so the
    pipeline shape and schema are fully exercised either way.
    ``strict=True`` refuses to run on the stub branch. A
    corrupt/undecodable payload on the real branch falls through to the
    stub values rather than killing the task — one truncated image must
    not fail a corpus-scale decode.
    """

    def __init__(self, strict: bool = False) -> None:
        self.pil = _try_import_pil()
        self.strict = strict
        if strict and self.pil is None:
            raise NotImplementedError(
                "image decode requires PIL/opencv; not available in this container"
            )

    def _decode(self, payload: bytes):
        """-> (height, width, channels, decode_ok). Real-branch failures
        return (None, None, None, False) — nulls, never fabricated dims —
        or raise under strict=True."""
        if self.pil is not None:
            import io

            try:
                with self.pil.open(io.BytesIO(payload)) as im:
                    return im.height, im.width, len(im.getbands()), True
            except Exception as exc:
                if self.strict:
                    raise ValueError(
                        "strict=True: undecodable image payload "
                        f"({len(payload or b'')} bytes)") from exc
                return None, None, None, False
        # deterministic fake: dimensions derived from the payload digest
        digest = hashlib.blake2b(payload or b"", digest_size=8).digest()
        h = 64 + digest[0] % 192
        w = 64 + digest[1] % 192
        return h, w, 3, False

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        dims = [self._decode(p) for p in payloads]
        return pa.table({
            "media_id": batch.column("media_id"),
            "height": pa.array([d[0] for d in dims], pa.int32()),
            "width": pa.array([d[1] for d in dims], pa.int32()),
            "channels": pa.array([d[2] for d in dims], pa.int32()),
            "decode_ok": pa.array([d[3] for d in dims], pa.bool_()),
            "payload_bytes": pc.cast(pc.binary_length(batch.column("payload")), pa.int64()),
        })


class ImageFeatureStage:
    """Per-batch kernel: payload -> fixed-size feature vector.

    Dual-path kernel: with PIL importable the feature is a 32-dim random
    projection of the DECODED grayscale pixel histogram (a real, cheap
    visual signature; a learned model would plug into the same slot
    through a per-process cache such as ``docquality.shared_model``).
    Without PIL (this container) the deterministic stub projects the raw
    payload byte histogram instead — same schema, same determinism.
    ``strict=True`` refuses the stub
    branch and raises on an undecodable payload on the real branch; with
    ``strict=False`` a corrupt payload falls back to the byte histogram,
    and the ``decode_ok`` column marks it False so downstream never mixes
    the two feature spaces unknowingly (False for every stub-branch row
    too)."""

    DIM = 32

    def __init__(self, strict: bool = False) -> None:
        rng = np.random.default_rng(13)
        self.projection = rng.normal(size=(256, self.DIM))
        self.pil = _try_import_pil()
        self.strict = strict
        if strict and self.pil is None:
            raise NotImplementedError(
                "image features require PIL; not available in this container"
            )

    def _histogram(self, payload: bytes):
        """-> (256-bin histogram, decode_ok)."""
        if self.pil is not None:
            import io

            try:
                with self.pil.open(io.BytesIO(payload)) as im:
                    counts = np.asarray(im.convert("L").histogram(),
                                        dtype=np.float64)[:256]
                    return counts / max(counts.sum(), 1.0), True
            except Exception as exc:
                if self.strict:
                    raise ValueError(
                        "strict=True: undecodable image payload "
                        f"({len(payload or b'')} bytes)") from exc
                # corrupt payload: byte-histogram fallback, marked below
        if not payload:
            return np.zeros(256, dtype=np.float64), False
        counts = np.bincount(np.frombuffer(payload, dtype=np.uint8),
                             minlength=256)
        return counts / max(len(payload), 1), False

    def __call__(self, batch: pa.Table) -> pa.Table:
        hists = [self._histogram(p)
                 for p in batch.column("payload").to_pylist()]
        feats = [(h @ self.projection).tolist() for h, _ in hists]
        return pa.table({
            "media_id": batch.column("media_id"),
            "feature": pa.array(feats, pa.list_(pa.float64())),
            "decode_ok": pa.array([ok for _, ok in hists], pa.bool_()),
        })


class ImageResizeStage:
    """Per-batch kernel: resize image payloads to ``(target, target)`` and
    re-emit the bytes. PIL branch does a real thumbnail + re-encode; the
    deterministic stub re-emits a hash-derived payload of the right
    ballpark size so batch sizing / object-store behavior downstream is
    realistic. Output schema is identical in both branches; ``decode_ok``
    marks rows whose payload is a REAL re-encoded thumbnail (always False
    on the stub branch). ``strict=True`` raises on an undecodable payload
    on the real branch."""

    def __init__(self, target: int = 224, strict: bool = False) -> None:
        self.pil = _try_import_pil()
        self.target = target
        self.strict = strict
        if strict and self.pil is None:
            raise NotImplementedError(
                "image resize requires PIL; not available in this container")

    def _resize(self, payload: bytes):
        """-> (payload bytes, decode_ok)."""
        if self.pil is not None:
            import io

            try:
                with self.pil.open(io.BytesIO(payload)) as im:
                    im.thumbnail((self.target, self.target))
                    buf = io.BytesIO()
                    im.save(buf, format="PNG")
                    return buf.getvalue(), True
            except Exception as exc:
                # corrupt/undecodable payload: strict raises; otherwise
                # fall through to the deterministic stub (marked) — one
                # truncated image must not fail a corpus-scale resize
                if self.strict:
                    raise ValueError(
                        "strict=True: undecodable image payload "
                        f"({len(payload or b'')} bytes)") from exc
        # deterministic stub: expanded digest sized ~ target^2 * 0.3
        # (a plausible compressed-thumbnail byte count)
        seed = hashlib.blake2b(payload or b"", digest_size=32).digest()
        n = max(64, int(self.target * self.target * 0.3))
        reps = -(-n // len(seed))
        return (seed * reps)[:n], False

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = [self._resize(p) for p in batch.column("payload").to_pylist()]
        return pa.table({
            "media_id": batch.column("media_id"),
            "payload": pa.array([o for o, _ in out], pa.large_binary()),
            "resized_bytes": pa.array([len(o) for o, _ in out], pa.int64()),
            "decode_ok": pa.array([ok for _, ok in out], pa.bool_()),
        })


def _try_import_av():
    try:
        import av  # noqa: F401

        return av
    except ImportError:
        return None


def _try_import_soundfile():
    try:
        import soundfile  # noqa: F401

        return soundfile
    except ImportError:
        return None


class FrameSampleStage:
    """Per-batch kernel: sample frame positions from a video payload.

    Dual-path kernel, same contract as the image stages: with pyav
    importable (absent in this container) the REAL branch demuxes the
    container's first video stream and emits the byte position of every
    ``every_n``-th packet (``decode_ok=True``); otherwise a deterministic
    stub emits hash-aligned byte offsets at ``frame_size_hint`` strides so
    the fan-out plumbing (one row per frame, per-media explode) is
    exercised with the same schema (``decode_ok=False``). ``strict=True``
    refuses the stub branch and raises on an undemuxable payload on the
    real branch."""

    def __init__(self, every_n: int = 10, frame_size_hint: int = 4096,
                 strict: bool = False) -> None:
        self.every_n = every_n
        self.frame_size_hint = frame_size_hint
        self.av = _try_import_av()
        self.strict = strict
        if strict and self.av is None:
            raise NotImplementedError(
                "frame sampling requires pyav/ffmpeg; not available in this "
                "container")

    def _offsets(self, payload: bytes):
        """-> (list of byte positions, decode_ok)."""
        if self.av is not None:
            import io

            try:
                with self.av.open(io.BytesIO(payload or b"")) as container:
                    stream = container.streams.video[0]
                    pos = [int(pkt.pos) for k, pkt in
                           enumerate(container.demux(stream))
                           if pkt.pos is not None and k % self.every_n == 0]
                    return pos, True
            except Exception as exc:
                if self.strict:
                    raise ValueError(
                        "strict=True: undemuxable video payload "
                        f"({len(payload or b'')} bytes)") from exc
                return None, False  # null offsets, never fabricated ones
        n_frames = max(len(payload or b"") // self.frame_size_hint, 1)
        return [f * self.frame_size_hint
                for f in range(0, n_frames, self.every_n)], False

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, offsets, ok = [], [], []
        for mid, p in zip(batch.column("media_id").to_pylist(),
                          batch.column("payload").to_pylist()):
            pos, decoded = self._offsets(p)
            # every media emits >= 1 row on every branch: a real demux
            # with no byte positions (pkt.pos=None formats) or a failed
            # demux both yield one null-offset row, so per-media joins
            # downstream never silently lose a media_id
            for off in (pos if pos else [None]):
                ids.append(mid)
                offsets.append(off)
                ok.append(decoded)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_offset": pa.array(offsets, pa.int64()),
            "decode_ok": pa.array(ok, pa.bool_()),
        })


class AudioFeatureStage:
    """Per-batch kernel: audio payload -> duration + level stats.

    Triple-path kernel, strict-marked like the image stages:

    * RIFF/WAVE payloads decode through the stdlib ``wave`` module — a
      REAL decode (8/16/24/32-bit PCM, any channel count, true sample
      rate), available in every container (``decode_ok=True``).
    * other formats decode through soundfile when it imports
      (``decode_ok=True``; absent here — covered by a skip-marked test).
    * otherwise the payload is interpreted as headerless 16-bit PCM mono
      at ``sample_rate`` — the deterministic stub, ``decode_ok=False``.

    ``strict=True`` raises instead of falling back to the stub, so a
    strict pipeline can never mix real and fabricated level stats. Emits
    (media_id, duration_ms, rms, peak, clipped_ratio, sample_rate,
    decode_ok); level stats are over mono-averaged samples normalized to
    [-1, 1]."""

    def __init__(self, sample_rate: int = 16_000, strict: bool = False) -> None:
        self.sample_rate = sample_rate
        self.sf = _try_import_soundfile()
        self.strict = strict

    _WAV_NORM = {1: 128.0, 2: 32768.0, 4: 2147483648.0}

    def _decode(self, payload: bytes):
        """-> (mono float64 samples in [-1, 1], sample_rate, decode_ok)."""
        import io

        raw = payload or b""
        if raw[:4] == b"RIFF" and raw[8:12] == b"WAVE":
            try:
                import wave

                with wave.open(io.BytesIO(raw)) as w:
                    rate = w.getframerate()
                    width = w.getsampwidth()
                    ch = max(w.getnchannels(), 1)
                    data = w.readframes(w.getnframes())
                if width == 3:  # 24-bit: sign-extend into int32
                    b3 = np.frombuffer(data, dtype=np.uint8)
                    b3 = b3[: len(b3) // 3 * 3].reshape(-1, 3)
                    vals = (b3[:, 0].astype(np.int32)
                            | (b3[:, 1].astype(np.int32) << 8)
                            | (b3[:, 2].astype(np.int8).astype(np.int32) << 16))
                    pcm = vals.astype(np.float64) / 8388608.0
                elif width == 1:  # 8-bit WAV is unsigned
                    pcm = (np.frombuffer(data, dtype=np.uint8)
                           .astype(np.float64) - 128.0) / 128.0
                else:
                    dt = np.int16 if width == 2 else np.int32
                    pcm = (np.frombuffer(data, dtype=dt).astype(np.float64)
                           / self._WAV_NORM[width])
                if ch > 1:
                    pcm = pcm[: len(pcm) // ch * ch].reshape(-1, ch).mean(axis=1)
                return pcm, rate, True
            except Exception as exc:
                # fall through to soundfile (it decodes WAV subformats the
                # stdlib module can't: IEEE-float, ADPCM, ...) or the stub;
                # strict raises below only if no real decoder remains
                if self.strict and self.sf is None:
                    raise ValueError(
                        "strict=True: undecodable WAV payload "
                        f"({len(raw)} bytes)") from exc
        if self.sf is not None:
            try:
                data, rate = self.sf.read(io.BytesIO(raw), dtype="float64")
                if data.ndim > 1:
                    data = data.mean(axis=1)
                return data, rate, True
            except Exception as exc:
                if self.strict:
                    raise ValueError(
                        "strict=True: undecodable audio payload "
                        f"({len(raw)} bytes)") from exc
        if self.strict:
            raise ValueError(
                "strict=True: payload is neither WAV nor decodable by an "
                "available audio library")
        raw = raw[: len(raw) // 2 * 2]
        pcm = (np.frombuffer(raw, dtype=np.int16).astype(np.float64) / 32768.0
               if raw else np.empty(0, dtype=np.float64))
        return pcm, self.sample_rate, False

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id")
        n = batch.num_rows
        dur = np.zeros(n, dtype=np.float64)
        rms = np.zeros(n, dtype=np.float64)
        peak = np.zeros(n, dtype=np.float64)
        clipped = np.zeros(n, dtype=np.float64)
        rates = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for i, p in enumerate(batch.column("payload").to_pylist()):
            pcm, rate, decoded = self._decode(p)
            rates[i] = rate
            ok[i] = decoded
            if not len(pcm):
                continue
            dur[i] = len(pcm) / rate * 1000.0
            rms[i] = float(np.sqrt(np.mean(pcm * pcm)))
            peak[i] = float(np.abs(pcm).max())
            clipped[i] = float(np.mean(np.abs(pcm) >= 0.999))
        return pa.table({
            "media_id": ids,
            "duration_ms": pa.array(dur, pa.float64()),
            "rms": pa.array(rms, pa.float64()),
            "peak": pa.array(peak, pa.float64()),
            "clipped_ratio": pa.array(clipped, pa.float64()),
            "sample_rate": pa.array(rates, pa.int64()),
            "decode_ok": pa.array(ok, pa.bool_()),
        })


def _run_as_tasks(ds, stage, batch_size: int):
    """Run a driver-built kernel as stateless ``map_batches`` tasks."""
    def run(batch: pa.Table) -> pa.Table:
        return stage(batch)

    return ds.map_batches(run, batch_format="pyarrow", batch_size=batch_size)


def extract_audio_features(ds, sample_rate: int = 16_000, strict: bool = False,
                           batch_size: int = DEFAULT_MEDIA_BATCH_SIZE):
    return _run_as_tasks(
        ds, AudioFeatureStage(sample_rate=sample_rate, strict=strict),
        batch_size)


def decode_images(ds, strict: bool = False,
                  batch_size: int = DEFAULT_MEDIA_BATCH_SIZE):
    return _run_as_tasks(ds, ImageDecodeStage(strict=strict), batch_size)


def extract_image_features(ds, strict: bool = False,
                           batch_size: int = DEFAULT_MEDIA_BATCH_SIZE):
    return _run_as_tasks(ds, ImageFeatureStage(strict=strict), batch_size)


def resize_images(ds, target: int = 224, strict: bool = False,
                  batch_size: int = DEFAULT_MEDIA_BATCH_SIZE):
    """Small batches by default: payloads are large."""
    return _run_as_tasks(ds, ImageResizeStage(target, strict), batch_size)


def sample_frames(ds, every_n: int = 10, strict: bool = False,
                  batch_size: int = DEFAULT_MEDIA_BATCH_SIZE):
    return _run_as_tasks(
        ds, FrameSampleStage(every_n=every_n, strict=strict), batch_size)


def synthetic_media_table(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic fake media table for tests."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=int(rng.integers(1024, 65536)),
                             dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table({
        "media_id": pa.array(range(n), pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(["image/fake"] * n, pa.string()),
        "meta": pa.array([{"width": 0, "height": 0, "duration_ms": 0}] * n,
                         MEDIA_SCHEMA.field("meta").type),
    })
