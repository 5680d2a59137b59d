"""Real-library codec adapters behind the pluggable decoder contract.

The from-scratch codecs in stages/multimodal.py are the gate ORACLES:
exact, fuzz-pinned, dependency-free. Their entropy loops are
pure-Python (0.4-4 MB/s/core measured, BASELINE.md), so a real media
corpus swaps in a library decoder through the same contract that
tests/test_multimodal.py::test_third_party_decoder_drops_in pins:

  - setup (library import / codec init) once per actor in __init__,
  - __call__ takes a pyarrow batch of (media_id, payload) rows,
  - malformed payloads raise ValueError and ONLY ValueError (the
    RobustMediaDecoder quarantine catch depends on it),
  - output schema matches the builtin stage it replaces, so the
    DuckDB twin keeps gating the swapped-in library bit-for-bit.

This module carries the two adapters this container can express —
stdlib ``wave`` for WAV (measurable now; soak_codecs.py records
adapter-vs-builtin throughput) and Pillow for PNG/GIF/JPEG/BMP
(import-guarded; the recipe a real deployment follows). PNG's
entropy stage (DEFLATE) already routes through stdlib zlib in the
builtin — for PNG the builtin IS the real-library path and only the
unfilter pass is ours.

Swap-in recipe (any library):
  1. subclass nothing — write a callable class with the contract
     above (see StdlibWavDecoder);
  2. translate the library's exception surface to ValueError inside
     the per-payload try (never let struct.error/EOFError/library
     errors escape — the fuzz test in tests/test_codec_adapters.py
     is the template);
  3. run the builtin's gate query with decoder=YourAdapter: the
     oracle twin hashes the DECODED math, so a library that disagrees
     with the spec fails loudly at the gate, not silently in prod.

Reference analogue: the reference stores media payloads as opaque
bytes (/root/reference/collector/datastore/datastore.go) — decode is
an extension seam there too.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def decode_wav16_stdlib(raw: bytes) -> tuple["np.ndarray", int]:
    """decode_wav16 via the stdlib ``wave`` module — same (samples,
    rate) result on every payload the builtin accepts as 16-bit mono
    PCM, ValueError-only on anything else."""
    import io
    import struct
    import wave

    try:
        with wave.open(io.BytesIO(raw), "rb") as f:
            if (
                f.getcomptype() != "NONE"
                or f.getnchannels() != 1
                or f.getsampwidth() != 2
            ):
                raise ValueError(
                    "unsupported WAV variant; only 16-bit mono PCM"
                )
            rate = f.getframerate()
            data = f.readframes(f.getnframes())
    except ValueError:
        raise
    except (wave.Error, EOFError, struct.error, OSError) as e:
        raise ValueError(f"WAV parse failed: {e}") from e
    if len(data) % 2:
        raise ValueError("odd-length WAV data chunk")
    return np.frombuffer(data, dtype="<i2"), int(rate)


class StdlibWavDecoder:
    """Drop-in for stages/multimodal.WavDecoder (same output schema,
    same exact int stats of the decoded samples) with the sample
    decode routed through stdlib ``wave``."""

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ns, rates, ssum, sabs, smin, smax = [], [], [], [], [], [], []
        for mid, buf in zip(t["media_id"], t["payload"]):
            s, rate = decode_wav16_stdlib(buf.as_py())
            v = s.astype(np.int64)
            ids.append(mid.as_py())
            ns.append(len(v))
            rates.append(rate)
            ssum.append(int(v.sum()))
            sabs.append(int(np.abs(v).sum()))
            smin.append(int(v.min()) if len(v) else 0)
            smax.append(int(v.max()) if len(v) else 0)
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "n_samples": pa.array(ns, type=pa.int64()),
                "sample_rate": pa.array(rates, type=pa.int64()),
                "sum_amp": pa.array(ssum, type=pa.int64()),
                "sum_abs_amp": pa.array(sabs, type=pa.int64()),
                "min_amp": pa.array(smin, type=pa.int64()),
                "max_amp": pa.array(smax, type=pa.int64()),
            }
        )


def _pillow():
    """Import Pillow or raise ImportError with the install hint —
    called from adapter __init__ (setup-time, once per actor), never
    per payload."""
    try:
        from PIL import Image  # type: ignore
    except ImportError as e:  # pragma: no cover - absent here
        raise ImportError(
            "Pillow not installed; PillowImageDecoder is the swap-in "
            "recipe for environments that have it (pip install Pillow)"
        ) from e
    return Image


class PillowImageDecoder:
    """Library-backed image decode stage (PNG/GIF/BMP/JPEG by magic
    byte) emitting the same (media_id, width, height, sum_px) layout
    as the builtin image stages. Init loads the library once per
    actor; per-payload decode failures translate to ValueError so the
    quarantine contract holds (MemoryError propagates). NOTE for
    JPEG: a library IDCT may
    differ from the gate oracle by rounding on non-flat blocks — the
    gate corpora are block-constant by design (CLAUDE.md), where
    baseline JPEG is exact, so the oracle still applies."""

    def __init__(self):
        self.Image = _pillow()

    def _decode(self, raw: bytes) -> "np.ndarray":
        import io

        try:
            with self.Image.open(io.BytesIO(raw)) as im:
                return np.asarray(im.convert("RGB"))
        except (ValueError, MemoryError):
            # MemoryError is the worker running out, not a bad payload:
            # it must fail the task, never quarantine the row
            raise
        except Exception as e:
            raise ValueError(f"image decode failed: {e}") from e

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ws, hs, sums = [], [], [], []
        for mid, buf in zip(t["media_id"], t["payload"]):
            px = self._decode(buf.as_py())
            ids.append(mid.as_py())
            hs.append(int(px.shape[0]))
            ws.append(int(px.shape[1]))
            sums.append(int(px.astype(np.int64).sum()))
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "width": pa.array(ws, type=pa.int64()),
                "height": pa.array(hs, type=pa.int64()),
                "sum_px": pa.array(sums, type=pa.int64()),
            }
        )
