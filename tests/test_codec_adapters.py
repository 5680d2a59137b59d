"""Real-library codec adapters: equality with the builtin oracles,
the ValueError-only quarantine contract, and the Pillow swap-in
recipe (skipif-guarded — VERDICT r4 #5)."""

import numpy as np
import pyarrow as pa
import pytest

from cosmwasm_etl_ray.stages.codec_adapters import (
    StdlibWavDecoder,
    decode_wav16_stdlib,
)
from cosmwasm_etl_ray.stages.multimodal import (
    WavDecoder,
    _wav_samples,
    decode_wav16,
    encode_wav16,
)


def test_stdlib_wav_adapter_matches_builtin_exactly():
    """Same (samples, rate) on every gate-corpus payload — the
    library decode hashes identically through the oracle."""
    for doc_id in range(0, 200, 7):
        raw = encode_wav16(_wav_samples(doc_id), rate=8000 + doc_id)
        a, ra = decode_wav16(raw)
        b, rb = decode_wav16_stdlib(raw)
        assert ra == rb
        np.testing.assert_array_equal(a, b)


def test_stdlib_wav_stage_output_equals_builtin_stage():
    ids = list(range(24))
    t = pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(
                [encode_wav16(_wav_samples(i)) for i in ids],
                type=pa.binary(),
            ),
        }
    )
    got = StdlibWavDecoder()(t)
    want = WavDecoder()(t)
    assert got.equals(want)


def test_stdlib_wav_adapter_raises_only_valueerror():
    """The RobustMediaDecoder quarantine contract, applied to the
    library adapter: random bytes, magic-prefixed noise, truncations
    and bit flips must raise ValueError and ONLY ValueError."""
    rng = np.random.default_rng(23)
    good = encode_wav16(_wav_samples(11))
    for trial in range(60):
        kind = trial % 4
        if kind == 0:
            buf = rng.bytes(int(rng.integers(0, 300)))
        elif kind == 1:
            buf = b"RIFF" + rng.bytes(int(rng.integers(0, 300)))
        elif kind == 2:
            buf = good[: int(rng.integers(0, len(good)))]
        else:
            b = bytearray(good)
            for _ in range(int(rng.integers(1, 6))):
                b[int(rng.integers(0, len(b)))] ^= int(rng.integers(1, 256))
            buf = bytes(b)
        try:
            decode_wav16_stdlib(buf)
        except ValueError:
            pass  # the one permitted failure mode


def test_pillow_adapter_drops_in_when_available():
    """The Pillow swap-in recipe: guarded on the library being
    present (absent in this container — the test documents and pins
    the contract for environments that have it)."""
    pytest.importorskip("PIL")
    from cosmwasm_etl_ray.stages.codec_adapters import PillowImageDecoder
    from cosmwasm_etl_ray.stages.multimodal import (
        _png_pixels,
        encode_png_rgb8,
    )

    ids = [1, 2, 3]
    t = pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array(
                [encode_png_rgb8(_png_pixels(i)) for i in ids],
                type=pa.binary(),
            ),
        }
    )
    out = PillowImageDecoder()(t)
    for row, i in zip(out.to_pylist(), ids):
        px = _png_pixels(i)
        assert row["height"] == px.shape[0]
        assert row["width"] == px.shape[1]
        assert row["sum_px"] == int(px.astype(np.int64).sum())


def test_pillow_adapter_memoryerror_is_not_quarantined(monkeypatch):
    """Decode errors map to ValueError (quarantine); MemoryError is the
    worker running out, so it propagates instead. Runs on a stub
    ``Image`` module, so it needs no Pillow."""
    import types

    from cosmwasm_etl_ray.stages import codec_adapters

    raised = {}

    def fake_open(_buf):
        raise raised["exc"]

    monkeypatch.setattr(
        codec_adapters, "_pillow", lambda: types.SimpleNamespace(open=fake_open)
    )
    dec = codec_adapters.PillowImageDecoder()
    t = pa.table(
        {"media_id": pa.array([1], pa.int64()), "payload": pa.array([b"x"], pa.binary())}
    )
    raised["exc"] = MemoryError()
    with pytest.raises(MemoryError):
        dec(t)
    raised["exc"] = OSError("cannot identify image file")
    with pytest.raises(ValueError, match="image decode failed"):
        dec(t)


def test_pillow_adapter_init_raises_importerror_when_absent():
    """When the library is missing, the adapter fails at ACTOR SETUP
    (init), not per payload — a pool that can't construct surfaces
    the misconfiguration immediately instead of quarantining every
    row as malformed."""
    try:
        import PIL  # noqa: F401

        pytest.skip("Pillow present; the absent-library path is moot")
    except ImportError:
        pass
    from cosmwasm_etl_ray.stages.codec_adapters import PillowImageDecoder

    with pytest.raises(ImportError):
        PillowImageDecoder()
