import struct

import numpy as np
import pytest

from helpers import overflowing_checkpoint_header

from l2t_hyena import checkpoint
from l2t_hyena.errors import CheckpointError


def _sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "student/tok_emb": rng.standard_normal((5, 3)).astype(np.float32),
        "student/block0.w_in": rng.standard_normal((3, 9)).astype(np.float32),
        "norm/count": np.array(12.0, dtype=np.float32),
        "dln/gru.b_z": np.zeros(4, dtype=np.float32),
    }


def test_round_trip_values_and_bytes(tmp_path):
    arrays = _sample_arrays()
    p1 = tmp_path / "a.l2th"
    p2 = tmp_path / "b.l2th"
    checkpoint.save_archive(arrays, p1)
    loaded = checkpoint.load_archive(p1)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].shape == arrays[k].shape
        assert np.array_equal(loaded[k], arrays[k])
    checkpoint.save_archive(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "a.l2th"
    checkpoint.save_archive({"x": np.zeros(2, np.float32)}, path)
    blob = path.read_bytes()
    assert blob[:4] == b"L2TH"
    assert struct.unpack("<I", blob[4:8])[0] == checkpoint.VERSION
    # name_len=1, "x", rank=1, dim=2, 2 float32 -> 4+8+1+4+4+8 bytes total
    assert len(blob) == 29


def test_bad_magic(tmp_path):
    path = tmp_path / "a.l2th"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        checkpoint.load_archive(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "a.l2th"
    path.write_bytes(b"L2TH" + struct.pack("<I", 99))
    with pytest.raises(CheckpointError):
        checkpoint.load_archive(path)


def test_truncated_archive(tmp_path):
    good = tmp_path / "good.l2th"
    checkpoint.save_archive(_sample_arrays(), good)
    blob = good.read_bytes()
    for cut in (6, 9, 20, len(blob) - 3):
        bad = tmp_path / f"cut{cut}.l2th"
        bad.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            checkpoint.load_archive(bad)


def test_float64_inputs_are_stored_as_float32(tmp_path):
    path = tmp_path / "a.l2th"
    checkpoint.save_archive({"x": np.array([1.0, 2.5], dtype=np.float64)}, path)
    out = checkpoint.load_archive(path)["x"]
    assert out.dtype == np.float32
    assert out.tolist() == [1.0, 2.5]


def test_dims_larger_than_file(tmp_path):
    path = tmp_path / "a.l2th"
    path.write_bytes(overflowing_checkpoint_header())
    assert path.stat().st_size == 33
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint.load_archive(path)
    # Plausible dims that still exceed the bytes left are caught the same way.
    blob = b"L2TH" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x"
    path.write_bytes(blob + struct.pack("<2I", 1, 1000) + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="needs 4000 bytes, 8 left"):
        checkpoint.load_archive(path)
