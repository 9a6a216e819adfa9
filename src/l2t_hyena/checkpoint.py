"""Named-array checkpoint archive.

Layout (all integers little-endian uint32, all data little-endian float32,
C order):

    magic   4 bytes  b"L2TH"
    version uint32   currently 1
    then, per array until end of file:
        name_len uint32
        name     UTF-8 bytes
        rank     uint32
        dims     rank * uint32
        data     prod(dims) * float32

Arrays are written in sorted-name order, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import CheckpointError

MAGIC = b"L2TH"
VERSION = 1

_MAX_NAME_LEN = 1 << 16
_MAX_RANK = 32


def save_archive(arrays: dict[str, np.ndarray], path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name in sorted(arrays):
            # np.asarray keeps rank-0 arrays rank 0 (ascontiguousarray does not).
            arr = np.asarray(arrays[name], dtype="<f4", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def _read_u32(fh: BinaryIO, what: str) -> int:
    return struct.unpack("<I", _read_exact(fh, 4, what))[0]


def load_archive(path: str) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = _read_u32(fh, "version")
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        while True:
            head = fh.read(4)
            if head == b"":
                break
            if len(head) != 4:
                raise CheckpointError("truncated checkpoint while reading name length")
            (name_len,) = struct.unpack("<I", head)
            if name_len == 0 or name_len > _MAX_NAME_LEN:
                raise CheckpointError(f"implausible name length {name_len}")
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError("array name is not valid UTF-8") from exc
            rank = _read_u32(fh, f"rank of {name!r}")
            if rank > _MAX_RANK:
                raise CheckpointError(f"implausible rank {rank} for {name!r}")
            dims = tuple(_read_u32(fh, f"dims of {name!r}") for _ in range(rank))
            # Checked first: corrupt dims must neither overflow nor allocate.
            nbytes, left = 4 * math.prod(dims), size - fh.tell()
            if nbytes > left:
                raise CheckpointError(
                    f"truncated checkpoint: {name!r} needs {nbytes} bytes, {left} left")
            data = fh.read(nbytes)
            if name in arrays:
                raise CheckpointError(f"duplicate array {name!r}")
            arrays[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()
    return arrays
