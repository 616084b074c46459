"""Bit-exact binary container for depth maps.

Layout: 4 magic bytes ``NEOD``, little-endian u32 width, little-endian u32
height, then ``width*height`` little-endian IEEE-754 float32 scores, row
major, top row first.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .common import NeodMagicError, NeodTruncatedError
from .depth import DepthMap

MAGIC = b"NEOD"
_HEADER = struct.Struct("<4sII")


def write_depth_map(path: str | Path, depth_map: DepthMap) -> None:
    payload = _HEADER.pack(MAGIC, depth_map.width, depth_map.height)
    payload += np.ascontiguousarray(depth_map.scores, dtype="<f4").tobytes()
    Path(path).write_bytes(payload)


def read_depth_map(path: str | Path) -> DepthMap:
    """Parse a NEOD file, rejecting wrong magic and wrong-size payloads.

    The map's scores are a read-only view of the bytes read from the file,
    so :class:`DepthMap` keeps them without a copy.
    """
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC):
        raise NeodTruncatedError(f"{path}: file shorter than the magic header")
    if raw[: len(MAGIC)] != MAGIC:
        raise NeodMagicError(f"{path}: bad magic {raw[:len(MAGIC)]!r}, expected {MAGIC!r}")
    if len(raw) < _HEADER.size:
        raise NeodTruncatedError(f"{path}: truncated header ({len(raw)} bytes)")
    _, width, height = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 4 * width * height
    if len(raw) < expected:
        raise NeodTruncatedError(
            f"{path}: payload truncated, {len(raw)} bytes < {expected} expected"
        )
    if len(raw) > expected:
        raise NeodTruncatedError(
            f"{path}: {len(raw) - expected} trailing bytes beyond declared size"
        )
    scores = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(height, width)
    return DepthMap(scores)
