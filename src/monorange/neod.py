"""Bit-exact binary container for depth maps.

Layout: 4 magic bytes ``NEOD``, little-endian u32 width, little-endian u32
height, then ``width*height`` little-endian IEEE-754 float32 scores, row
major, top row first.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .common import NeodMagicError, NeodTruncatedError
from .depth import DepthMap

MAGIC = b"NEOD"
_HEADER = struct.Struct("<4sII")


def write_depth_map(path: str | Path, depth_map: DepthMap) -> None:
    """Write a NEOD file, overwriting an existing file in place.

    The file is not truncated when opened: truncating a file to zero frees
    its blocks, writing it again allocates new ones, and ext4 starts
    writeback on close, which made the open cost more than the write. It is
    trimmed to its length after the scores are written instead, so a longer
    older file loses its tail. The header is zeroed first and written last,
    so a write that stops partway, by an error or by the process being
    killed, leaves a file whose magic ``read_depth_map`` rejects, never a
    map that mixes old and new scores. Nothing is fsynced.
    """
    scores = np.ascontiguousarray(depth_map.scores, dtype="<f4")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(bytes(_HEADER.size))
        fh.write(memoryview(scores))
        fh.truncate()
        fh.seek(0)
        fh.write(_HEADER.pack(MAGIC, depth_map.width, depth_map.height))


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
