"""Bit-exact binary container for depth maps.

Layout: 4 magic bytes ``NEOD``, little-endian u32 width, little-endian u32
height, then ``width*height`` little-endian IEEE-754 float32 scores, row
major, top row first.

:func:`read_depth_map` reads a file and checks its layout and its scores in
one call, on the thread that then uses the map: a map that another core has
just read arrives from that core's cache, and the scores' finiteness check
then cost ``monorange estimate`` more than the read it overlapped.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .common import DomainError, NeodMagicError, NeodTruncatedError
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
    """Parse a NEOD file, rejecting wrong magic, wrong sizes and bad scores.

    The file is opened once, unbuffered. Its header is checked against the
    file's length (``fstat``) before any score is read, then exactly the
    payload is read into the immutable ``bytes`` whose read-only view
    :class:`DepthMap` keeps without a copy. A read that comes back short (the
    file shrank meanwhile) is a truncation error, never a partial map. An
    empty map or one holding a non-finite score is a :class:`DomainError`
    naming the file.
    """
    with open(path, "rb", 0) as fh:
        head = fh.read(_HEADER.size)
        if len(head) < len(MAGIC):
            raise NeodTruncatedError(f"{path}: file shorter than the magic header")
        if head[: len(MAGIC)] != MAGIC:
            raise NeodMagicError(f"{path}: bad magic {head[:len(MAGIC)]!r}, expected {MAGIC!r}")
        if len(head) < _HEADER.size:
            raise NeodTruncatedError(f"{path}: truncated header ({len(head)} bytes)")
        _, width, height = _HEADER.unpack(head)
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 4 * width * height
        if size < expected:
            raise NeodTruncatedError(
                f"{path}: payload truncated, {size} bytes < {expected} expected"
            )
        if size > expected:
            raise NeodTruncatedError(
                f"{path}: {size - expected} trailing bytes beyond declared size"
            )
        if expected == _HEADER.size:
            raise DomainError(f"{path}: depth map must not be empty")
        payload = fh.read(expected - _HEADER.size)
    got = _HEADER.size + len(payload)
    if got < expected:
        raise NeodTruncatedError(f"{path}: payload truncated, {got} bytes < {expected} expected")
    scores = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    try:
        return DepthMap(scores)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
