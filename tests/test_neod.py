import errno
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monorange import neod
from monorange.common import DomainError, NeodMagicError, NeodTruncatedError
from monorange.depth import DepthMap
from monorange.neod import MAGIC, read_depth_map, write_depth_map


# Writes a second map (seed 2) over argv[1] and is killed with SIGKILL just
# before the file method call numbered argv[2], as the OOM killer would: what
# the file object still buffers is lost.
_KILLED_WRITE = """
import os, signal, sys
import numpy as np
from monorange import neod
from monorange.depth import DepthMap

path, stop = sys.argv[1], int(sys.argv[2])
calls = 0

class Killed:
    def __init__(self, fh):
        self.fh = fh
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)
    def __getattr__(self, name):
        def call(*args):
            global calls
            if calls == stop:
                os.kill(os.getpid(), signal.SIGKILL)
            calls += 1
            return getattr(self.fh, name)(*args)
        return call

neod.open = lambda *a: Killed(open(*a))
rng = np.random.default_rng(2)
neod.write_depth_map(path, DepthMap(rng.normal(0, 3, size=(48, 64)).astype(np.float32)))
"""


def sample_map(seed=0, w=17, h=9):
    rng = np.random.default_rng(seed)
    return DepthMap(rng.normal(0, 3, size=(h, w)).astype(np.float32))


class TestRoundTrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        dm = sample_map()
        first = tmp_path / "a.neod"
        second = tmp_path / "b.neod"
        write_depth_map(first, dm)
        write_depth_map(second, read_depth_map(first))
        assert first.read_bytes() == second.read_bytes()

    def test_scores_preserved_exactly(self, tmp_path):
        dm = sample_map(seed=5)
        path = tmp_path / "map.neod"
        write_depth_map(path, dm)
        back = read_depth_map(path)
        assert back.width == dm.width and back.height == dm.height
        assert np.array_equal(back.scores, dm.scores)

    def test_header_layout(self, tmp_path):
        dm = sample_map(w=3, h=2)
        path = tmp_path / "map.neod"
        write_depth_map(path, dm)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:8], "little") == 3
        assert int.from_bytes(raw[8:12], "little") == 2
        assert len(raw) == 12 + 4 * 6


class TestOverwrite:
    def test_longer_file_is_trimmed(self, tmp_path):
        path = tmp_path / "map.neod"
        write_depth_map(path, sample_map(seed=1, w=40, h=30))
        small = sample_map(seed=2)
        write_depth_map(path, small)
        assert path.stat().st_size == 12 + 4 * small.width * small.height
        assert np.array_equal(read_depth_map(path).scores, small.scores)

    def test_failed_write_leaves_no_map(self, tmp_path, monkeypatch):
        path = tmp_path / "map.neod"
        write_depth_map(path, sample_map(seed=1))
        writes = []

        class HalfTheScoresThenFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, data):
                writes.append(len(data))
                if len(writes) == 1:
                    return self.fh.write(data)
                self.fh.write(memoryview(data).cast("B")[: len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(neod, "open", lambda *a: HalfTheScoresThenFull(open(*a)),
                            raising=False)
        with pytest.raises(OSError):
            write_depth_map(path, sample_map(seed=2))
        monkeypatch.undo()
        assert len(writes) == 2  # the zeroed header, then half the scores
        with pytest.raises(NeodMagicError):
            read_depth_map(path)

    @pytest.mark.parametrize("killed_before_call", range(6))
    def test_killed_write_leaves_old_new_or_rejected_map(self, tmp_path, killed_before_call):
        # A map larger than the file buffer, so the scores reach the file
        # before the header does; the old map has the same size as the new.
        path = tmp_path / "map.neod"
        old, new = sample_map(seed=1, w=64, h=48), sample_map(seed=2, w=64, h=48)
        write_depth_map(path, old)
        src = Path(neod.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", _KILLED_WRITE, str(path), str(killed_before_call)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
        calls = 5  # write, write, truncate, seek, write
        if killed_before_call < calls:
            assert result.returncode == -signal.SIGKILL, result.stderr
        else:
            assert result.returncode == 0, result.stderr
        try:
            scores = read_depth_map(path).scores
        except (NeodMagicError, NeodTruncatedError):
            scores = None
        if killed_before_call == 2:  # after the scores, before the trim and the header
            assert scores is None
        if killed_before_call == calls:
            assert np.array_equal(scores, new.scores)
        assert scores is None or any(np.array_equal(scores, m.scores) for m in (old, new))

    def test_non_contiguous_scores_written_in_row_order(self, tmp_path):
        path = tmp_path / "map.neod"
        write_depth_map(path, sample_map(w=5, h=3))
        frozen = read_depth_map(path).scores.T  # read-only view over bytes, kept uncopied
        writable = np.arange(15, dtype=np.float32).reshape(3, 5).T
        for arr in (frozen, writable):
            dm = DepthMap(arr)
            write_depth_map(path, dm)
            raw = path.read_bytes()
            assert int.from_bytes(raw[4:8], "little") == 3
            assert int.from_bytes(raw[8:12], "little") == 5
            assert raw[12:] == np.ascontiguousarray(arr, dtype="<f4").tobytes()
            assert np.array_equal(read_depth_map(path).scores, arr)
        assert not DepthMap(frozen).scores.flags.c_contiguous


class TestRejection:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.neod"
        dm = sample_map()
        write_depth_map(path, dm)
        corrupted = b"XXXX" + path.read_bytes()[4:]
        path.write_bytes(corrupted)
        with pytest.raises(NeodMagicError):
            read_depth_map(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.neod"
        write_depth_map(path, sample_map())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(NeodTruncatedError):
            read_depth_map(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.neod"
        path.write_bytes(b"NEOD\x01")
        with pytest.raises(NeodTruncatedError):
            read_depth_map(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "long.neod"
        write_depth_map(path, sample_map())
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(NeodTruncatedError):
            read_depth_map(path)

    def test_magic_and_truncation_errors_are_distinct(self):
        assert not issubclass(NeodMagicError, NeodTruncatedError)
        assert not issubclass(NeodTruncatedError, NeodMagicError)

    def test_non_finite_scores_rejected_on_read(self, tmp_path):
        path = tmp_path / "nan.neod"
        dm = sample_map(w=2, h=2)
        write_depth_map(path, dm)
        raw = bytearray(path.read_bytes())
        raw[12:16] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        message = "^" + re.escape(f"{path}: depth map contains non-finite")
        with pytest.raises(DomainError, match=message):
            read_depth_map(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_scores_rejected_on_read(self, tmp_path, bad):
        path = tmp_path / "inf.neod"
        write_depth_map(path, sample_map(w=3, h=2))
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([bad], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        message = "^" + re.escape(f"{path}: depth map contains non-finite")
        with pytest.raises(DomainError, match=message):
            read_depth_map(path)

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 3), (5, 0)])
    def test_empty_map_rejected_on_read(self, tmp_path, width, height):
        path = tmp_path / "empty.neod"
        path.write_bytes(MAGIC + width.to_bytes(4, "little") + height.to_bytes(4, "little"))
        message = "^" + re.escape(f"{path}: depth map must not be empty")
        with pytest.raises(DomainError, match=message):
            read_depth_map(path)

    def test_short_payload_read_is_truncation(self, tmp_path, monkeypatch):
        # the file has the declared length when checked, but the read of the
        # payload comes back short, as if the file shrank in between
        path = tmp_path / "map.neod"
        write_depth_map(path, sample_map(w=5, h=3))

        class ShortPayload:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def fileno(self):
                return self.fh.fileno()

            def read(self, n):
                data = self.fh.read(n)
                return data if n == 12 else data[:-1]

        monkeypatch.setattr(neod, "open", lambda *a: ShortPayload(open(*a)), raising=False)
        with pytest.raises(NeodTruncatedError, match="payload truncated, 71 bytes < 72"):
            read_depth_map(path)


# Files that read_depth_map rejects before it looks at a score, made from a
# good 17x9 map's 624 bytes, with the fault and its text after the file's name.
_LAYOUT_FAULTS = {
    "wrong_magic": (lambda raw: b"XXXX" + raw[4:], NeodMagicError,
                    "bad magic b'XXXX', expected b'NEOD'"),
    "shorter_than_magic": (lambda raw: raw[:3], NeodTruncatedError,
                           "file shorter than the magic header"),
    "truncated_header": (lambda raw: raw[:5], NeodTruncatedError,
                         "truncated header (5 bytes)"),
    "truncated_payload": (lambda raw: raw[:-7], NeodTruncatedError,
                          "payload truncated, 617 bytes < 624 expected"),
    "trailing_bytes": (lambda raw: raw + b"\x00\x00", NeodTruncatedError,
                       "2 trailing bytes beyond declared size"),
    "empty_0x0": (lambda raw: MAGIC + bytes(8), DomainError,
                  "depth map must not be empty"),
    "empty_0x3": (lambda raw: MAGIC + (0).to_bytes(4, "little") + (3).to_bytes(4, "little"),
                  DomainError, "depth map must not be empty"),
    "empty_5x0": (lambda raw: MAGIC + (5).to_bytes(4, "little") + (0).to_bytes(4, "little"),
                  DomainError, "depth map must not be empty"),
}


class TestReadPayload:
    """The I/O half of read_depth_map raises every fault of a file's layout itself."""

    @pytest.mark.parametrize("fault", sorted(_LAYOUT_FAULTS))
    def test_same_fault_and_text_as_read_depth_map(self, tmp_path, fault):
        corrupt, error, text = _LAYOUT_FAULTS[fault]
        path = tmp_path / "map.neod"
        write_depth_map(path, sample_map())
        path.write_bytes(corrupt(path.read_bytes()))
        for read in (neod.read_payload, read_depth_map):
            with pytest.raises(error) as raised:
                read(path)
            assert type(raised.value) is error
            assert str(raised.value) == f"{path}: {text}"

    def test_returns_the_size_and_the_score_bytes(self, tmp_path):
        path = tmp_path / "map.neod"
        dm = sample_map(w=5, h=3)
        write_depth_map(path, dm)
        width, height, payload = neod.read_payload(path)
        assert (width, height) == (5, 3)
        assert type(payload) is bytes and payload == dm.scores.astype("<f4").tobytes()
        built = neod.depth_map_from_payload(path, width, height, payload)
        assert np.array_equal(built.scores, dm.scores)

    def test_non_finite_scores_pass_the_io_half(self, tmp_path):
        path = tmp_path / "nan.neod"
        write_depth_map(path, sample_map(w=2, h=2))
        raw = bytearray(path.read_bytes())
        raw[12:16] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        message = "^" + re.escape(f"{path}: depth map contains non-finite")
        with pytest.raises(DomainError, match=message):
            neod.depth_map_from_payload(path, *neod.read_payload(path))


class TestReadOnlyMap:
    def test_read_map_is_frozen(self, tmp_path):
        path = tmp_path / "map.neod"
        write_depth_map(path, sample_map())
        scores = read_depth_map(path).scores
        assert not scores.flags.writeable
        with pytest.raises(ValueError):
            scores.setflags(write=True)
