import numpy as np
import pytest

from monorange.common import DomainError, NeodMagicError, NeodTruncatedError
from monorange.depth import DepthMap
from monorange.neod import MAGIC, read_depth_map, write_depth_map


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
        with pytest.raises(DomainError):
            read_depth_map(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_scores_rejected_on_read(self, tmp_path, bad):
        path = tmp_path / "inf.neod"
        write_depth_map(path, sample_map(w=3, h=2))
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([bad], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DomainError):
            read_depth_map(path)


class TestReadOnlyMap:
    def test_read_map_is_frozen(self, tmp_path):
        path = tmp_path / "map.neod"
        write_depth_map(path, sample_map())
        scores = read_depth_map(path).scores
        assert not scores.flags.writeable
        with pytest.raises(ValueError):
            scores.setflags(write=True)
