import numpy as np
import pytest

from zplsim.errors import TagFileError
from zplsim.kmc import PhotonStream, TimeTagSet
from zplsim.tagio import (ptag_bytes, read_ptag, read_tags, read_tags_csv,
                          tags_csv_text, truth_csv_text, write_ptag,
                          write_tags_csv, write_truth_csv)


def make_tagset():
    return TimeTagSet(resolution_ps=4,
                      channels={0: np.array([10, 25, 300], dtype=np.int64),
                                1: np.array([7, 25, 1000], dtype=np.int64)},
                      duration_ps=1_000_000)


class TestPtag:
    def test_header_layout(self):
        data = ptag_bytes(make_tagset())
        assert data[:4] == b"PTAG"
        assert data[4] == 1
        assert int.from_bytes(data[5:13], "little") == 4          # resolution_ps
        assert int.from_bytes(data[13:21], "little") == 1_000_000  # duration_ps
        assert int.from_bytes(data[21:25], "little") == 2          # channels
        assert len(data) == 25 + 6 * 9                             # 9 bytes/record

    def test_records_in_global_time_order(self):
        data = ptag_bytes(make_tagset())
        records = np.frombuffer(data[25:], dtype=[("ch", "u1"), ("ts", "<u8")])
        assert np.all(np.diff(records["ts"].astype(np.int64)) >= 0)
        # tie at ts=25 broken by channel id
        tie = records[records["ts"] == 25]
        assert list(tie["ch"]) == [0, 1]

    def test_roundtrip(self, tmp_path):
        original = make_tagset()
        path = tmp_path / "tags.ptag"
        write_ptag(original, path)
        loaded = read_ptag(path)
        assert loaded.resolution_ps == original.resolution_ps
        assert loaded.duration_ps == original.duration_ps
        assert set(loaded.channels) == set(original.channels)
        for ch in original.channels:
            assert np.array_equal(loaded.channels[ch], original.channels[ch])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ptag"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="PTAG"):
            read_ptag(path)

    def test_bad_version_rejected(self, tmp_path):
        data = bytearray(ptag_bytes(make_tagset()))
        data[4] = 9
        path = tmp_path / "v9.ptag"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            read_ptag(path)

    def test_empty_tagset(self, tmp_path):
        empty = TimeTagSet(resolution_ps=1, channels={0: np.empty(0, dtype=np.int64)},
                           duration_ps=10**12)
        path = tmp_path / "empty.ptag"
        write_ptag(empty, path)
        loaded = read_ptag(path)
        assert len(loaded.channels[0]) == 0


class TestMalformedPtag:
    """Every malformed or unwritable case raises TagFileError naming the file."""

    def write(self, tmp_path, data, name="bad.ptag"):
        path = tmp_path / name
        path.write_bytes(data)
        return path

    def test_truncated_record_block(self, tmp_path):
        path = self.write(tmp_path, ptag_bytes(make_tagset())[:-4])
        with pytest.raises(TagFileError, match="truncated PTAG record block") as exc:
            read_ptag(path)
        assert str(path) in str(exc.value)

    def test_truncated_header(self, tmp_path):
        path = self.write(tmp_path, ptag_bytes(make_tagset())[:12])
        with pytest.raises(TagFileError, match="truncated PTAG header") as exc:
            read_ptag(path)
        assert str(path) in str(exc.value)

    def test_channel_beyond_header_count(self, tmp_path):
        data = bytearray(ptag_bytes(make_tagset()))
        data[21:25] = (1).to_bytes(4, "little")  # header now declares 1 channel
        path = self.write(tmp_path, bytes(data))
        with pytest.raises(TagFileError, match="channel 1 but the header declares 1") as exc:
            read_ptag(path)
        assert str(path) in str(exc.value)

    def test_channel_count_beyond_u8(self, tmp_path):
        data = bytearray(ptag_bytes(make_tagset()))
        data[21:25] = (2**32 - 1).to_bytes(4, "little")
        path = self.write(tmp_path, bytes(data))
        with pytest.raises(TagFileError, match="at most 256") as exc:
            read_ptag(path)
        assert str(path) in str(exc.value)

    def test_decreasing_timestamps(self, tmp_path):
        data = bytearray(ptag_bytes(make_tagset()))
        last = len(data) - 8
        data[last:] = (3).to_bytes(8, "little")  # last tag now precedes the rest
        path = self.write(tmp_path, bytes(data))
        with pytest.raises(TagFileError, match=r"non-decreasing .*\(record 5\)") as exc:
            read_ptag(path)
        assert str(path) in str(exc.value)

    def test_write_channel_id_beyond_u8(self, tmp_path):
        many = TimeTagSet(resolution_ps=1,
                          channels={c: np.array([c], dtype=np.int64) for c in range(257)},
                          duration_ps=1000)
        path = tmp_path / "many.ptag"
        with pytest.raises(TagFileError, match="0..255") as exc:
            write_ptag(many, path)
        assert str(path) in str(exc.value)
        assert not path.exists()

    def test_256_channels_roundtrip(self, tmp_path):
        full = TimeTagSet(resolution_ps=1,
                          channels={c: np.array([c], dtype=np.int64) for c in range(256)},
                          duration_ps=1000)
        write_ptag(full, tmp_path / "full.ptag")
        loaded = read_ptag(tmp_path / "full.ptag")
        assert loaded.channels[255].tolist() == [255]

    def test_sparse_channel_ids_roundtrip(self, tmp_path):
        sparse = TimeTagSet(resolution_ps=1,
                            channels={0: np.array([1], dtype=np.int64),
                                      3: np.array([2], dtype=np.int64)},
                            duration_ps=1000)
        write_ptag(sparse, tmp_path / "sparse.ptag")
        loaded = read_ptag(tmp_path / "sparse.ptag")
        assert loaded.channels[3].tolist() == [2]
        assert len(loaded.channels[1]) == 0

    def test_unparsable_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,time_ps\n0,12\n1,abc\n")
        with pytest.raises(TagFileError) as exc:
            read_tags(path)
        assert str(path) in str(exc.value)


class TestTagsCsv:
    def test_header_and_picoseconds(self):
        text = tags_csv_text(make_tagset())
        lines = text.strip().split("\n")
        assert lines[0] == "channel,time_ps"
        # tags appear in global time order, times multiplied by resolution
        assert lines[1] == "1,28"
        assert lines[2] == "0,40"

    def test_roundtrip(self, tmp_path):
        original = make_tagset()
        path = tmp_path / "tags.csv"
        write_tags_csv(original, path)
        loaded = read_tags_csv(path)
        # the CSV holds picoseconds, read back as 1 ps ticks
        assert loaded.resolution_ps == 1
        for ch in original.channels:
            assert np.array_equal(loaded.channels[ch],
                                  original.channels[ch] * original.resolution_ps)

    def test_read_tags_dispatch(self, tmp_path):
        original = make_tagset()
        write_ptag(original, tmp_path / "a.ptag")
        write_tags_csv(original, tmp_path / "a.csv")
        from_bin = read_tags(tmp_path / "a.ptag")
        from_csv = read_tags(tmp_path / "a.csv")
        assert from_bin.resolution_ps == 4
        # CSV carries absolute picoseconds; compare in physical units
        for ch in original.channels:
            a = from_bin.channels[ch] * from_bin.resolution_ps
            b = from_csv.channels[ch] * from_csv.resolution_ps
            assert np.array_equal(a, b)


class TestTruthCsv:
    def make_stream(self):
        return PhotonStream(times=np.array([1.5e-9, 3.25e-9]),
                            frequencies=np.array([1.8e8, -4e13]),
                            source_ids=np.array([1, -1], dtype=np.int64),
                            branches=np.array([0, 1], dtype=np.uint8),
                            duration=1e-6)

    def test_format(self):
        lines = truth_csv_text(self.make_stream()).strip().split("\n")
        assert lines[0] == "time_s,freq_hz,source,branch"
        assert lines[1].endswith(",1,ZPL")
        assert lines[2].endswith(",-1,vibronic")

    def test_times_roundtrip_exactly(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "truth.csv"
        write_truth_csv(stream, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1,
                          usecols=(0, 1), ndmin=2)
        assert np.array_equal(data[:, 0], stream.times)
        assert np.array_equal(data[:, 1], stream.frequencies)
