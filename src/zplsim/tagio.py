"""File formats: PTAG binary time tags, CSV tags, and ground-truth dumps.

PTAG layout: magic ``PTAG``, u8 version=1, u64 LE resolution_ps, u64 LE
duration_ps, u32 LE channel count, then one record per tag interleaved in
global time order: u8 channel, u64 LE timestamp.  The channel count is one
more than the highest channel id, so channel ids run from 0 to 255.

Reading checks, in O(n) array operations, that the header's channel count
fits the u8 channel field, that the record block holds whole records, that
every channel id is below the header's count and that timestamps never
decrease; any violation raises ``TagFileError`` naming the file, as does
writing a tag set whose channel ids or ticks the layout cannot hold.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import TagFileError
from .kmc import BRANCH_ZPL, PhotonStream, TimeTagSet

PTAG_MAGIC = b"PTAG"
PTAG_VERSION = 1
_HEADER = struct.Struct("<BQQI")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
_MAX_CHANNEL = np.iinfo(np.uint8).max


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file and rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _interleave(tagset: TimeTagSet):
    """All tags in global time order (channel id breaks ties)."""
    if not tagset.channels:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    chans = sorted(tagset.channels)
    ts = np.concatenate([tagset.channels[c] for c in chans])
    ch = np.concatenate([np.full(len(tagset.channels[c]), c, dtype=np.int64)
                         for c in chans])
    order = np.lexsort((ch, ts))
    return ch[order], ts[order]


def ptag_bytes(tagset: TimeTagSet, path="<PTAG bytes>") -> bytes:
    """PTAG encoding of ``tagset``; ``path`` names the target in errors."""
    chans = sorted(tagset.channels)
    if chans and not 0 <= chans[0] <= chans[-1] <= _MAX_CHANNEL:
        raise TagFileError(f"{path}: channel ids {chans[0]}..{chans[-1]} do not fit "
                           f"the PTAG u8 channel field (0..{_MAX_CHANNEL})")
    ch, ts = _interleave(tagset)
    if len(ts) and ts[0] < 0:
        raise TagFileError(f"{path}: negative tick {int(ts[0])} cannot be written")
    records = np.empty(len(ts), dtype=_RECORD_DTYPE)
    records["channel"] = ch
    records["timestamp"] = ts
    duration_ps = int(round(tagset.duration * 1e12))
    n_channels = chans[-1] + 1 if chans else 0
    header = PTAG_MAGIC + _HEADER.pack(PTAG_VERSION, tagset.resolution_ps,
                                       duration_ps, n_channels)
    return header + records.tobytes()


def write_ptag(tagset: TimeTagSet, path) -> None:
    atomic_write_bytes(path, ptag_bytes(tagset, path))


def read_ptag(path) -> TimeTagSet:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != PTAG_MAGIC:
        raise TagFileError(f"{path}: not a PTAG file")
    start = 4 + _HEADER.size
    if len(data) < start:
        raise TagFileError(f"{path}: truncated PTAG header "
                           f"({len(data)} of {start} bytes)")
    version, resolution_ps, duration_ps, n_channels = _HEADER.unpack_from(data, 4)
    if version != PTAG_VERSION:
        raise TagFileError(f"{path}: unsupported PTAG version {version}")
    if n_channels > _MAX_CHANNEL + 1:
        raise TagFileError(f"{path}: header declares {n_channels} channels; the u8 "
                           f"channel field holds at most {_MAX_CHANNEL + 1}")
    n_records, tail = divmod(len(data) - start, _RECORD_DTYPE.itemsize)
    if tail:
        raise TagFileError(f"{path}: truncated PTAG record block: {tail} bytes "
                           f"after {n_records} whole {_RECORD_DTYPE.itemsize}-byte records")
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, offset=start)
    ch = records["channel"]
    ts = records["timestamp"].astype(np.int64)
    if n_records:
        if int(ch.max()) >= n_channels:
            i = int(np.argmax(ch >= n_channels))
            raise TagFileError(f"{path}: record {i} has channel {int(ch[i])} but the "
                               f"header declares {n_channels} channels")
        # ticks of 2**63 and above wrap negative here and are caught as well
        back = ts[1:] < ts[:-1]
        if ts[0] < 0 or back.any():
            i = int(np.argmax(back)) + 1 if ts[0] >= 0 else 0
            raise TagFileError(f"{path}: timestamps must be non-decreasing and "
                               f"below 2**63 (record {i})")
    channels = {c: ts[ch == c] for c in range(n_channels)}
    return TimeTagSet(resolution_ps=int(resolution_ps), channels=channels,
                      duration=duration_ps * 1e-12)


def tags_csv_text(tagset: TimeTagSet) -> str:
    ch, ts = _interleave(tagset)
    lines = ["channel,time_ps"]
    res = tagset.resolution_ps
    for c, t in zip(ch.tolist(), ts.tolist()):
        lines.append(f"{c},{t * res}")
    return "\n".join(lines) + "\n"


def write_tags_csv(tagset: TimeTagSet, path) -> None:
    atomic_write_text(path, tags_csv_text(tagset))


def read_tags_csv(path, resolution_ps: int = 1, duration: float = 0.0) -> TimeTagSet:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise TagFileError(f"{path}: {exc}") from exc
    if data.size and data.shape[1] != 2:
        raise TagFileError(f"{path}: expected 2 columns (channel,time_ps), "
                           f"got {data.shape[1]}")
    channels: dict[int, np.ndarray] = {}
    if data.size:
        for c in np.unique(data[:, 0]):
            time_ps = data[data[:, 0] == c, 1]
            channels[int(c)] = time_ps // resolution_ps
    if duration <= 0 and data.size:
        duration = float(data[:, 1].max()) * 1e-12
    return TimeTagSet(resolution_ps=resolution_ps, channels=channels, duration=duration)


def read_tags(path) -> TimeTagSet:
    """Dispatch on extension: .ptag binary, anything else CSV."""
    if str(path).endswith(".ptag"):
        return read_ptag(path)
    return read_tags_csv(path)


def truth_csv_text(photons: PhotonStream) -> str:
    lines = ["time_s,freq_hz,source,branch"]
    rows = zip(photons.times.tolist(), photons.frequencies.tolist(),
               photons.source_ids.tolist(), photons.branches.tolist())
    for t, f, src, br in rows:
        branch = "ZPL" if br == BRANCH_ZPL else "vibronic"
        lines.append(f"{t!r},{f!r},{src},{branch}")
    return "\n".join(lines) + "\n"


def write_truth_csv(photons: PhotonStream, path) -> None:
    atomic_write_text(path, truth_csv_text(photons))
