"""Seeded synthetic PTAG tag file for the ``g2_longlag`` workload.

The emitter is a bright antibunched source: each cycle waits an exponential
time for the pump (rate ``PUMP_HZ``) and then for spontaneous decay (rate
``GAMMA_HZ``), so g2(tau) = 1 - exp(-(PUMP_HZ + GAMMA_HZ)|tau|).  Every
emitted photon is detected with probability ``EFFICIENCY``, routed 50/50 to
channel 0 or 1 and quantized to 1 ps ticks.  With the constants below each
channel sees about 1 Mcps.

The file is written in blocks, so memory stays small whatever the duration,
and the PTAG layout is written here rather than by zplsim, so the input does
not change when zplsim's own samplers or writers change.

    python3 perfbench/gen_tags.py --seed 1 --duration 1.0 --out tags.ptag

prints one JSON line with the path, sha256 and per-channel tag counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys

import numpy as np

GAMMA_HZ = 1.0 / 9.4e-9
# 1/PUMP_HZ + 1/GAMMA_HZ = 250 ns, i.e. 4 M emitted photons per second
PUMP_HZ = 1.0 / (250e-9 - 9.4e-9)
EFFICIENCY = 0.5
RESOLUTION_PS = 1
N_CHANNELS = 2
BLOCK = 1 << 20

RECORD = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
HEADER = struct.Struct("<BQQI")


def ptag_header(duration_ps: int) -> bytes:
    return b"PTAG" + HEADER.pack(1, RESOLUTION_PS, duration_ps, N_CHANNELS)


def write_tags(path, seed: int, duration: float) -> dict:
    """Write the tag file for ``seed`` and return its sha256 and counts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    duration_ps = int(round(duration * 1e12))
    sha = hashlib.sha256()
    counts = [0] * N_CHANNELS
    t = 0.0
    with open(path, "wb") as fh:
        header = ptag_header(duration_ps)
        fh.write(header)
        sha.update(header)
        while t < duration:
            cycle = rng.exponential(1.0 / PUMP_HZ, BLOCK) + rng.exponential(1.0 / GAMMA_HZ, BLOCK)
            times = t + np.cumsum(cycle)
            t = float(times[-1])
            keep = rng.random(BLOCK) < EFFICIENCY
            channel = rng.integers(0, N_CHANNELS, BLOCK).astype(np.uint8)
            ticks = np.rint(times * (1e12 / RESOLUTION_PS)).astype(np.int64)
            keep &= ticks < duration_ps
            ticks, channel = ticks[keep], channel[keep]
            # emissions are time-ordered; channel id breaks equal-tick ties
            order = np.lexsort((channel, ticks))
            records = np.empty(len(ticks), dtype=RECORD)
            records["channel"] = channel[order]
            records["timestamp"] = ticks[order]
            data = records.tobytes()
            fh.write(data)
            sha.update(data)
            for c in range(N_CHANNELS):
                counts[c] += int(np.count_nonzero(channel == c))
    return {"path": str(path), "sha256": sha.hexdigest(), "counts": counts,
            "duration_s": duration, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True, help="seconds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(write_tags(args.out, args.seed, args.duration)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
