"""Seeded kinetic Monte Carlo photon-stream generator and detection chain.

Each molecule runs the ground -> vibronic -> emitting -> ground cycle with
exponential waiting times; every decay of the emitting state produces one
photon record.  In pulsed mode the pump is gated by a rectangular pulse
train and each window triggers at most one excitation, so a single emitter
yields at most one photon per pulse.  ``pulse_draws``/``start_times`` are
the one pulsed sampler, shared by ``simulate_stream`` and
``interference.simulate_hom``.  The detection chain thins, splits, jitters,
quantizes and dead-time prunes the stream into integer time tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError
from .model import (BRANCH_VIBRONIC, BRANCH_ZPL, DEFAULT_K_VIB, DetectionSpec,
                    LaserSpec, SceneSpec, natural_linewidth, pump_rate,
                    shifted_center)

BACKGROUND_SOURCE = -1


@dataclass
class PhotonStream:
    """Time-ordered ground-truth photons held as parallel arrays."""

    times: np.ndarray
    frequencies: np.ndarray
    source_ids: np.ndarray
    branches: np.ndarray
    duration: float

    def __len__(self) -> int:
        return len(self.times)

    @staticmethod
    def empty(duration: float) -> "PhotonStream":
        z = np.empty(0)
        return PhotonStream(z, z.copy(), np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.uint8), duration)


@dataclass
class TimeTagSet:
    """Per-channel int64 detection times in units of ``resolution_ps``, and
    the record length in picoseconds, as the PTAG header stores both."""

    resolution_ps: int
    channels: dict[int, np.ndarray]
    duration_ps: int


def _emission_times_cw(rng, pump, k_vib, gamma, duration):
    if pump <= 0:
        return np.empty(0)
    mean_cycle = 1.0 / pump + 1.0 / k_vib + 1.0 / gamma
    blocks = []
    t = 0.0
    while t < duration:
        n = max(int((duration - t) / mean_cycle * 1.05) + 16, 16)
        cycle = (rng.exponential(1.0 / pump, n)
                 + rng.exponential(1.0 / k_vib, n)
                 + rng.exponential(1.0 / gamma, n))
        cycle = t + np.cumsum(cycle)
        blocks.append(cycle)
        t = cycle[-1]
    times = np.concatenate(blocks)
    return times[times < duration]


def pulse_draws(rng, pump, width, branching, n_pulses):
    """One uniform per pulse: did the source emit a ZPL photon in it.

    The source is excited in a pulse with probability ``p_exc = 1 -
    exp(-pump*width)`` and then emits into the ZPL with probability
    ``branching``, independently, so it emits iff ``u < p_exc*branching``
    for one uniform ``u``.  Given that it emitted, ``u/branching`` is uniform
    on ``[0, p_exc)``, so ``-log1p(-u/branching)/pump`` is an exponential
    excitation time truncated to the pulse window: the same uniform also
    fixes *when* the source was excited.  Returns the emitted mask and the
    uniforms; ``start_times`` turns the uniforms of the pulses that are
    scored into times, so no time is computed for a pulse that is not.
    """
    if pump <= 0:
        return np.zeros(n_pulses, dtype=bool), np.zeros(n_pulses)
    p_exc = -math.expm1(-pump * width)
    u = rng.random(n_pulses)
    return u < p_exc * branching, u


def start_times(rng, u, pump, branching, k_vib):
    """Emitting-state population times for emitted pulses with uniforms ``u``:
    the truncated-exponential excitation time plus an exponential
    vibrational relaxation delay of mean ``1/k_vib``."""
    t_exc = -np.log1p(-u / branching) / pump
    return t_exc + rng.exponential(1.0 / k_vib, len(u))


def _emission_times_pulsed(rng, pump, k_vib, gamma, duration, period, width):
    """Photon times of one triggered emitter, through the one pulsed sampler.

    ``pulse_draws`` (branching 1) draws every window at once; excited window
    k emits at ``k*period + start_times(...) + Exp(1/gamma)``.  A window that
    opens while the previous photon is pending, at ``t_prev``, keeps its draw
    ``E = -log1p(-u)/pump`` but counts it from ``t_prev``: it excites only if
    ``t_prev + E`` is inside the window, and its photon moves later by
    ``t_prev - k*period``.  The pump is memoryless, so the exposure after
    ``t_prev`` is again Exp(1/pump) and this is exactly the sequential
    process; it can cancel or delay an excitation but never create one.
    Only such windows are walked in Python, carrying the last kept emission.
    """
    excited, u = pulse_draws(rng, pump, width, 1.0, math.ceil(duration / period))
    window = np.flatnonzero(excited)
    u = u[window]
    opens = window * period
    times = opens + start_times(rng, u, pump, 1.0, k_vib)
    times += rng.exponential(1.0 / gamma, len(window))

    kept = np.ones(len(window), dtype=bool)
    settled = 0
    for i in (np.flatnonzero(times[:-1] > opens[1:]) + 1).tolist():
        if i <= settled:  # already walked as part of an earlier chain
            continue
        t_prev = times[i - 1]
        while i < len(window) and t_prev > opens[i]:
            delay = t_prev - opens[i]
            if -math.log1p(-u[i]) / pump + delay < width:
                times[i] += delay
                t_prev = times[i]
            else:
                kept[i] = False
            i += 1
        settled = i
    times = times[kept]
    return times[times < duration]


def simulate_stream(scene: SceneSpec, laser: LaserSpec, duration: float,
                    seed: int) -> PhotonStream:
    """Generate the ground-truth photon stream of a scene.

    Molecules are independent; background photons are a Poisson process
    tagged with source id -1 and the vibronic branch (so the ZPL filter does
    not pass them unless configured to).  Deterministic for a fixed seed.
    """
    if duration <= 0:
        raise PhysicsError("duration must be > 0")
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(scene.molecules) + 1)

    all_times, all_freqs, all_src, all_branch = [], [], [], []
    for mol, child in zip(scene.molecules, children):
        rng = np.random.default_rng(child)
        pump = pump_rate(mol, laser, scene.electrode)
        gamma = 1.0 / mol.lifetime_t1
        if laser.mode == "pulsed":
            times = _emission_times_pulsed(rng, pump, DEFAULT_K_VIB, gamma, duration,
                                           laser.pulse_period, laser.pulse_width)
        else:
            times = _emission_times_cw(rng, pump, DEFAULT_K_VIB, gamma, duration)
        n = len(times)
        if n == 0:
            continue
        center = shifted_center(mol, scene.electrode)
        is_zpl = rng.random(n) < mol.zpl_branching
        half_width = 0.5 * natural_linewidth(mol.lifetime_t1)
        zpl_freqs = center + half_width * rng.standard_cauchy(n)
        # red-shifted vibronic emission; the exact ground-state vibrational
        # offsets are not modeled, only that these photons miss the ZPL filter
        freqs = np.where(is_zpl, zpl_freqs, center - mol.vibronic_offset)
        all_times.append(times)
        all_freqs.append(freqs)
        all_src.append(np.full(n, mol.id, dtype=np.int64))
        all_branch.append(np.where(is_zpl, BRANCH_ZPL, BRANCH_VIBRONIC).astype(np.uint8))

    rng_bg = np.random.default_rng(children[-1])
    if scene.background_rate > 0:
        n_bg = rng_bg.poisson(scene.background_rate * duration)
        if n_bg:
            t_bg = np.sort(rng_bg.random(n_bg) * duration)
            all_times.append(t_bg)
            all_freqs.append(np.zeros(n_bg))
            all_src.append(np.full(n_bg, BACKGROUND_SOURCE, dtype=np.int64))
            all_branch.append(np.full(n_bg, BRANCH_VIBRONIC, dtype=np.uint8))

    if not all_times:
        return PhotonStream.empty(duration)
    times = np.concatenate(all_times)
    order = np.lexsort((np.concatenate(all_src), times))
    return PhotonStream(times[order],
                        np.concatenate(all_freqs)[order],
                        np.concatenate(all_src)[order],
                        np.concatenate(all_branch)[order],
                        duration)


def _prune_dead_time(ticks: np.ndarray, min_separation: int) -> np.ndarray:
    """Greedy dead-time filter; also enforces strictly increasing tags."""
    if len(ticks) == 0:
        return ticks
    kept = [int(ticks[0])]
    last = kept[0]
    for ts in ticks[1:].tolist():
        if ts - last >= min_separation:
            kept.append(ts)
            last = ts
    return np.asarray(kept, dtype=np.int64)


def apply_detection(photons: PhotonStream, det: DetectionSpec, split: str = "hbt",
                    seed: int = 0) -> TimeTagSet:
    """Turn a photon stream into detected time tags.

    Photons survive with the branch-dependent efficiency product, are routed
    50/50 to two channels in "hbt" mode (one channel in "single" mode),
    jittered, quantized to the tag resolution and dead-time pruned; dark
    counts are added per channel.  Deterministic for a fixed seed.
    """
    if split not in ("hbt", "single"):
        raise PhysicsError(f"split must be 'hbt' or 'single', got {split!r}")
    if len(photons) and np.any(np.diff(photons.times) < 0):
        raise PhysicsError("photon records must be time-ordered")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_channels = 2 if split == "hbt" else 1

    branch_trans = np.where(photons.branches == BRANCH_ZPL,
                            det.zpl_filter_transmission,
                            det.vibronic_filter_transmission)
    p_survive = det.collection_efficiency * det.fiber_coupling * branch_trans
    keep = rng.random(len(photons)) < p_survive
    times = photons.times[keep]
    if n_channels == 2:
        route = rng.integers(0, 2, len(times))
    else:
        route = np.zeros(len(times), dtype=np.int64)
    if det.timing_jitter_sigma > 0:
        times = times + rng.normal(0.0, det.timing_jitter_sigma, len(times))

    res_s = det.resolution * 1e-12
    duration_ticks = int(round(photons.duration / res_s))
    dead_ticks = max(int(round(det.dead_time / res_s)), 1)

    channels = {}
    for ch in range(n_channels):
        ticks = np.rint(times[route == ch] / res_s).astype(np.int64)
        ticks = ticks[(ticks >= 0) & (ticks < duration_ticks)]
        n_dark = rng.poisson(det.dark_count_rate * photons.duration)
        if n_dark:
            dark = rng.integers(0, duration_ticks, n_dark)
            ticks = np.concatenate([ticks, dark])
        ticks.sort(kind="stable")
        channels[ch] = _prune_dead_time(ticks, dead_ticks)

    return TimeTagSet(resolution_ps=det.resolution, channels=channels,
                      duration_ps=int(round(photons.duration * 1e12)))
