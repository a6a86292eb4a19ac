import math

import numpy as np
import pytest
from scipy import stats

from zplsim import (BRANCH_VIBRONIC, BRANCH_ZPL, DetectionSpec, LaserSpec,
                    MoleculeSpec, PhysicsError, SceneSpec, apply_detection,
                    natural_linewidth, simulate_stream, steady_state)
from zplsim.kmc import _emission_times_pulsed

GAMMA = 1 / 9.4e-9
PUMP_81 = 1 / 8.1e-9 - GAMMA


def cw_scene(pump=PUMP_81, n_molecules=1, background=0.0):
    mols = tuple(MoleculeSpec(id=i + 1) for i in range(n_molecules))
    laser = LaserSpec(mode="cw", frequency=mols[0].vibronic_offset,
                      cw_peak_pump_rate=pump)
    return SceneSpec(molecules=mols, background_rate=background), laser


PULSED_LASER = LaserSpec(mode="pulsed", frequency=40e12, pulse_width=700e-12,
                         pulse_rep_rate=76e6, pulse_divider=20,
                         pulse_peak_pump_rate=1e9)


class TestSimulateStream:
    def test_empty_without_pump_or_background(self):
        scene, _ = cw_scene()
        dark_laser = LaserSpec(mode="cw", cw_peak_pump_rate=0.0)
        assert len(simulate_stream(scene, dark_laser, 1.0, seed=1)) == 0

    def test_background_only(self):
        scene = SceneSpec(molecules=(), background_rate=1e4)
        photons = simulate_stream(scene, LaserSpec(), 1.0, seed=2)
        assert len(photons) == pytest.approx(1e4, rel=0.05)
        assert np.all(photons.source_ids == -1)
        assert np.all(photons.branches == BRANCH_VIBRONIC)

    def test_deterministic(self):
        scene, laser = cw_scene()
        a = simulate_stream(scene, laser, 0.01, seed=7)
        b = simulate_stream(scene, laser, 0.01, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.frequencies, b.frequencies)
        assert np.array_equal(a.source_ids, b.source_ids)
        assert np.array_equal(a.branches, b.branches)

    def test_cw_rate_matches_steady_state(self):
        # rate-equation oracle: emission rate = p_excited / T1, ZPL share 0.3
        scene, laser = cw_scene()
        duration = 0.5
        photons = simulate_stream(scene, laser, duration, seed=11)
        p_e = steady_state(PUMP_81, 1e12, GAMMA)[2]
        zpl_rate = np.count_nonzero(photons.branches == BRANCH_ZPL) / duration
        assert zpl_rate == pytest.approx(p_e * GAMMA * 0.3, rel=0.02)

    def test_records_time_ordered_within_duration(self):
        scene, laser = cw_scene()
        photons = simulate_stream(scene, laser, 0.005, seed=3)
        assert np.all(np.diff(photons.times) >= 0)
        assert photons.times[-1] < 0.005

    def test_ground_truth_antibunching(self):
        # same-molecule ZPL pairs never closer than the sampled decay chain
        scene, laser = cw_scene()
        photons = simulate_stream(scene, laser, 0.05, seed=5)
        times = photons.times[photons.branches == BRANCH_ZPL]
        gaps = np.diff(times)
        bin_width = 9.4e-9 / 20
        assert np.count_nonzero(gaps < bin_width) / len(gaps) < 1e-3

    def test_zpl_frequency_marginal_is_lorentzian(self):
        # KS against the analytic Cauchy CDF at the 1% level on 1e5 samples
        scene, laser = cw_scene()
        photons = simulate_stream(scene, laser, 0.1, seed=13)
        freqs = photons.frequencies[photons.branches == BRANCH_ZPL][:100_000]
        assert len(freqs) == 100_000
        scale = natural_linewidth(9.4e-9) / 2
        result = stats.kstest(freqs, stats.cauchy(loc=0.0, scale=scale).cdf)
        assert result.pvalue > 0.01

    def test_pulsed_weak_pump_binomial(self):
        # per-pulse emission probability -> 1 - exp(-pump * width) at weak pump
        scene = SceneSpec(molecules=(MoleculeSpec(id=1, zpl_branching=1.0),))
        laser = LaserSpec(mode="pulsed", frequency=40e12, pulse_width=700e-12,
                          pulse_rep_rate=76e6, pulse_divider=20,
                          pulse_peak_pump_rate=5e7)
        n_pulses = 200_000
        duration = n_pulses * laser.pulse_period
        photons = simulate_stream(scene, laser, duration, seed=17)
        q = 1 - math.exp(-5e7 * 700e-12)
        sigma = math.sqrt(n_pulses * q * (1 - q))
        assert abs(len(photons) - n_pulses * q) < 4 * sigma

    def test_pulsed_period(self):
        assert PULSED_LASER.pulse_period == pytest.approx(263.16e-9, rel=1e-4)

    def test_pulsed_single_photon_per_pulse(self):
        # each pulse window triggers at most one excitation
        scene = SceneSpec(molecules=(MoleculeSpec(id=1),))
        n_pulses = 100_000
        duration = n_pulses * PULSED_LASER.pulse_period
        photons = simulate_stream(scene, PULSED_LASER, duration, seed=19)
        pulse_index = np.floor(photons.times / PULSED_LASER.pulse_period).astype(int)
        _, counts = np.unique(pulse_index, return_counts=True)
        assert np.count_nonzero(counts > 1) == 0

    def test_rejects_nonpositive_duration(self):
        scene, laser = cw_scene()
        with pytest.raises(PhysicsError):
            simulate_stream(scene, laser, 0.0, seed=1)


def _gated_advance(t, active_needed, period, width):
    """Time at which ``active_needed`` seconds of in-pulse exposure accumulate.

    Pulse windows are [k*period, k*period + width).
    """
    phase = t % period
    if phase < width:
        available = width - phase
        if active_needed < available:
            return t + active_needed
        active_needed -= available
        t += available
        phase = width
    t += period - phase  # start of the next window
    n_full = int(active_needed // width)
    active_needed -= n_full * width
    return t + n_full * period + active_needed


def reference_emission_times_pulsed(rng, pump, k_vib, gamma, duration, period, width):
    """Slow reference for ``kmc._emission_times_pulsed``: the triggered emitter
    run photon by photon, the pump clock accumulating in-window exposure and
    resuming no earlier than the window after each excitation."""
    times = []
    t = 0.0
    while True:
        t_exc = _gated_advance(t, rng.exponential(1 / pump), period, width)
        if t_exc >= duration:
            break
        t_emit = t_exc + rng.exponential(1 / k_vib) + rng.exponential(1 / gamma)
        if t_emit >= duration:
            break
        times.append(t_emit)
        next_window = (math.floor(t_exc / period) + 1.0) * period
        t = max(t_emit, next_window)
    return np.asarray(times)


class TestPulsedSamplerMatchesReference:
    """At pulse_divider 1 (13.16 ns period) windows often open while the
    previous photon is still pending: 23 % of excited windows with a 9.4 ns
    lifetime, 66 % with 30 ns, where chains of them cancel excitations.  The
    per-window draw then leans on its sequential fix-up, and must match the
    photon-by-photon reference in distribution."""

    @pytest.mark.parametrize("pump, lifetime, seed", [(3e9, 9.4e-9, 21),
                                                      (1e10, 30e-9, 23)])
    def test_same_distribution(self, pump, lifetime, seed):
        width, n_windows, n_blocks = 700e-12, 200_000, 40
        period = LaserSpec(mode="pulsed", pulse_width=width, pulse_rep_rate=76e6,
                           pulse_divider=1).pulse_period
        duration = n_windows * period
        args = (pump, 1e12, 1 / lifetime, duration, period, width)
        fast = _emission_times_pulsed(np.random.default_rng(seed), *args)
        slow = reference_emission_times_pulsed(np.random.default_rng(seed + 1), *args)
        assert np.all(np.diff(fast) > 0) and fast[-1] < duration
        # sigma of the count difference from the spread of block counts
        blocks = [np.histogram(t, n_blocks, (0.0, duration))[0] for t in (fast, slow)]
        sigma = math.sqrt(n_blocks * sum(b.var(ddof=1) for b in blocks))
        assert abs(len(fast) - len(slow)) < 5 * sigma
        assert stats.ks_2samp(np.diff(fast), np.diff(slow)).pvalue > 1e-3
        assert stats.ks_2samp(fast % period, slow % period).pvalue > 1e-3


class TestApplyDetection:
    def make_stream(self, n=100_000, duration=1.0, seed=0):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.random(n) * duration)
        from zplsim.kmc import PhotonStream
        return PhotonStream(times, np.zeros(n), np.ones(n, dtype=np.int64),
                            np.zeros(n, dtype=np.uint8), duration)

    def test_identity_chain(self):
        photons = self.make_stream(n=1000)
        det = DetectionSpec(dead_time=0.0, resolution=1)
        tags = apply_detection(photons, det, split="single", seed=1)
        expected = np.rint(photons.times / 1e-12).astype(np.int64)
        assert np.array_equal(tags.channels[0], np.unique(expected))

    def test_binomial_survival(self):
        photons = self.make_stream(n=1_000_000)
        det = DetectionSpec(collection_efficiency=0.3, zpl_filter_transmission=0.5,
                            fiber_coupling=0.3, dead_time=0.0)
        tags = apply_detection(photons, det, split="single", seed=2)
        p = 0.045
        sigma = math.sqrt(1_000_000 * p * (1 - p))
        assert abs(len(tags.channels[0]) - 1_000_000 * p) < 3 * sigma

    def test_hbt_split_fair(self):
        photons = self.make_stream(n=200_000)
        det = DetectionSpec(dead_time=0.0)
        tags = apply_detection(photons, det, split="hbt", seed=3)
        n0, n1 = len(tags.channels[0]), len(tags.channels[1])
        total = n0 + n1
        assert abs(n0 - total / 2) < 3 * math.sqrt(total * 0.25)

    def test_dead_time_enforced(self):
        photons = self.make_stream(n=50_000, duration=0.01)
        det = DetectionSpec(dead_time=100e-9, resolution=1)
        tags = apply_detection(photons, det, split="single", seed=4)
        assert np.all(np.diff(tags.channels[0]) >= 100_000)  # 100 ns in ps

    def test_strictly_increasing_tags(self):
        photons = self.make_stream(n=100_000, duration=1e-4)
        det = DetectionSpec(dead_time=0.0, resolution=10)
        tags = apply_detection(photons, det, split="hbt", seed=5)
        for ch in tags.channels.values():
            assert np.all(np.diff(ch) > 0)

    def test_dark_counts(self):
        photons = self.make_stream(n=0, duration=10.0)
        det = DetectionSpec(dark_count_rate=1000.0, dead_time=0.0)
        tags = apply_detection(photons, det, split="single", seed=6)
        assert len(tags.channels[0]) == pytest.approx(10_000, rel=0.05)

    def test_vibronic_branch_blocked_by_default(self):
        photons = self.make_stream(n=1000)
        photons.branches[:] = 1
        tags = apply_detection(photons, DetectionSpec(), split="single", seed=7)
        assert len(tags.channels[0]) == 0

    def test_deterministic(self):
        photons = self.make_stream(n=10_000)
        det = DetectionSpec(timing_jitter_sigma=300e-12, dead_time=20e-9)
        a = apply_detection(photons, det, split="hbt", seed=8)
        b = apply_detection(photons, det, split="hbt", seed=8)
        for ch in a.channels:
            assert np.array_equal(a.channels[ch], b.channels[ch])
