import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from check import half_bins  # noqa: E402
from correlator_oracle import brute_force_coincidences
from zplsim import analytic_g2, correlate, fit_antibunching, normalize_g2, pulsed_peak_ratio
from zplsim import correlator
from zplsim.correlator import CorrelationHistogram
from zplsim.kmc import TimeTagSet

PS = 1e-12  # seconds per tick of the 1 ps tag sets below


def tags(a, b, duration_ps=0):
    """Channels 0 and 1 as int64 ticks of 1 ps."""
    return TimeTagSet(1, {0: np.asarray(a, dtype=np.int64),
                          1: np.asarray(b, dtype=np.int64)}, duration_ps)


def poisson_ticks(rng, rate, duration):
    n = rng.poisson(rate * duration)
    return np.sort(rng.integers(0, round(duration / PS), n))


def poisson_pair(seed):
    rng = np.random.default_rng(seed)
    return tags(poisson_ticks(rng, 2e5, 0.01), poisson_ticks(rng, 3e5, 0.01))


def integer_grid():
    a = np.arange(0, 100) * 1000
    return tags(a, a + 500)


class TestCorrelate:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, seed):
        t = poisson_pair(seed)
        bw, lag = 250e-12, 100e-9
        fast = correlate(t, bw, lag)
        slow = brute_force_coincidences(t, bw, lag)
        assert np.array_equal(fast.bins, slow.bins)
        assert np.array_equal(fast.lags, slow.lags)

    def test_matches_brute_force_integer_grid(self):
        # lags landing exactly on bin edges must bin identically in both paths
        fast = correlate(integer_grid(), 1e-9, 10e-9)
        slow = brute_force_coincidences(integer_grid(), 1e-9, 10e-9)
        assert np.array_equal(fast.bins, slow.bins)

    def test_center_bin_half_open(self):
        # lag exactly +bw/2 belongs to bin 1, lag exactly -bw/2 to bin 0
        h = correlate(tags([0], [1]), 2 * PS, 6 * PS)
        assert h.bins[len(h.bins) // 2 + 1] == 1
        h = correlate(tags([1], [0]), 2 * PS, 6 * PS)
        assert h.bins[len(h.bins) // 2] == 1

    def test_mass_conservation(self):
        rng = np.random.default_rng(9)
        a = poisson_ticks(rng, 1e5, 0.01)
        b = poisson_ticks(rng, 1e5, 0.01)
        bw, lag = 1e-9, 50e-9
        h = correlate(tags(a, b), bw, lag)
        # every pair with |lag| <= max_lag is counted exactly once
        n_pairs = sum(int(np.count_nonzero(np.abs(b - ta) <= 50_000)) for ta in a)
        assert int(h.bins.sum()) == n_pairs

    def test_self_correlation_center_bin(self):
        a = np.sort(np.random.default_rng(3).integers(0, 10**12, 500))
        h = correlate(tags(a, a), 1e-6, 1e-5)
        assert h.bins[len(h.bins) // 2] >= len(a)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(5)
        a = poisson_ticks(rng, 1e5, 0.005)
        b = poisson_ticks(rng, 1e5, 0.005)
        ab = correlate(tags(a, b), 1e-9, 20e-9)
        ba = correlate(tags(b, a), 1e-9, 20e-9)
        # swapping channels mirrors the histogram up to the half-open center
        interior = slice(1, -1)
        assert np.array_equal(ab.bins[interior], ba.bins[::-1][interior])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            correlate(tags([2, 1], [0]), PS, 2 * PS)

    def test_bad_bins_rejected(self):
        t = tags([0, 1], [0, 1])
        with pytest.raises(ValueError):
            correlate(t, 0.0, PS)
        with pytest.raises(ValueError):
            correlate(t, 2 * PS, PS)

    @pytest.mark.parametrize("bw, lag", [(0.5 * PS, 10 * PS), (2 * PS, 10.5 * PS),
                                         (1e-9, 1e300), (1e-9, 5e6)])
    def test_window_not_whole_int64_ticks_rejected(self, bw, lag):
        with pytest.raises(ValueError, match="1 ps"):
            correlate(tags([0], [1]), bw, lag)

    def test_too_many_bins_rejected(self):
        # 1 ns bins over 3e6 s: whole ticks within int64, but 6e15 bins
        with pytest.raises(ValueError, match=f"more than {correlator.MAX_BINS}"):
            correlate(tags([0], [1]), 1e-9, 3e6)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_brute_force_agreement_property(self, seed):
        rng = np.random.default_rng(seed)
        a = np.sort(rng.integers(0, 10**7, rng.integers(0, 200)))
        b = np.sort(rng.integers(0, 10**7, rng.integers(0, 200)))
        fast = correlate(tags(a, b), 10e-9, 200e-9)
        slow = brute_force_coincidences(tags(a, b), 10e-9, 200e-9)
        assert np.array_equal(fast.bins, slow.bins)

    @given(w=st.integers(1, 40), extra=st.integers(0, 200), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_ties_and_window_edges(self, w, extra, data):
        # lags of exactly +/-w/2 (+/-(k + 1/2) w in general), +/-max_lag and
        # +/-(max_lag + 1) ticks bin by the integer rule, bin for bin
        m = w + extra
        edges = [s * ((2 * k + 1) * w // 2) for k in range(m // w + 1) for s in (-1, 1)]
        special = edges + [m, -m, m + 1, -m - 1, 0]
        lags = data.draw(st.lists(st.one_of(st.sampled_from(special),
                                            st.integers(-m - 2, m + 2)),
                                  min_size=1, max_size=30))
        starts = data.draw(st.lists(st.integers(0, 4 * m), min_size=len(lags),
                                    max_size=len(lags)))
        a = np.sort(np.array(starts) + m + 2)
        b = np.sort(np.concatenate([a + np.array(lags), a[:3]]))
        fast = correlate(tags(a, b), w * PS, m * PS)
        slow = brute_force_coincidences(tags(a, b), w * PS, m * PS)
        assert len(fast.bins) == 2 * half_bins(m, w) + 1
        assert np.array_equal(fast.bins, slow.bins)
        pairs = (b[None, :] - a[:, None]).ravel()
        pairs = pairs[np.abs(pairs) <= m]
        assert int(fast.bins.sum()) == len(pairs)


def block_cases():
    for seed in range(5):
        yield f"poisson-{seed}", (poisson_pair(seed), 250e-12, 100e-9)
    yield "integer-grid", (integer_grid(), 1e-9, 10e-9)
    # a 1 ms window over 2 ms of tags: every start holds ~100 pairs
    rng = np.random.default_rng(17)
    yield "long-window", (tags(poisson_ticks(rng, 1e5, 2e-3), poisson_ticks(rng, 1e5, 2e-3)),
                          100e-9, 1e-3)
    yield "empty-channel", (tags(poisson_ticks(rng, 1e5, 2e-3), []), 1e-9, 10e-9)


class TestPairBlocks:
    """Blocks of 1, 3 and 7 pairs put block boundaries inside every input."""

    @pytest.mark.parametrize("case", [pytest.param(c, id=name) for name, c in block_cases()])
    def test_block_boundaries_match_brute_force(self, case, monkeypatch):
        t, bw, lag = case
        slow = brute_force_coincidences(t, bw, lag)
        for pair_chunk in (1, 3, 7):
            monkeypatch.setattr(correlator, "_PAIR_CHUNK", pair_chunk)
            fast = correlate(t, bw, lag)
            assert np.array_equal(fast.bins, slow.bins), f"_PAIR_CHUNK={pair_chunk}"

    def test_memory_bounded_by_pair_block(self):
        # ~8 M pairs (~250 MB as int64 lags), so the bound fails if memory grows with pairs
        rng = np.random.default_rng(29)
        t = tags(poisson_ticks(rng, 2e6, 0.1), poisson_ticks(rng, 2e6, 0.1))
        tracemalloc.start()
        try:
            h = correlate(t, 10e-9, 10e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(h.bins.sum()) > 7_000_000
        assert peak < 32 * 2**20


class TestNormalize:
    def test_poisson_plateau_is_one(self):
        rng = np.random.default_rng(11)
        duration = 1.0
        a = poisson_ticks(rng, 2e5, duration)
        b = poisson_ticks(rng, 2e5, duration)
        g2 = normalize_g2(correlate(tags(a, b, round(duration / PS)), 10e-9, 500e-9))
        assert float(np.mean(g2)) == pytest.approx(1.0, abs=0.02)


def synth_histogram(g0, tau_d, bw=250e-12, max_lag=100e-9, plateau=1.0):
    """Counts g2 * bw: rates and duration of 1, so the histogram's scale is bw."""
    n_half = int(np.floor(max_lag / bw + 0.5))
    lags = (np.arange(2 * n_half + 1) - n_half) * bw
    y = plateau - (plateau - g0) * np.exp(-np.abs(lags) / tau_d)
    return CorrelationHistogram(bw, max_lag, y * bw, 1.0, 1.0, 1.0)


class TestFitAntibunching:
    @pytest.mark.parametrize("tau_d", [1e-9, 8.1e-9, 9.4e-9, 50e-9])
    @pytest.mark.parametrize("g0", [0.0, 0.34, 0.44])
    def test_noiseless_recovery(self, tau_d, g0):
        fit = fit_antibunching(synth_histogram(g0, tau_d))
        assert fit.g2_zero == pytest.approx(g0, abs=1e-6)
        assert fit.decay_time_s == pytest.approx(tau_d, rel=1e-6)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(21)
        h = synth_histogram(0.34, 8.1e-9)
        h.bins = h.bins + rng.normal(0, 0.01, len(h.bins)) * h.scale
        fit = fit_antibunching(h)
        assert fit.g2_zero == pytest.approx(0.34, abs=0.02)
        assert fit.decay_time_s == pytest.approx(8.1e-9, rel=0.05)

    def test_flat_input_degenerate(self):
        h = synth_histogram(1.0, 8.1e-9)  # g0 == plateau -> flat line
        fit = fit_antibunching(h)
        assert fit.underdetermined
        assert fit.g2_zero == pytest.approx(1.0)
        assert np.isfinite(fit.decay_time_s)

    def test_no_pairs_gives_infinite_errors(self):
        # zero counts carry no information: a singular Fisher matrix, no exception
        fit = fit_antibunching(correlate(tags([], []), 1e-9, 10e-9))
        assert fit.underdetermined and fit.pairs == 0
        assert fit.g2_zero_error == np.inf and fit.decay_time_error_s == np.inf
        assert np.isfinite(fit.g2_zero) and np.isfinite(fit.decay_time_s)

    def test_poisson_counts_within_fisher_errors(self):
        # 2000 expected counts per far-lag bin: the decay time is determined
        h = synth_histogram(0.2, 8.1e-9)
        g2 = normalize_g2(h)
        h.duration = 2000.0 / h.bin_width  # rates 1 Hz, so scale = duration * bin_width
        h.bins = np.random.default_rng(4).poisson(g2 * h.scale)
        fit = fit_antibunching(h)
        assert not fit.underdetermined
        assert fit.pairs == h.bins.sum()
        assert abs(fit.g2_zero - 0.2) <= 5 * fit.g2_zero_error
        assert abs(fit.decay_time_s - 8.1e-9) <= 5 * fit.decay_time_error_s
        assert fit.deviance_per_dof == pytest.approx(1.0, abs=0.25)

    def test_matches_rate_equation_curve(self):
        pump = 1 / 8.1e-9 - 1 / 9.4e-9
        gamma = 1 / 9.4e-9
        bw, max_lag = 250e-12, 100e-9
        n_half = int(np.floor(max_lag / bw + 0.5))
        lags = (np.arange(2 * n_half + 1) - n_half) * bw
        h = CorrelationHistogram(bw, max_lag, analytic_g2(pump, gamma, lags) * bw,
                                 1.0, 1.0, 1.0)
        fit = fit_antibunching(h)
        assert fit.decay_time_s == pytest.approx(8.1e-9, rel=1e-6)
        assert fit.g2_zero == pytest.approx(0.0, abs=1e-6)


class TestPulsedPeakRatio:
    def make_pulsed(self, central_area, side_area, period=263.16e-9,
                    bw=1e-9, max_lag=1.2e-6):
        n_half = int(np.floor(max_lag / bw + 0.5))
        lags = (np.arange(2 * n_half + 1) - n_half) * bw
        bins = np.zeros_like(lags)
        for k in range(-4, 5):
            center = k * period
            mask = np.abs(lags - center) <= 5e-9
            bins[mask] = (central_area if k == 0 else side_area) / np.count_nonzero(mask)
        return CorrelationHistogram(bw, max_lag, bins, 1.0, 1.0, 1.0)

    def test_ratio(self):
        h = self.make_pulsed(central_area=440.0, side_area=1000.0)
        ratio = pulsed_peak_ratio(h, 263.16e-9, 100e-9)
        assert ratio == pytest.approx(0.44, rel=1e-6)

    def test_clean_source_zero(self):
        h = self.make_pulsed(central_area=0.0, side_area=1000.0)
        assert pulsed_peak_ratio(h, 263.16e-9, 100e-9) == 0.0

    def test_rejects_short_range(self):
        h = self.make_pulsed(1.0, 1.0)
        with pytest.raises(ValueError):
            pulsed_peak_ratio(h, 2e-6, 100e-9)  # no side peak fits in range
