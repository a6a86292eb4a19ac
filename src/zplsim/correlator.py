"""Second-order correlation analysis of time-tag streams.

``correlate`` counts every ordered tag pair within the lag window (full
multi-start correlation, not start-stop) via sorted-merge windowing, in time
O(N + matches) and memory O(N + _PAIR_CHUNK) whatever the lag window;
``brute_force_coincidences`` is the O(N^2) oracle with the identical binning
contract.  The center bin spans [-bin_width/2, +bin_width/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FitConvergenceError, InsufficientDataError

BRUTE_FORCE_LIMIT = 10_000
# pairs binned per block; bounds the per-block temporaries
_PAIR_CHUNK = 1 << 18


@dataclass
class CorrelationHistogram:
    """Coincidence counts vs lag, with the metadata needed to normalize."""

    bin_width: float
    max_lag: float
    bins: np.ndarray
    rate_a: float
    rate_b: float
    duration: float
    normalized: bool = False

    @property
    def lags(self) -> np.ndarray:
        """Bin centers in seconds."""
        half = (len(self.bins) - 1) // 2
        return (np.arange(len(self.bins)) - half) * self.bin_width


def _half_bins(max_lag: float, bin_width: float) -> int:
    # smallest n with (n + 0.5) * bin_width > max_lag, so lag = +/-max_lag bins in range
    n = int(math.floor(max_lag / bin_width + 0.5))
    if (n + 0.5) * bin_width <= max_lag:
        n += 1
    return n


def _check_inputs(a, b, bin_width, max_lag):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    if max_lag < bin_width:
        raise ValueError("max_lag must be >= bin_width")
    if len(a) > 1 and np.any(np.diff(a) < 0):
        raise ValueError("channel a is not sorted ascending")
    if len(b) > 1 and np.any(np.diff(b) < 0):
        raise ValueError("channel b is not sorted ascending")
    return a, b


def _rates(a, b, duration):
    if duration is None:
        if len(a) and len(b):
            duration = max(a[-1], b[-1]) - min(a[0], b[0])
        else:
            duration = 0.0
    rate_a = len(a) / duration if duration > 0 else 0.0
    rate_b = len(b) / duration if duration > 0 else 0.0
    return rate_a, rate_b, float(duration)


def correlate(a, b, bin_width: float, max_lag: float,
              duration: float | None = None) -> CorrelationHistogram:
    """Histogram of lags t_b - t_a over all pairs with |t_b - t_a| <= max_lag.

    Inputs are per-channel detection times in seconds, sorted ascending.
    Runs in O(N + matches) time using searchsorted windows.  Starts are
    walked in blocks of at most ``_PAIR_CHUNK`` pairs (at least one start per
    block), so memory is O(N + _PAIR_CHUNK) however long the lag window is.
    """
    a, b = _check_inputs(a, b, bin_width, max_lag)
    n_half = _half_bins(max_lag, bin_width)
    bins = np.zeros(2 * n_half + 1, dtype=np.int64)

    lo = np.searchsorted(b, a - max_lag, side="left")
    counts = np.searchsorted(b, a + max_lag, side="right") - lo
    ends = np.cumsum(counts)  # pairs of starts 0..i inclusive
    n_pairs = int(ends[-1]) if len(ends) else 0
    offsets = np.arange(min(n_pairs, _PAIR_CHUNK))

    first, done = 0, 0
    while done < n_pairs:
        last = max(int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")), first + 1)
        block_counts = counts[first:last]
        total = int(ends[last - 1]) - done
        off = offsets[:total] if total <= len(offsets) else np.arange(total)
        # flat index into b of every in-window pair: its offset within the
        # block, minus where its start's pairs begin in the block, plus lo
        pair_base = lo[first:last] - (ends[first:last] - block_counts - done)
        flat = off + np.repeat(pair_base, block_counts)
        lags = b[flat]
        lags -= np.repeat(a[first:last], block_counts)
        lags /= bin_width
        lags += 0.5
        np.floor(lags, out=lags)
        idx = lags.astype(np.int64)
        idx += n_half
        bins += np.bincount(idx, minlength=len(bins))
        first, done = last, done + total

    rate_a, rate_b, duration = _rates(a, b, duration)
    return CorrelationHistogram(bin_width, max_lag, bins, rate_a, rate_b, duration)


def brute_force_coincidences(a, b, bin_width: float, max_lag: float,
                             duration: float | None = None) -> CorrelationHistogram:
    """Exhaustive O(N^2) reference with the identical binning contract."""
    a, b = _check_inputs(a, b, bin_width, max_lag)
    if len(a) > BRUTE_FORCE_LIMIT or len(b) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} tags per channel")
    n_half = _half_bins(max_lag, bin_width)
    bins = np.zeros(2 * n_half + 1, dtype=np.int64)
    for ta in a:
        for tb in b:
            lag = tb - ta
            if abs(lag) <= max_lag:
                bins[int(math.floor(lag / bin_width + 0.5)) + n_half] += 1
    rate_a, rate_b, duration = _rates(a, b, duration)
    return CorrelationHistogram(bin_width, max_lag, bins, rate_a, rate_b, duration)


def normalize_g2(h: CorrelationHistogram) -> CorrelationHistogram:
    """Divide counts by rate_a * rate_b * duration * bin_width.

    The far-lag plateau of uncorrelated Poisson streams then averages to 1.
    """
    if h.normalized:
        raise ValueError("histogram is already normalized")
    factor = h.rate_a * h.rate_b * h.duration * h.bin_width
    if factor <= 0:
        if np.any(h.bins):
            raise ValueError("cannot normalize: rates and duration must be set")
        values = h.bins.astype(np.float64)
    else:
        values = h.bins.astype(np.float64) / factor
    return replace(h, bins=values, normalized=True)


@dataclass
class AntibunchingFit:
    """Fit of plateau - (plateau - g2_zero) * exp(-|tau|/decay_time)."""

    g2_zero: float
    decay_time_s: float
    plateau: float
    residual_norm: float
    degenerate: bool = False


def fit_antibunching(h: CorrelationHistogram) -> AntibunchingFit:
    """Least-squares antibunching fit of a normalized g2 histogram.

    A flat curve leaves the decay time unidentifiable; such inputs are
    returned with ``degenerate=True`` rather than raising.
    """
    if not h.normalized:
        raise ValueError("fit_antibunching needs a normalized histogram")
    x = h.lags
    y = np.asarray(h.bins, dtype=np.float64)
    if len(y) < 5:
        raise InsufficientDataError("need at least 5 bins")

    plateau0 = float(np.mean(y[np.abs(x) > 0.75 * x.max()])) if len(y) > 8 else float(np.mean(y))
    g0_0 = float(y[len(y) // 2])
    if np.ptp(y) <= 1e-12 * max(1.0, abs(plateau0)):
        return AntibunchingFit(g2_zero=plateau0, decay_time_s=math.nan,
                               plateau=plateau0, residual_norm=0.0, degenerate=True)
    # initial decay guess: lag at which the dip has half recovered
    depth = plateau0 - g0_0
    rec = np.abs(y - plateau0) < 0.5 * abs(depth)
    tau0 = float(np.min(np.abs(x[rec & (np.abs(x) > 0)]))) if np.any(rec & (np.abs(x) > 0)) \
        else 0.1 * x.max()
    tau0 = max(tau0, h.bin_width)

    def model(tau, g0, tau_d, p):
        return p - (p - g0) * np.exp(-np.abs(tau) / tau_d)

    # scipy is imported here, not at module top, so that commands which never
    # fit do not pay its import time
    from scipy.optimize import curve_fit
    try:
        popt, _ = curve_fit(model, x, y, p0=(g0_0, tau0, plateau0),
                            bounds=([-np.inf, 1e-15, -np.inf], [np.inf, np.inf, np.inf]),
                            maxfev=20_000)
    except RuntimeError as exc:
        raise FitConvergenceError(f"antibunching fit did not converge: {exc}") from exc
    g0, tau_d, plateau = (float(v) for v in popt)
    residual = float(np.linalg.norm(y - model(x, *popt)))
    degenerate = abs(plateau - g0) < 1e-9 * max(1.0, abs(plateau))
    return AntibunchingFit(g2_zero=g0, decay_time_s=tau_d, plateau=plateau,
                           residual_norm=residual, degenerate=degenerate)


def pulsed_peak_ratio(h: CorrelationHistogram, period: float, window: float) -> float:
    """Central-peak area divided by the mean side-peak area of a pulsed histogram.

    Areas are integrated over +/- window/2 around lag 0 and around every
    multiple of the pulse period fully contained in the histogram.
    """
    if h.normalized:
        raise ValueError("pulsed_peak_ratio needs raw counts")
    if not period > window > 0:
        raise ValueError("need period > window > 0")
    lags = h.lags
    k_max = int(math.floor((h.max_lag - window / 2) / period))
    if k_max < 1:
        raise ValueError("max_lag too small: no complete side peak in range")
    central = int(h.bins[np.abs(lags) <= window / 2].sum())
    side = []
    for k in range(1, k_max + 1):
        for sign in (-1, 1):
            mask = np.abs(lags - sign * k * period) <= window / 2
            side.append(int(h.bins[mask].sum()))
    mean_side = float(np.mean(side))
    if mean_side == 0:
        raise ValueError("side peaks are empty; cannot form ratio")
    return central / mean_side
