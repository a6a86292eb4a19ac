"""Second-order correlation analysis of time-tag streams.

``correlate`` counts every ordered tag pair within the lag window (full
multi-start correlation, not start-stop) via sorted-merge windowing, in time
O(N + matches) and memory O(N + _PAIR_CHUNK) whatever the lag window.  The
center bin spans [-bin_width/2, +bin_width/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError

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
    """Poisson fit of g2(lag) = 1 - (1 - g2_zero) * exp(-|lag|/decay_time).

    Errors are Fisher standard errors.  ``underdetermined`` marks a decay
    time the counts do not fix: its error is at least its value, or it sits
    on a bound (the largest lag in the histogram, or bin_width/64).
    """

    g2_zero: float
    decay_time_s: float
    g2_zero_error: float
    decay_time_error_s: float
    deviance_per_dof: float
    pairs: int
    underdetermined: bool


def fit_antibunching(h: CorrelationHistogram) -> AntibunchingFit:
    """Maximum-likelihood antibunching fit of a normalized g2 histogram.

    The counts, bins * S with S = rate_a * rate_b * duration * bin_width
    (what ``normalize_g2`` divides by), are Poisson with mean
    mu = S * (1 - (1 - g0) * exp(-|lag|/tau)); the plateau is fixed at 1.
    g0 >= 0 and bin_width/64 <= tau <= max |lag| minimize the Poisson
    deviance by Fisher scoring in (g0, log tau) with step halving (Baker &
    Cousins, NIM 221, 437 (1984)).
    A singular Fisher information gives infinite errors.
    """
    if not h.normalized:
        raise ValueError("fit_antibunching needs a normalized histogram")
    if len(h.bins) < 5:
        raise InsufficientDataError("need at least 5 bins")
    scale = h.rate_a * h.rate_b * h.duration * h.bin_width
    x = np.abs(h.lags)
    n = np.asarray(h.bins, dtype=np.float64) * scale
    # below bin_width/64 exp(-|lag|/tau) < 1e-27 at every lag but 0: the
    # model no longer changes, so that is where log(tau) stops
    lower = np.array([0.0, math.log(h.bin_width / 64)])
    upper = np.array([np.inf, math.log(x.max())])

    def evaluate(theta):
        """Deviance, Fisher information and score at (g0, log tau)."""
        e = np.exp(-x / math.exp(theta[1]))
        mu = scale * (1.0 - (1.0 - theta[0]) * e)
        jac = scale * np.column_stack([e, (theta[0] - 1.0) * e * x / math.exp(theta[1])])
        with np.errstate(divide="ignore", invalid="ignore"):
            # a bin with mu = 0 adds nothing without counts, infinity with them
            deviance = 2.0 * np.sum(np.where(n > 0, n * np.log(n / mu), 0.0) - n + mu)
        w = np.divide(1.0, mu, out=np.zeros_like(mu), where=mu > 0)
        return float(deviance), (jac.T * w) @ jac, jac.T @ ((n - mu) * w)

    theta = np.array([0.5, 0.5 * (math.log(h.bin_width) + upper[1])])
    deviance, info, score = evaluate(theta)
    for _ in range(100):
        # a parameter on a bound whose score points outward stays there
        free = ~(((theta <= lower) & (score < 0)) | ((theta >= upper) & (score > 0)))
        step = np.zeros(2)
        try:
            step[free] = np.linalg.solve(info[np.ix_(free, free)], score[free])
        except np.linalg.LinAlgError:
            break
        for _ in range(40):  # step halving
            trial = np.clip(theta + step, lower, upper)
            trial_fit = evaluate(trial)
            if trial_fit[0] <= deviance:
                break
            step /= 2.0
        else:
            break
        moved = np.abs(trial - theta).max()
        theta, (deviance, info, score) = trial, trial_fit
        if moved < 1e-10:
            break

    tau = math.exp(theta[1])
    try:
        variances = np.diag(np.linalg.inv(info))
    except np.linalg.LinAlgError:  # singular: the counts do not fix (g0, tau)
        variances = np.full(2, np.inf)
    g0_error, tau_error = np.sqrt(np.where(variances >= 0, variances, np.inf)) * [1.0, tau]
    return AntibunchingFit(float(theta[0]), tau, float(g0_error), float(tau_error),
                           deviance / (len(n) - 2), int(round(n.sum())),
                           bool(tau_error >= tau or not lower[1] < theta[1] < upper[1]))


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
