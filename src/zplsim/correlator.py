"""Second-order correlation analysis of time-tag streams.

``correlate`` counts every ordered (channel 0, channel 1) tag pair within the
lag window (full multi-start correlation, not start-stop) by sorted-merge
windowing, in time O(N + matches) and memory O(N + _PAIR_CHUNK).  In whole
ticks, bin k of width w holds every lag l with ``(2l + w) // (2w) == k`` and
``|l| <= max_lag``: the center bin spans [-w/2, +w/2) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, PhysicsError
from .fitting import fisher_scoring
from .kmc import TimeTagSet

# pairs binned per block; bounds the per-block temporaries
_PAIR_CHUNK = 1 << 18

#: most bins a histogram may hold (128 MiB of int64 counts)
MAX_BINS = 2**24


@dataclass
class CorrelationHistogram:
    """Coincidence counts vs lag, with the metadata needed to normalize (in seconds)."""

    bin_width: float
    max_lag: float
    bins: np.ndarray
    rate_a: float
    rate_b: float
    duration: float

    @property
    def lags(self) -> np.ndarray:
        """Bin centers in seconds."""
        half = (len(self.bins) - 1) // 2
        return (np.arange(len(self.bins)) - half) * self.bin_width

    @property
    def scale(self) -> float:
        """Counts per bin of uncorrelated streams: rate_a * rate_b * duration * bin_width."""
        return self.rate_a * self.rate_b * self.duration * self.bin_width


def _tick_window(tags: TimeTagSet, bin_width: float, max_lag: float):
    """Channels 0 and 1, the bin width and lag window in whole ticks, and the
    index of the bin that holds lag +max_lag."""
    if not {0, 1} <= tags.channels.keys():
        raise PhysicsError("correlation needs detection channels 0 and 1 (HBT data); "
                           f"the tag set has channels {sorted(tags.channels)}")
    res = tags.resolution_ps
    w, m = bin_width * 1e12 / res, max_lag * 1e12 / res
    # lags are binned as 2 lag + w, so 2 max_lag + w must fit int64
    if not (0 < w <= m and 2 * m + w < 2**63):
        raise ValueError(f"bin_width {bin_width!r} s, max_lag {max_lag!r} s: need "
                         f"0 < bin_width <= max_lag and 2 max_lag + bin_width below "
                         f"2**63 ticks of {res} ps")
    for name, ticks in (("bin_width", w), ("max_lag", m)):
        if abs(ticks - round(ticks)) > 1e-9 * ticks:
            raise ValueError(f"{name} is {ticks:.10g} ticks of {res} ps, not a whole number")
    w, m = round(w), round(m)
    n_half = (2 * m + w) // (2 * w)  # fewest n with (n + 1/2) w > m
    if 2 * n_half + 1 > MAX_BINS:
        raise ValueError(f"bin_width {bin_width!r} s and max_lag {max_lag!r} s make "
                         f"{2 * n_half + 1} bins, more than {MAX_BINS}")
    a, b = (np.asarray(tags.channels[c], dtype=np.int64) for c in (0, 1))
    for c, t in enumerate((a, b)):
        if len(t) > 1 and np.any(np.diff(t) < 0):
            raise ValueError(f"channel {c} is not sorted ascending")
    return a, b, w, m, n_half


def _histogram(tags: TimeTagSet, bin_width: float, max_lag: float,
               bins: np.ndarray) -> CorrelationHistogram:
    """``bins`` with the channel 0 and 1 rates over the tag set's duration."""
    duration = tags.duration_ps * 1e-12
    rates = [len(tags.channels[c]) / duration if duration > 0 else 0.0 for c in (0, 1)]
    return CorrelationHistogram(bin_width, max_lag, bins, *rates, duration)


def correlate(tags: TimeTagSet, bin_width: float, max_lag: float) -> CorrelationHistogram:
    """Histogram of lags t1 - t0 over all channel 0/1 pairs with |lag| <= max_lag.

    ``bin_width`` and ``max_lag`` are in seconds and must be whole ticks of
    the tag resolution.  Runs in O(N + matches) time using searchsorted
    windows.  Starts are walked in blocks of at most ``_PAIR_CHUNK`` pairs
    (at least one start per block), so memory is O(N + _PAIR_CHUNK) however
    long the lag window is.
    """
    a, b, w, m, n_half = _tick_window(tags, bin_width, max_lag)
    bins = np.zeros(2 * n_half + 1, dtype=np.int64)

    lo = np.searchsorted(b, a - m, side="left")
    # a + m saturated at int64's maximum, which no tick exceeds
    counts = np.searchsorted(b, np.minimum(a, 2**63 - 1 - m) + m, side="right") - lo
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
        idx = b[flat]
        idx -= np.repeat(a[first:last], block_counts)
        # (2 lag + w) // 2w is the bin, n_half the center's index
        idx *= 2
        idx += w
        idx //= 2 * w
        idx += n_half
        bins += np.bincount(idx, minlength=len(bins))
        first, done = last, done + total

    return _histogram(tags, bin_width, max_lag, bins)


def normalize_g2(h: CorrelationHistogram) -> np.ndarray:
    """g2 per bin: the counts divided by ``h.scale``.

    The far-lag plateau of uncorrelated Poisson streams then averages to 1.
    """
    values = h.bins.astype(np.float64)
    if h.scale > 0:
        return values / h.scale
    if np.any(h.bins):
        raise ValueError("cannot normalize: rates and duration must be set")
    return values


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
    """Maximum-likelihood antibunching fit of a coincidence-count histogram.

    The counts are Poisson with mean mu = S * (1 - (1 - g0) * exp(-|lag|/tau)),
    S = ``h.scale``; the plateau is fixed at 1.  g0 >= 0 and
    bin_width/64 <= tau <= max |lag| minimize the Poisson deviance by
    ``fisher_scoring`` in (g0, log tau).
    A singular Fisher information gives infinite errors.
    """
    if len(h.bins) < 5:
        raise InsufficientDataError("need at least 5 bins")
    scale = h.scale
    x = np.abs(h.lags)
    n = np.asarray(h.bins, dtype=np.float64)
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

    start = [0.5, 0.5 * (math.log(h.bin_width) + upper[1])]
    theta, (deviance, info, _), _ = fisher_scoring(evaluate, start, lower, upper)

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
