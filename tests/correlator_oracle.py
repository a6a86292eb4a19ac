"""Exhaustive reference for ``zplsim.correlator.correlate``.

Every (channel 0, channel 1) pair is formed, without ``searchsorted``
windows, and binned by the integer rule in whole ticks: bin k holds lag l
when (2l + w) // (2w) == k and |l| <= m, so the two must agree bin for bin.
Starts are taken 256 at a time.
"""

import numpy as np

from zplsim.correlator import CorrelationHistogram, _histogram, _tick_window

BRUTE_FORCE_LIMIT = 10_000
_STARTS = 256


def brute_force_coincidences(tags, bin_width: float, max_lag: float) -> CorrelationHistogram:
    """O(N^2) histogram of t1 - t0 over all pairs with |t1 - t0| <= max_lag."""
    a, b, w, m, _ = _tick_window(tags, bin_width, max_lag)
    if len(a) > BRUTE_FORCE_LIMIT or len(b) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} tags per channel")
    n_half = (2 * m + w) // (2 * w)  # the bin of lag +m
    bins = np.zeros(2 * n_half + 1, dtype=np.int64)
    for first in range(0, len(a), _STARTS):
        lags = b[None, :] - a[first:first + _STARTS, None]
        lags = lags[np.abs(lags) <= m]
        bins += np.bincount((2 * lags + w) // (2 * w) + n_half, minlength=len(bins))
    return _histogram(tags, bin_width, max_lag, bins)
