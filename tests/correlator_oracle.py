"""Exhaustive reference for ``zplsim.correlator.correlate``.

Every (a, b) pair is formed, without ``searchsorted`` windows, and binned
with the same float expression as ``correlate``, floor(lag / bin_width + 0.5),
so the two must agree bin for bin.  Starts are taken 256 at a time.
"""

import numpy as np

from zplsim.correlator import CorrelationHistogram, _check_inputs, _half_bins, _rates

BRUTE_FORCE_LIMIT = 10_000
_STARTS = 256


def brute_force_coincidences(a, b, bin_width: float, max_lag: float,
                             duration: float | None = None) -> CorrelationHistogram:
    """O(N^2) histogram of t_b - t_a over all pairs with |t_b - t_a| <= max_lag."""
    a, b = _check_inputs(a, b, bin_width, max_lag)
    if len(a) > BRUTE_FORCE_LIMIT or len(b) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} tags per channel")
    n_half = _half_bins(max_lag, bin_width)
    bins = np.zeros(2 * n_half + 1, dtype=np.int64)
    for first in range(0, len(a), _STARTS):
        lags = b[None, :] - a[first:first + _STARTS, None]
        lags = lags[np.abs(lags) <= max_lag]
        idx = np.floor(lags / bin_width + 0.5).astype(np.int64) + n_half
        bins += np.bincount(idx, minlength=len(bins))
    rate_a, rate_b, duration = _rates(a, b, duration)
    return CorrelationHistogram(bin_width, max_lag, bins, rate_a, rate_b, duration)
