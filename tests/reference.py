"""Reference implementations the production code is checked against."""
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mfdma import DegenerateSegmentError


def scalar_power_mean(values: np.ndarray, q: float, scale) -> float:
    """q-order power mean of positive values at one q; geometric mean at q = 0.

    The per-q definition that ``dma1d._power_mean`` must match bit for bit
    at every q of a grid.
    """
    if q <= 0 and np.any(values == 0.0):
        raise DegenerateSegmentError(
            f"segment with zero RMS at scale n={scale} makes q={q:g} moments undefined",
            scale=scale,
            q=q,
        )
    if q == 0:
        return float(np.exp(np.mean(np.log(values))))
    with np.errstate(divide="ignore"):  # zeros allowed for q > 0
        logs = q * np.log(values)
    peak = logs.max()
    if peak == -np.inf:
        return 0.0
    return float(np.exp((peak + np.log(np.mean(np.exp(logs - peak)))) / q))


def window_mean(profile_values: np.ndarray, n: int) -> np.ndarray:
    """Mean of every length-n window of the profile, one window at a time.

    The O(N * n) sliding mean that ``dma1d.moving_average`` replaced; its
    per-segment F_v must agree with this one to a fixed tolerance.
    """
    return sliding_window_view(np.asarray(profile_values, dtype=float), n).mean(axis=-1)


def exact_window_mean(profile_values: np.ndarray, n: int) -> np.ndarray:
    """Mean of every length-n window, each sum exactly rounded by ``math.fsum``."""
    y = np.asarray(profile_values, dtype=float).tolist()
    return np.array([math.fsum(y[i:i + n]) / n for i in range(len(y) - n + 1)])
