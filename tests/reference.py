"""Reference implementations the production code is checked against."""
import numpy as np

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
