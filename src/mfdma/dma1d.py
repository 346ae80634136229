"""One-dimensional multifractal detrending moving average core.

The pipeline per scale n is: cumulative profile -> moving average inside a
window positioned by theta -> residuals -> per-segment RMS -> q-order
power means.  A least-squares polynomial variant (MFDFA) is included as
the baseline estimator.  The moving-average window size and the
partitioning segment size are the same n by construction; decoupling them
destroys the power-law scaling of F_q(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSegmentError, ValidationError
from .generators import Series, Surface
from .spectrum import FluctuationTable, as_q_grid, as_scale_grid

__all__ = [
    "DetrendConfig",
    "SegmentFluctuations",
    "profile",
    "moving_average",
    "residual_series",
    "segment_rms",
    "overall_fluctuation",
    "mfdma_fluctuations_1d",
    "mfdfa_fluctuations_1d",
]


@dataclass(frozen=True)
class DetrendConfig:
    """Window size n and position parameter theta.

    theta is the fraction of the averaging window taken from the future:
    0 backward, 0.5 centered, 1 forward.
    """

    n: int
    theta: float = 0.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValidationError(f"window size must be an integer >= 2, got {self.n}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta must lie in [0, 1], got {self.theta}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def future_points(self) -> int:
        """Number of future samples in the window, floor((n - 1) * theta)."""
        return math.floor((self.n - 1) * self.theta)


@dataclass(frozen=True)
class SegmentFluctuations:
    """Per-segment RMS values F_v(n) at one scale."""

    values: np.ndarray
    scale: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("segment fluctuations must be a non-empty 1-d array")
        if np.any(v < 0):
            raise ValidationError("segment RMS values cannot be negative")
        object.__setattr__(self, "values", v)


def _compensated_cumsum(x: np.ndarray, block: int = 1024) -> np.ndarray:
    """Cumulative sum with a Neumaier-compensated carry across blocks.

    Within each block plain cumsum is used, so the uncompensated run length
    is bounded by ``block`` regardless of the input size.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    carry = 0.0
    lost = 0.0
    for start in range(0, x.size, block):
        seg = np.cumsum(x[start:start + block])
        out[start:start + block] = seg + (carry + lost)
        total = seg[-1]
        new_carry = carry + total
        if abs(carry) >= abs(total):
            lost += (carry - new_carry) + total
        else:
            lost += (total - new_carry) + carry
        carry = new_carry
    return out


def _as_values(data, ndim: int, min_side: int = 4) -> np.ndarray:
    """The values of ``data`` as a Series (ndim 1) or a Surface (ndim 2), each side >= min_side."""
    kind = (Series, Surface)[ndim - 1]
    values = (data if isinstance(data, kind) else kind(data)).values
    if min(values.shape) < min_side:
        raise ValidationError(
            f"{kind.__name__.lower()} of shape {values.shape} is too small, "
            f"analysis needs at least {min_side} points along every axis"
        )
    return values


def profile(series) -> np.ndarray:
    """Sequence of cumulative sums y(t) of the input series.

    Accumulation is block-compensated so that profiles of long series with
    values spanning many orders of magnitude stay accurate.
    """
    return _compensated_cumsum(_as_values(series, 1, min_side=1))


def moving_average(profile_values: np.ndarray, cfg: DetrendConfig) -> np.ndarray:
    """Moving average of the profile inside the theta-positioned window.

    The window at position t covers ceil((n-1)*(1-theta)) samples behind
    t, t itself, and cfg.future_points ahead, always n points in total.
    The returned array holds the average for each t in the defined domain
    [n - floor((n-1)*theta), N - floor((n-1)*theta)] (1-based), which has
    length N - n + 1 for every theta.  O(N) per scale: each window is a
    suffix of one length-n block plus a prefix of the next, both read off
    block-local cumulative sums, so no rounded sum spans more than n
    points; per-segment F_v match the sliding n-point mean to rtol 1e-9.
    """
    y = np.asarray(profile_values, dtype=float)
    n = cfg.n
    if n > y.size:
        raise ValidationError(f"window size {n} exceeds series length {y.size}")
    blocks = np.pad(y, (0, n - y.size % n)).reshape(-1, n)
    sums = np.cumsum(np.pad(blocks, ((0, 0), (1, 0))), axis=1)  # column 0: empty prefix
    windows = (sums[:-1, -1:] - sums[:-1, :-1]) + sums[1:, :-1]
    return windows.reshape(-1)[: y.size - n + 1] / n


def residual_series(profile_values: np.ndarray, cfg: DetrendConfig) -> np.ndarray:
    """Residuals y(i) - ytilde(i) over the defined domain, length N - n + 1."""
    y = np.asarray(profile_values, dtype=float)
    n = cfg.n
    means = moving_average(y, cfg)
    future = cfg.future_points
    # domain of i is [n - future, N - future] (1-based)
    return y[n - future - 1: y.size - future] - means


def _blocks(x: np.ndarray, n: int) -> np.ndarray:
    """The whole side-n blocks of ``x`` as axes (c1, n, c2, n, ...); each remainder is dropped."""
    counts = [side // n for side in x.shape]
    return x[tuple(slice(c * n) for c in counts)].reshape([d for c in counts for d in (c, n)])


def segment_rms(residuals: np.ndarray, n: int) -> SegmentFluctuations:
    """RMS over disjoint blocks of side n of a residual series or matrix.

    Each axis is cut into ``side // n`` whole blocks and the remainder is
    dropped; a matrix's blocks are listed in row-major order.
    """
    eps = np.asarray(residuals, dtype=float)
    n = int(n)
    if n < 1 or n > min(eps.shape, default=0):
        raise ValidationError(f"block side {n} invalid for residual shape {eps.shape}")
    blocks = _blocks(eps, n)
    rms = np.sqrt(np.mean(blocks**2, axis=tuple(range(1, blocks.ndim, 2))))
    return SegmentFluctuations(rms.ravel(), scale=n)


def _power_mean(values: np.ndarray, qs, scale) -> np.ndarray:
    """q-order power means of positive values over a q grid; geometric at q = 0.

    Zero values make every moment q <= 0 undefined; the error names the
    scale and the smallest such q.  The logarithms are taken once, and each
    q is a log-sum-exp over them, one q at a time so that no
    (q x segments) array is ever held.
    """
    qs = np.asarray(qs, dtype=float)
    q_low = float(qs.min())
    if q_low <= 0 and np.any(values == 0.0):
        raise DegenerateSegmentError(
            f"segment with zero RMS at scale n={scale} makes q={q_low:g} moments undefined",
            scale=scale,
            q=q_low,
        )
    if not np.any(values):  # all zero, so every q is positive here
        return np.zeros(qs.size)
    with np.errstate(divide="ignore"):  # zeros allowed for q > 0
        log_values = np.log(values)
    out = np.empty(qs.size)
    for j, q in enumerate(qs.tolist()):
        if q == 0:
            out[j] = np.exp(np.mean(log_values))
        else:
            logs = q * log_values
            peak = logs.max()
            out[j] = np.exp((peak + np.log(np.mean(np.exp(logs - peak)))) / q)
    return out


def overall_fluctuation(segments: SegmentFluctuations, q: float) -> float:
    """q-th order overall fluctuation of the per-segment RMS values.

    For q != 0 this is the q power mean of F_v; for q = 0 the geometric
    mean.  Zero-valued segments make moments with q <= 0 undefined, which
    raises DegenerateSegmentError naming the offending scale.
    """
    return float(_power_mean(segments.values, [q], segments.scale)[0])


def _validate_scales(scales, shape):
    """The scale grid, whose largest scale may be at most min(shape) // 4."""
    grid = as_scale_grid(scales)
    cap = min(shape) // 4
    if grid.values[-1] > cap:
        raise ValidationError(
            f"largest scale {grid.values[-1]} exceeds the N/4 cap of {cap} "
            f"for data shape {shape}"
        )
    return grid


def _fluctuation_table(grid, qs, segment_rms_at) -> FluctuationTable:
    """F_q(n) at every scale of ``grid``: the scale loop all estimators share.

    ``segment_rms_at(n)`` returns the per-segment RMS values F_v(n) of one
    estimator at scale n; each row of the table is their power means.
    """
    qgrid = as_q_grid(qs)
    table = np.empty((len(grid), len(qgrid)))
    for i, n in enumerate(grid.values.tolist()):
        table[i] = _power_mean(segment_rms_at(n), qgrid.values, n)
    return FluctuationTable(grid, qgrid, table)


def mfdma_fluctuations_1d(series, scales, qs, theta: float = 0.0) -> FluctuationTable:
    """Fluctuation functions F_q(n) of a series by moving-average detrending.

    Args:
        series: Series (or 1-d array) with at least 4 points.
        scales: ScaleGrid or increasing integers, capped at N/4 so every
            scale averages over at least 3 segments.
        qs: QGrid or increasing moment orders; 0 selects the geometric mean.
        theta: moving-average position parameter in [0, 1].

    Returns:
        FluctuationTable with one row per scale and one column per q.

    Raises:
        DegenerateSegmentError: a zero-RMS segment met a moment q <= 0;
            the error names the scale and q.
    """
    values = _as_values(series, 1)
    grid = _validate_scales(scales, values.shape)
    y = _compensated_cumsum(values)
    return _fluctuation_table(
        grid, qs, lambda n: segment_rms(residual_series(y, DetrendConfig(n, theta)), n).values
    )


def _polynomial_residuals(segments: np.ndarray, order: int) -> np.ndarray:
    """Residuals of per-segment least-squares polynomial fits.

    segments has shape (count, n).  order == 1 uses the explicit centered
    normal equations, which detrend exactly-linear data to exact zeros.
    """
    count, n = segments.shape
    u = np.arange(n, dtype=float)
    if order == 1:
        uc = u - u.mean()
        denom = float(np.dot(uc, uc))
        slope = segments @ uc / denom
        return segments - segments.mean(axis=1)[:, None] - slope[:, None] * uc
    vander = np.vander(u / (n - 1), order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(vander, segments.T, rcond=None)
    return segments - (vander @ coef).T


def mfdfa_fluctuations_1d(series, scales, qs, order: int = 1) -> FluctuationTable:
    """Baseline fluctuation functions by per-segment polynomial detrending.

    The profile is cut into floor(N/n) disjoint segments; a degree-``order``
    polynomial fit is removed from each, and the residual RMS values are
    aggregated exactly as in :func:`mfdma_fluctuations_1d`.
    """
    if order < 1:
        raise ValidationError(f"detrending order must be at least 1, got {order}")
    values = _as_values(series, 1)
    grid = _validate_scales(scales, values.shape)
    if grid.values[0] < order + 2:
        raise ValidationError(
            f"smallest scale {grid.values[0]} must be at least order + 2 = {order + 2}"
        )
    y = _compensated_cumsum(values)

    def rms_at(n):
        resid = _polynomial_residuals(_blocks(y, n), order)
        return np.sqrt(np.mean(resid**2, axis=1))

    return _fluctuation_table(grid, qs, rms_at)
