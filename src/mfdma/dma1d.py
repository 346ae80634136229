"""One-dimensional multifractal detrending moving average core.

The pipeline per scale n is: cumulative profile -> moving average inside a
window positioned by theta -> residuals -> per-segment RMS -> q-order
power means.  A least-squares line variant (first-order MFDFA) is the
baseline estimator.  The moving-average window size and the
partitioning segment size are the same n by construction; decoupling them
destroys the power-law scaling of F_q(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSegmentError, ValidationError
from .generators import Series, Surface
from .spectrum import FluctuationTable, QGrid, ScaleGrid, _array, _real, _whole

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
        object.__setattr__(self, "n", _whole("window size", self.n, 2))
        _real("theta", self.theta, 0, 1)

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
        label = f"segment fluctuations at scale n={self.scale}"
        v = _array(label, self.values, 1)
        if np.any(v < 0):
            raise ValidationError(f"{label} cannot be negative")
        object.__setattr__(self, "values", v)


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Cumulative sum with a Neumaier-compensated carry across blocks.

    Within each block plain cumsum is used, so the uncompensated run length
    is bounded by ``block`` regardless of the input size.
    """
    block = 1024
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
        raise ValidationError(f"{kind.__name__.lower()} of shape {values.shape} is too small, "
                              f"analysis needs at least {min_side} points along every axis")
    return values


def profile(series) -> np.ndarray:
    """Sequence of cumulative sums y(t) of the input series.

    Accumulation is block-compensated so that profiles of long series with
    values spanning many orders of magnitude stay accurate.
    """
    return _compensated_cumsum(_as_values(series, 1, min_side=1))


def _take(buffer, *shapes):
    """Fresh arrays of ``shapes``, or C-contiguous views carved in order from the flat ``buffer``."""
    ends = np.cumsum([0, *map(math.prod, shapes)])
    views = [np.empty(shape) if buffer is None else buffer[at:end].reshape(shape)
             for shape, at, end in zip(shapes, ends, ends[1:])]
    return views if len(views) > 1 else views[0]


def moving_average(profile_values: np.ndarray, cfg: DetrendConfig, *, out=None) -> np.ndarray:
    """Moving average of the profile inside the theta-positioned window.

    The window at position t covers ceil((n-1)*(1-theta)) samples behind
    t, t itself, and cfg.future_points ahead, always n points in total.
    The returned array holds the average for each t in the defined domain
    [n - floor((n-1)*theta), N - floor((n-1)*theta)] (1-based), which has
    length N - n + 1 for every theta.  O(N) per scale: each window is a
    suffix of one length-n block plus a prefix of the next, both read off
    block-local cumulative sums, so no rounded sum spans more than n
    points; per-segment F_v match the sliding n-point mean to rtol 1e-9.

    ``out``, if given, is a flat float buffer of at least (N//n + 1) * (n + 1) + N
    values: the block sums at its start, then the averages, which the result views.
    """
    y = np.asarray(profile_values, dtype=float)
    n = cfg.n
    if n > y.size:
        raise ValidationError(f"window size {n} exceeds series length {y.size}")
    count = y.size // n  # whole blocks; the zero-padded partial one follows
    sums, windows = _take(out, (count + 1, n + 1), (count, n))
    sums[:, 0] = sums[-1] = 0.0  # column 0: empty prefix
    sums[:-1, 1:] = y[:count * n].reshape(count, n)
    sums[-1, 1:y.size - count * n + 1] = y[count * n:]
    np.cumsum(sums, axis=1, out=sums)
    np.subtract(sums[:-1, -1:], sums[:-1, :-1], out=windows)
    windows += sums[1:, :-1]
    means = windows.reshape(-1)[: y.size - n + 1]
    return np.divide(means, n, out=means)


def residual_series(
    profile_values: np.ndarray, cfg: DetrendConfig, *, out=None, means=None
) -> np.ndarray:
    """Residuals y(i) - ytilde(i) over the defined domain, length N - n + 1.

    ``means`` are the averages :func:`moving_average` gives at cfg.n, the
    same for every theta; without them, they are formed here.  The
    residuals go to ``out``, a flat float buffer, if given, else to a fresh array.
    """
    y = np.asarray(profile_values, dtype=float)
    n = cfg.n
    means = moving_average(y, cfg) if means is None else means
    future = cfg.future_points
    # domain of i is [n - future, N - future] (1-based)
    return np.subtract(y[n - future - 1: y.size - future], means, out=_take(out, means.shape))


def _blocks(x: np.ndarray, n: int) -> np.ndarray:
    """The whole side-n blocks of ``x`` as axes (c1, n, c2, n, ...); each remainder is dropped."""
    counts = [side // n for side in x.shape]
    return x[tuple(slice(c * n) for c in counts)].reshape([d for c in counts for d in (c, n)])


def segment_rms(residuals: np.ndarray, n: int, *, out=None, carry=None) -> np.ndarray:
    """The RMS F_v over disjoint blocks of side n of a residual series or matrix.

    Each axis is cut into ``side // n`` whole blocks and the remainder is
    dropped; a matrix's blocks are listed in row-major order.  The squares
    go to ``out``, an array shaped like ``residuals`` (which may be
    ``residuals`` itself), or else to a fresh array.  Each row's squares
    are summed per block, and a matrix block's row sums are then added in
    row order, the order of ``np.mean`` over both block axes.

    ``carry``, a list that starts empty, lets a matrix's rows arrive in
    pieces of any height: each call returns the F_v array of the block rows
    it completes, possibly empty, and leaves the row sums of the unfinished
    block row in ``carry``.  The pieces' F_v, concatenated, are bitwise
    those of one call on all the rows.
    """
    eps = np.asarray(residuals, dtype=float)
    n = _whole("block side", n, 1)
    if n > min(eps.shape if carry is None else eps.shape[1:], default=0):
        raise ValidationError(f"block side {n} invalid for residual shape {eps.shape}")
    blocks = eps.shape[-1] // n
    squares = np.square(eps, out=out)[..., :blocks * n]
    sums = squares.reshape(*eps.shape[:-1], blocks, n).sum(axis=-1)
    if eps.ndim == 2:
        pending = np.concatenate([*carry, sums]) if carry else sums
        done = len(pending) // n * n
        if carry is not None:
            carry[:] = [pending[done:]] if done < len(pending) else []
        sums = np.add.reduce(pending[:done].reshape(-1, n, blocks), axis=1)
    return np.sqrt(sums / float(n ** eps.ndim)).ravel()


def _power_mean(values: np.ndarray, qs, scale, *, out=None) -> np.ndarray:
    """q-order power means of positive values over a q grid; geometric at q = 0.

    Zero values make every moment q <= 0 undefined; the error names the
    scale and the smallest such q.  The logarithms are taken once; each q
    is a log-sum-exp over them, formed for a block of q rows at a time in
    ``out``, a flat float buffer holding at least one row of
    ``values.size``, or for every q at once in a fresh array.
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
    means = np.empty(qs.size)
    extremes = log_values.max(), log_values.min()  # monotone rounding: q times one is a row's max
    rows = qs.size if out is None else max(1, out.size // values.size)
    for start in range(0, qs.size, rows):
        q = qs[start:start + rows]
        logs = np.multiply(q[:, None], log_values, out=_take(out, (q.size, values.size)))
        peak = q * np.where(q > 0, *extremes)
        logs -= peak[:, None]
        block = np.log(np.exp(logs, out=logs).mean(axis=1))
        block += peak
        np.divide(block, q, out=block, where=q != 0)
        np.exp(block, out=means[start:start + rows])
    means[qs == 0] = np.exp(np.mean(log_values))
    return means


def overall_fluctuation(segments: SegmentFluctuations, q: float) -> float:
    """q-th order overall fluctuation of the per-segment RMS values.

    For q != 0 this is the q power mean of F_v; for q = 0 the geometric
    mean.  Zero-valued segments make moments with q <= 0 undefined, which
    raises DegenerateSegmentError naming the offending scale.
    """
    return float(_power_mean(segments.values, [q], segments.scale)[0])


def _validate_scales(scales, shape):
    """The scale grid, whose largest scale may be at most min(shape) // 4."""
    grid = scales if isinstance(scales, ScaleGrid) else ScaleGrid(scales)
    cap = min(shape) // 4
    if grid.values[-1] > cap:
        raise ValidationError(f"largest scale {grid.values[-1]} exceeds the N/4 cap of {cap} "
                              f"for data shape {shape}")
    return grid


def _fluctuation_tables(grid, qs, segment_rms_at, scratch=None) -> list[FluctuationTable]:
    """F_q(n) of one or more estimators at every scale of ``grid``: the scale loop all share.

    ``segment_rms_at(n)`` lists the per-segment RMS values F_v(n) of each
    estimator at scale n; each row of a table is their power means, formed
    in ``scratch``, if given: a flat buffer free once every F_v(n) exists.
    The first non-finite F_v or zero-RMS segment stops the pass: its error
    is the first listed estimator's at the first scale where any has one.
    """
    qgrid = qs if isinstance(qs, QGrid) else QGrid(qs)
    # each scale's F_v(n) are freed once their rows are formed, before the next scale's
    rows = [[_power_mean(SegmentFluctuations(values, n).values, qgrid.values, n, out=scratch)
             for values in segment_rms_at(n)] for n in grid.values.tolist()]
    return [FluctuationTable(grid, qgrid, np.array(table)) for table in zip(*rows)]


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
    return _mfdma_tables_1d(series, scales, qs, [theta])[0]


def _mfdma_tables_1d(series, scales, qs, thetas) -> list[FluctuationTable]:
    """The table of :func:`mfdma_fluctuations_1d` at each of ``thetas``, from one pass.

    Per scale, the moving average, the same for every theta, is formed once;
    each theta then takes its residuals, block RMS and power means from it.
    """
    values = _as_values(series, 1)
    grid = _validate_scales(scales, values.shape)
    y = _compensated_cumsum(values)
    # one workspace for the pass: the largest scale's block sums, at least N + 1, then N averages;
    # every theta's residuals and squares go over the block sums, the power means over it all
    workspace = np.empty(max((y.size // n + 1) * (n + 1) for n in grid.values.tolist()) + y.size)

    def rms_at(n):
        means = moving_average(y, DetrendConfig(n), out=workspace)
        rms = []
        for theta in thetas:
            resid = residual_series(y, DetrendConfig(n, theta), out=workspace, means=means)
            rms.append(segment_rms(resid, n, out=resid))
        return rms

    return _fluctuation_tables(grid, qs, rms_at, workspace)


def _line_residuals(segments: np.ndarray, *, out=None) -> np.ndarray:
    """Residuals of per-segment least-squares line fits.

    segments has shape (count, n); the centered normal equations detrend
    exact lines to exact zeros.  The residuals, then the slope terms, go to
    ``out``, a flat float buffer of at least 2 * count * n values, if given.
    """
    count, n = segments.shape
    uc = np.arange(n, dtype=float) - (n - 1) / 2
    slope = segments @ uc / float(np.dot(uc, uc))
    resid, slope_terms = _take(out, (count, n), (count, n))
    np.subtract(segments, segments.mean(axis=1)[:, None], out=resid)
    return np.subtract(resid, np.multiply(slope[:, None], uc, out=slope_terms), out=resid)


def mfdfa_fluctuations_1d(series, scales, qs, order: int = 1) -> FluctuationTable:
    """Baseline fluctuation functions by per-segment line detrending.

    The profile is cut into floor(N/n) disjoint segments; a least-squares
    line (``order`` 1, the only one) is removed from each, and the residual
    RMS values are aggregated exactly as in :func:`mfdma_fluctuations_1d`.
    """
    if order != 1:
        raise ValidationError(f"detrending order must be 1, a line fit, got {order}")
    values = _as_values(series, 1)
    grid = _validate_scales(scales, values.shape)
    if grid.values[0] < 3:
        raise ValidationError(f"smallest scale {grid.values[0]} must be at least 3 for a line fit")
    y = _compensated_cumsum(values)
    # the residuals and squares and the slope terms, then the power means
    workspace = np.empty(2 * y.size)

    def rms_at(n):
        resid = _line_residuals(_blocks(y, n), out=workspace).reshape(-1)
        return [segment_rms(resid, n, out=resid)]

    return _fluctuation_tables(grid, qs, rms_at, workspace)[0]
