"""Two-dimensional multifractal detrending moving average core.

Per scale, every n1 x n2 sliding window contributes two aggregates: the
plain window sum, and the mean of the window's two-dimensional cumulative
sum.  Their difference, after the theta alignment shift between the two
fields, is the residual surface whose disjoint-block RMS values feed the
same q-order aggregation as the 1-d case.  A plane-detrended variant
(2-d MFDFA) is included as the baseline estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .spectrum import FluctuationTable
from .dma1d import (
    _as_values, _blocks, _check_theta, _fluctuation_tables, _take, _validate_scales,
)
from .generators import Surface
# perfbench/tracing.py hooks this name, but the 2-d estimators never call it: their
# power means run in dma1d._fluctuation_tables and are counted as dma1d.power_mean
from .dma1d import _power_mean  # noqa: F401
# the one block RMS, under the name the 2-d estimator calls (and perfbench/tracing.py hooks)
from .dma1d import segment_rms as segment_rms_2d

__all__ = [
    "DetrendConfig2D",
    "WindowAggregates2D",
    "window_aggregates",
    "residual_matrix_2d",
    "segment_rms_2d",
    "mfdma_fluctuations_2d",
    "mfdfa_fluctuations_2d",
]

# Rolling window sums are re-derived from scratch this often to stop
# floating-point drift from accumulating along long slides.  A ramp sum
# integrates the drift of the flat sum it steps by, so its error grows as
# the interval to the power 1.5: at 256 it reached 1.2e-12 on a unit-normal
# surface, at 128 it stays below 5e-13.
RECOMPUTE_EVERY = 128


@dataclass(frozen=True)
class DetrendConfig2D:
    """Per-axis window sizes and one position parameter for both axes."""

    n1: int
    n2: int
    theta: float = 0.0

    def __post_init__(self):
        for label, n in (("n1", self.n1), ("n2", self.n2)):
            if int(n) != n or n < 2:
                raise ValidationError(f"{label} must be an integer >= 2, got {n}")
        _check_theta(self.theta)
        object.__setattr__(self, "n1", int(self.n1))
        object.__setattr__(self, "n2", int(self.n2))

    @property
    def shifts(self) -> tuple[int, int]:
        """Alignment shift per axis between the sum and mean fields."""
        d1 = min(math.floor(self.n1 * self.theta), self.n1 - 1)
        d2 = min(math.floor(self.n2 * self.theta), self.n2 - 1)
        return d1, d2


@dataclass(frozen=True)
class WindowAggregates2D:
    """Sliding-window sums and cumulative-sum means over one window shape.

    Entry (j1, j2) describes the window whose bottom-right corner sits at
    (j1 + n1, j2 + n2) in 1-based surface coordinates; both matrices have
    shape (N1 - n1 + 1, N2 - n2 + 1).
    """

    total: np.ndarray
    cummean: np.ndarray
    n1: int
    n2: int


def _row_sums(x: np.ndarray, n: int, S: np.ndarray, T: np.ndarray) -> None:
    """Sliding flat and descending-ramp sums along axis 0, into every row of S and T.

    S[j] = sum_{a<n} x[j+a] and T[j] = sum_{a<n} (n - a) * x[j+a], each from its exact
    first row.  The steps, x[j+n-1] - x[j-1] and S[j] - n*x[j-1], are formed as
    whole-array ops in place, then carried down the rows by one in-place add per row.
    """
    count = len(S)
    S[0] = x[:n].sum(axis=0)
    np.subtract(x[n:n + count - 1], x[:count - 1], out=S[1:])
    for j in range(1, count):
        np.add(S[j - 1], S[j], out=S[j])
    np.multiply(x[:count - 1], -float(n), out=T[1:])
    T[1:] += S[1:]
    T[0] = np.arange(n, 0, -1, dtype=float) @ x[:n]
    for j in range(1, count):
        np.add(T[j - 1], T[j], out=T[j])


def _column_sums(x: np.ndarray, n: int, ramp: bool, out: np.ndarray) -> None:
    """Sliding flat sums along axis 1 or, with ``ramp``, descending-ramp sums, into ``out``.

    The steps, x[:, k+n-1] - x[:, k-1] and then for the ramp F[:, k] - n*x[:, k-1]
    from the flat sums F, are formed in the output and carried along the C-contiguous
    rows by one cumsum per chunk.  The ramp scales x by -n in place: pass a scratch array.
    """
    count = x.shape[1] - n + 1
    starts = range(0, count, RECOMPUTE_EVERY)
    np.subtract(x[:, n:], x[:, :count - 1], out=out[:, 1:])
    _carry_columns(out, [x[:, k:k + n].sum(axis=1) for k in starts])
    if ramp:
        firsts = [x[:, k:k + n] @ np.arange(n, 0, -1, dtype=float) for k in starts]
        steps = x[:, :count - 1]
        steps *= -float(n)
        out[:, 1:] += steps
        _carry_columns(out, firsts)


def _carry_columns(steps: np.ndarray, firsts: list) -> None:
    """Column steps to running sums in place: a cumsum per chunk from its exact first column."""
    for k, first in zip(range(0, steps.shape[1], RECOMPUTE_EVERY), firsts):
        block = steps[:, k:k + RECOMPUTE_EVERY]
        block[:, 0] = first
        np.cumsum(block, axis=1, out=block)


def window_aggregates(surface, cfg: DetrendConfig2D, *, out=None, rows=None) -> WindowAggregates2D:
    """Window sums and cumulative-sum means for every sliding window.

    For the n1 x n2 sub-matrix Z at each position, ``total`` is the plain
    sum of Z and ``cummean`` is the mean over all entries of the 2-d
    cumulative sum of Z.  The latter reduces to a separable weighted sum,
    weight (n1 - a) * (n2 - b) at offset (a, b) inside the window.  The
    flat and ramp sums over n1 are rolled down one strip of RECOMPUTE_EVERY
    rows at a time, each from its exact first row, into two strip-sized
    arrays; one pass along the rows of each writes the flat (total) and
    ramp (cummean) sums over n2 straight into those rows of the results.
    No pass copies or transposes the surface, and both refresh exactly
    every RECOMPUTE_EVERY steps to bound drift.

    ``rows``, if given, is a (first, stop) pair of window rows, ``first`` a
    multiple of RECOMPUTE_EVERY: only those rows are formed, each bitwise
    as the whole-surface call forms it, and the results hold them alone.

    ``out``, if given, holds four flat float buffers: ``total`` and
    ``cummean`` are views at the starts of the first two, each at least
    as long as the rows formed, and the strips are views into the other
    two, each at least min(stop - first, RECOMPUTE_EVERY) * N2 long.
    """
    values = _as_values(surface, 2, min_side=1)
    n1, n2 = cfg.n1, cfg.n2
    if n1 > values.shape[0] or n2 > values.shape[1]:
        raise ValidationError(
            f"window {n1}x{n2} does not fit surface of shape {values.shape}"
        )
    first, stop = rows or (0, values.shape[0] - n1 + 1)
    if first % RECOMPUTE_EVERY or not 0 <= first < stop <= values.shape[0] - n1 + 1:
        raise ValidationError(f"window rows {first}:{stop} do not start a strip of the surface")
    shape = (stop - first, values.shape[1] - n2 + 1)
    strip = (min(shape[0], RECOMPUTE_EVERY), values.shape[1])
    total, cummean, flat, ramp = map(_take, out or (None,) * 4, (shape, shape, strip, strip))
    for start in range(0, shape[0], RECOMPUTE_EVERY):
        S, T = flat[:shape[0] - start], ramp[:shape[0] - start]
        _row_sums(values[first + start:], n1, S, T)
        _column_sums(S, n2, False, total[start:start + len(S)])
        _column_sums(T, n2, True, cummean[start:start + len(T)])
    cummean /= float(n1 * n2)
    return WindowAggregates2D(total=total, cummean=cummean, n1=n1, n2=n2)


def residual_matrix_2d(
    aggregates: WindowAggregates2D, cfg: DetrendConfig2D, *, out=None
) -> np.ndarray:
    """Residual matrix: window sums minus theta-shifted window means.

    With shift d_a = min(floor(n_a * theta), n_a - 1) per axis, the
    residual at (j1, j2) is total(j1, j2) - cummean(j1 + d1, j2 + d2); the
    output shrinks by exactly d_a along axis a.  It is written to ``out``,
    if given, which may be the leading corner of ``aggregates.total``.
    """
    if (aggregates.n1, aggregates.n2) != (cfg.n1, cfg.n2):
        raise ValidationError(
            f"aggregates were computed for window {aggregates.n1}x{aggregates.n2}, "
            f"config asks for {cfg.n1}x{cfg.n2}"
        )
    d1, d2 = cfg.shifts
    rows, cols = aggregates.total.shape
    return np.subtract(
        aggregates.total[: rows - d1, : cols - d2],
        aggregates.cummean[d1:, d2:],
        out=out,
    )


def mfdma_fluctuations_2d(surface, scales, qs, theta: float = 0.0) -> FluctuationTable:
    """Fluctuation functions of a surface via isotropic sliding windows.

    Args:
        surface: Surface (or 2-d array); both sides at least 4.
        scales: ScaleGrid capped at min(N1, N2)/4; each n is used both as
            the window side and as the partitioning block side.
        qs: moment orders, 0 selecting the geometric mean.
        theta: common position parameter for both axes.

    Raises:
        DegenerateSegmentError: zero-RMS block met a moment q <= 0.
    """
    return _mfdma_tables_2d(surface, scales, qs, [theta])[0]


def _mfdma_tables_2d(surface, scales, qs, thetas) -> list[FluctuationTable]:
    """The table of :func:`mfdma_fluctuations_2d` at each of ``thetas``, from one pass.

    Per scale, the window aggregates, the same for every theta, are formed
    once, a strip of RECOMPUTE_EVERY rows at a time, into a window of rows.
    After each strip, each theta takes the whole block rows now complete
    there through its residuals and block RMS, in row-major block order.
    Rows that no theta needs again leave the window's front only when the
    next strip would not fit, so at scale n it needs at most n + d1 +
    RECOMPUTE_EVERY rows, d1 being the largest row shift of any theta.
    """
    # a Surface is checked once here, not again by every window_aggregates call
    surface = surface if isinstance(surface, Surface) else Surface(surface)
    values = _as_values(surface, 2)
    grid = _validate_scales(scales, values.shape)
    (N1, N2), ns = values.shape, grid.values.tolist()

    def cells(n, rows):  # the values of ``rows`` window rows at scale n, at most all of them
        return min(N1 - n + 1, rows) * (N2 - n + 1)

    # one workspace for the pass, also big enough for the power means of the smallest scale
    window = max(cells(n, n + max(DetrendConfig2D(n, n, t).shifts[0] for t in thetas)
                       + RECOMPUTE_EVERY) for n in ns)
    window = max(window, (N1 // ns[0]) * (N2 // ns[0]))
    strip = min(N1 - ns[0] + 1, RECOMPUTE_EVERY) * N2
    workspace = tuple(np.empty(size) for size in (window, window, strip, strip))
    # the residuals of every theta but the one that overwrites the window sums, a band at a time
    spare = np.empty(max(cells(n, n + RECOMPUTE_EVERY) for n in ns)) if len(thetas) > 1 else None

    def rms_at(n):
        rows, cols = N1 - n + 1, N2 - n + 1
        total, cummean = (buffer[:window // cols * cols].reshape(-1, cols) for buffer in workspace[:2])
        cfgs = [DetrendConfig2D(n, n, theta) for theta in thetas]
        # the largest row shift goes last: every other theta has then taken its block rows
        order = sorted(range(len(cfgs)), key=lambda j: cfgs[j].shifts[0])
        done, low, parts = [0] * len(cfgs), 0, [[] for _ in cfgs]  # low: the front's row
        for start in range(0, rows, RECOMPUTE_EVERY):
            stop = min(start + RECOMPUTE_EVERY, rows)
            if stop - low > len(total):
                keep = min(done)
                for buffer in workspace[:2]:  # 1-d, so the overlapping move needs no copy
                    buffer[:(start - keep) * cols] = buffer[(keep - low) * cols:(start - low) * cols]
                low = keep
            at = (start - low) * cols
            window_aggregates(surface, DetrendConfig2D(n, n), rows=(start, stop),
                              out=(workspace[0][at:], workspace[1][at:]) + workspace[2:])
            for j in order:
                (d1, d2), begin = cfgs[j].shifts, done[j] - low
                done[j] = max(done[j], (stop - d1) // n * n)
                count = done[j] - low - begin  # residual rows of the newly complete block rows
                if count:
                    taken = slice(begin, begin + count + d1)
                    aggregates = WindowAggregates2D(total[taken], cummean[taken], n, n)
                    # laid out as the window sums are, so the block RMS reads the same strides
                    out = total[begin:] if j == order[-1] else _take(spare, (count, cols))
                    resid = residual_matrix_2d(aggregates, cfgs[j], out=out[:count, :cols - d2])
                    parts[j].append(segment_rms_2d(resid, n, out=resid).values)
        return [np.concatenate(rms) for rms in parts]

    return _fluctuation_tables(grid, qs, rms_at, workspace[0])


def _plane_residuals(blocks: np.ndarray, *, out=None) -> np.ndarray:
    """Residuals of least-squares planes a + b*u + c*v fitted per block.

    blocks has shape (..., n, n).  The centered row/column coordinates are
    orthogonal on the square grid, so the normal equations decouple and
    exact planes are removed to exact zeros.  The fitted planes, which the
    residuals then overwrite, go to ``out``, a flat float buffer of at
    least blocks.size values, or else to a fresh array; either way they
    are C-contiguous, which fixes the summation order of the block RMS.
    """
    n = blocks.shape[-1]
    u = np.arange(n, dtype=float)
    uc = u - u.mean()
    denom = float(np.dot(uc, uc)) * n
    mean = blocks.mean(axis=(-2, -1))
    slope_u = np.einsum("...uv,u->...", blocks, uc) / denom
    slope_v = np.einsum("...uv,v->...", blocks, uc) / denom
    trend = np.add(
        mean[..., None, None] + slope_u[..., None, None] * uc[:, None],
        slope_v[..., None, None] * uc[None, :],
        out=_take(out, blocks.shape),
    )
    return np.subtract(blocks, trend, out=trend)


def mfdfa_fluctuations_2d(surface, scales, qs) -> FluctuationTable:
    """Baseline fluctuation functions by per-block plane detrending.

    The surface is partitioned into disjoint n x n blocks; each block is
    cumulated along both axes, a least-squares plane is removed, and the
    residual RMS values aggregate as usual.
    """
    values = _as_values(surface, 2)
    grid = _validate_scales(scales, values.shape)
    # the cumulative sums and the fitted planes, then the power means
    workspace = np.empty(2 * values.size)

    def rms_at(n):
        cut = _blocks(values, n)
        # the cut's own (c1, n, c2, n) layout, which fixes the einsum order of the fit
        sums = _take(workspace, cut.shape).transpose(0, 2, 1, 3)
        np.cumsum(cut.transpose(0, 2, 1, 3), axis=2, out=sums)
        resid = _plane_residuals(np.cumsum(sums, axis=3, out=sums), out=workspace[values.size:])
        return [np.sqrt(np.mean(np.square(resid, out=resid), axis=(2, 3))).ravel()]

    return _fluctuation_tables(grid, qs, rms_at, workspace)[0]
