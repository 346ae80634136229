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
from .spectrum import FluctuationTable, _real, _whole
from .dma1d import _as_values, _blocks, _fluctuation_tables, _take, _validate_scales
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
        for label in ("n1", "n2"):
            object.__setattr__(self, label, _whole(label, getattr(self, label), 2))
        _real("theta", self.theta, 0, 1)

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
    whole-array ops in place, then carried down the rows by :func:`_carry`.
    """
    count = len(S)
    np.matmul(np.ones(n), x[:n], out=S[0])
    np.subtract(x[n:n + count - 1], x[:count - 1], out=S[1:])
    _carry(S)
    np.multiply(x[:count - 1], -float(n), out=T[1:])
    T[1:] += S[1:]
    np.matmul(np.arange(n, 0, -1, dtype=float), x[:n], out=T[0])
    _carry(T)


def _carry(steps: np.ndarray) -> None:
    """Steps to running sums down the first axis in place, by one add per row view."""
    for prev, row in zip(steps, steps[1:]):
        np.add(prev, row, out=row)


def _strip_sums(x: np.ndarray, n1: int, n2: int, s: np.ndarray, t: np.ndarray,
                total: np.ndarray, cummean: np.ndarray) -> None:
    """Flat window sums of one strip into ``total``, and its ramp sums into ``cummean``.

    s and t hold one spare element, then the rows of S and T from :func:`_row_sums`.
    Each step along the rows, S[:, k+n2-1] - S[:, k-1], then F[:, k] - n2*T[:, k-1]
    for the ramp from the flat sums F of T, is one 1-d op over the whole strip; it
    lands at (r, k) of the view that starts at the spare element.  Each chunk's first
    column takes its exact first sum, a BLAS product, and one cumsum per chunk
    carries the steps into the results.
    """
    (rows, count), width = total.shape, x.shape[1]
    s, t = s[:rows * width + 1], t[:rows * width + 1]
    S, T = s[1:].reshape(rows, width), t[1:].reshape(rows, width)
    _row_sums(x, n1, S, T)
    steps, flat, tflat = s[:-1].reshape(rows, width)[:, :count], s[1:], t[1:]
    starts, ones = range(0, count, RECOMPUTE_EVERY), np.ones(n2)
    firsts = [S[:, k:k + n2] @ ones for k in starts]
    np.subtract(flat[n2:], flat[:-n2], out=flat[:-n2])  # reads ahead: no temporary
    _scan(steps, firsts, total)
    firsts, ramps = ([T[:, k:k + n2] @ w for k in starts]
                     for w in (ones, np.arange(n2, 0, -1, dtype=float)))
    np.subtract(tflat[n2:], tflat[:-n2], out=flat[:-n2])
    _scan(steps, firsts, steps)
    tflat *= -float(n2)
    flat += tflat
    _scan(steps, ramps, cummean)


def _scan(steps: np.ndarray, firsts: list, out: np.ndarray) -> None:
    """Column steps to running sums in ``out``: a cumsum per chunk from its exact first column."""
    for k, first in zip(range(0, steps.shape[1], RECOMPUTE_EVERY), firsts):
        block = steps[:, k:k + RECOMPUTE_EVERY]
        block[:, 0] = first
        np.cumsum(block, axis=1, out=out[:, k:k + RECOMPUTE_EVERY])


def window_aggregates(surface, cfg: DetrendConfig2D, *, out=None, rows=None) -> WindowAggregates2D:
    """Window sums and cumulative-sum means for every sliding window.

    For the n1 x n2 sub-matrix Z at each position, ``total`` is the plain
    sum of Z and ``cummean`` is the mean over all entries of the 2-d
    cumulative sum of Z.  The latter reduces to a separable weighted sum,
    weight (n1 - a) * (n2 - b) at offset (a, b) inside the window.  The
    flat and ramp sums over n1 are rolled down one strip of RECOMPUTE_EVERY
    rows at a time, each from its exact first row, into two strip-sized
    buffers; the flat (total) and ramp (cummean) sums over n2 are stepped
    along each strip by whole-strip ops and carried straight into those rows
    of the results.  No pass copies or transposes the surface, and both
    refresh exactly every RECOMPUTE_EVERY steps to bound drift.

    ``rows``, if given, is a (first, stop) pair of window rows, ``first`` a
    multiple of RECOMPUTE_EVERY: only those rows are formed, each bitwise
    as the whole-surface call forms it, and the results hold them alone.
    A plain ndarray is checked in full on every call, so a strip-by-strip
    caller passes a ``Surface`` (checked once), as ``_mfdma_tables_2d`` does.

    ``out``, if given, holds four flat float buffers: ``total`` and
    ``cummean`` are views at the starts of the first two, each at least
    as long as the rows formed, and the strips are views into the other
    two, each at least min(stop - first, RECOMPUTE_EVERY) * N2 + 1 long:
    one spare element before a strip's rows.  Nothing past those lengths
    is written.  The strips are scratch: the lanes past each row's last
    window end up holding differences and -n multiples of row sums, which
    nothing reads.
    """
    values = _as_values(surface, 2, min_side=1)
    n1, n2 = cfg.n1, cfg.n2
    if n1 > values.shape[0] or n2 > values.shape[1]:
        raise ValidationError(f"window {n1}x{n2} does not fit surface of shape {values.shape}")
    first, stop = rows or (0, values.shape[0] - n1 + 1)
    if first % RECOMPUTE_EVERY or not 0 <= first < stop <= values.shape[0] - n1 + 1:
        raise ValidationError(f"window rows {first}:{stop} do not start a strip of the surface")
    shape = (stop - first, values.shape[1] - n2 + 1)
    strip = (min(shape[0], RECOMPUTE_EVERY) * values.shape[1] + 1,)
    total, cummean, flat, ramp = map(_take, out or (None,) * 4, (shape, shape, strip, strip))
    for start in range(0, shape[0], RECOMPUTE_EVERY):
        part = slice(start, start + RECOMPUTE_EVERY)
        _strip_sums(values[first + start:], n1, n2, flat, ramp, total[part], cummean[part])
    cummean /= float(n1 * n2)
    return WindowAggregates2D(total=total, cummean=cummean, n1=n1, n2=n2)


def residual_matrix_2d(
    aggregates: WindowAggregates2D, cfg: DetrendConfig2D, *, out=None
) -> np.ndarray:
    """Residual matrix: window sums minus theta-shifted window means.

    With shift d_a = min(floor(n_a * theta), n_a - 1) per axis, the
    residual at (j1, j2) is total(j1, j2) - cummean(j1 + d1, j2 + d2); the
    output shrinks by exactly d_a along axis a.  It is written to ``out``,
    if given.
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
    once, a strip of span = min(N1 - n + 1, RECOMPUTE_EVERY) rows at a
    time.  Each scale keeps one line layout in the pass's window buffer:
    line keep - start + j holds the window sums of row j, and line span
    further on its window means, keep being the largest row shift d1 of any
    theta.  Before each strip, lines [span, span + keep), the last keep rows
    of window sums, move to the front.  After it, each theta sends the
    residual rows j whose shifted mean row j + d1 the strip holds through its
    residuals and block RMS, whose carry keeps the row sums of an unfinished
    block row for the next strip: the only state a theta keeps.
    """
    # a Surface is checked once here, not again by every window_aggregates call
    surface = surface if isinstance(surface, Surface) else Surface(surface)
    values = _as_values(surface, 2)
    grid = _validate_scales(scales, values.shape)
    (N1, N2), ns = values.shape, grid.values.tolist()

    def reach(n):  # the largest row shift of any theta at scale n
        return max(DetrendConfig2D(n, n, theta).shifts[0] for theta in thetas)

    def height(n):  # the window rows of a strip at scale n
        return min(N1 - n + 1, RECOMPUTE_EVERY)

    # one workspace for the pass, also big enough for the power means of the smallest scale
    window = max((reach(n) + 2 * height(n)) * (N2 - n + 1) for n in ns)
    window = max(window, (N1 // ns[0]) * (N2 // ns[0]))
    strip = height(ns[0]) * N2 + 1
    # once a strip is formed, the first strip buffer takes every theta's new residual rows
    workspace = tuple(np.empty(size) for size in (window, strip, strip))

    def rms_at(n):
        rows, cols, keep, span = N1 - n + 1, N2 - n + 1, reach(n), height(n)
        flat = workspace[0]  # 1-d, so the overlapping move needs no copy
        lines = flat[:window // cols * cols].reshape(-1, cols)
        cfgs = [DetrendConfig2D(n, n, theta) for theta in thetas]
        parts, carries = [[] for _ in cfgs], [[] for _ in cfgs]
        for start in range(0, rows, RECOMPUTE_EVERY):
            stop = min(start + RECOMPUTE_EVERY, rows)
            flat[:keep * cols] = flat[span * cols:(span + keep) * cols]
            window_aggregates(surface, DetrendConfig2D(n, n), rows=(start, stop),
                              out=(lines[keep:].reshape(-1), lines[keep + span:].reshape(-1),
                                   *workspace[1:]))
            for cfg, rms, carry in zip(cfgs, parts, carries):
                d1, d2 = cfg.shifts
                first, last = max(start - d1, 0), stop - d1  # the new residual rows
                if last > first:
                    lo, hi = keep - start + first, keep - start + stop
                    aggregates = WindowAggregates2D(lines[lo:hi], lines[lo + span:hi + span], n, n)
                    out = _take(workspace[1], (last - first, cols))[:, :cols - d2]
                    resid = residual_matrix_2d(aggregates, cfg, out=out)
                    rms.append(segment_rms_2d(resid, n, out=resid, carry=carry))
        return [np.concatenate(rms) for rms in parts]

    return _fluctuation_tables(grid, qs, rms_at, workspace[0])


def _plane_residuals(blocks: np.ndarray) -> np.ndarray:
    """Residuals of least-squares planes a + b*u + c*v fitted per block, in place.

    blocks has axes (rows, n, columns, n), as ``dma1d._blocks`` cuts them, with
    u along axis 1 and v along axis 3.  The centered coordinates are orthogonal,
    so the normal equations decouple and exact planes go to exact zeros.
    """
    n = blocks.shape[-1]
    uc = np.arange(n, dtype=float) - (n - 1) / 2
    denom = float(np.dot(uc, uc)) * n
    mean = blocks.mean(axis=(1, 3))[:, None, :, None]
    slope_u = (np.einsum("aubv,u->ab", blocks, uc) / denom)[:, None, :, None]
    slope_v = (np.einsum("aubv,v->ab", blocks, uc) / denom)[:, None, :, None]
    np.subtract(blocks, mean + slope_u * uc[:, None, None], out=blocks)
    return np.subtract(blocks, slope_v * uc, out=blocks)


def mfdfa_fluctuations_2d(surface, scales, qs) -> FluctuationTable:
    """Baseline fluctuation functions by per-block plane detrending.

    The surface is partitioned into disjoint n x n blocks; each block is
    cumulated along both axes, a least-squares plane is removed, and the
    residual RMS values aggregate as usual.  The blocks are detrended a
    band of RECOMPUTE_EVERY // n block rows, at least one, at a time.
    """
    values = _as_values(surface, 2)
    grid = _validate_scales(scales, values.shape)
    (N1, N2), (lo, hi) = values.shape, grid.values[[0, -1]]
    # a band's cumulative sums, then the power means of the smallest scale, lo
    workspace = np.empty(max(min(N1, max(RECOMPUTE_EVERY, hi)) * N2, N1 // lo * (N2 // lo)))

    def rms_at(n):
        cut, rows, rms = _blocks(values, n), max(1, RECOMPUTE_EVERY // n), []
        for part in np.split(cut, range(rows, len(cut), rows)):
            sums = np.cumsum(part, axis=3, out=_take(workspace, part.shape))
            _carry(sums.swapaxes(0, 1))  # the cumulative sums along v, then along u
            resid = _plane_residuals(sums).reshape(len(part) * n, -1)
            rms.append(segment_rms_2d(resid, n, out=resid))
        return [np.concatenate(rms)]

    return _fluctuation_tables(grid, qs, rms_at, workspace)[0]
