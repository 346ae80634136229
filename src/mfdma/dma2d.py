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
from .dma1d import _as_values, _blocks, _fluctuation_table, _validate_scales
# perfbench/tracing.py hooks this name, but the 2-d estimators never call it: their
# power means run in dma1d._fluctuation_table and are counted as dma1d.power_mean
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
# floating-point drift from accumulating along long slides.
RECOMPUTE_EVERY = 256


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
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta must lie in [0, 1], got {self.theta}")
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


def _flat_and_ramp_sums(x: np.ndarray, n: int, ramp=True) -> tuple[np.ndarray, np.ndarray | None]:
    """Sliding flat and descending-ramp weighted sums along axis 0.

    Returns (S, T) of shape (rows - n + 1, cols) with
    S[j] = sum_{a<n} x[j+a] and T[j] = sum_{a<n} (n - a) * x[j+a].
    Both slide incrementally and are recomputed exactly every
    RECOMPUTE_EVERY steps.  With ``ramp`` false, T is None and not computed.
    """
    rows, cols = x.shape
    count = rows - n + 1
    weights = np.arange(n, 0, -1, dtype=float)
    S = np.empty((count, cols))
    T = np.empty((count, cols)) if ramp else None
    S[0] = x[:n].sum(axis=0)
    if ramp:
        T[0] = weights @ x[:n]
    scratch = np.empty(cols)
    for j in range(1, count):
        if j % RECOMPUTE_EVERY == 0:
            S[j] = x[j:j + n].sum(axis=0)
            if ramp:
                T[j] = weights @ x[j:j + n]
            continue
        np.subtract(S[j - 1], x[j - 1], out=S[j])
        S[j] += x[j + n - 1]
        if ramp:
            np.multiply(x[j - 1], float(n), out=scratch)
            np.subtract(T[j - 1], scratch, out=T[j])
            T[j] += S[j]
    return S, T


def window_aggregates(surface, cfg: DetrendConfig2D) -> WindowAggregates2D:
    """Window sums and cumulative-sum means for every sliding window.

    For the n1 x n2 sub-matrix Z at each position, ``total`` is the plain
    sum of Z and ``cummean`` is the mean over all entries of the 2-d
    cumulative sum of Z.  The latter reduces to a separable weighted sum,
    weight (n1 - a) * (n2 - b) at offset (a, b) inside the window, which is
    what the rolling passes compute.
    """
    values = _as_values(surface, 2, min_side=1)
    n1, n2 = cfg.n1, cfg.n2
    if n1 > values.shape[0] or n2 > values.shape[1]:
        raise ValidationError(
            f"window {n1}x{n2} does not fit surface of shape {values.shape}"
        )
    S1, T1 = _flat_and_ramp_sums(values, n1)
    S2, _ = _flat_and_ramp_sums(np.ascontiguousarray(S1.T), n2, ramp=False)
    del S1  # each first-axis pass is freed once read, which bounds peak memory
    _, T2 = _flat_and_ramp_sums(np.ascontiguousarray(T1.T), n2)
    del T1
    return WindowAggregates2D(
        total=np.ascontiguousarray(S2.T),
        cummean=np.ascontiguousarray(T2.T) / float(n1 * n2),
        n1=n1,
        n2=n2,
    )


def residual_matrix_2d(aggregates: WindowAggregates2D, cfg: DetrendConfig2D) -> np.ndarray:
    """Residual matrix: window sums minus theta-shifted window means.

    With shift d_a = min(floor(n_a * theta), n_a - 1) per axis, the
    residual at (j1, j2) is total(j1, j2) - cummean(j1 + d1, j2 + d2); the
    output shrinks by exactly d_a along axis a.
    """
    if (aggregates.n1, aggregates.n2) != (cfg.n1, cfg.n2):
        raise ValidationError(
            f"aggregates were computed for window {aggregates.n1}x{aggregates.n2}, "
            f"config asks for {cfg.n1}x{cfg.n2}"
        )
    d1, d2 = cfg.shifts
    rows, cols = aggregates.total.shape
    return (
        aggregates.total[: rows - d1, : cols - d2]
        - aggregates.cummean[d1:, d2:]
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
    values = _as_values(surface, 2)
    grid = _validate_scales(scales, values.shape)

    def rms_at(n):
        cfg = DetrendConfig2D(n, n, theta)
        return segment_rms_2d(residual_matrix_2d(window_aggregates(values, cfg), cfg), n).values

    return _fluctuation_table(grid, qs, rms_at)


def _plane_residuals(blocks: np.ndarray) -> np.ndarray:
    """Residuals of least-squares planes a + b*u + c*v fitted per block.

    blocks has shape (..., n, n).  The centered row/column coordinates are
    orthogonal on the square grid, so the normal equations decouple and
    exact planes are removed to exact zeros.
    """
    n = blocks.shape[-1]
    u = np.arange(n, dtype=float)
    uc = u - u.mean()
    denom = float(np.dot(uc, uc)) * n
    mean = blocks.mean(axis=(-2, -1))
    slope_u = np.einsum("...uv,u->...", blocks, uc) / denom
    slope_v = np.einsum("...uv,v->...", blocks, uc) / denom
    trend = (
        mean[..., None, None]
        + slope_u[..., None, None] * uc[:, None]
        + slope_v[..., None, None] * uc[None, :]
    )
    return blocks - trend


def mfdfa_fluctuations_2d(surface, scales, qs) -> FluctuationTable:
    """Baseline fluctuation functions by per-block plane detrending.

    The surface is partitioned into disjoint n x n blocks; each block is
    cumulated along both axes, a least-squares plane is removed, and the
    residual RMS values aggregate as usual.
    """
    values = _as_values(surface, 2)
    grid = _validate_scales(scales, values.shape)

    def rms_at(n):
        blocks = _blocks(values, n).transpose(0, 2, 1, 3)
        resid = _plane_residuals(blocks.cumsum(axis=2).cumsum(axis=3))
        return np.sqrt(np.mean(resid**2, axis=(2, 3))).ravel()

    return _fluctuation_table(grid, qs, rms_at)
