"""Scaling regression, mass exponents, singularity spectra, and oracles.

This module turns a table of fluctuation functions F_q(n) into the
generalized Hurst exponents h(q), the mass exponents tau(q), and the
singularity spectrum (alpha, f(alpha)).  It also provides the closed-form
tau/alpha/f of the deterministic cascades, used as ground truth in tests
and by the ``oracle`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, ValidationError

__all__ = [
    "ScaleGrid",
    "QGrid",
    "FluctuationTable",
    "ScalingEstimate",
    "SingularitySpectrum",
    "build_scale_grid",
    "build_q_grid",
    "fit_scaling",
    "legendre_spectrum",
    "analytic_tau",
    "analytic_alpha",
    "analytic_f",
    "analytic_tau_1d",
    "analytic_alpha_1d",
    "analytic_f_1d",
    "tau_error",
    "spectrum_width",
]

LN2 = np.log(2.0)


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly increasing window sizes n >= 2."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("scale grid must be a non-empty one-dimensional array")
        if not np.issubdtype(v.dtype, np.integer):
            rounded = np.rint(v)
            if not np.allclose(v, rounded, rtol=0, atol=1e-9):
                raise ValidationError("scales must be integers")
            v = rounded.astype(int)
        v = v.astype(int)
        if v[0] < 2:
            raise ValidationError(f"scales must be at least 2, got {v[0]}")
        if np.any(np.diff(v) <= 0):
            raise ValidationError("scales must be strictly increasing with no duplicates")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class QGrid:
    """Strictly increasing real moment orders q; may include 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("q grid must be a non-empty one-dimensional array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("q values must be finite")
        if np.any(np.diff(v) <= 0):
            raise ValidationError("q values must be strictly increasing")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size

    @property
    def spacing(self) -> float:
        """Common spacing if the grid is uniform, else raises."""
        d = np.diff(self.values)
        if d.size == 0:
            raise ValidationError("q grid spacing needs at least two points")
        if np.max(d) - np.min(d) > 1e-9 * max(1.0, np.max(np.abs(self.values))):
            raise ValidationError("q grid is not uniformly spaced")
        return float(np.mean(d))


def as_scale_grid(scales) -> ScaleGrid:
    return scales if isinstance(scales, ScaleGrid) else ScaleGrid(np.asarray(scales))


def as_q_grid(qs) -> QGrid:
    return qs if isinstance(qs, QGrid) else QGrid(np.asarray(qs, dtype=float))


@dataclass(frozen=True)
class FluctuationTable:
    """F_q(n) over the (scale, q) grid; rows are scales, columns are q."""

    scales: ScaleGrid
    qs: QGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (len(self.scales), len(self.qs))
        if v.shape != expected:
            raise ValidationError(f"fluctuation table shape {v.shape}, expected {expected}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ScalingEstimate:
    """Fitted h(q) with standard errors and the implied tau(q)."""

    qs: QGrid
    h: np.ndarray
    h_se: np.ndarray
    tau: np.ndarray
    fractal_dim: float
    fit_range: tuple[float, float]


@dataclass(frozen=True)
class SingularitySpectrum:
    """(alpha, f(alpha)) at the interior q points, plus the width."""

    qs: np.ndarray
    alpha: np.ndarray
    f: np.ndarray
    width: float


def build_scale_grid(n_min: int, n_max: int, count: int) -> ScaleGrid:
    """Log-uniformly spaced integer scales, rounded and deduplicated.

    Args:
        n_min: smallest scale, at least 2.
        n_max: largest scale, strictly greater than n_min.
        count: number of log-spaced points before rounding, at least 2.
    """
    if n_min < 2:
        raise ValidationError(f"n_min must be at least 2, got {n_min}")
    if n_max <= n_min:
        raise ValidationError(f"need n_min < n_max, got ({n_min}, {n_max})")
    if count < 2:
        raise ValidationError(f"count must be at least 2, got {count}")
    raw = np.logspace(np.log10(n_min), np.log10(n_max), count)
    # round half away from zero, so grids match across platforms
    ns = np.unique(np.floor(raw + 0.5).astype(int))
    return ScaleGrid(ns)


def build_q_grid(q_min: float, q_max: float, q_step: float) -> QGrid:
    """Uniform q grid from q_min to q_max inclusive; snaps tiny values to 0."""
    if not np.all(np.isfinite([q_min, q_max, q_step])):
        raise ValidationError(
            f"q_min, q_max and q_step must be finite, got ({q_min}, {q_max}, {q_step})"
        )
    if q_step <= 0:
        raise ValidationError(f"q_step must be positive, got {q_step}")
    if q_max <= q_min:
        raise ValidationError(f"need q_min < q_max, got ({q_min}, {q_max})")
    count = int(round((q_max - q_min) / q_step)) + 1
    if not np.isclose(q_min + (count - 1) * q_step, q_max, rtol=0, atol=1e-9):
        raise ValidationError(
            f"q range ({q_min}, {q_max}) is not an integer number of steps {q_step}"
        )
    qs = q_min + np.arange(count) * q_step
    qs[np.abs(qs) < 1e-12] = 0.0
    return QGrid(qs)


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, slope standard error).

    The standard error is computed from the explicit residuals, so exact
    linear data yields an SE at rounding-noise level rather than one
    contaminated by a 1 - r**2 cancellation.
    """
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y)) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    se = float(np.sqrt(np.dot(resid, resid) / (x.size - 2) / sxx))  # _fit_mask keeps >= 3 points
    return slope, intercept, se


def _fit_mask(scales: ScaleGrid, fit_range) -> np.ndarray:
    """The scales inside ``fit_range``, inclusive; at least 3 must fall inside."""
    lo, hi = float(fit_range[0]), float(fit_range[1])
    mask = (scales.values >= lo) & (scales.values <= hi)
    if int(mask.sum()) < 3:
        raise ValidationError(
            f"fit range ({lo:g}, {hi:g}) selects {int(mask.sum())} scales, need at least 3"
        )
    return mask


def _check_legendre_window(qs: QGrid, half_window: int):
    """The local tau(q) slope needs 2 * half_window + 1 points of the q grid."""
    if half_window < 1:
        raise ValidationError(f"legendre half-window must be at least 1, got {half_window}")
    if len(qs) < 2 * half_window + 1:
        raise ValidationError(
            f"need at least {2 * half_window + 1} q points for half_window={half_window}"
        )


def fit_scaling(table: FluctuationTable, fit_range=None, fractal_dim: float = 1.0) -> ScalingEstimate:
    """Fit ln F_q(n) against ln n per q and derive the mass exponents.

    Args:
        table: fluctuation functions over the (scale, q) grid.
        fit_range: optional (n_lo, n_hi) bounds on the scales entering the
            regression; defaults to the full grid.  At least 3 scales must
            fall inside.
        fractal_dim: dimension of the support, 1 for series, 2 for surfaces.

    Returns:
        ScalingEstimate with h(q), its OLS standard error, and
        tau(q) = q * h(q) - fractal_dim.
    """
    ns = table.scales.values.astype(float)
    if fit_range is None:
        fit_range = (float(ns[0]), float(ns[-1]))
    lo, hi = float(fit_range[0]), float(fit_range[1])
    mask = _fit_mask(table.scales, (lo, hi))
    sub = table.values[mask, :]
    if np.any(sub <= 0):
        bad = np.argwhere(sub <= 0)[0]
        n_bad = ns[mask][bad[0]]
        q_bad = table.qs.values[bad[1]]
        raise DegenerateDataError(
            f"non-positive fluctuation at n={n_bad:g}, q={q_bad:g}; cannot take logs"
        )
    ln_n = np.log(ns[mask])
    qs = table.qs.values
    h = np.empty(qs.size)
    se = np.empty(qs.size)
    for j in range(qs.size):
        h[j], _, se[j] = _ols_line(ln_n, np.log(sub[:, j]))
    tau = qs * h - fractal_dim
    return ScalingEstimate(table.qs, h, se, tau, float(fractal_dim), (lo, hi))


def legendre_spectrum(est: ScalingEstimate, half_window: int = 3) -> SingularitySpectrum:
    """Singularity spectrum by locally-linear differentiation of tau(q).

    alpha at each interior q is the slope of the least-squares line through
    the 2 * half_window + 1 surrounding (q, tau) points; f = q * alpha - tau
    at the same points.  Requires a uniformly spaced q grid.
    """
    _check_legendre_window(est.qs, half_window)
    qs = est.qs.values
    dq = est.qs.spacing  # raises on non-uniform grids
    offsets = np.arange(-half_window, half_window + 1, dtype=float) * dq
    kernel = offsets / float(np.dot(offsets, offsets))
    # local regression slope == correlation of tau with the centered kernel
    alpha = np.correlate(est.tau, kernel, mode="valid")
    interior = slice(half_window, qs.size - half_window)
    q_in = qs[interior]
    f = q_in * alpha - est.tau[interior]
    width = float(alpha.max() - alpha.min())
    return SingularitySpectrum(q_in, alpha, f, width)


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape not in ((2,), (4,)):
        raise ValidationError(f"expected two or four weights, got shape {w.shape}")
    # written so that a NaN weight fails both checks
    if not np.all(w > 0):
        raise ValidationError("analytic formulas need strictly positive weights")
    if not abs(w.sum() - 1.0) <= 1e-12:
        raise ValidationError(f"weights must sum to 1 within 1e-12, got {float(w.sum())!r}")
    return w


def analytic_tau(weights, q) -> np.ndarray | float:
    """Closed-form mass exponent -log2(sum_i w_i^q) of a cascade.

    ``weights`` are the mass fractions of one refinement step: two for the
    binomial cascade, four for the square cascade.
    """
    w = _check_weights(weights)
    q = np.asarray(q, dtype=float)
    powers = w[None, :] ** np.atleast_1d(q)[:, None]
    out = -np.log(powers.sum(axis=1)) / LN2
    return out.reshape(q.shape) if q.ndim else float(out[0])


def analytic_alpha(weights, q) -> np.ndarray | float:
    """Closed-form singularity strength alpha(q) = tau'(q) of a cascade."""
    w = _check_weights(weights)
    q = np.asarray(q, dtype=float)
    powers = w[None, :] ** np.atleast_1d(q)[:, None]
    out = -(powers * np.log(w)[None, :]).sum(axis=1) / (powers.sum(axis=1) * LN2)
    return out.reshape(q.shape) if q.ndim else float(out[0])


def analytic_f(weights, q) -> np.ndarray | float:
    """Closed-form spectrum value f(q) = q * alpha(q) - tau(q) of a cascade."""
    q = np.asarray(q, dtype=float)
    out = q * analytic_alpha(weights, q) - analytic_tau(weights, q)
    return out if out.ndim else float(out)


def _binomial_weights(p1: float) -> tuple[float, float]:
    """The weights (p1, 1 - p1) of the binomial cascade."""
    if not 0.0 < p1 < 1.0:
        raise ValidationError(f"p1 must lie strictly inside (0, 1), got {p1}")
    return p1, 1.0 - p1


def analytic_tau_1d(p1: float, q) -> np.ndarray | float:
    """Closed-form mass exponent of the binomial cascade."""
    return analytic_tau(_binomial_weights(p1), q)


def analytic_alpha_1d(p1: float, q) -> np.ndarray | float:
    """Closed-form singularity strength alpha(q) of the binomial cascade."""
    return analytic_alpha(_binomial_weights(p1), q)


def analytic_f_1d(p1: float, q) -> np.ndarray | float:
    """Closed-form spectrum value f(q) of the binomial cascade."""
    return analytic_f(_binomial_weights(p1), q)


def tau_error(est: ScalingEstimate, tau_analytic) -> np.ndarray:
    """Pointwise deviation tau(q) - tau_analytic(q) on the estimate's grid."""
    ref = np.asarray(tau_analytic, dtype=float)
    if ref.shape != est.tau.shape:
        raise ValidationError(
            f"analytic tau has shape {ref.shape}, estimate has {est.tau.shape}"
        )
    return est.tau - ref


def spectrum_width(spec: SingularitySpectrum) -> float:
    """Width of the singularity spectrum, alpha_max - alpha_min."""
    return spec.width
