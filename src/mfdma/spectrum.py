"""Scaling regression, mass exponents, singularity spectra, and oracles.

This module turns a table of fluctuation functions F_q(n) into the
generalized Hurst exponents h(q), the mass exponents tau(q), and the
singularity spectrum (alpha, f(alpha)).  It also provides the closed-form
tau/alpha/f of the deterministic cascades, used as ground truth in tests
and by the ``oracle`` CLI subcommand.
"""

from __future__ import annotations

import numbers
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
FLOAT_MAX = float(np.finfo(np.float64).max)  # a Python float: it compares exactly with any int
MAX_VALUES = np.iinfo(np.intp).max // 8  # numpy describes no larger float64 array


def _shown(value, show=str) -> str:
    """``show(value)`` for a message; an int past Python's 4,300-digit limit is shown by its size."""
    try:
        return show(value)
    except ValueError:
        if not isinstance(value, numbers.Integral):  # a container that holds one
            return f"a {type(value).__name__} holding an integer too long to print"
        return f"{'a negative' if value < 0 else 'an'} integer of {int(value).bit_length()} bits"


def _whole(label: str, value, minimum: int) -> int:
    """``value`` as an int: a finite whole real number, not a bool, of at least ``minimum``."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole or value < minimum:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(minimum)
        raise ValidationError(f"{label} must be {kind or f'an integer >= {minimum}'}, "
                              f"got {_shown(value)}")
    return int(value)


def _real(label: str, value, low=None, high=None, strict: bool = False):
    """``value`` unchanged: a finite real, not a bool, in [low, high], or (low, high) if ``strict``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{label} must be a real number, got {_shown(value, repr)}")
    if low is not None and not (low < value < high if strict else low <= value <= high):
        interval = f"strictly inside ({low}, {high})" if strict else f"in [{low}, {high}]"
        raise ValidationError(f"{label} must lie {interval}, got {_shown(value)}")
    # NaN, ±inf and an int past FLOAT_MAX fail; a float32 is tested in its own precision
    if not (np.isfinite(value) if isinstance(value, np.floating) else -FLOAT_MAX <= value <= FLOAT_MAX):
        raise ValidationError(f"{label} must be finite, got {_shown(value)}")
    return value


def _array(label: str, values, ndim: int) -> np.ndarray:
    """``values`` as a float64 array: integers or floats, ``ndim`` axes, at least one, all finite."""
    try:
        v = np.asarray(values)
    except ValueError:  # numpy's message for a ragged nesting names no argument
        raise ValidationError(f"{label} must be an array of one shape, got a ragged nesting") from None
    if v.dtype.kind not in "iuf":  # not bool, complex, text or object
        raise ValidationError(f"{label} must hold real numbers, got dtype {v.dtype}")
    if v.ndim != ndim:
        dims = ("one", "two")[ndim - 1]
        raise ValidationError(f"{label} must be {dims}-dimensional, got shape {v.shape}")
    if v.size == 0:
        raise ValidationError(f"{label} is empty")
    with np.errstate(over="ignore"):  # a long double past float64's range becomes inf
        v = v.astype(float, copy=False)
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValidationError(f"{label} contains a non-finite value at index {bad}")
    return v


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly increasing window sizes n >= 2."""

    values: np.ndarray

    def __post_init__(self):
        v = _array("scale grid", self.values, 1)
        whole = (v % 1 == 0) & (v < 2**53)  # exact: float64 holds every integer below 2**53
        if not whole.all():
            raise ValidationError(f"scales must be integers below 2**53, got {float(v[~whole][0])}")
        if v[0] < 2:
            raise ValidationError(f"scales must be at least 2, got {int(v[0])}")
        if np.any(np.diff(v) <= 0):
            raise ValidationError("scales must be strictly increasing with no duplicates")
        object.__setattr__(self, "values", v.astype(np.int64))

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class QGrid:
    """Strictly increasing real moment orders q; may include 0."""

    values: np.ndarray

    def __post_init__(self):
        v = _array("q grid", self.values, 1)
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
    return scales if isinstance(scales, ScaleGrid) else ScaleGrid(scales)


def as_q_grid(qs) -> QGrid:
    return qs if isinstance(qs, QGrid) else QGrid(qs)


@dataclass(frozen=True)
class FluctuationTable:
    """F_q(n) over the (scale, q) grid; rows are scales, columns are q."""

    scales: ScaleGrid
    qs: QGrid
    values: np.ndarray

    def __post_init__(self):
        v = _array("fluctuation table", self.values, 2)
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
        n_max: largest scale, strictly greater than n_min and below 2**53.
        count: number of log-spaced points before rounding, at least 2.
    """
    for label, value in (("n_min", n_min), ("n_max", n_max), ("count", count)):
        _real(label, value)
    if n_min < 2:
        raise ValidationError(f"n_min must be at least 2, got {n_min}")
    if n_max <= n_min:
        raise ValidationError(f"need n_min < n_max, got ({n_min}, {n_max})")
    if not n_max < 2**53:  # float64 holds every integer below it, so the scales round exactly
        raise ValidationError(f"n_max must be below 2**53, got {n_max}")
    if not count < MAX_VALUES:
        raise ValidationError(f"scale count {count} is more than numpy can index")
    count = _whole("count", count, 2)
    raw = np.logspace(np.log10(n_min), np.log10(n_max), count)
    # round half away from zero, so grids match across platforms
    ns = np.floor(raw + 0.5).astype(int)
    return ScaleGrid(ns[np.diff(ns, prepend=0) > 0])  # sorted, so repeats are adjacent


def build_q_grid(q_min: float, q_max: float, q_step: float) -> QGrid:
    """Uniform q grid from q_min to q_max inclusive; snaps tiny values to 0."""
    for label, value in (("q_min", q_min), ("q_max", q_max), ("q_step", q_step)):
        _real(label, value)
    if q_step <= 0:
        raise ValidationError(f"q_step must be positive, got {q_step}")
    if q_max <= q_min:
        raise ValidationError(f"need q_min < q_max, got ({q_min}, {q_max})")
    steps = (q_max - q_min) / q_step
    if not steps < MAX_VALUES:
        raise ValidationError(f"q range ({q_min}, {q_max}) in steps of {q_step} needs "
                              f"{steps:g} steps, more than numpy can index")
    count = int(round(steps)) + 1
    if not np.isclose(q_min + (count - 1) * q_step, q_max, rtol=0, atol=1e-9):
        raise ValidationError(f"q range ({q_min}, {q_max}) is not an integer number "
                              f"of steps {q_step}")
    qs = q_min + np.arange(count) * q_step
    qs[np.abs(qs) < 1e-12] = 0.0
    return QGrid(qs)


def _fit_mask(scales: ScaleGrid, fit_range) -> tuple[np.ndarray, tuple[float, float]]:
    """The scales inside ``fit_range``, inclusive, and its ends as floats; at least 3 fall inside."""
    lo, hi = (float(_real(label, end)) for label, end in zip(("fit_lo", "fit_hi"), fit_range))
    mask = (scales.values >= lo) & (scales.values <= hi)
    if int(mask.sum()) < 3:
        raise ValidationError(f"fit range ({lo:g}, {hi:g}) selects {int(mask.sum())} scales, "
                              "need at least 3")
    return mask, (lo, hi)


def _check_legendre_window(qs: QGrid, half_window: int) -> int:
    """``half_window`` as an int; the local tau(q) slope needs 2 * half_window + 1 q points."""
    half_window = _whole("legendre half-window", half_window, 1)
    if len(qs) < 2 * half_window + 1:
        raise ValidationError(f"need at least {_shown(2 * half_window + 1)} q points "
                              f"for half_window={_shown(half_window)}")
    return half_window


def fit_scaling(table: FluctuationTable, fit_range=None, fractal_dim: float = 1.0) -> ScalingEstimate:
    """Fit ln F_q(n) against ln n for every q at once and derive the mass exponents.

    One centred least-squares fit over the whole log table: with x_c the
    ln n of the fit range minus its mean, h = x_c' ln F / S_xx.  The
    standard errors come from the explicit residuals, so an exact power law
    gives an SE at rounding-noise level rather than one contaminated by a
    1 - r**2 cancellation.

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
    mask, fit_range = _fit_mask(table.scales, (ns[0], ns[-1]) if fit_range is None else fit_range)
    sub = table.values[mask, :]
    if np.any(sub <= 0):
        bad = np.argwhere(sub <= 0)[0]
        n_bad = ns[mask][bad[0]]
        q_bad = table.qs.values[bad[1]]
        raise DegenerateDataError(
            f"non-positive fluctuation at n={n_bad:g}, q={q_bad:g}; cannot take logs"
        )
    ln_f = np.log(sub)
    xc = np.log(ns[mask])
    xc -= xc.mean()
    sxx = float(xc @ xc)
    h = xc @ ln_f / sxx
    resid = (ln_f - ln_f.mean(axis=0)) - np.outer(xc, h)
    se = np.sqrt(np.sum(resid * resid, axis=0) / (xc.size - 2) / sxx)  # _fit_mask keeps >= 3 scales
    tau = table.qs.values * h - fractal_dim
    return ScalingEstimate(table.qs, h, se, tau, float(fractal_dim), fit_range)


def legendre_spectrum(est: ScalingEstimate, half_window: int = 3) -> SingularitySpectrum:
    """Singularity spectrum by locally-linear differentiation of tau(q).

    alpha at each interior q is the slope of the least-squares line through
    the 2 * half_window + 1 surrounding (q, tau) points; f = q * alpha - tau
    at the same points.  Requires a uniformly spaced q grid.
    """
    half_window = _check_legendre_window(est.qs, half_window)
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


def _check_weights(weights, counts=(2, 4), zero_ok: bool = False) -> tuple[float, ...]:
    """A cascade's weights as floats: ``counts`` says how many, ``zero_ok`` whether one may be 0."""
    w = np.atleast_1d(np.asarray(weights, dtype=object))
    if len(w) not in counts:
        names = " or ".join({2: "two", 4: "four"}[c] for c in counts)
        exactly = "exactly " if len(counts) == 1 else ""
        raise ValidationError(f"expected {exactly}{names} weights, got {len(w)}")
    w = tuple(float(_real("weight", x)) for x in w)
    if zero_ok and any(x < 0 for x in w):
        raise ValidationError(f"weights must be nonnegative, got {w}")
    if not zero_ok and any(x <= 0 for x in w):
        raise ValidationError("analytic formulas need strictly positive weights")
    if abs(sum(w) - 1.0) > 1e-12:
        raise ValidationError(f"weights must sum to 1 within 1e-12, got {sum(w)!r}")
    return w


def _closed_form(name, weights, q, formula) -> np.ndarray | float:
    """``formula(w, powers)`` of a cascade's weights w at each q, powers[q, i] = w_i^q.

    A value that is not finite (some w_i^q overflows or underflows) raises a
    ValidationError naming the first such q; numpy's warnings stay silent.
    """
    w, q = np.array(_check_weights(weights)), np.asarray(q, dtype=float)
    with np.errstate(all="ignore"):
        out = formula(w, w[None, :] ** np.atleast_1d(q)[:, None])
    if not np.all(np.isfinite(out)):
        first = np.atleast_1d(q)[~np.isfinite(out)][0]
        raise ValidationError(f"closed-form {name}(q) is not finite at q={first:g}")
    return out.reshape(q.shape) if q.ndim else float(out[0])


def analytic_tau(weights, q) -> np.ndarray | float:
    """Closed-form mass exponent -log2(sum_i w_i^q) of a cascade.

    ``weights`` are the mass fractions of one refinement step: two for the
    binomial cascade, four for the square cascade.
    """
    return _closed_form("tau", weights, q, lambda w, powers: -np.log(powers.sum(axis=1)) / LN2)


def analytic_alpha(weights, q) -> np.ndarray | float:
    """Closed-form singularity strength alpha(q) = tau'(q) of a cascade."""
    return _closed_form("alpha", weights, q, lambda w, powers:
                        -(powers * np.log(w)[None, :]).sum(axis=1) / (powers.sum(axis=1) * LN2))


def analytic_f(weights, q) -> np.ndarray | float:
    """Closed-form spectrum value f(q) = q * alpha(q) - tau(q) of a cascade."""
    q = np.asarray(q, dtype=float)
    out = q * analytic_alpha(weights, q) - analytic_tau(weights, q)
    return out if out.ndim else float(out)


def _binomial_weights(p1: float) -> tuple[float, float]:
    """The weights (p1, 1 - p1) of the binomial cascade."""
    return _real("p1", p1, 0, 1, strict=True), 1.0 - p1


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
    ref = _array("analytic tau", tau_analytic, 1)
    if ref.shape != est.tau.shape:
        raise ValidationError(f"analytic tau has shape {ref.shape}, estimate has {est.tau.shape}")
    return est.tau - ref


def spectrum_width(spec: SingularitySpectrum) -> float:
    """Width of the singularity spectrum, alpha_max - alpha_min."""
    return spec.width
