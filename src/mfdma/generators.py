"""Synthetic multifractal measures, monofractal baselines, and surrogates.

The deterministic cascade generators come with exact analytic spectra
(see :mod:`mfdma.spectrum`), which makes them the reference inputs for
validating the estimators in :mod:`mfdma.dma1d` and :mod:`mfdma.dma2d`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .spectrum import MAX_VALUES, _array, _binomial_weights, _check_weights, _shown, _whole

__all__ = [
    "Series",
    "Surface",
    "CascadeSpec1D",
    "CascadeSpec2D",
    "binomial_measure_1d",
    "cascade_measure_2d",
    "gaussian_noise",
    "shuffle_surrogate",
]

# Memory guards: 2^30 doubles is 8 GiB, 4^12 doubles is 128 MiB.
MAX_LEVELS_1D = 30
MAX_LEVELS_2D = 12


@dataclass(frozen=True)
class _Values:
    """Finite real values with ``ndim`` axes, coerced to a float64 array.

    Analysis entry points additionally require at least 4 points along
    every axis.
    """

    values: np.ndarray
    name: str | None = None

    def __post_init__(self):
        kind = type(self).__name__.lower()
        object.__setattr__(self, "values", _array(kind, self.values, self.ndim))


class Series(_Values):
    """A one-dimensional real signal x(t), t = 1..N."""

    ndim = 1

    def __len__(self):
        return self.values.size


class Surface(_Values):
    """A two-dimensional real field X(i1, i2) of shape N1 x N2; a flat index names a bad value."""

    ndim = 2

    @property
    def shape(self):
        return self.values.shape


def _check_levels(levels: int, cap: int) -> int:
    """A cascade's ``levels`` as an int; it must be a positive integer no deeper than ``cap``."""
    levels = _whole("levels", levels, 1)
    if levels > cap:
        raise ValidationError(f"levels={_shown(levels)} exceeds the memory guard of {cap}")
    return levels


@dataclass(frozen=True)
class CascadeSpec1D:
    """Parameters of the deterministic binomial cascade.

    At every refinement step the mass of a segment is split between its
    left child (fraction ``p1``) and right child (fraction ``1 - p1``).
    After ``levels`` steps the result has 2**levels entries.
    """

    p1: float
    levels: int

    def __post_init__(self):
        _binomial_weights(self.p1)  # raises unless 0 < p1 < 1
        object.__setattr__(self, "levels", _check_levels(self.levels, MAX_LEVELS_1D))


@dataclass(frozen=True)
class CascadeSpec2D:
    """Parameters of the deterministic four-way square cascade.

    ``weights`` are the mass fractions assigned to the four quadrants in
    row-major order (top-left, top-right, bottom-left, bottom-right) and
    must sum to one.  The output is a 2**levels square matrix.

    A weight may be zero, unlike ``CascadeSpec1D``'s ``p1``, which must lie
    strictly inside (0, 1).  With k nonzero weights the mass lives on a
    support of dimension log2(k) < 2, whose q > 0 moments still scale; a
    binomial cascade with p1 = 0 or 1 is a single spike.  Zero cells
    give zero-RMS segments, so the estimators raise DegenerateSegmentError
    for q <= 0, and the analytic formulas, whose w**q diverges there,
    reject zero weights in both dimensions.
    """

    weights: tuple[float, float, float, float]
    levels: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weights(self.weights, (4,), zero_ok=True))
        object.__setattr__(self, "levels", _check_levels(self.levels, MAX_LEVELS_2D))


def _cascade(split: np.ndarray, levels: int) -> np.ndarray:
    """Unit mass refined ``levels`` times, each cell handing out ``split``'s fractions."""
    measure = np.ones((1,) * split.ndim)
    for _ in range(levels):
        measure = np.kron(measure, split)
    return measure


def binomial_measure_1d(spec: CascadeSpec1D) -> Series:
    """Generate the deterministic binomial measure of length 2**levels.

    Starting from total mass 1, each segment repeatedly hands fraction
    ``p1`` to its left half and ``1 - p1`` to its right half.  The
    construction is deterministic, so repeated calls are bitwise equal.
    """
    measure = _cascade(np.array(_binomial_weights(spec.p1)), spec.levels)
    return Series(measure, name=f"binomial(p1={spec.p1:g}, levels={spec.levels})")


def cascade_measure_2d(spec: CascadeSpec2D) -> Surface:
    """Generate the deterministic 2**levels square cascade measure.

    Each cell splits into four quadrants weighted (top-left, top-right,
    bottom-left, bottom-right) by ``spec.weights``, recursively.
    """
    measure = _cascade(np.array(spec.weights).reshape(2, 2), spec.levels)
    return Surface(measure, name=f"cascade2d(weights={spec.weights}, levels={spec.levels})")


def _seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default generator seeded with ``seed``, a non-negative integer."""
    return np.random.default_rng(_whole("seed", seed, 0))


def gaussian_noise(length: int, seed: int) -> Series:
    """Draw i.i.d. standard normal noise; the same seed gives the same draw."""
    length = _whole("noise length", length, 16)
    if not length < MAX_VALUES:
        raise ValidationError(f"noise length {_shown(length)} is more than numpy can index")
    rng = _seeded_rng(seed)
    return Series(rng.standard_normal(length), name=f"gaussian(length={length}, seed={seed})")


def shuffle_surrogate(series: Series, seed: int) -> Series:
    """Return a uniformly random permutation of the series' values.

    The permutation is a seeded Fisher-Yates shuffle, so the multiset of
    values is preserved exactly and the draw is reproducible.
    """
    shuffled = _seeded_rng(seed).permutation(series.values)
    tag = f"{series.name} [shuffled seed={seed}]" if series.name else None
    return Series(shuffled, name=tag)
