"""The exact move of each estimator's residuals when a constant c is added to the data.

The profile is the plain cumulative sum, so no mean is removed: a constant
offset leaves a pattern c * K in the residuals of every estimator except 1-d
MFDFA, whose line fit takes the c * i term.  Each law is checked on seeded
white noise, to the rounding of the difference of two residual arrays.
"""
import numpy as np
import pytest

from mfdma import DetrendConfig, DetrendConfig2D, residual_matrix_2d, residual_series, window_aggregates
from mfdma import dma1d, dma2d

C = 5.0
SERIES = np.random.default_rng(19).standard_normal(4096)
SURFACE = np.random.default_rng(19).standard_normal((48, 40))


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [10, 11, 64, 65])
def test_an_offset_moves_each_1d_mfdma_residual_by_the_window_lag(n, theta):
    cfg = DetrendConfig(n, theta)
    base, shifted = (residual_series(dma1d._compensated_cumsum(x), cfg) for x in (SERIES, SERIES + C))
    lag = C * (n - 1 - 2 * cfg.future_points) / 2
    assert np.abs(shifted - base - lag).max() <= 1e-14 * C * SERIES.size


@pytest.mark.parametrize("n", [10, 11, 64, 65])
def test_an_offset_leaves_the_1d_mfdfa_residuals(n):
    base, shifted = (dma1d._line_residuals(dma1d._blocks(dma1d._compensated_cumsum(x), n))
                     for x in (SERIES, SERIES + C))
    assert np.abs(shifted - base).max() <= 1e-14 * C * SERIES.size


# a constant surface's window sum is c n^2 and the mean of its cumulative sum
# c ((n + 1) / 2)^2, so every residual moves by c (n - 1)(3n + 1) / 4 at every theta
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [4, 5, 6, 8, 9])
def test_an_offset_moves_each_2d_mfdma_residual_by_one_constant(n, theta):
    cfg = DetrendConfig2D(n, n, theta)
    base, shifted = (residual_matrix_2d(window_aggregates(x, cfg), cfg) for x in (SURFACE, SURFACE + C))
    np.testing.assert_allclose(shifted - base, C * (n - 1) * (3 * n + 1) / 4, rtol=1e-12, atol=0)


# the block-local profile gains c u v, and a plane cannot take the bilinear term
@pytest.mark.parametrize("n", [4, 5, 6])
def test_an_offset_moves_each_2d_mfdfa_residual_by_the_centred_product(n):
    def residuals(x):
        sums = np.cumsum(dma1d._blocks(x, n), axis=3)
        return dma2d._plane_residuals(np.cumsum(sums, axis=1))

    uc = np.arange(n) - (n - 1) / 2
    pattern = C * uc[:, None, None] * uc
    assert np.abs(residuals(SURFACE + C) - residuals(SURFACE) - pattern).max() <= 1e-14 * C * n * n
