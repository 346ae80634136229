"""Every estimator path against the literal transcriptions in ``reference``."""
import functools

import numpy as np
import pytest

from mfdma import (
    mfdfa_fluctuations_1d,
    mfdfa_fluctuations_2d,
    mfdma_fluctuations_1d,
    mfdma_fluctuations_2d,
)
from mfdma import dma1d, dma2d
from mfdma.dma2d import RECOMPUTE_EVERY

import reference

QS = [-3.0, -1.0, 0.0, 1.0, 3.0]
THETAS = [0.0, 0.3, 0.5, 1.0]
SERIES = np.random.default_rng(257).standard_normal(257)
SCALES_1D = [3, 5, 8, 13, 21, 34, 64]
# at n = 3 the 148 window rows cross a strip of RECOMPUTE_EVERY rows, and the 2-d
# pass's row window, sized for the strip plus a scale's block row, must move its front
SURFACE = np.random.default_rng(150).standard_normal((150, 24))
SCALES_2D = [3, 4, 6]
assert SURFACE.shape[0] - SCALES_2D[0] + 1 > RECOMPUTE_EVERY


ORACLES = {
    "mfdma_1d": (reference.mfdma_rms_1d, SERIES, SCALES_1D),
    "mfdma_2d": (reference.mfdma_rms_2d, SURFACE, SCALES_2D),
    "mfdfa_1d": (reference.mfdfa_rms_1d, SERIES, SCALES_1D),
    "mfdfa_2d": (reference.mfdfa_rms_2d, SURFACE, SCALES_2D),
}


@functools.cache
def expected(estimator, theta=None):
    """The literal F_q(n) table of one ``ORACLES`` estimator, at ``theta`` for MFDMA."""
    rms_at, data, scales = ORACLES[estimator]
    args = () if theta is None else (theta,)
    return reference.fluctuation_table(lambda n: rms_at(data, n, *args), scales, QS)


def assert_matches(table, estimator, theta=None):
    np.testing.assert_allclose(table.values, expected(estimator, theta), rtol=1e-9, atol=0)


@pytest.mark.parametrize("theta", THETAS)
def test_mfdma_1d_matches_the_literal_window(theta):
    assert_matches(mfdma_fluctuations_1d(SERIES, SCALES_1D, QS, theta), "mfdma_1d", theta)


@pytest.mark.parametrize("theta", THETAS)
def test_mfdma_2d_matches_the_literal_window(theta):
    assert_matches(mfdma_fluctuations_2d(SURFACE, SCALES_2D, QS, theta), "mfdma_2d", theta)


# compare's thetas, and a pass that lists the largest shift first
@pytest.mark.parametrize("thetas", [(0.0, 0.5, 1.0), (1.0, 0.3, 0.0)], ids=["0-0.5-1", "1-0.3-0"])
@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_a_shared_mfdma_pass_matches_the_literal_window_at_each_theta(dim, thetas):
    tables = (dma1d._mfdma_tables_1d(SERIES, SCALES_1D, QS, list(thetas)) if dim == "1d"
              else dma2d._mfdma_tables_2d(SURFACE, SCALES_2D, QS, list(thetas)))
    for table, theta in zip(tables, thetas, strict=True):
        assert_matches(table, f"mfdma_{dim}", theta)


def test_mfdfa_1d_matches_literal_line_fits():
    assert_matches(mfdfa_fluctuations_1d(SERIES, SCALES_1D, QS), "mfdfa_1d")


def test_mfdfa_2d_matches_literal_plane_fits():
    assert_matches(mfdfa_fluctuations_2d(SURFACE, SCALES_2D, QS), "mfdfa_2d")


# the white-noise oracle: the mean ratio of measured to exact F_2(n)^2 over the
# seeds lies within NOISE_K standard errors of 1; small n, where the test has power
NOISE_SEEDS = range(16)
NOISE_LENGTH = 2**14
NOISE_SCALES = [4, 10, 25]
NOISE_K = 5
# per q of the 1-d oracle, the largest standard error of the mean ratio allowed; a
# shift of the window moves F_4^4 about twice as far as F_2^2, and its ratio is
# noisier: its standard errors read 0.006 to 0.019 on these seeds, largest at n = 25.
# q = -2 takes q = 2's bound and q = -4 takes q = 4's, each fixed before its first run
NOISE_SE_BOUND = {2.0: 0.02, 4.0: 0.05, -2.0: 0.02, -4.0: 0.05}


def test_white_noise_weights_give_the_closed_forms():
    for n in range(3, 41):
        for theta in THETAS:
            b, f = np.ceil((n - 1) * (1 - theta)), np.floor((n - 1) * theta)
            closed = (b * (b + 1) * (2 * b + 1) + f * (f + 1) * (2 * f + 1)) / (6 * n * n)
            assert reference.white_noise_f2_mfdma_1d(n, theta) == pytest.approx(closed, rel=1e-12)
            segment = reference.white_noise_segment_weights_mfdma_1d(n, theta)
            assert reference.white_noise_moment_1d(segment, 2) == pytest.approx(closed, rel=1e-12)
        exact = reference.white_noise_f2_mfdfa_1d(n)
        assert exact == pytest.approx((n * n - 4) / (15 * n), rel=1e-12)


def test_white_noise_inverse_moment_matches_a_scaled_chi_square():
    # M = lambda I of rank k makes F_v^2 lambda times a chi-square with k degrees of freedom,
    # whose inverse has mean 1 / (k - 2) and inverse square 1 / ((k - 2)(k - 4)); the two zero
    # columns give M two zero eigenvalues
    for lam, k in [(0.3, 3), (0.3, 5), (2.0, 10), (0.01, 25)]:
        weights = np.zeros((k, k + 2))
        weights[:, :k] = np.sqrt(lam * k) * np.eye(k)
        assert reference.white_noise_moment_1d(weights, -2) == pytest.approx(
            1 / (lam * (k - 2)), rel=1e-12)
        if k > 4:
            assert reference.white_noise_moment_1d(weights, -4) == pytest.approx(
                1 / (lam * lam * (k - 2) * (k - 4)), rel=1e-12)


@pytest.mark.parametrize(
    "theta, q", [(theta, q) for q in (2.0, 4.0, -2.0, -4.0) for theta in (0.0, 0.5, 1.0, None)],
    ids=["0", "0.5", "1", "mfdfa", "0-q4", "0.5-q4", "1-q4", "mfdfa-q4",
         "0-q-2", "0.5-q-2", "1-q-2", "mfdfa-q-2", "0-q-4", "0.5-q-4", "1-q-4", "mfdfa-q-4"],
)
def test_white_noise_f2_has_its_exact_expectation_1d(theta, q):
    # F_v^q, q < 0, has finite variance only when a segment's matrix has rank above -2q.  At
    # n = 4 the rank is 4 or less (3 for MFDFA), so q = -2 starts at n = 10; at n = 10 MFDFA's
    # rank is 8, so q = -4 takes n = 25 only
    scales = {-2.0: NOISE_SCALES[1:], -4.0: NOISE_SCALES[2:]}.get(q, NOISE_SCALES)
    if theta is None:
        estimate = functools.partial(mfdfa_fluctuations_1d, scales=scales, qs=[q])
        segments = [reference.white_noise_weights_mfdfa_1d(n) for n in scales]
    else:
        estimate = functools.partial(mfdma_fluctuations_1d, scales=scales, qs=[q], theta=theta)
        segments = [reference.white_noise_segment_weights_mfdma_1d(n, theta) for n in scales]
    exact = [reference.white_noise_moment_1d(weights, q) for weights in segments]
    ratios = np.array([
        estimate(np.random.default_rng(seed).standard_normal(NOISE_LENGTH)).values[:, 0] ** q
        for seed in NOISE_SEEDS
    ]) / exact
    mean, se = ratios.mean(axis=0), ratios.std(axis=0, ddof=1) / np.sqrt(len(NOISE_SEEDS))
    assert np.all(se < NOISE_SE_BOUND[q]), se  # enough power to tell a one-point shift
    assert np.all(np.abs(mean - 1) <= NOISE_K * se), (mean, se)


# the 2-d half: a surface of NOISE_SIDE^2 points per seed, the same seeds and bound
NOISE_SIDE = 256
NOISE_SCALES_2D = [4, 6, 8]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_white_noise_weights_make_the_2d_residual_maps(n):
    x = np.random.default_rng(n).standard_normal((13, 11))
    for theta in THETAS:
        cfg = dma2d.DetrendConfig2D(n, n, theta)
        residuals = dma2d.residual_matrix_2d(dma2d.window_aggregates(x, cfg), cfg)
        weights = reference.white_noise_weights_mfdma_2d(n, theta)
        windows = np.lib.stride_tricks.sliding_window_view(x, weights.shape)
        np.testing.assert_allclose(residuals, np.einsum("ijab,ab->ij", windows, weights),
                                   rtol=1e-12, atol=1e-12)
        # one block's residuals, on the smallest input that holds them
        block = reference.white_noise_block_weights_mfdma_2d(n, theta)
        side = n - 1 + weights.shape[0]
        y = np.random.default_rng(n).standard_normal((side, side))
        np.testing.assert_allclose(
            dma2d.residual_matrix_2d(dma2d.window_aggregates(y, cfg), cfg)[:n, :n].ravel(),
            block @ y.ravel(), rtol=1e-12, atol=1e-12)
        assert (reference.white_noise_moment_1d(block, 2)
                == pytest.approx(reference.white_noise_f2_mfdma_2d(n, theta), rel=1e-12))
    blocks = dma1d._blocks(x, n)  # axes (c1, u, c2, v)
    residuals = dma2d._plane_residuals(blocks.cumsum(axis=3).cumsum(axis=1))
    flat = blocks.transpose(0, 2, 1, 3).reshape(*blocks.shape[::2], n * n)
    expected = (flat @ reference.white_noise_weights_mfdfa_2d(n).T).reshape(
        *blocks.shape[::2], n, n).transpose(0, 2, 1, 3)
    np.testing.assert_allclose(residuals, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "theta, q", [(theta, q) for q in (2.0, 4.0, -2.0, -4.0) for theta in (0.0, 0.5, 1.0, None)],
    ids=["0", "0.5", "1", "mfdfa", "0-q4", "0.5-q4", "1-q4", "mfdfa-q4",
         "0-q-2", "0.5-q-2", "1-q-2", "mfdfa-q-2", "0-q-4", "0.5-q-4", "1-q-4", "mfdfa-q-4"],
)
def test_white_noise_f2_has_its_exact_expectation_2d(theta, q):
    # the block matrices have rank 16, 36, 64 (MFDMA) and 13, 33, 61 (MFDFA), all above 8,
    # so F_v^-2 and F_v^-4 have finite variance at every scale
    if theta is None:
        estimate = functools.partial(mfdfa_fluctuations_2d, scales=NOISE_SCALES_2D, qs=[q])
        blocks = [reference.white_noise_weights_mfdfa_2d(n) for n in NOISE_SCALES_2D]
    else:
        estimate = functools.partial(mfdma_fluctuations_2d, scales=NOISE_SCALES_2D, qs=[q],
                                     theta=theta)
        blocks = [reference.white_noise_block_weights_mfdma_2d(n, theta) for n in NOISE_SCALES_2D]
    exact = [reference.white_noise_moment_1d(weights, q) for weights in blocks]
    ratios = np.array([
        estimate(np.random.default_rng(seed).standard_normal((NOISE_SIDE, NOISE_SIDE)))
        .values[:, 0] ** q
        for seed in NOISE_SEEDS
    ]) / exact
    mean, se = ratios.mean(axis=0), ratios.std(axis=0, ddof=1) / np.sqrt(len(NOISE_SEEDS))
    # at q = 2, the 1-d shift rule moves F_2^2 by 15% or more at theta 0.5
    assert np.all(se < NOISE_SE_BOUND[q]), se
    assert np.all(np.abs(mean - 1) <= NOISE_K * se), (mean, se)


# the fGn oracle: the same seeds and bound as the white-noise one, at one H, on
# correlated inputs whose exact F_2(n)^2 needs the covariance, not only the weights.
# At n = 100 one seed's backward or forward F_2^2 spreads by 12% on fGn at H = 0.7
# (300 seeds of 2^14 points), so 16 seeds need 2^16 points for a standard error
# below 2%; at 2^14 it read 3.1%
FGN_HURST = 0.7
FGN_LENGTH = 2**16
FGN_SCALES = [10, 25, 100]


@functools.cache
def fgn(seed):
    return reference.fractional_gaussian_noise(FGN_LENGTH, FGN_HURST, np.random.default_rng(seed))


def test_fgn_at_half_is_white_noise():
    assert reference.fgn_autocovariance(np.arange(-3, 4), 0.5).tolist() == [0, 0, 0, 1, 0, 0, 0]
    for n in FGN_SCALES:
        for theta in THETAS:
            assert (reference.fgn_f2_mfdma_1d(n, theta, 0.5)
                    == pytest.approx(reference.white_noise_f2_mfdma_1d(n, theta), rel=1e-12))
        assert (reference.fgn_f2_mfdfa_1d(n, 0.5)
                == pytest.approx(reference.white_noise_f2_mfdfa_1d(n), rel=1e-12))
    for n in NOISE_SCALES_2D:
        for theta in THETAS:
            assert (reference.fgn_f2_mfdma_2d(n, theta, 0.5)
                    == pytest.approx(reference.white_noise_f2_mfdma_2d(n, theta), rel=1e-12))
        assert (reference.fgn_f2_mfdfa_2d(n, 0.5)
                == pytest.approx(reference.white_noise_f2_mfdfa_2d(n), rel=1e-12))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, None], ids=["0", "0.5", "1", "mfdfa"])
def test_fgn_f2_has_its_exact_expectation_1d(theta):
    if theta is None:
        estimate = functools.partial(mfdfa_fluctuations_1d, scales=FGN_SCALES, qs=[2.0])
        exact = [reference.fgn_f2_mfdfa_1d(n, FGN_HURST) for n in FGN_SCALES]
    else:
        estimate = functools.partial(mfdma_fluctuations_1d, scales=FGN_SCALES, qs=[2.0],
                                     theta=theta)
        exact = [reference.fgn_f2_mfdma_1d(n, theta, FGN_HURST) for n in FGN_SCALES]
    ratios = np.array([estimate(fgn(seed)).values[:, 0] ** 2 for seed in NOISE_SEEDS]) / exact
    mean, se = ratios.mean(axis=0), ratios.std(axis=0, ddof=1) / np.sqrt(len(NOISE_SEEDS))
    assert np.all(se < 0.02), se
    assert np.all(np.abs(mean - 1) <= NOISE_K * se), (mean, se)


# the 2-d half: a separable fGn field of NOISE_SIDE^2 points per seed, with the
# white-noise oracle's seeds, scales and bounds
@functools.cache
def fgn_field(seed):
    return reference.fractional_gaussian_field((NOISE_SIDE, NOISE_SIDE), FGN_HURST,
                                               np.random.default_rng(seed))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, None], ids=["0", "0.5", "1", "mfdfa"])
def test_fgn_f2_has_its_exact_expectation_2d(theta):
    if theta is None:
        estimate = functools.partial(mfdfa_fluctuations_2d, scales=NOISE_SCALES_2D, qs=[2.0])
        exact = [reference.fgn_f2_mfdfa_2d(n, FGN_HURST) for n in NOISE_SCALES_2D]
    else:
        estimate = functools.partial(mfdma_fluctuations_2d, scales=NOISE_SCALES_2D, qs=[2.0],
                                     theta=theta)
        exact = [reference.fgn_f2_mfdma_2d(n, theta, FGN_HURST) for n in NOISE_SCALES_2D]
    ratios = np.array([estimate(fgn_field(seed)).values[:, 0] ** 2
                       for seed in NOISE_SEEDS]) / exact
    mean, se = ratios.mean(axis=0), ratios.std(axis=0, ddof=1) / np.sqrt(len(NOISE_SEEDS))
    assert np.all(se < 0.02), se
    assert np.all(np.abs(mean - 1) <= NOISE_K * se), (mean, se)
