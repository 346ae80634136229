import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdma import (
    CascadeSpec1D,
    DegenerateSegmentError,
    DetrendConfig,
    Series,
    ValidationError,
    analytic_tau_1d,
    binomial_measure_1d,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
    gaussian_noise,
    mfdfa_fluctuations_1d,
    mfdfa_fluctuations_2d,
    mfdma_fluctuations_1d,
    mfdma_fluctuations_2d,
    moving_average,
    overall_fluctuation,
    profile,
    residual_series,
    segment_rms,
)
from mfdma import dma1d
from mfdma.dma1d import SegmentFluctuations, _compensated_cumsum, _power_mean
from mfdma.pipeline import AnalysisConfig, _resolve_grids
from mfdma.spectrum import as_scale_grid
import reference
from reference import exact_window_mean, scalar_power_mean, window_mean


# ---------------------------------------------------------------- profile

def test_profile_examples():
    assert np.array_equal(profile([1, 1, 1, 1]), [1, 2, 3, 4])
    assert np.array_equal(profile([0, 0, 0]), [0, 0, 0])
    assert np.array_equal(profile([1, -1, 2]), [1, 0, 2])


def test_profile_differences_recover_series(rng):
    x = rng.standard_normal(4096)
    y = profile(x)
    assert np.allclose(np.diff(y), x[1:], rtol=1e-9, atol=1e-12)
    assert y[0] == x[0]


def test_compensated_cumsum_tracks_fsum():
    # alternating huge/tiny terms defeat plain accumulation
    rng = np.random.default_rng(3)
    x = np.where(np.arange(20000) % 2 == 0, 1e9, 1e-9) * rng.standard_normal(20000)
    y = _compensated_cumsum(x)
    acc = 0.0
    checkpoints = [0, 1023, 1024, 9999, 19999]
    exact = []
    for i, v in enumerate(x):
        acc = math.fsum([acc, v])
        if i in checkpoints:
            exact.append(acc)
    for idx, ref in zip(checkpoints, exact):
        assert y[idx] == pytest.approx(ref, rel=1e-12, abs=1e-6)


# ------------------------------------------------------- moving average

def test_moving_average_arithmetic_progression():
    y = np.array([1.0, 2, 3, 4, 5, 6])
    backward = DetrendConfig(3, 0.0)
    forward = DetrendConfig(3, 1.0)
    # values are the same for every theta; theta moves the domain
    assert np.allclose(moving_average(y, backward), [2, 3, 4, 5])
    assert np.allclose(moving_average(y, forward), [2, 3, 4, 5])
    # domain start t = n - floor((n-1) theta), 1-based
    assert backward.n - backward.future_points == 3
    assert forward.n - forward.future_points == 1


def test_moving_average_constant_invariance():
    y = np.full(50, 3.25)
    for theta in (0.0, 0.3, 0.5, 1.0):
        assert np.allclose(moving_average(y, DetrendConfig(7, theta)), 3.25)


def test_moving_average_rejects_window_beyond_series():
    with pytest.raises(ValidationError):
        moving_average(np.arange(5.0), DetrendConfig(6, 0.0))


@pytest.fixture(scope="module")
def noise_k14():
    return gaussian_noise(2**14, seed=11)


# Per-segment F_v of the O(N) moving average against the sliding-window
# oracle.  On the k=14 binomial a naive global prefix sum errs by up to
# 9.5e-9, the block-local sums by under 3e-11.
ORACLE_RTOL = 1e-9


def _oracle_fv(monkeypatch, y, n, theta, mean=window_mean):
    """Per-segment F_v at scale n, from moving_average and from ``mean``."""
    cfg = DetrendConfig(n, theta)
    fast = segment_rms(residual_series(y, cfg), n)
    with monkeypatch.context() as patch:
        patch.setattr(dma1d, "moving_average", lambda values, c: mean(values, c.n))
        slow = segment_rms(residual_series(y, cfg), n)
    return fast, slow


@pytest.mark.parametrize(
    "data, scales, theta",
    [
        ("binomial_k14", build_scale_grid(10, 1000, 30).values.tolist(), 0.0),
        ("binomial_k14", build_scale_grid(10, 1000, 30).values.tolist(), 0.5),
        ("binomial_k14", build_scale_grid(10, 1000, 30).values.tolist(), 1.0),
        ("noise_k14", build_scale_grid(10, 4096, 30).values.tolist(), 0.0),  # up to N/4
        ("noise_k14", [2, 3, 999, 5461, 8192], 0.5),  # n = 2; N % n != 0
    ],
    ids=["binomial-theta0", "binomial-theta0.5", "binomial-theta1", "noise-n-to-N/4", "edges"],
)
def test_moving_average_matches_the_sliding_window_oracle(
    request, monkeypatch, data, scales, theta
):
    y = profile(request.getfixturevalue(data))
    for n in scales:
        fast, slow = _oracle_fv(monkeypatch, y, n, theta)
        np.testing.assert_allclose(fast, slow, rtol=ORACLE_RTOL, atol=0, err_msg=f"n={n}")


def test_moving_average_window_of_the_whole_series(rng):
    y = profile(rng.standard_normal(1001))
    for theta in (0.0, 0.5, 1.0):
        means = moving_average(y, DetrendConfig(y.size, theta))
        assert means.shape == (1,)
        np.testing.assert_allclose(means, window_mean(y, y.size), rtol=ORACLE_RTOL, atol=0)


def test_moving_average_is_exact_on_an_integer_profile(rng):
    # every partial sum of an integer profile is exact, so is every mean
    y = profile(rng.integers(-1000, 1001, 5003).astype(float))
    for n in (2, 3, 7, 64, 1000, 2501, 5003):
        assert moving_average(y, DetrendConfig(n)).tobytes() == window_mean(y, n).tobytes()


def test_moving_average_tracks_the_exact_window_mean(monkeypatch):
    y = profile(binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=12)))
    for n in build_scale_grid(10, 1000, 30).values.tolist():
        fast, exact = _oracle_fv(monkeypatch, y, n, 0.0, mean=exact_window_mean)
        np.testing.assert_allclose(fast, exact, rtol=ORACLE_RTOL, atol=0, err_msg=f"n={n}")


def test_scales_up_to_a_quarter_of_the_series_take_linear_time():
    # the sliding mean did O(N * n) work per scale: minutes at this size
    noise = gaussian_noise(2**19, seed=7)
    scales = build_scale_grid(10, 2**17, 30)
    start = time.perf_counter()
    table = mfdma_fluctuations_1d(noise, scales, [2.0])
    assert time.perf_counter() - start < 10.0
    assert np.all(table.values > 0)


# ------------------------------------------------------------ residuals

def test_residuals_of_constant_profile_are_zero():
    y = np.full(40, 2.5)
    for theta in (0.0, 0.5, 1.0):
        assert np.allclose(residual_series(y, DetrendConfig(5, theta)), 0.0)


def test_residuals_linear_profile_backward():
    y = np.array([1.0, 2, 3, 4, 5, 6])
    eps = residual_series(y, DetrendConfig(3, 0.0))
    assert np.allclose(eps, [1, 1, 1, 1])


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [2, 7, 100])
def test_residual_length_is_n_minus_window_plus_one(theta, n, rng):
    y = np.cumsum(rng.standard_normal(500))
    assert residual_series(y, DetrendConfig(n, theta)).size == 500 - n + 1


def test_residual_length_large_case(rng):
    y = np.cumsum(rng.standard_normal(16384))
    assert residual_series(y, DetrendConfig(100, 0.0)).size == 16285


# ------------------------------------------------------------- segments

def test_segment_rms_examples():
    segs = segment_rms(np.array([3.0, 4.0, 0.0, 0.0]), 2)
    assert segs == pytest.approx([3.5355339, 0.0], abs=1e-7)

    assert np.array_equal(segment_rms(np.zeros(12), 3), np.zeros(4))

    truncated = segment_rms(np.array([1.0, 1.0, 1.0]), 2)
    assert np.array_equal(truncated, [1.0])


def test_segment_rms_returns_the_f_v_array(rng):
    eps = rng.standard_normal((12, 12))
    for f_v in (segment_rms(eps[0], 3), segment_rms(eps, 3), segment_rms(eps, 3, carry=[])):
        assert type(f_v) is np.ndarray and f_v.shape == (f_v.size,)


def test_segment_rms_rejects_oversize_blocks():
    with pytest.raises(ValidationError):
        segment_rms(np.ones(3), 4)


@pytest.mark.parametrize("values, message", [
    ([], "^segment fluctuations at scale n=4 is empty$"),
    ([[1.0]], r"^segment fluctuations at scale n=4 must be one-dimensional, got shape \(1, 1\)$"),
    ([1.0, -0.5], "cannot be negative"),
], ids=["empty", "2-d", "negative"])
def test_segment_fluctuations_are_a_non_empty_row_of_non_negative_values(values, message):
    with pytest.raises(ValidationError, match=message):
        SegmentFluctuations(np.array(values), scale=4)


# ------------------------------------------------- overall fluctuation

def test_overall_fluctuation_hand_values():
    segs = SegmentFluctuations(np.array([3.0, 4.0]), scale=2)
    assert overall_fluctuation(segs, 2) == pytest.approx(3.5355339, abs=1e-7)
    assert overall_fluctuation(segs, 0) == pytest.approx(3.4641016, abs=1e-7)
    assert overall_fluctuation(segs, -2) == pytest.approx(3.3941125, abs=1e-7)


@pytest.mark.parametrize("q", [-2.0, 0.0])
def test_overall_fluctuation_zero_segment_is_degenerate(q):
    segs = SegmentFluctuations(np.array([1.0, 0.0, 2.0]), scale=8)
    with pytest.raises(DegenerateSegmentError) as err:
        overall_fluctuation(segs, q)
    assert err.value.scale == 8
    assert err.value.q == q
    assert "n=8" in str(err.value)


def test_overall_fluctuation_monotone_in_q(rng):
    qs = np.arange(-5.0, 5.01, 0.25)
    for _ in range(200):
        size = int(rng.integers(2, 40))
        values = rng.lognormal(sigma=1.5, size=size)
        segs = SegmentFluctuations(values, scale=4)
        results = np.array([overall_fluctuation(segs, q) for q in qs])
        assert np.all(np.diff(results) >= 0)


# ------------------------------------------------------ q-grid power mean

SERIES_SCALES = build_scale_grid(10, 1000, 30)  # series defaults for N = 2^14
SURFACE_SCALES = build_scale_grid(8, 256, 15)  # surface defaults for 1024^2
DEFAULT_QS = build_q_grid(-4.0, 4.0, 0.1)


@pytest.mark.parametrize(
    "data, estimator, scales",
    [
        ("binomial_k14", lambda x, s, q: mfdma_fluctuations_1d(x, s, q, theta=0.0), SERIES_SCALES),
        ("binomial_k14", lambda x, s, q: mfdma_fluctuations_1d(x, s, q, theta=0.5), SERIES_SCALES),
        ("binomial_k14", lambda x, s, q: mfdma_fluctuations_1d(x, s, q, theta=1.0), SERIES_SCALES),
        ("binomial_k14", mfdfa_fluctuations_1d, SERIES_SCALES),
        ("cascade_k10", mfdma_fluctuations_2d, SURFACE_SCALES),
        ("cascade_k10", mfdfa_fluctuations_2d, SURFACE_SCALES),
    ],
    ids=["mfdma-theta0", "mfdma-theta0.5", "mfdma-theta1", "mfdfa", "mfdma-2d", "mfdfa-2d"],
)
def test_q_grid_power_mean_is_bitwise_the_scalar_loop(
    request, monkeypatch, data, estimator, scales
):
    calls = []

    def spy(values, qs, scale, **kwargs):
        out = _power_mean(values, qs, scale, **kwargs)
        calls.append((values, scale, out))
        return out

    monkeypatch.setattr(dma1d, "_power_mean", spy)
    table = estimator(request.getfixturevalue(data), scales, DEFAULT_QS)
    assert [scale for _, scale, _ in calls] == scales.values.tolist()
    for values, scale, out in calls:
        ref = np.array([scalar_power_mean(values, q, scale) for q in DEFAULT_QS.values.tolist()])
        assert out.tobytes() == ref.tobytes(), f"n={scale}"
    assert table.values.tobytes() == np.array([out for *_, out in calls]).tobytes()


@pytest.mark.parametrize("qs", [[-2.0, -1.0, 0.0, 1.0], [0.0, 2.0], [-0.5, 3.0]])
def test_q_grid_zero_segment_raises_like_the_scalar_loop(qs):
    values = np.array([1.0, 0.0, 2.0])
    with pytest.raises(DegenerateSegmentError) as ref:
        [scalar_power_mean(values, q, 8) for q in qs]
    with pytest.raises(DegenerateSegmentError) as err:
        _power_mean(values, qs, 8)
    assert (err.value.scale, err.value.q, str(err.value)) == (
        ref.value.scale, ref.value.q, str(ref.value)
    )
    assert err.value.q == qs[0]


def test_q_grid_zero_segment_is_allowed_for_positive_q():
    values = np.array([1.0, 0.0, 2.0])
    qs = [0.5, 1.0, 2.0]
    out = _power_mean(values, qs, 8)
    assert out.tobytes() == np.array([scalar_power_mean(values, q, 8) for q in qs]).tobytes()
    assert np.array_equal(_power_mean(np.zeros(4), qs, 8), np.zeros(3))


@pytest.mark.parametrize(
    "buffer_size",
    [lambda m: m, lambda m: 3 * m - 1, lambda m: (len(DEFAULT_QS) + 1) * m],
    ids=["one-row", "uneven-blocks", "all-rows"],
)
@pytest.mark.parametrize(
    "values, qs",
    [
        (np.random.default_rng(4).lognormal(0.0, 2.0, 37), DEFAULT_QS.values),
        (np.array([1.0, 0.0, 2.0, 0.5, 0.0]), [0.5, 1.0, 2.0, 3.0, 4.0]),
    ],
    ids=["q-zero-inside-a-block", "zero-value-positive-q"],
)
def test_power_mean_in_blocks_of_rows_is_bitwise_the_scalar_loop(buffer_size, values, qs):
    # blocks of one q row, of two rows with one left over, and of every row
    buffer = np.full(buffer_size(values.size), np.nan)
    kept = values.copy()
    out = _power_mean(values, qs, 8, out=buffer)
    ref = np.array([scalar_power_mean(values, q, 8) for q in np.asarray(qs).tolist()])
    assert out.tobytes() == ref.tobytes()
    assert out.tobytes() == _power_mean(values, qs, 8).tobytes()
    assert not np.shares_memory(out, buffer)
    assert np.array_equal(values, kept)


# ------------------------------------------------------------ mfdma 1d

def test_mfdma_power_mean_ordering_across_columns(rng):
    x = rng.standard_normal(512)
    table = mfdma_fluctuations_1d(x, [4, 8, 16], [-2.0, 0.0, 2.0], theta=0.0)
    for row in table.values:
        assert row[0] <= row[1] <= row[2]


def test_mfdma_zero_series_is_degenerate():
    with pytest.raises(DegenerateSegmentError) as err:
        mfdma_fluctuations_1d(np.zeros(256), [4, 8], [-2.0, 0.0, 2.0])
    assert err.value.q <= 0


def test_mfdma_constant_series_scales_like_the_window():
    # a constant series leaves a constant residual c * (n-1)/2 behind the
    # backward window, so fluctuations grow ~ n and stay non-degenerate
    table = mfdma_fluctuations_1d(np.full(2048, 0.7), [8, 16, 32, 64, 128], [2.0], theta=0.0)
    assert np.all(table.values > 0)
    ns = table.scales.values
    assert np.allclose(table.values[:, 0], 0.7 * (ns - 1) / 2, rtol=1e-9)
    est = fit_scaling(table, fractal_dim=1.0)
    assert est.h[0] == pytest.approx(1.0, abs=0.05)


def test_mfdma_translation_offset_is_the_window_lag(rng):
    x = rng.standard_normal(300)
    c = 2.5
    for theta in (0.0, 0.5, 1.0):
        cfg = DetrendConfig(9, theta)
        base = residual_series(profile(x), cfg)
        shifted = residual_series(profile(x + c), cfg)
        lag = c * ((cfg.n - 1) / 2 - cfg.future_points)
        assert np.allclose(shifted - base, lag, rtol=0, atol=1e-9)


def test_mfdma_centered_odd_window_kills_linear_trends():
    # symmetric window (odd n, theta = 0.5) reproduces a linear profile
    table_qs = [2.0]
    series = np.full(1024, 0.5)  # profile is an exact ramp
    table = mfdma_fluctuations_1d(series, [5, 9, 17], table_qs, theta=0.5)
    assert np.all(table.values < 1e-9)


def test_mfdma_scaling_equivariance(rng):
    x = rng.standard_normal(1024)
    scales = [8, 16, 32, 64]
    qs = [-2.0, 0.0, 2.0]
    base = mfdma_fluctuations_1d(x, scales, qs, theta=0.0)
    scaled = mfdma_fluctuations_1d(4.0 * x, scales, qs, theta=0.0)
    assert np.allclose(scaled.values, 4.0 * base.values, rtol=1e-12)
    h_base = fit_scaling(base).h
    h_scaled = fit_scaling(scaled).h
    assert np.allclose(h_base, h_scaled, atol=1e-12)


def test_mfdma_scale_cap_is_enforced():
    with pytest.raises(ValidationError):
        mfdma_fluctuations_1d(np.ones(100) + np.arange(100), [2, 26], [2.0])


def _reversal_case(data, half):
    """A drawn window n, future-point count k and unit-normal series of at least 2n values.

    With ``half``, (n - 1) * theta is k + 1/2 rather than k.
    """
    n = data.draw(st.integers(2, 11), label="n")
    k = data.draw(st.integers(0, n - 1 - half), label="k")
    size = data.draw(st.integers(2 * n, 6 * n), label="N")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    return n, k, np.random.default_rng(seed).standard_normal(size)


def _reversed_residuals(x, n, theta, theta_reversed):
    """The residuals at theta on x and at theta_reversed on x[::-1], less their last samples."""
    fwd = residual_series(profile(x), DetrendConfig(n, theta))
    rev = residual_series(profile(x[::-1]), DetrendConfig(n, theta_reversed))
    return fwd[:-1], rev[:-1]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reversed_backward_matches_forward(data):
    # the reversed profile is the total minus the profile reflected and shifted by one point,
    # so for theta = k/(n-1) the window with k future points becomes one with k past points:
    # at theta' = (n-1-k)/(n-1) the residual on x[::-1] is minus the reversed residual on x,
    # except for the last sample of each, whose counterpart lies outside the other's domain.
    # theta' is built from integers: at n = 6, 1 - 0.8 gives floor(5 theta') = 0, not 1
    n, k, x = _reversal_case(data, half=False)
    fwd, rev = _reversed_residuals(x, n, k / (n - 1), (n - 1 - k) / (n - 1))
    assert np.allclose(rev, -fwd[::-1], rtol=0, atol=1e-12 * np.abs(profile(x)).max())
    # so block for block from the other end, the F_v agree
    tiled = fwd.size // n * n
    f_fwd = segment_rms(fwd[fwd.size - tiled:], n)
    assert np.allclose(segment_rms(rev[:tiled], n), f_fwd[::-1], rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reversal_fails_when_the_future_points_are_a_half_integer(data):
    # at (n-1) theta = k + 1/2 the window holds k future points and k + 1 past ones, and
    # at 1 - theta it holds n - 2 - k future points: reversal needs n - 1 - k, one more
    n, k, x = _reversal_case(data, half=True)
    theta = (k + 0.5) / (n - 1)
    fwd, rev = _reversed_residuals(x, n, theta, 1 - theta)
    assert not np.allclose(rev, -fwd[::-1], rtol=0, atol=1e-6)


# ------------------------------------------------------------ workspace

WORKSPACE_QS = [-3.0, 0.0, 2.0]


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "scales",
    [build_scale_grid(4, 2501, 20).values.tolist(), [2501], [3]],
    ids=["up-to-N/4", "one-scale-N/4", "one-scale-3"],
)
def test_pass_workspace_is_bitwise_the_allocating_functions(theta, scales):
    # N = 10,007 is prime, so no scale divides it
    values = gaussian_noise(10_007, seed=3).values
    y = profile(values)
    expected = dma1d._fluctuation_tables(
        as_scale_grid(scales), WORKSPACE_QS,
        lambda n: [segment_rms(residual_series(y, DetrendConfig(n, theta)), n)],
    )[0]
    table = mfdma_fluctuations_1d(values, scales, WORKSPACE_QS, theta)
    assert table.values.tobytes() == expected.values.tobytes()


def test_calls_without_out_return_fresh_arrays_and_keep_their_input(rng):
    y = profile(rng.standard_normal(1000))
    kept = y.copy()
    cfg = DetrendConfig(10, 0.5)
    for fn in (moving_average, residual_series):
        first, second = fn(y, cfg), fn(y, cfg)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, y)
    resid = residual_series(y, cfg)
    kept_resid = resid.copy()
    first, second = segment_rms(resid, 10), segment_rms(resid, 10)
    assert not np.shares_memory(first, second)
    assert np.array_equal(y, kept)
    assert np.array_equal(resid, kept_resid)


def test_residuals_formed_without_means_go_to_out(rng):
    y = profile(rng.standard_normal(1000))
    cfg = DetrendConfig(10, 0.5)
    buffer = np.empty(y.size)
    resid = residual_series(y, cfg, out=buffer)
    assert np.shares_memory(resid, buffer)
    assert resid.tobytes() == residual_series(y, cfg).tobytes()


def test_the_pass_calls_each_traced_name_once_per_scale(count_calls):
    # perfbench/tracing.py times the layers through these names; a pass
    # that bypassed them would read 0 there
    counts = count_calls(dma1d, "residual_series", "segment_rms", "_power_mean")
    scales = [4, 9, 20, 50]
    mfdma_fluctuations_1d(gaussian_noise(200, seed=1), scales, [-1.0, 2.0], theta=0.5)
    assert counts == dict.fromkeys(counts, len(scales))
    mfdfa_fluctuations_1d(gaussian_noise(200, seed=1), scales, [-1.0, 2.0])
    assert counts["_power_mean"] == 2 * len(scales)


THETAS = [0.0, 0.5, 1.0]


@pytest.mark.parametrize("scales", [[4, 9, 20, 50], build_scale_grid(4, 2501, 20)],
                         ids=["small", "up-to-N/4"])
def test_a_pass_over_three_thetas_is_bitwise_three_single_theta_passes(scales):
    values = gaussian_noise(10_007, seed=3).values
    tables = dma1d._mfdma_tables_1d(values, scales, DEFAULT_QS, THETAS)
    for theta, table in zip(THETAS, tables):
        expected = mfdma_fluctuations_1d(values, scales, DEFAULT_QS, theta)
        assert table.values.tobytes() == expected.values.tobytes()


def test_a_pass_over_three_thetas_averages_once_per_scale(count_calls):
    counts = count_calls(dma1d, "moving_average", "residual_series", "segment_rms", "_power_mean")
    scales = [4, 9, 20, 50]
    dma1d._mfdma_tables_1d(gaussian_noise(200, seed=1), scales, [-1.0, 2.0], THETAS)
    assert counts["moving_average"] == len(scales)
    assert counts["residual_series"] == counts["segment_rms"] == 3 * len(scales)
    assert counts["_power_mean"] == 3 * len(scales)


def _constant_and_zero_stretches():
    # the constant stretch gives the centred average zero-RMS segments from
    # n = 5; the zero stretch gives every theta zero-RMS segments from n = 7
    x = np.random.default_rng(0).random(100) + 0.5
    x[10:22] = 1.0
    x[50:62] = 0.0
    return x, [5, 7, 9, 12], [-1.0, 2.0]


@pytest.mark.parametrize(
    "thetas", [[0.0], [0.5], [1.0], THETAS, [1.0, 0.5], [0.5, 0.0], [1.0, 0.0]]
)
def test_a_pass_over_several_thetas_raises_at_the_first_failing_scale(thetas):
    # a pass stops at the first scale where any theta has a zero-RMS segment,
    # with the error of the first theta listed that fails there: every list
    # that holds 0.5 fails at n = 5, the others at n = 7
    x, scales, qs = _constant_and_zero_stretches()
    first = {0.0: 7, 0.5: 5, 1.0: 7}
    scale = min(first[theta] for theta in thetas)
    with pytest.raises(DegenerateSegmentError) as err:
        dma1d._mfdma_tables_1d(x, scales, qs, thetas)
    assert err.value.scale == scale
    failing = next(theta for theta in thetas if first[theta] == scale)
    with pytest.raises(DegenerateSegmentError) as alone:
        mfdma_fluctuations_1d(x, scales, qs, failing)
    assert str(err.value) == str(alone.value)


def test_a_failing_pass_forms_no_power_mean_after_the_failing_scale(count_calls):
    # at n = 5, theta = 0 forms its row and theta = 0.5 fails; nothing follows
    counts = count_calls(dma1d, "moving_average", "_power_mean")
    x, scales, qs = _constant_and_zero_stretches()
    with pytest.raises(DegenerateSegmentError):
        dma1d._mfdma_tables_1d(x, scales, qs, THETAS)
    assert counts == {"moving_average": 1, "_power_mean": 2}


@pytest.mark.parametrize(
    "estimator, bound",
    [(mfdma_fluctuations_1d, 4.0), (mfdfa_fluctuations_1d, 3.6)],
    ids=["mfdma", "mfdfa"],
)
def test_pass_peak_memory(estimator, bound):
    # the profile, one block-sum and one window buffer for the MFDMA pass; the
    # per-scale temporaries these replace took the peak to 5.3x.  MFDFA holds
    # the profile and two data-sized buffers: 3.51x
    values = gaussian_noise(2**16, seed=5).values
    scales = build_scale_grid(10, 2**14, 20)
    tracemalloc.start()
    try:
        estimator(values, scales, [-2.0, 0.0, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * values.nbytes


@pytest.mark.parametrize(
    "estimator", [mfdma_fluctuations_1d, mfdfa_fluctuations_1d], ids=["mfdma", "mfdfa"]
)
def test_pass_peak_memory_on_the_default_q_grid(estimator):
    # the power means of a block of q rows run in the pass's workspace, so the
    # 81-q grid holds no (q x segments) array beyond it; the warm-up call keeps
    # the first-call allocations outside the pass out of the count
    values = gaussian_noise(2**16, seed=5).values
    scales = build_scale_grid(10, 2**14, 20)
    estimator(values, scales, DEFAULT_QS)
    tracemalloc.start()
    try:
        estimator(values, scales, DEFAULT_QS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * values.nbytes


def _pass_peak(values, scales, thetas):
    """The tracemalloc peak of a 1-d MFDMA pass over ``thetas`` on the 81-q grid, in bytes."""
    tracemalloc.start()
    try:
        dma1d._mfdma_tables_1d(values, scales, DEFAULT_QS, thetas)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("data", ["binomial", "noise"])
def test_a_pass_over_three_thetas_holds_no_spare_residual_buffer(data):
    # every theta writes its residuals to the block sums' buffer: 0.18x above one theta,
    # against 1.18x with a spare buffer the size of the series for several thetas
    if data == "binomial":
        values = binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=16)).values
        scales = _resolve_grids(AnalysisConfig(), values.shape)[0]
    else:
        values = gaussian_noise(2**16, seed=5).values
        scales = build_scale_grid(10, 2**14, 20)
    _pass_peak(values, scales, THETAS)  # keeps first-call allocations out of the count
    extra = _pass_peak(values, scales, THETAS) - _pass_peak(values, scales, [0.0])
    assert extra < 0.3 * values.nbytes


# ------------------------------------------------------------ mfdfa 1d

def test_mfdfa_exactly_linear_profile_detrends_to_zero():
    # unit series -> integer ramp profile; order-1 fits remove it exactly
    x = np.ones(256)
    table_scales = [4, 8, 16]
    with pytest.raises(DegenerateSegmentError):
        mfdfa_fluctuations_1d(x, table_scales, [0.0], order=1)
    table = mfdfa_fluctuations_1d(x, table_scales, [2.0], order=1)
    assert np.all(table.values == 0.0)


def test_mfdfa_slope_terms_in_the_pass_buffer_are_bitwise_fresh_arrays():
    values = gaussian_noise(10_007, seed=3).values
    y = profile(values)
    scales = build_scale_grid(4, 2501, 20)

    def rms_at(n):
        segments = y[:y.size // n * n].reshape(-1, n)
        uc = np.arange(n, dtype=float) - (n - 1) / 2
        slope = segments @ uc / float(np.dot(uc, uc))
        resid = segments - segments.mean(axis=1)[:, None] - slope[:, None] * uc
        return np.sqrt(np.mean(np.square(resid), axis=1))

    expected = dma1d._fluctuation_tables(scales, WORKSPACE_QS, lambda n: [rms_at(n)])[0]
    table = mfdfa_fluctuations_1d(values, scales, WORKSPACE_QS)
    assert table.values.tobytes() == expected.values.tobytes()


def test_mfdfa_rejects_small_scales_for_order():
    x = np.random.default_rng(0).standard_normal(64)
    with pytest.raises(ValidationError, match="smallest scale 2 must be at least 3"):
        mfdfa_fluctuations_1d(x, [2, 8], [2.0])
    for order in (0, 2):
        with pytest.raises(ValidationError, match=f"order must be 1, a line fit, got {order}"):
            mfdfa_fluctuations_1d(x, [4, 8], [2.0], order=order)


def test_mfdfa_power_mean_ordering(rng):
    x = rng.standard_normal(512)
    table = mfdfa_fluctuations_1d(x, [4, 8, 16], [-2.0, 0.0, 2.0], order=1)
    for row in table.values:
        assert row[0] <= row[1] <= row[2]


def test_mfdfa_h2_on_binomial_measure(binomial_k14):
    scales = build_scale_grid(10, 1000, 30)
    table = mfdfa_fluctuations_1d(binomial_k14, scales, [2.0], order=1)
    h2 = fit_scaling(table).h[0]
    assert h2 == pytest.approx(0.804, abs=0.05)


def test_mfdfa_underestimates_positive_moments(binomial_k14):
    scales = build_scale_grid(10, 1000, 30)
    qs = np.arange(0.5, 4.01, 0.5)
    est = fit_scaling(mfdfa_fluctuations_1d(binomial_k14, scales, qs, order=1))
    assert np.all(est.tau - analytic_tau_1d(0.3, qs) < 0)


def _sum_abs_dtau(values, p1):
    """Sum of |tau - exact tau| of backward MFDMA and of MFDFA on the default grids."""
    scales, qs, _, _ = _resolve_grids(AnalysisConfig(), values.shape)
    assert len(qs) == 81
    tau_exact = analytic_tau_1d(p1, qs.values)
    return {
        "backward": np.abs(fit_scaling(mfdma_fluctuations_1d(values, scales, qs, 0.0)).tau
                           - tau_exact).sum(),
        "mfdfa": np.abs(fit_scaling(mfdfa_fluctuations_1d(values, scales, qs, order=1)).tau
                        - tau_exact).sum(),
    }


@pytest.fixture(scope="module")
def binomial_p02_k16():
    """Binomial cascade p1=0.2, 16 levels: the heaviest cells sit at the right end."""
    return binomial_measure_1d(CascadeSpec1D(p1=0.2, levels=16)).values


def test_cascade_accuracy_depends_on_its_orientation(binomial_p02_k16):
    # The present one-end conventions (an N-point profile starting at x(1), the remainder
    # dropped at the end) are not invariant under reversal, though x[::-1] is the cascade
    # with p1 = 0.8 and has the same exact tau.  This records that; the gaps were 5.13
    # (MFDFA, 8.71 against 3.58) and 2.35 (backward, 3.06 against 5.41) when measured.
    x, mirrored = (_sum_abs_dtau(v, 0.2) for v in reference.mirrored_pair(binomial_p02_k16))
    for estimator in ("backward", "mfdfa"):
        assert abs(x[estimator] - mirrored[estimator]) > 1.0, estimator


def test_cascade_accuracy_depends_on_a_few_boundary_points(binomial_p02_k16):
    # Dropping 8 of 65536 points, s at the start and 8 - s at the end, moved backward
    # within 1.69-6.71 and MFDFA within 6.70-14.35 when measured; the last point alone
    # holds 0.8^16, about 2.8% of the mass.
    sums = [_sum_abs_dtau(cut, 0.2) for cut in reference.boundary_shifts(binomial_p02_k16, 8)]
    for estimator in ("backward", "mfdfa"):
        spread = [s[estimator] for s in sums]
        assert max(spread) - min(spread) > 1.0, estimator


def _plain_dfa_h2(x, scales):
    """Independent first-order DFA, written as straight loops."""
    y = np.cumsum(x - x.mean())
    fs = []
    for n in scales:
        count = len(y) // n
        u = np.arange(n)
        rms = []
        for v in range(count):
            seg = y[v * n:(v + 1) * n]
            fit = np.polyval(np.polyfit(u, seg, 1), u)
            rms.append(np.mean((seg - fit) ** 2))
        fs.append(np.sqrt(np.mean(rms)))
    return np.polyfit(np.log(scales), np.log(fs), 1)[0]


def test_white_noise_hurst_half_cross_checked():
    from mfdma import gaussian_noise

    noise = gaussian_noise(2**16, seed=1)
    scales = build_scale_grid(10, 1000, 30)
    table = mfdma_fluctuations_1d(noise, scales, [2.0], theta=0.0)
    h2 = fit_scaling(table).h[0]
    reference = _plain_dfa_h2(noise.values, scales.values.tolist())
    assert h2 == pytest.approx(0.5, abs=0.05)
    assert reference == pytest.approx(0.5, abs=0.05)
    assert h2 == pytest.approx(reference, abs=0.08)
