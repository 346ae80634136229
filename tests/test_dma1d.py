import math

import numpy as np
import pytest

from mfdma import (
    DegenerateSegmentError,
    DetrendConfig,
    Series,
    ValidationError,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
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
from reference import scalar_power_mean


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

def test_window_count_identity():
    thetas = np.linspace(0.0, 1.0, 11)
    for n in range(2, 1001):
        for theta in thetas:
            cfg = DetrendConfig(n, theta)
            assert cfg.past_points + cfg.future_points + 1 == n


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
    assert segs.values == pytest.approx([3.5355339, 0.0], abs=1e-7)
    assert segs.scale == 2

    assert np.array_equal(segment_rms(np.zeros(12), 3).values, np.zeros(4))

    truncated = segment_rms(np.array([1.0, 1.0, 1.0]), 2)
    assert np.array_equal(truncated.values, [1.0])


def test_segment_rms_rejects_oversize_blocks():
    with pytest.raises(ValidationError):
        segment_rms(np.ones(3), 4)


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

    def spy(values, qs, scale):
        out = _power_mean(values, qs, scale)
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


def test_reversed_backward_matches_forward(rng):
    # theta=0 on the reversed series mirrors theta=1 on the original:
    # the residual arrays agree up to reversal, sign, and one boundary
    # sample contributed by the empty-prefix cumulative sum.
    x = rng.standard_normal(40)
    n = 5
    fwd = residual_series(profile(x), DetrendConfig(n, 1.0))
    rev = residual_series(profile(x[::-1]), DetrendConfig(n, 0.0))
    m = fwd.size
    assert np.allclose(rev[: m - 1], -fwd[: m - 1][::-1], rtol=0, atol=1e-9)
    # once the shared part tiles into whole segments the F_v multisets match
    overlap = m - 1
    assert overlap % n == 0
    f_fwd = np.sort(segment_rms(fwd[:overlap], n).values)
    f_rev = np.sort(segment_rms(rev[:overlap], n).values)
    assert np.allclose(f_fwd, f_rev, rtol=1e-9)


# ------------------------------------------------------------ mfdfa 1d

def test_mfdfa_exactly_linear_profile_detrends_to_zero():
    # unit series -> integer ramp profile; order-1 fits remove it exactly
    x = np.ones(256)
    table_scales = [4, 8, 16]
    with pytest.raises(DegenerateSegmentError):
        mfdfa_fluctuations_1d(x, table_scales, [0.0], order=1)
    table = mfdfa_fluctuations_1d(x, table_scales, [2.0], order=1)
    assert np.all(table.values == 0.0)


def test_mfdfa_rejects_small_scales_for_order():
    with pytest.raises(ValidationError):
        mfdfa_fluctuations_1d(np.random.default_rng(0).standard_normal(64), [3, 8], [2.0], order=2)
    with pytest.raises(ValidationError):
        mfdfa_fluctuations_1d(np.ones(64), [4, 8], [2.0], order=0)


def test_mfdfa_power_mean_ordering(rng):
    x = rng.standard_normal(512)
    table = mfdfa_fluctuations_1d(x, [4, 8, 16], [-2.0, 0.0, 2.0], order=1)
    for row in table.values:
        assert row[0] <= row[1] <= row[2]


def test_mfdfa_quadratic_order_removes_parabolas(rng):
    # profile of a linear series is quadratic; order 2 must strip it
    x = np.linspace(0.0, 1.0, 512)
    table = mfdfa_fluctuations_1d(x, [8, 16], [2.0], order=2)
    assert np.all(table.values < 1e-8)


def test_mfdfa_h2_on_binomial_measure(binomial_k14):
    scales = build_scale_grid(10, 1000, 30)
    table = mfdfa_fluctuations_1d(binomial_k14, scales, [2.0], order=1)
    h2 = fit_scaling(table).h[0]
    assert h2 == pytest.approx(0.804, abs=0.05)


def test_mfdfa_underestimates_positive_moments(binomial_k14):
    from mfdma import analytic_tau_1d

    scales = build_scale_grid(10, 1000, 30)
    qs = np.arange(0.5, 4.01, 0.5)
    est = fit_scaling(mfdfa_fluctuations_1d(binomial_k14, scales, qs, order=1))
    assert np.all(est.tau - analytic_tau_1d(0.3, qs) < 0)


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
