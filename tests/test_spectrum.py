import numpy as np
import pytest

from mfdma import (
    DegenerateDataError,
    FluctuationTable,
    QGrid,
    ScaleGrid,
    ScalingEstimate,
    ValidationError,
    analytic_alpha,
    analytic_alpha_1d,
    analytic_f,
    analytic_f_1d,
    analytic_tau,
    analytic_tau_1d,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
    legendre_spectrum,
    spectrum_width,
    tau_error,
)

import reference

LN2 = np.log(2.0)


# ----------------------------------------------------------------- grids

def test_build_scale_grid_log_spacing():
    assert build_scale_grid(10, 100, 5).values.tolist() == [10, 18, 32, 56, 100]


def test_build_scale_grid_dedups():
    assert build_scale_grid(2, 4, 10).values.tolist() == [2, 3, 4]


def test_build_scale_grid_rejections():
    with pytest.raises(ValidationError):
        build_scale_grid(10, 10, 5)
    with pytest.raises(ValidationError):
        build_scale_grid(1, 10, 5)
    with pytest.raises(ValidationError):
        build_scale_grid(10, 100, 1)


@pytest.mark.parametrize("count, match", [
    (10**19, "^scale count 10000000000000000000 is more than numpy can index$"),
    (float("inf"), "^count must be finite, got inf$"),
    (float("nan"), "^count must be finite, got nan$"),
], ids=["10000000000000000000", "inf", "nan"])
def test_build_scale_grid_rejects_counts_numpy_cannot_index(count, match):
    # np.logspace raised "Maximum allowed size exceeded" on 10**19
    with pytest.raises(ValidationError, match=match):
        build_scale_grid(10, 100, count)


def test_build_q_grid_hits_zero_exactly():
    qs = build_q_grid(-4.0, 4.0, 0.1)
    assert qs.values.size == 81
    assert 0.0 in qs.values
    assert qs.spacing == pytest.approx(0.1)


@pytest.mark.parametrize(
    "q_min, q_max, q_step, match",
    [(-4.0, 4.0, float("nan"), "must be finite"), (-4.0, float("inf"), 0.1, "must be finite"),
     (float("-inf"), 4.0, 0.1, "must be finite"), (float("nan"), 4.0, 0.1, "must be finite"),
     # a step count that numpy cannot index, or that is not finite
     (0.0, 1e20, 1.0, "needs 1e[+]20 steps, more than numpy can index"),
     (-1e308, 1e308, 1e307, "needs inf steps, more than numpy can index")],
    ids=["-4.0-4.0-nan", "-4.0-inf-0.1", "-inf-4.0-0.1", "nan-4.0-0.1", "0.0-1e+20-1.0",
         "-1e+308-1e+308-1e+307"],
)
def test_build_q_grid_rejects_non_finite_parameters(q_min, q_max, q_step, match):
    with pytest.raises(ValidationError, match=match):
        build_q_grid(q_min, q_max, q_step)


@pytest.mark.parametrize(
    "q_min, q_max, q_step, match",
    [(-4.0, 4.0, 0.0, "q_step must be positive"), (-4.0, 4.0, -0.1, "q_step must be positive"),
     (4.0, 4.0, 0.1, "need q_min < q_max"), (4.0, -4.0, 0.1, "need q_min < q_max"),
     (-4.0, 4.0, 0.3, "is not an integer number of steps")],
    ids=["zero-step", "negative-step", "empty-range", "reversed-range", "step-not-dividing"],
)
def test_build_q_grid_rejects_a_step_or_range_that_gives_no_grid(q_min, q_max, q_step, match):
    with pytest.raises(ValidationError, match=match):
        build_q_grid(q_min, q_max, q_step)


def test_scale_grid_validation():
    with pytest.raises(ValidationError):
        ScaleGrid(np.array([2, 2, 3]))
    with pytest.raises(ValidationError):
        ScaleGrid(np.array([5, 3]))
    for values, match in [([10.5], "scales must be integers"), ([], "^scale grid is empty$"),
                          ([1, 4], "scales must be at least 2, got 1")]:
        with pytest.raises(ValidationError, match=match):
            ScaleGrid(np.array(values))
    whole = ScaleGrid(np.array([10.0, 20.0])).values
    assert whole.tolist() == [10, 20] and np.issubdtype(whole.dtype, np.integer)
    with pytest.raises(ValidationError):
        QGrid(np.array([0.0, 0.0]))
    for values, match in [([], "^q grid is empty$"),
                          ([0.0, np.inf], "^q grid contains a non-finite value at index 1$"),
                          ([np.nan, 1.0], "^q grid contains a non-finite value at index 0$")]:
        with pytest.raises(ValidationError, match=match):
            QGrid(np.array(values))
    with pytest.raises(ValidationError, match=r"shape \(3, 2\), expected \(2, 3\)"):
        FluctuationTable(ScaleGrid(np.array([4, 8])), QGrid(np.array([1.0, 2.0, 3.0])),
                         np.ones((3, 2)))


# ------------------------------------------------------------------ fits

def _table_from_law(scales, qs, law):
    ns = np.asarray(scales, dtype=float)
    values = np.column_stack([law(ns, q) for q in qs])
    return FluctuationTable(ScaleGrid(np.asarray(scales)), QGrid(np.asarray(qs)), values)


def test_fit_scaling_recovers_exact_power_law():
    # a slope and a prefactor that change with q, at every q of the default grid
    qs = build_q_grid(-4.0, 4.0, 0.1).values
    table = _table_from_law([10, 18, 32, 56, 100], qs,
                            lambda n, q: (2.0 + q * q) * n ** (0.75 + 0.1 * q))
    est = fit_scaling(table)
    assert np.abs(est.h - (0.75 + 0.1 * qs)).max() < 1e-13
    assert est.h_se.max() < 1e-12


@pytest.mark.parametrize("fit_range", [None, (20, 400)], ids=["all-scales", "20-400"])
@pytest.mark.parametrize("q_count", [1, 81, 801])
def test_fit_scaling_matches_the_literal_per_q_fit(q_count, fit_range):
    rng = np.random.default_rng(4100 + q_count)
    scales = build_scale_grid(10, 1000, 30)
    qs = np.linspace(-4.0, 4.0, q_count)
    slopes = rng.uniform(0.2, 1.5, q_count)
    noise = rng.lognormal(0.0, 0.3, (len(scales), q_count))
    values = scales.values[:, None].astype(float) ** slopes * noise
    est = fit_scaling(FluctuationTable(scales, QGrid(qs), values), fit_range=fit_range)
    lo, hi = fit_range or (10, 1000)
    keep = (scales.values >= lo) & (scales.values <= hi)
    ln_n = np.log(scales.values[keep])
    h, se = np.array([reference.ols_slope_and_se(ln_n, np.log(values[keep, j]))
                      for j in range(q_count)]).T
    assert np.abs(est.h - h).max() <= 1e-12
    assert np.all(np.abs(est.h_se - se) <= 1e-9 * se)


def test_fit_scaling_tau_at_zero_is_minus_dimension():
    table = _table_from_law([4, 8, 16, 32], [-1.0, 0.0, 1.0], lambda n, q: n ** (0.6 + 0.1 * q))
    for dim in (1.0, 2.0):
        est = fit_scaling(table, fractal_dim=dim)
        assert est.tau[1] == -dim


def test_fit_scaling_respects_fit_range():
    # broken power law: slope 0.5 below n=30, slope 1.0 above
    def law(n, q):
        return np.where(n < 30, n**0.5, 30**0.5 * (n / 30.0) ** 1.0)

    table = _table_from_law([10, 14, 20, 28, 40, 57, 80, 113, 160], [2.0], law)
    low = fit_scaling(table, fit_range=(10, 28))
    high = fit_scaling(table, fit_range=(40, 160))
    assert low.h[0] == pytest.approx(0.5, abs=1e-12)
    assert high.h[0] == pytest.approx(1.0, abs=1e-12)
    assert low.fit_range == (10.0, 28.0)


def test_fit_scaling_needs_three_scales_in_range():
    table = _table_from_law([10, 20, 40, 80], [2.0], lambda n, q: n)
    with pytest.raises(ValidationError):
        fit_scaling(table, fit_range=(15, 45))


def test_fit_scaling_rejects_nonpositive_values():
    table = _table_from_law([4, 8, 16], [2.0], lambda n, q: n)
    broken = FluctuationTable(table.scales, table.qs, table.values * [[1.0], [0.0], [1.0]])
    with pytest.raises(DegenerateDataError, match="n=8"):
        fit_scaling(broken)


def test_fit_scaling_names_the_first_nonpositive_value_in_the_fit_range():
    table = _table_from_law([4, 8, 16, 32, 64], [-2.0, -1.0, 0.0, 1.0, 2.0],
                            lambda n, q: n ** (0.5 + 0.1 * q))
    values = table.values.copy()
    values[0, 0] = 0.0  # n=4 lies outside the fit range
    values[3, 1] = 0.0
    values[2, 4] = 0.0
    values[2, 3] = -1.0  # n=16, q=1: the first in range by scale, then by q
    broken = FluctuationTable(table.scales, table.qs, values)
    with pytest.raises(DegenerateDataError, match=r"at n=16, q=1;"):
        fit_scaling(broken, fit_range=(8, 64))


# -------------------------------------------------------------- legendre

def test_legendre_linear_tau_gives_constant_alpha():
    qs = build_q_grid(-4.0, 4.0, 0.1)
    tau = 2.0 * qs.values - 1.0
    est = ScalingEstimate(qs, np.full(len(qs), 2.0), np.zeros(len(qs)), tau, 1.0, (2, 100))
    spec = legendre_spectrum(est, half_window=3)
    assert spec.qs.size == len(qs) - 6
    assert np.allclose(spec.alpha, 2.0, atol=1e-12)
    assert np.allclose(spec.f, 1.0, atol=1e-11)
    assert np.var(spec.alpha) < 1e-24
    assert spectrum_width(spec) < 1e-12


def test_legendre_rejects_nonuniform_grids():
    qs = QGrid(np.array([-1.0, 0.0, 0.5, 2.0, 3.0, 4.0, 5.0]))
    est = ScalingEstimate(qs, np.ones(7), np.zeros(7), qs.values, 1.0, (2, 10))
    with pytest.raises(ValidationError):
        legendre_spectrum(est, half_window=3)


def test_legendre_needs_enough_points():
    qs = build_q_grid(-1.0, 1.0, 0.5)
    est = ScalingEstimate(qs, np.ones(5), np.zeros(5), qs.values, 1.0, (2, 10))
    with pytest.raises(ValidationError):
        legendre_spectrum(est, half_window=3)


def test_legendre_matches_analytic_alpha():
    # numeric differentiation of the exact tau against the closed form
    qs = build_q_grid(-4.0, 4.0, 0.1)
    tau = analytic_tau_1d(0.3, qs.values)
    h = np.where(qs.values == 0, analytic_alpha_1d(0.3, 0.0), 1.0)
    est = ScalingEstimate(qs, h, np.zeros(len(qs)), tau, 1.0, (2, 100))
    spec = legendre_spectrum(est, half_window=3)
    alpha_exact = analytic_alpha_1d(0.3, spec.qs)
    f_exact = analytic_f_1d(0.3, spec.qs)
    assert np.max(np.abs(spec.alpha - alpha_exact)) < 1e-3
    assert np.max(np.abs(spec.f - f_exact)) < 2e-3
    # alpha at q = 0 and the spectrum apex
    at0 = int(np.flatnonzero(spec.qs == 0.0)[0])
    assert spec.alpha[at0] == pytest.approx(1.1258, abs=1e-3)
    assert spec.f[at0] == pytest.approx(1.0, abs=1e-3)


# --------------------------------------------------------------- oracles

def test_analytic_tau_1d_fixed_points():
    for p1 in (0.2, 0.3, 0.5, 0.8):
        assert analytic_tau_1d(p1, 0.0) == pytest.approx(-1.0, abs=1e-14)
        assert analytic_tau_1d(p1, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert analytic_tau_1d(0.3, 2.0) == pytest.approx(0.78588, abs=1e-5)
    # implied generalized Hurst exponent at q = 2
    assert (analytic_tau_1d(0.3, 2.0) + 1.0) / 2.0 == pytest.approx(0.893, abs=5e-4)


def test_analytic_alpha_1d_values():
    assert analytic_alpha_1d(0.3, 0.0) == pytest.approx(1.12577, abs=1e-5)
    # dominant-weight limit: alpha -> -ln(0.7)/ln(2) as q -> +inf
    assert analytic_alpha_1d(0.3, 50.0) == pytest.approx(-np.log(0.7) / LN2, abs=1e-4)
    assert analytic_f_1d(0.3, 0.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("oracle", [analytic_tau, analytic_alpha, analytic_f])
def test_analytic_oracles_name_the_first_q_that_overflows(oracle):
    # 0.3^-1000 overflows to inf and 0.7^2100 underflows to 0
    with pytest.raises(ValidationError, match=r"is not finite at q=-1000$"):
        oracle((0.3, 0.7), np.array([-1000.0, 0.0, 2100.0]))
    with pytest.raises(ValidationError, match=r"is not finite at q=2100$"):
        oracle((0.3, 0.7), 2100.0)


def test_analytic_uniform_cascade_is_monofractal():
    qs = np.linspace(-5, 5, 41)
    assert np.allclose(analytic_alpha_1d(0.5, qs), 1.0, atol=1e-13)
    assert np.allclose(analytic_f_1d(0.5, qs), 1.0, atol=1e-12)


def test_analytic_tau_is_concave_and_nondecreasing():
    qs = np.arange(-10.0, 10.01, 0.25)
    for p1 in (0.2, 0.3, 0.45):
        tau = analytic_tau_1d(p1, qs)
        assert np.all(np.diff(tau) >= 0)
        assert np.all(np.diff(tau, n=2) <= 1e-12)
    tau2 = analytic_tau((0.1, 0.2, 0.3, 0.4), qs)
    assert np.all(np.diff(tau2) >= 0)
    assert np.all(np.diff(tau2, n=2) <= 1e-12)


def test_analytic_alpha_strictly_decreasing_when_asymmetric():
    qs = np.arange(-6.0, 6.01, 0.5)
    assert np.all(np.diff(analytic_alpha_1d(0.3, qs)) < 0)
    assert np.all(np.diff(analytic_alpha((0.1, 0.2, 0.3, 0.4), qs)) < 0)


def test_analytic_f_peaks_at_q_zero():
    qs = np.arange(-6.0, 6.01, 0.1)
    f = analytic_f_1d(0.3, qs)
    assert np.all(f <= 1.0 + 1e-12)
    assert qs[np.argmax(f)] == pytest.approx(0.0, abs=1e-12)
    f2 = analytic_f((0.1, 0.2, 0.3, 0.4), qs)
    assert np.all(f2 <= 2.0 + 1e-12)
    assert qs[np.argmax(f2)] == pytest.approx(0.0, abs=1e-12)


def test_analytic_tau_2d_fixed_points():
    weights = (0.1, 0.2, 0.3, 0.4)
    assert analytic_tau(weights, 0.0) == pytest.approx(-2.0, abs=1e-14)
    assert analytic_tau(weights, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert analytic_tau(weights, 2.0) == pytest.approx(1.73697, abs=1e-5)
    assert (analytic_tau(weights, 2.0) + 2.0) / 2.0 == pytest.approx(1.868, abs=1e-3)


def test_analytic_rejections():
    with pytest.raises(ValidationError):
        analytic_tau_1d(1.2, 1.0)
    with pytest.raises(ValidationError):
        analytic_tau((0.2, 0.2, 0.2, 0.2), 1.0)
    with pytest.raises(ValidationError, match="two or four weights"):
        analytic_tau((0.2, 0.3, 0.5), 1.0)


# ------------------------------------------------------- widths and errors

def test_tau_error_zero_for_matching_curves():
    qs = build_q_grid(-2.0, 2.0, 0.5)
    tau = analytic_tau_1d(0.3, qs.values)
    est = ScalingEstimate(qs, np.ones(len(qs)), np.zeros(len(qs)), tau, 1.0, (2, 10))
    assert np.array_equal(tau_error(est, tau), np.zeros(len(qs)))
    with pytest.raises(ValidationError):
        tau_error(est, tau[:-1])


def test_spectrum_width_of_analytic_cascade():
    # direct evaluation of the closed-form alpha at the grid ends
    width = analytic_alpha_1d(0.3, -4.0) - analytic_alpha_1d(0.3, 4.0)
    assert analytic_alpha_1d(0.3, -4.0) == pytest.approx(1.69707, abs=1e-5)
    assert analytic_alpha_1d(0.3, 4.0) == pytest.approx(0.55447, abs=1e-5)
    assert width == pytest.approx(1.14261, abs=1e-5)
    # the numeric spectrum reports the width over the interior q range
    qs = build_q_grid(-4.0, 4.0, 0.1)
    tau = analytic_tau_1d(0.3, qs.values)
    est = ScalingEstimate(qs, np.ones(len(qs)), np.zeros(len(qs)), tau, 1.0, (2, 100))
    spec = legendre_spectrum(est, half_window=3)
    interior = analytic_alpha_1d(0.3, -3.7) - analytic_alpha_1d(0.3, 3.7)
    assert spectrum_width(spec) == pytest.approx(interior, abs=2e-3)
    assert spec.width == spectrum_width(spec)
