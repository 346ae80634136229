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


def test_build_q_grid_hits_zero_exactly():
    qs = build_q_grid(-4.0, 4.0, 0.1)
    assert qs.values.size == 81
    assert 0.0 in qs.values
    assert qs.spacing == pytest.approx(0.1)


@pytest.mark.parametrize(
    "q_min, q_max, q_step",
    [(-4.0, 4.0, float("nan")), (-4.0, float("inf"), 0.1), (float("-inf"), 4.0, 0.1),
     (float("nan"), 4.0, 0.1)],
)
def test_build_q_grid_rejects_non_finite_parameters(q_min, q_max, q_step):
    with pytest.raises(ValidationError, match="must be finite"):
        build_q_grid(q_min, q_max, q_step)


def test_scale_grid_validation():
    with pytest.raises(ValidationError):
        ScaleGrid(np.array([2, 2, 3]))
    with pytest.raises(ValidationError):
        ScaleGrid(np.array([5, 3]))
    with pytest.raises(ValidationError):
        QGrid(np.array([0.0, 0.0]))


# ------------------------------------------------------------------ fits

def _table_from_law(scales, qs, law):
    ns = np.asarray(scales, dtype=float)
    values = np.column_stack([law(ns, q) for q in qs])
    return FluctuationTable(ScaleGrid(np.asarray(scales)), QGrid(np.asarray(qs)), values)


def test_fit_scaling_recovers_exact_power_law():
    table = _table_from_law([10, 18, 32, 56, 100], [2.0], lambda n, q: 2.0 * n**0.75)
    est = fit_scaling(table)
    assert abs(est.h[0] - 0.75) < 1e-13
    assert est.h_se[0] < 1e-12


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
