"""The rules the library's arguments follow: counts are whole numbers, parameters real ones."""
import re

import numpy as np
import pytest

from mfdma import (
    AnalysisConfig,
    CascadeSpec1D,
    CascadeSpec2D,
    DetrendConfig,
    DetrendConfig2D,
    FluctuationTable,
    QGrid,
    ScaleGrid,
    Series,
    ValidationError,
    analytic_tau,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
    gaussian_noise,
    legendre_spectrum,
    segment_rms,
    shuffle_surrogate,
)

WEIGHTS = (0.1, 0.2, 0.3, 0.4)
SCALES, QS = np.array([10, 20, 40]), np.linspace(-1.0, 1.0, 11)
ESTIMATE_TABLE = FluctuationTable(ScaleGrid(SCALES), QGrid(QS),
                                  np.sqrt(np.outer(SCALES, np.ones(QS.size))))
ESTIMATE = fit_scaling(ESTIMATE_TABLE)
HUGE = 10**400  # a whole number that no float holds, as a JSON config file may give


@pytest.mark.parametrize("call, message", [
    (lambda: DetrendConfig(float("nan")), "window size must be an integer >= 2, got nan"),
    (lambda: DetrendConfig(float("inf")), "window size must be an integer >= 2, got inf"),
    (lambda: DetrendConfig(1), "window size must be an integer >= 2, got 1"),
    (lambda: DetrendConfig2D(float("inf"), 3), "n1 must be an integer >= 2, got inf"),
    (lambda: DetrendConfig2D(3, 2.5), "n2 must be an integer >= 2, got 2.5"),
    (lambda: segment_rms(np.ones(10), 2.5), "block side must be a positive integer, got 2.5"),
    (lambda: CascadeSpec1D(0.3, 2.5), "levels must be a positive integer, got 2.5"),
    (lambda: CascadeSpec1D(0.3, True), "levels must be a positive integer, got True"),
    (lambda: CascadeSpec1D(0.3, float("inf")), "levels must be a positive integer, got inf"),
    (lambda: CascadeSpec2D(WEIGHTS, 2.5), "levels must be a positive integer, got 2.5"),
    (lambda: gaussian_noise(20.5, 1), "noise length must be an integer >= 16, got 20.5"),
    (lambda: shuffle_surrogate(Series(np.arange(5.0)), 1.5),
     "seed must be a non-negative integer, got 1.5"),
    (lambda: legendre_spectrum(ESTIMATE, 1.5),
     "legendre half-window must be a positive integer, got 1.5"),
    (lambda: build_scale_grid(10, 100, 2.5), "count must be an integer >= 2, got 2.5"),
], ids=["window-nan", "window-inf", "window-1", "n1-inf", "n2-fraction", "block-side-fraction",
        "levels-1d-fraction", "levels-1d-bool", "levels-1d-inf", "levels-2d-fraction",
        "noise-length-fraction", "seed-fraction", "half-window-fraction", "count-fraction"])
def test_a_count_that_is_not_a_whole_number_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_a_whole_float_or_a_numpy_integer_count_is_taken_as_an_int():
    assert DetrendConfig(4.0).n == 4 and type(DetrendConfig(4.0).n) is int
    cfg = DetrendConfig2D(np.int64(4), 5.0)
    assert (cfg.n1, cfg.n2) == (4, 5) and type(cfg.n1) is type(cfg.n2) is int
    assert CascadeSpec2D(WEIGHTS, 3.0).levels == 3
    np.testing.assert_array_equal(gaussian_noise(16, np.int64(3)).values,
                                  gaussian_noise(16, 3).values)
    assert legendre_spectrum(ESTIMATE, 2.0).qs.size == QS.size - 4


def test_a_non_number_where_a_real_number_goes_is_a_validation_error():
    calls = [
        lambda: DetrendConfig(4, "0.5"),  # theta, a TypeError from its comparison
        lambda: DetrendConfig2D(4, 4, None),
        lambda: CascadeSpec1D("0.3", 4),  # p1, the same
        lambda: CascadeSpec2D(((0.1, 0.2), (0.3, 0.4)), 3),  # a TypeError from float
        lambda: CascadeSpec2D(("a", 0.2, 0.3, 0.5), 3),  # a ValueError from float
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()
    # a weight is a real number, as theta and p1 are: its text is refused
    with pytest.raises(ValidationError, match=r"^weight must be a real number, got '0\.1'$"):
        CascadeSpec2D(tuple(map(str, WEIGHTS)), 3)


@pytest.mark.parametrize("call, label", [
    (lambda: DetrendConfig(4, True), "theta"),
    (lambda: DetrendConfig2D(4, 4, True), "theta"),
    (lambda: CascadeSpec2D((True, False, False, False), 3), "weight"),
    (lambda: build_scale_grid(10, 100, "5"), "count"),
    (lambda: build_scale_grid("10", 100, 5), "n_min"),
    (lambda: build_scale_grid(10, None, 5), "n_max"),
    (lambda: build_q_grid("1", 2, 0.5), "q_min"),
    (lambda: build_q_grid(None, 2, 0.5), "q_min"),
    (lambda: fit_scaling(ESTIMATE_TABLE, ("a", 50)), "fit_lo"),
    (lambda: fit_scaling(ESTIMATE_TABLE, (None, 50)), "fit_lo"),
    (lambda: analytic_tau(("a", "b"), 1.0), "weight"),
], ids=["theta-bool", "theta-2d-bool", "weight-bool", "count-text", "n-min-text", "n-max-none",
        "q-min-text", "q-min-none", "fit-lo-text", "fit-lo-none", "weights-text"])
def test_a_real_parameter_that_is_not_a_real_number_is_named(call, label):
    with pytest.raises(ValidationError, match=f"^{label} must be a real number, got "):
        call()


def test_a_text_theta_is_shown_as_text():
    with pytest.raises(ValidationError, match=r"^theta must be a real number, got '0\.5'$"):
        DetrendConfig(4, "0.5")


@pytest.mark.parametrize("call, label", [
    (lambda: AnalysisConfig(q_min=HUGE), "q_min"),
    (lambda: AnalysisConfig(q_max=HUGE), "q_max"),
    (lambda: AnalysisConfig(q_step=HUGE), "q_step"),
    (lambda: AnalysisConfig(fit_lo=HUGE), "fit_lo"),
    (lambda: AnalysisConfig(fit_hi=HUGE), "fit_hi"),
    (lambda: build_scale_grid(float("nan"), 100, 5), "n_min"),
    (lambda: CascadeSpec2D((HUGE, 0, 0, 0), 3), "weight"),
    (lambda: analytic_tau((HUGE, 0.5), 1), "weight"),
    (lambda: fit_scaling(ESTIMATE_TABLE, (HUGE, 50)), "fit_lo"),
    # a float32 bound would overflow in the comparison and let inf through
    (lambda: fit_scaling(ESTIMATE_TABLE, (np.float32("inf"), 50)), "fit_lo"),
], ids=["q-min-huge", "q-max-huge", "q-step-huge", "fit-lo-huge", "fit-hi-huge", "n-min-nan",
        "weight-2d-huge", "weight-tau-huge", "fit-scaling-huge", "fit-scaling-float32-inf"])
def test_a_real_parameter_that_no_float_holds_is_named(call, label):
    # each raised a TypeError or an OverflowError, or warned or named no parameter
    with pytest.raises(ValidationError, match=f"^{label} must be finite, got (nan|inf|{HUGE})$"):
        call()
