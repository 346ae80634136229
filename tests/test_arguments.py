"""The rules the library's arguments follow: counts are whole numbers, parameters real ones,
and arrays finite integers or floats of the expected shape."""
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
    SegmentFluctuations,
    Series,
    Surface,
    ValidationError,
    analytic_tau,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
    gaussian_noise,
    legendre_spectrum,
    mfdma_fluctuations_1d,
    segment_rms,
    shuffle_surrogate,
    tau_error,
)
from mfdma.spectrum import FLOAT_MAX

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


# a whole number too long for str, which Python refuses past 4,300 digits
LONG = 10**5000
LONG_TEXT = "an integer of 16610 bits"


@pytest.mark.parametrize("call, message", [
    (lambda: build_q_grid(LONG, 1, 0.1), f"q_min must be finite, got {LONG_TEXT}"),
    (lambda: build_q_grid(0, 1, LONG), f"q_step must be finite, got {LONG_TEXT}"),
    (lambda: build_scale_grid(10, LONG, 5), f"n_max must be finite, got {LONG_TEXT}"),
    (lambda: build_scale_grid(10, 100, LONG), f"count must be finite, got {LONG_TEXT}"),
    (lambda: CascadeSpec1D(0.3, LONG), f"levels={LONG_TEXT} exceeds the memory guard of 30"),
    (lambda: DetrendConfig(-LONG), "window size must be an integer >= 2, "
                                   "got a negative integer of 16610 bits"),
    (lambda: DetrendConfig(4, LONG), f"theta must lie in [0, 1], got {LONG_TEXT}"),
    (lambda: gaussian_noise(64, -LONG), "seed must be a non-negative integer, "
                                        "got a negative integer of 16610 bits"),
    (lambda: AnalysisConfig(legendre_half_window=LONG),
     f"need at least an integer of 16611 bits q points for half_window={LONG_TEXT}"),
    (lambda: build_q_grid((LONG,), 1, 0.1),
     "q_min must be a real number, got a tuple holding an integer too long to print"),
], ids=["q-min", "q-step", "n-max", "count", "levels", "window-size", "theta", "seed",
        "half-window", "q-min-tuple"])
def test_a_number_too_long_to_print_is_named_by_its_size(call, message):
    # each message was a ValueError of its own, from str of the number
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


NOISE = np.random.default_rng(5).standard_normal(256)


@pytest.mark.parametrize("call, message", [
    # the cast to int64 wrapped, and the wrapped diff passed as increasing
    (lambda: ScaleGrid(np.array([10.0, np.inf])), "scale grid contains a non-finite value at index 1"),
    (lambda: ScaleGrid(np.array([10.0, 1e30])), "scales must be integers below 2**53, got 1e+30"),
    (lambda: mfdma_fluctuations_1d(NOISE, [10, 1e30], QS),
     "scales must be integers below 2**53, got 1e+30"),
    # an int64 scale that float64 would round
    (lambda: ScaleGrid(np.array([2, 2**60])),
     "scales must be integers below 2**53, got 1.152921504606847e+18"),
    (lambda: ScaleGrid(np.array(["10", "20"])), "scale grid must hold real numbers, got dtype <U2"),
    (lambda: mfdma_fluctuations_1d(NOISE, SCALES, ["a"]),
     "q grid must hold real numbers, got dtype <U1"),
    (lambda: QGrid(np.array([[0.0, 1.0]])), "q grid must be one-dimensional, got shape (1, 2)"),
    # were accepted, and their power means nan or finite
    (lambda: SegmentFluctuations([1.0, np.nan], 4),
     "segment fluctuations at scale n=4 contains a non-finite value at index 1"),
    (lambda: SegmentFluctuations([1.0, np.inf], 4),
     "segment fluctuations at scale n=4 contains a non-finite value at index 1"),
    (lambda: FluctuationTable(ESTIMATE_TABLE.scales, ESTIMATE_TABLE.qs, np.full((3, 11), np.nan)),
     "fluctuation table contains a non-finite value at index 0"),
    (lambda: FluctuationTable(ESTIMATE_TABLE.scales, ESTIMATE_TABLE.qs, np.ones(33)),
     "fluctuation table must be two-dimensional, got shape (33,)"),
    # the imaginary part was dropped with a warning, and a bool read as 0 or 1
    (lambda: Series(np.ones(16) + 1j), "series must hold real numbers, got dtype complex128"),
    (lambda: Surface(np.ones((8, 8), dtype=bool)), "surface must hold real numbers, got dtype bool"),
    (lambda: Series([1.0, 10**30]), "series must hold real numbers, got dtype object"),
    (lambda: Surface(np.ones((0, 4))), "surface is empty"),
    # numpy's own ValueError named no argument
    (lambda: Series([[1.0, 2.0], [3.0]]), "series must be an array of one shape, got a ragged nesting"),
    (lambda: QGrid([[1.0], 2.0]), "q grid must be an array of one shape, got a ragged nesting"),
    # a long double past float64's range casts to inf, with a warning unless silenced
    pytest.param(lambda: Series(np.array([1, 2 * np.longdouble(FLOAT_MAX)])),
                 "series contains a non-finite value at index 1",
                 marks=pytest.mark.skipif(np.finfo(np.longdouble).max <= FLOAT_MAX,
                                          reason="long double is float64 here")),
    # its nan went into every delta tau
    (lambda: tau_error(ESTIMATE, np.full(QS.size, np.nan)),
     "analytic tau contains a non-finite value at index 0"),
], ids=["scales-inf", "scales-1e30", "estimator-scales-1e30", "scales-int64-2**60", "scales-text",
        "estimator-qs-text", "qs-2d", "segments-nan", "segments-inf", "table-nan", "table-1d",
        "series-complex", "surface-bool", "series-object", "surface-empty", "series-ragged",
        "qs-ragged", "series-long-double-overflow", "analytic-tau-nan"])
def test_an_array_argument_is_finite_real_numbers_of_its_shape(call, message):
    # pyproject's filterwarnings makes any warning on the way fail the test
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_an_array_of_integers_or_of_any_float_width_is_read_as_float64():
    for values in (np.arange(16), np.arange(16, dtype=np.uint8), np.arange(16, dtype=np.float32),
                   list(range(16))):
        series = Series(values)
        assert series.values.dtype == np.float64
        np.testing.assert_array_equal(series.values, np.arange(16.0))
    assert ScaleGrid([10.0, 20, np.uint64(40)]).values.tolist() == [10, 20, 40]
