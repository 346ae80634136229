import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfdma import (
    CascadeSpec1D,
    CascadeSpec2D,
    DegenerateSegmentError,
    Series,
    ValidationError,
    analytic_tau,
    binomial_measure_1d,
    cascade_measure_2d,
    gaussian_noise,
    mfdma_fluctuations_2d,
    shuffle_surrogate,
)


def test_binomial_two_step_expansion():
    series = binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=2))
    assert np.allclose(series.values, [0.09, 0.21, 0.21, 0.49], rtol=0, atol=1e-15)


def test_binomial_uniform_case_is_exact():
    series = binomial_measure_1d(CascadeSpec1D(p1=0.5, levels=3))
    assert np.array_equal(series.values, np.full(8, 0.125))
    # p1 = 0.5 collapses the cascade to an exactly uniform measure
    assert series.values.max() - series.values.min() == 0.0


@pytest.mark.parametrize("p1", [0.1, 0.3, 0.5, 0.77])
@pytest.mark.parametrize("levels", [2, 5, 10, 14, 20])
def test_binomial_mass_conservation(p1, levels):
    series = binomial_measure_1d(CascadeSpec1D(p1=p1, levels=levels))
    assert len(series) == 2**levels
    assert abs(series.values.sum() - 1.0) <= 1e-12


def test_binomial_is_deterministic_bitwise():
    spec = CascadeSpec1D(p1=0.3, levels=12)
    a = binomial_measure_1d(spec).values
    b = binomial_measure_1d(spec).values
    assert np.array_equal(a, b)


@pytest.mark.parametrize("p1", [0.0, 1.0, -0.1, 1.5])
def test_binomial_rejects_bad_p1(p1):
    with pytest.raises(ValidationError):
        CascadeSpec1D(p1=p1, levels=3)


@pytest.mark.parametrize("levels", [0, -2, 31])
def test_binomial_rejects_bad_levels(levels):
    with pytest.raises(ValidationError):
        CascadeSpec1D(p1=0.3, levels=levels)


def test_cascade2d_one_step_quadrant_order():
    surface = cascade_measure_2d(CascadeSpec2D(weights=(0.1, 0.2, 0.3, 0.4), levels=1))
    assert np.allclose(surface.values, [[0.1, 0.2], [0.3, 0.4]], rtol=0, atol=1e-15)


def test_cascade2d_uniform_case_is_exact():
    surface = cascade_measure_2d(CascadeSpec2D(weights=(0.25,) * 4, levels=2))
    assert surface.shape == (4, 4)
    assert np.array_equal(surface.values, np.full((4, 4), 0.0625))


@pytest.mark.parametrize("levels", [1, 4, 8, 10])
def test_cascade2d_mass_conservation(levels):
    surface = cascade_measure_2d(CascadeSpec2D(weights=(0.1, 0.2, 0.3, 0.4), levels=levels))
    assert surface.shape == (2**levels, 2**levels)
    assert abs(surface.values.sum() - 1.0) <= 1e-12


def test_cascade2d_rejects_bad_weights():
    with pytest.raises(ValidationError):
        CascadeSpec2D(weights=(0.1, 0.2, 0.3, 0.5), levels=2)
    with pytest.raises(ValidationError):
        CascadeSpec2D(weights=(-0.1, 0.5, 0.3, 0.3), levels=2)


def test_zero_weight_convention():
    # 2-d: a zero weight is accepted; 3 nonzero weights put the mass on 3**levels
    # cells, a support of dimension log2(3), and the zero cells stop every q <= 0
    surface = cascade_measure_2d(CascadeSpec2D(weights=(0.0, 0.2, 0.3, 0.5), levels=6))
    assert np.count_nonzero(surface.values) == 3**6
    assert np.all(mfdma_fluctuations_2d(surface, [4, 8], [1.0, 2.0]).values > 0)
    for q in (0.0, -2.0):
        with pytest.raises(DegenerateSegmentError, match=f"q={q:g} moments"):
            mfdma_fluctuations_2d(surface, [4, 8], [q, 2.0])
    # 1-d: p1 must lie strictly inside (0, 1)
    for p1 in (0.0, 1.0):
        with pytest.raises(ValidationError, match="strictly inside"):
            CascadeSpec1D(p1=p1, levels=4)
    # the closed forms, behind the oracle and compare, reject a zero weight in both
    for weights in [(0.0, 0.2, 0.3, 0.5), (0.0, 1.0)]:
        with pytest.raises(ValidationError, match="strictly positive"):
            analytic_tau(weights, 2.0)


@pytest.mark.parametrize("weights", [(0.25,) * 3, (0.2,) * 5], ids=["three", "five"])
def test_cascade2d_takes_exactly_four_weights(weights):
    with pytest.raises(ValidationError, match=f"expected exactly four weights, got {len(weights)}"):
        CascadeSpec2D(weights=weights, levels=2)


def test_cascade2d_rejects_a_nan_weight():
    # NaN fails every comparison, so no sign or sum check may be the one to catch it
    with pytest.raises(ValidationError, match="^weight must be finite, got nan$"):
        CascadeSpec2D(weights=(float("nan"), 0.2, 0.3, 0.4), levels=2)
    with pytest.raises(ValidationError, match="^weight must be finite, got inf$"):
        CascadeSpec2D(weights=(float("inf"), 0.2, 0.3, 0.4), levels=2)


@pytest.mark.parametrize(
    "levels, message",
    [(0, "levels must be a positive integer, got 0"),
     (-2, "levels must be a positive integer, got -2"),
     (13, "levels=13 exceeds the memory guard of 12")],
    ids=["0", "-2", "13"],
)
def test_cascade2d_rejects_bad_levels(levels, message):
    with pytest.raises(ValidationError, match=message):
        CascadeSpec2D(weights=(0.25,) * 4, levels=levels)


def test_gaussian_noise_is_reproducible():
    a = gaussian_noise(64, seed=7)
    b = gaussian_noise(64, seed=7)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, gaussian_noise(64, seed=8).values)


def test_gaussian_noise_moments():
    # law of large numbers at N = 2^16; any conforming normal RNG passes
    series = gaussian_noise(2**16, seed=1)
    assert abs(series.values.mean()) < 0.05
    assert abs(series.values.var() - 1.0) < 0.05


def test_gaussian_noise_rejects_short_lengths():
    with pytest.raises(ValidationError):
        gaussian_noise(8, seed=0)


def test_a_negative_seed_is_a_validation_error():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        gaussian_noise(64, seed=-1)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        shuffle_surrogate(Series(np.arange(5.0)), seed=-1)


FINITE_SERIES = arrays(
    np.float64, st.integers(1, 300), elements=st.floats(allow_nan=False, allow_infinity=False)
).map(Series)


@pytest.mark.parametrize("seed", [0, 1, 99])
@settings(max_examples=60, deadline=None)
@given(series=FINITE_SERIES)
def test_shuffle_preserves_multiset(seed, series):
    shuffled = shuffle_surrogate(series, seed=seed)
    assert isinstance(shuffled, Series)
    assert shuffled.values.shape == series.values.shape
    assert np.array_equal(np.sort(shuffled.values), np.sort(series.values))


def test_shuffle_singleton():
    assert np.array_equal(shuffle_surrogate(Series(np.array([5.0])), seed=3).values, [5.0])


def test_shuffle_is_seeded_and_returns_series():
    series = Series(np.linspace(0.0, 1.0, 100), name="ramp")
    a = shuffle_surrogate(series, seed=11)
    b = shuffle_surrogate(series, seed=11)
    assert isinstance(a, Series)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(np.sort(a.values), np.sort(series.values))
    assert not np.array_equal(a.values, series.values)


def test_series_validation():
    with pytest.raises(ValidationError):
        Series(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValidationError):
        Series(np.array([[1.0, 2.0]]))
    with pytest.raises(ValidationError):
        Series(np.array([]))
