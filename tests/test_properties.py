"""Invariances of the four estimators under hypothesis-drawn inputs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfdma import (
    DegenerateDataError,
    DegenerateSegmentError,
    DetrendConfig2D,
    fit_scaling,
    mfdfa_fluctuations_1d,
    mfdfa_fluctuations_2d,
    mfdma_fluctuations_1d,
    mfdma_fluctuations_2d,
    segment_rms_2d,
    window_aggregates,
)

QS = [-3.0, -1.0, 0.0, 1.0, 3.0]
SCALES = [3, 4]  # MFDFA needs n >= 3; the smallest inputs below have N/4 = 4
ESTIMATORS = {
    "mfdma-1d": (1, lambda x, scales=SCALES: mfdma_fluctuations_1d(x, scales, QS, theta=0.5)),
    "mfdfa-1d": (1, lambda x, scales=SCALES: mfdfa_fluctuations_1d(x, scales, QS)),
    "mfdma-2d": (2, lambda x, scales=SCALES: mfdma_fluctuations_2d(x, scales, QS, theta=0.5)),
    "mfdfa-2d": (2, lambda x, scales=SCALES: mfdfa_fluctuations_2d(x, scales, QS)),
}
# magnitudes well inside the normal range, so multiplying by a power of two is exact
ELEMENTS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _data(ndim, lo=16):
    """Arrays of ELEMENTS with at least ``lo`` points along every axis."""
    if ndim == 1:
        shape = st.integers(lo, 64).map(lambda n: (n,))
    else:
        shape = st.tuples(st.integers(lo, lo + 8), st.integers(lo, lo + 8))
    return arrays(np.float64, shape, elements=ELEMENTS)


def _fluctuations(estimator, x):
    """F_q(n), or the (scale, q) of the zero-RMS segment that leaves it undefined."""
    try:
        return estimator(x).values
    except DegenerateSegmentError as exc:
        return exc.scale, exc.q


@pytest.mark.parametrize("name", ESTIMATORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fluctuations_scale_with_the_data(name, data):
    """F_q(c x) = |c| F_q(x); a zero-RMS segment stays zero under the rescale."""
    ndim, estimator = ESTIMATORS[name]
    x = data.draw(_data(ndim))
    base = _fluctuations(estimator, x)
    for c in (2.0**-3, -2.0, 8.0):
        scaled = _fluctuations(estimator, c * x)
        if isinstance(base, tuple):
            assert scaled == base
        else:
            np.testing.assert_allclose(scaled, abs(c) * base, rtol=1e-12, atol=0)


FIT_SCALES = [3, 4, 5]  # a fit needs 3 scales, so the inputs need N/4 >= 5


def _h(ndim, estimator, x):
    """h(q) over FIT_SCALES, or the error that leaves it undefined."""
    try:
        return fit_scaling(estimator(x, FIT_SCALES), fractal_dim=ndim).h
    except (DegenerateSegmentError, DegenerateDataError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ESTIMATORS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_h_does_not_change_under_a_global_rescale(name, data):
    """ln F_q(c x) = ln |c| + ln F_q(x): the constant leaves every slope h(q) as it was."""
    ndim, estimator = ESTIMATORS[name]
    x = data.draw(_data(ndim, lo=4 * FIT_SCALES[-1]))
    base = _h(ndim, estimator, x)
    for c in (2.0**-3, -2.0, 8.0):
        scaled = _h(ndim, estimator, c * x)
        if isinstance(base, tuple):
            assert scaled == base
        else:
            np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ESTIMATORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fluctuations_do_not_decrease_in_q(name, data):
    """Each row of F_q(n) is a power mean over one scale's segments, so it grows with q."""
    ndim, estimator = ESTIMATORS[name]
    table = _fluctuations(estimator, data.draw(_data(ndim)))
    if isinstance(table, tuple):  # a zero-RMS segment leaves q <= 0 undefined
        return
    assert np.all(table[:, 1:] >= table[:, :-1] * (1 - 1e-12))


def _normal_surface(data, lo, hi):
    """A standard-normal surface of a drawn, usually non-dyadic, shape."""
    shape = data.draw(st.tuples(st.integers(lo, hi), st.integers(lo, hi)))
    return np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_window_aggregates_transpose_with_the_surface(data):
    """The two axes run different passes; swapping them must only transpose the sums."""
    x = _normal_surface(data, 6, 300)
    n1, n2 = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
    agg = window_aggregates(x, DetrendConfig2D(n1, n2))
    flipped = window_aggregates(x.T, DetrendConfig2D(n2, n1))
    np.testing.assert_allclose(flipped.total, agg.total.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(flipped.cummean, agg.cummean.T, rtol=1e-12, atol=1e-12)


SURFACE_ESTIMATORS = {
    **{f"mfdma-2d-theta{t:g}": lambda x, t=t: mfdma_fluctuations_2d(x, SCALES, QS, theta=t)
       for t in (0.0, 0.5, 1.0)},
    "mfdfa-2d": lambda x: mfdfa_fluctuations_2d(x, SCALES, QS),
}


@pytest.mark.parametrize("name", SURFACE_ESTIMATORS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_2d_fluctuations_do_not_change_under_transposition(name, data):
    """Transposing a surface permutes its segments, so F_q(n) changes only by rounding."""
    estimator = SURFACE_ESTIMATORS[name]
    x = _normal_surface(data, 16, 40)
    np.testing.assert_allclose(estimator(x.T).values, estimator(x).values, rtol=1e-11, atol=0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_rms_of_rows_in_pieces_is_bitwise_one_call(data):
    """Rows fed in pieces, the carry threaded through, give the bytes of one whole call."""
    n = data.draw(st.integers(1, 9))
    shape = data.draw(st.tuples(st.integers(n, 5 * n + 3), st.integers(n, 5 * n + 3)))
    # a column offset leaves the rows strided, as in a residual written into a wider window
    offset = data.draw(st.integers(0, 2))
    base = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        (shape[0], shape[1] + offset))
    eps = base[:, offset:]
    cuts = sorted(data.draw(st.lists(st.integers(0, shape[0]), max_size=6)))
    carry = []
    pieces = [segment_rms_2d(eps[a:b], n, carry=carry)
              for a, b in zip([0, *cuts], [*cuts, shape[0]])]
    assert np.concatenate(pieces).tobytes() == segment_rms_2d(eps, n).tobytes()
