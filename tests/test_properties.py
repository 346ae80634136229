"""Invariances of the four estimators under hypothesis-drawn inputs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfdma import (
    DegenerateSegmentError,
    mfdfa_fluctuations_1d,
    mfdfa_fluctuations_2d,
    mfdma_fluctuations_1d,
    mfdma_fluctuations_2d,
)

QS = [-3.0, -1.0, 0.0, 1.0, 3.0]
SCALES = [3, 4]  # MFDFA needs n >= 3; the smallest inputs below have N/4 = 4
ESTIMATORS = {
    "mfdma-1d": (1, lambda x: mfdma_fluctuations_1d(x, SCALES, QS, theta=0.5)),
    "mfdfa-1d": (1, lambda x: mfdfa_fluctuations_1d(x, SCALES, QS)),
    "mfdma-2d": (2, lambda x: mfdma_fluctuations_2d(x, SCALES, QS, theta=0.5)),
    "mfdfa-2d": (2, lambda x: mfdfa_fluctuations_2d(x, SCALES, QS)),
}
# magnitudes well inside the normal range, so multiplying by a power of two is exact
ELEMENTS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _data(ndim):
    if ndim == 1:
        shape = st.integers(16, 64).map(lambda n: (n,))
    else:
        shape = st.tuples(st.integers(16, 24), st.integers(16, 24))
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
