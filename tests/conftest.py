"""Shared reference inputs with known multifractal properties."""
import numpy as np
import pytest

from mfdma import CascadeSpec1D, CascadeSpec2D, binomial_measure_1d, cascade_measure_2d


@pytest.fixture(scope="session")
def binomial_k14():
    """Binomial cascade p1=0.3, 14 levels; length 16384, exact tau known."""
    return binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=14))


@pytest.fixture(scope="session")
def cascade_k10():
    """Four-way cascade (0.1, 0.2, 0.3, 0.4), 10 levels; 1024 x 1024."""
    return cascade_measure_2d(CascadeSpec2D(weights=(0.1, 0.2, 0.3, 0.4), levels=10))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` wraps each named function in a counting wrapper.

    Returns the live call counts by name, one dict shared by every call.
    """
    counts = {}

    def wrap(module, *names):
        for name in names:
            fn = getattr(module, name)
            counts[name] = 0

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    return wrap
