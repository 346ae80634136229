"""Multifractal analysis of 1-d series and 2-d surfaces.

The core estimator detrends the data with a moving average whose position
inside the window is set by theta (0 backward, 0.5 centered, 1 forward)
and aggregates per-segment fluctuations into q-order power means.  A
polynomial-detrending baseline (MFDFA), deterministic cascade generators
with exact analytic spectra, shuffle surrogates, and a CLI round out the
toolkit.
"""

from . import dma1d, dma2d, exceptions, generators, pipeline, spectrum
from ._version import __version__
from .dma1d import *  # noqa: F401,F403
from .dma2d import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .pipeline import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

# each submodule's __all__ is the one list of its public names
__all__ = [
    "__version__",
    *exceptions.__all__,
    *generators.__all__,
    *dma1d.__all__,
    *dma2d.__all__,
    *spectrum.__all__,
    *pipeline.__all__,
]
