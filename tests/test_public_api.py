"""The package's public names are exactly its submodules' ``__all__`` lists."""
import mfdma
from mfdma import dma1d, dma2d, exceptions, generators, pipeline, spectrum

SUBMODULES = (exceptions, generators, dma1d, dma2d, spectrum, pipeline)


def test_package_names_are_the_submodule_lists():
    expected = ["__version__"] + [name for module in SUBMODULES for name in module.__all__]
    assert mfdma.__all__ == expected
    assert len(set(mfdma.__all__)) == len(mfdma.__all__)
    assert isinstance(mfdma.__version__, str)
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(mfdma, name) is getattr(module, name), f"{module.__name__}.{name}"
