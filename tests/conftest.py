import pytest

from qelectra.fermion import ActiveSpaceSpec
from qelectra.pipeline import assemble, shipped_geometry

SHIPPED = ["h2", "lih", "h2o", "nh3", "ch4", "co2"]


@pytest.fixture(scope="session")
def assembled():
    """Shipped molecules assembled once; several test modules reuse them."""
    cache = {}

    def get(key):
        if key not in cache:
            cache[key] = assemble(shipped_geometry(key))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def wide_ch4():
    """CH4 assembled once in the wide (8e, 8o) window: 16 qubits, a
    4,900-determinant sector."""
    return assemble(shipped_geometry("ch4"), ActiveSpaceSpec(8, 8))
