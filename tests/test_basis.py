import numpy as np
import pytest

from qelectra.basis import load_basis, primitive_norm
from qelectra.molecule import from_atom_list
from qelectra.pipeline import shipped_geometry


def test_h2_has_two_functions():
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 1.4))])
    funcs = load_basis(mol)
    assert len(funcs) == 2
    for f in funcs:
        assert f.powers == (0, 0, 0)
        assert len(f.alphas) == 3


@pytest.mark.parametrize("key,n_funcs", [
    ("h2", 2), ("lih", 6), ("h2o", 7), ("nh3", 8), ("ch4", 9), ("co2", 15),
])
def test_function_counts(key, n_funcs):
    funcs = load_basis(shipped_geometry(key))
    assert len(funcs) == n_funcs


def test_contracted_functions_are_normalized():
    funcs = load_basis(shipped_geometry("h2o"))
    for f in funcs:
        assert f.self_overlap() == pytest.approx(1.0, abs=1e-12)


def test_primitive_norm_matches_quadrature():
    # <g|g> for a normalized primitive must be 1; check numerically for a
    # d-like power combination on a radial grid
    alpha, powers = 0.8, (1, 1, 0)
    norm = primitive_norm(alpha, powers)
    xs = np.linspace(-8, 8, 401)
    dx = xs[1] - xs[0]
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    g = norm * (X ** 1) * (Y ** 1) * np.exp(-alpha * (X**2 + Y**2 + Z**2))
    assert np.sum(g * g) * dx**3 == pytest.approx(1.0, abs=1e-6)


def test_element_outside_table():
    mol = from_atom_list([("Na", (0, 0, 0))], charge=0)
    with pytest.raises(ValueError) as err:
        load_basis(mol)
    assert "Na" in str(err.value)


def test_p_functions_on_carbon():
    ch4 = shipped_geometry("ch4")
    funcs = load_basis(ch4)
    p_funcs = [f for f in funcs if sum(f.powers) == 1]
    assert len(p_funcs) == 3
    assert sorted(f.powers for f in p_funcs) == [(0, 0, 1), (0, 1, 0),
                                                 (1, 0, 0)]
