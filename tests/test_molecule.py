import numpy as np
import pytest

from qelectra.molecule import (BOHR_PER_ANGSTROM, from_atom_list, load_xyz,
                               nuclear_repulsion, parse_xyz)
from qelectra.pipeline import (canonical_formula, display_name,
                               shipped_geometry)

H2_XYZ = """2
hydrogen, equilibrium-ish
H 0.0 0.0 0.0
H 0.0 0.0 0.735
"""


def test_parse_xyz_converts_angstrom_to_bohr():
    mol = parse_xyz(H2_XYZ)
    assert mol.n_atoms == 2
    assert mol.atoms[0].symbol == "H"
    assert mol.atoms[1].position[2] == pytest.approx(0.735 * BOHR_PER_ANGSTROM)


def test_parse_xyz_rejects_wrong_count():
    bad = "3\ncomment\nH 0 0 0\nH 0 0 1\n"
    with pytest.raises(ValueError):
        parse_xyz(bad)


def test_parse_xyz_rejects_a_count_below_one():
    # a count of -1 once sliced off the last line and parsed two atoms
    for count in ("-1", "0"):
        with pytest.raises(ValueError, match="at least 1"):
            parse_xyz(count + "\ncomment\nH 0 0 0\nH 0 0 1\nH 0 0 2\n")


def test_non_finite_coordinates_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        parse_xyz("2\ncomment\nH 0 0 nan\nH 0 0 0\n")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            from_atom_list([("H", (0, 0, 0)), ("H", (0, bad, 1.4))])


def test_parse_xyz_rejects_unknown_element():
    bad = "1\ncomment\nXx 0 0 0\n"
    with pytest.raises(ValueError):
        parse_xyz(bad)


def test_load_xyz(tmp_path):
    path = tmp_path / "h2.xyz"
    path.write_text(H2_XYZ)
    mol = load_xyz(str(path))
    assert mol.n_electrons == 2
    # XYZ carries no charge; the name is the file's stem
    assert (mol.charge, mol.name) == (0, "h2")


def test_overlapping_atoms_rejected():
    with pytest.raises(ValueError):
        from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 0))])


def test_nuclear_repulsion_h2():
    r = 1.388861
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, r))])
    assert nuclear_repulsion(mol) == pytest.approx(1.0 / r, abs=1e-14)


def test_charge_changes_electron_count():
    heh = from_atom_list([("He", (0, 0, 0)), ("H", (0, 0, 1.4))], charge=1)
    assert heh.n_electrons == 2


def test_empty_and_overcharged_molecules_rejected():
    with pytest.raises(ValueError, match="^molecule has no atoms$"):
        from_atom_list([])
    with pytest.raises(ValueError,
                       match="^charge 2 leaves a negative electron count$"):
        from_atom_list([("H", (0, 0, 0))], charge=2)


def test_canonical_formula_ordering():
    # carbon first, hydrogen second, then alphabetical
    ch4 = shipped_geometry("ch4")
    assert canonical_formula(ch4) == "CH4"
    lih = shipped_geometry("lih")
    assert canonical_formula(lih) == "HLi"
    assert display_name(lih) == "LiH"


@pytest.mark.parametrize("key,n_atoms,n_electrons", [
    ("h2", 2, 2), ("lih", 2, 4), ("h2o", 3, 10),
    ("nh3", 4, 10), ("ch4", 5, 10), ("co2", 3, 22),
])
def test_shipped_geometries(key, n_atoms, n_electrons):
    mol = shipped_geometry(key)
    assert mol.n_atoms == n_atoms
    assert mol.n_electrons == n_electrons


def test_shipped_ch4_is_tetrahedral():
    mol = shipped_geometry("ch4")
    c = np.array(mol.atoms[0].position)
    hs = [np.array(a.position) for a in mol.atoms[1:]]
    dists = [np.linalg.norm(h - c) for h in hs]
    assert np.ptp(dists) < 1e-10
    cos = (hs[0] - c) @ (hs[1] - c) / dists[0] ** 2
    assert cos == pytest.approx(-1.0 / 3.0, abs=1e-10)


def test_unknown_shipped_name():
    with pytest.raises(ValueError):
        shipped_geometry("benzene")
