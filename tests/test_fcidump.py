import numpy as np
import pytest

from qelectra.fcidump import read_fcidump, write_fcidump
from qelectra.integrals import compute_integrals
from qelectra.fermion import mo_spatial_integrals
from qelectra.pipeline import assemble, shipped_geometry
from qelectra.scf import run_rhf


def lih_mo_integrals():
    mol = shipped_geometry("lih")
    ints = compute_integrals(mol)
    scf = run_rhf(ints, 4)
    h, g = mo_spatial_integrals(ints, scf.mo_coefficients)
    return h, g, ints.nuclear_repulsion


def test_round_trip_exact(tmp_path):
    h, g, core = lih_mo_integrals()
    path = str(tmp_path / "lih.fcidump")
    write_fcidump(path, h, g, core, n_electrons=4)
    h2, g2, core2, norb, ne, ms2 = read_fcidump(path)
    assert norb == h.shape[0]
    assert ne == 4
    assert ms2 == 0
    assert core2 == pytest.approx(core, abs=1e-14)
    assert np.allclose(h2, h, atol=1e-14)
    assert np.allclose(g2, g, atol=1e-14)


def test_header_layout(tmp_path):
    h, g, core = lih_mo_integrals()
    path = str(tmp_path / "lih.fcidump")
    write_fcidump(path, h, g, core, n_electrons=4)
    lines = open(path).read().splitlines()
    assert lines[0].startswith(" &FCI NORB=")
    assert "NELEC=" in lines[0]
    assert any("&END" in ln for ln in lines[:4])
    # one-electron lines carry two zero ket indices, core carries four
    assert lines[-1].split()[1:] == ["0", "0", "0", "0"]


def test_symmetric_slots_restored(tmp_path):
    # the writer emits the canonical triangle; the reader must refill all
    # eight permutation images
    h, g, core = lih_mo_integrals()
    path = str(tmp_path / "lih.fcidump")
    write_fcidump(path, h, g, core, n_electrons=4)
    _, g2, _, _, _, _ = read_fcidump(path)
    rng = np.random.default_rng(0)
    n = h.shape[0]
    for _ in range(30):
        i, j, k, l = rng.integers(0, n, size=4)
        assert g2[i, j, k, l] == pytest.approx(g2[j, i, k, l], abs=1e-14)
        assert g2[i, j, k, l] == pytest.approx(g2[k, l, i, j], abs=1e-14)


def test_active_window_export(tmp_path):
    system = assemble(shipped_geometry("h2o"))
    h_act, eri_act, core_act, n_act = system.active_integrals
    path = str(tmp_path / "h2o_active.fcidump")
    write_fcidump(path, h_act, eri_act, core_act, n_act)
    h2, g2, core2, norb, ne, _ = read_fcidump(path)
    assert norb == 6
    assert ne == 8
    assert core2 != pytest.approx(system.integrals.nuclear_repulsion)


def test_reader_rejects_missing_header(tmp_path):
    path = tmp_path / "broken.fcidump"
    path.write_text("1.0 1 1 1 1\n")
    with pytest.raises(ValueError):
        read_fcidump(str(path))
