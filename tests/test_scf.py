import numpy as np
import pytest

from qelectra.integrals import compute_integrals
from qelectra.molecule import from_atom_list
from qelectra.pipeline import shipped_geometry
from qelectra import scf as scf_module
from qelectra.scf import density_matrix, run_rhf


def solve(mol, n_electrons):
    ints = compute_integrals(mol)
    return ints, run_rhf(ints, n_electrons)


def test_h2_energy_golden():
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 1.388861))])
    _, scf = solve(mol, 2)
    assert scf.converged
    assert scf.e_total == pytest.approx(-1.1170010148998406, abs=1e-10)
    assert scf.e_total == pytest.approx(scf.e_electronic + scf.e_nuclear,
                                        abs=1e-12)


def test_density_idempotent_in_overlap_metric():
    ints, scf = solve(shipped_geometry("h2o"), 10)
    p, s = scf.density, ints.overlap
    # closed-shell RHF density obeys P S P = 2 P
    assert np.allclose(p @ s @ p, 2.0 * p, atol=1e-8)
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.trace(p @ s) == pytest.approx(10.0, abs=1e-8)


def test_fock_symmetric_and_mo_orthonormal():
    ints, scf = solve(shipped_geometry("nh3"), 10)
    assert np.allclose(scf.fock, scf.fock.T, atol=1e-10)
    c = scf.mo_coefficients
    assert np.allclose(c.T @ ints.overlap @ c, np.eye(c.shape[1]),
                       atol=1e-10)
    assert np.all(np.diff(scf.mo_energies) > -1e-12)


def test_aufbau_occupation():
    _, scf = solve(shipped_geometry("lih"), 4)
    assert scf.n_occupied == 2
    # occupied orbital energies sit below the virtuals
    assert scf.mo_energies[1] < scf.mo_energies[2]


def test_history_records_monotone_convergence_tail():
    _, scf = solve(shipped_geometry("h2o"), 10)
    assert scf.n_iterations == len(scf.history)
    energies = [e for e, _ in scf.history]
    # the last few DIIS steps should be settled to tight deltas
    assert abs(energies[-1] - energies[-2]) < 1e-8


@pytest.mark.parametrize("key", ["h2", "lih", "h2o", "nh3", "ch4", "co2"])
def test_one_history_entry_per_iteration(key, assembled):
    scf = assembled(key).scf
    assert scf.converged
    assert scf.n_iterations == len(scf.history)


def test_max_iterations_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(scf_module, "MAX_ITERATIONS", 1)
    mol = shipped_geometry("h2o")
    _, scf = solve(mol, 10)
    assert not scf.converged
    assert scf.n_iterations == 1


def test_charged_species():
    heh = from_atom_list([("He", (0, 0, 0)), ("H", (0, 0, 1.4632))],
                         charge=1)
    _, scf = solve(heh, heh.n_electrons)
    assert scf.converged
    assert scf.n_occupied == 1
    assert scf.e_total < -2.8


def test_density_matrix_helper():
    c = np.eye(3)
    p = density_matrix(c, 2)
    assert np.allclose(p, np.diag([2.0, 2.0, 0.0]))


def test_odd_electron_count_rejected():
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 1.4))])
    ints = compute_integrals(mol)
    with pytest.raises(ValueError):
        run_rhf(ints, 3)


def test_empty_and_overfilled_electron_counts_rejected():
    ints = compute_integrals(from_atom_list([("H", (0, 0, 0))]))
    with pytest.raises(ValueError, match="^need at least two electrons$"):
        run_rhf(ints, 0)
    # one H atom has one 1s function: room for two electrons
    with pytest.raises(ValueError,
                       match="^4 electrons do not fit in 1 spatial orbitals$"):
        run_rhf(ints, 4)
