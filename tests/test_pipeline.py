"""End-to-end assembly, shipped-molecule registry, scan plumbing helpers,
and the package exports."""

import dataclasses

import numpy as np
import pytest

import qelectra
from qelectra.basis import load_basis
from qelectra.cli import RunSpec, execute
from qelectra.fermion import (ActiveSpaceSpec, mo_spatial_integrals,
                              to_spin_orbitals)
from qelectra.molecule import from_atom_list
from qelectra import pipeline
from qelectra.oracle import exact_ground_energy, pauli_to_sparse
from qelectra.pauli import MappingKind, sector_basis
from qelectra.pipeline import (
    DEFAULT_ACTIVE_SPACES,
    SHIPPED_MOLECULES,
    assemble,
    canonical_formula,
    default_active_space,
    diatomic_geometry,
    display_name,
    load_molecule_argument,
    shipped_geometry,
)
from qelectra.vqe import build_uccsd, run_vqe
from conftest import SHIPPED
from pauli_oracle import decode_states
from test_cli import method_row
from test_pauli import string_order


def test_every_export_resolves():
    missing = [name for name in qelectra.__all__
               if not hasattr(qelectra, name)]
    assert missing == []
    assert len(set(qelectra.__all__)) == len(qelectra.__all__)


def test_assembled_hydrogen_fields(assembled):
    system = assembled("h2")
    assert system.n_qubits == 4
    assert system.mapping == MappingKind.PARITY
    assert system.active_space == ActiveSpaceSpec(2, 2)
    assert system.spin_orbitals.n_electrons == 2
    assert system.scf.e_total == pytest.approx(-1.1169989968520082, abs=1e-10)
    assert len(system.qubit_hamiltonian) == 15
    assert system.qubit_hamiltonian.n_qubits == 4


def test_assembled_water_window(assembled):
    system = assembled("h2o")
    assert system.active_space == ActiveSpaceSpec(8, 6)
    assert system.n_qubits == 12
    assert system.spin_orbitals.n_electrons == 8
    assert system.scf.e_total == pytest.approx(-74.9629282714757, abs=1e-8)


def full_space(molecule):
    """The window of all electrons in all orbitals."""
    return ActiveSpaceSpec(molecule.n_electrons, len(load_basis(molecule)))


def test_full_space_equals_registry_window_for_hydrogen(assembled):
    # the H2 window covers both orbitals, so the full space is the same
    system = assembled("h2")
    full = assemble(shipped_geometry("h2"),
                    active=full_space(shipped_geometry("h2")))
    assert full.active_space == system.active_space
    assert full.spin_orbitals.n_orbitals == 4
    assert np.allclose(full.spin_orbitals.one_body, system.spin_orbitals.one_body)
    assert full.spin_orbitals.core_energy == pytest.approx(
        system.spin_orbitals.core_energy)


def test_window_wider_than_the_basis_keeps_its_own_message():
    # the window does not fit H2's two orbitals, and the fold says so
    with pytest.raises(ValueError, match="exceeds 2 spatial orbitals"):
        assemble(shipped_geometry("h2"), active=ActiveSpaceSpec(2, 20))


def test_assemble_refuses_a_window_that_does_not_fit_before_any_integral(
        monkeypatch):
    # 7 frozen and 13 active orbitals exceed CO2's 15
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for a window that "
                             "does not fit")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    with pytest.raises(ValueError, match=r"\(7 frozen \+ 13 active\) "
                                         "exceeds 15 spatial orbitals"):
        assemble(shipped_geometry("co2"), active=ActiveSpaceSpec(8, 13))


def test_assemble_takes_integrals_computed_by_the_caller(assembled,
                                                          monkeypatch):
    # a bond scan hands each point the integrals of its batched pass
    molecule = shipped_geometry("lih")
    integrals = pipeline.compute_integrals(molecule)
    want = assembled("lih").scf.e_total

    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed twice")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    system = assemble(molecule, integrals=integrals)
    assert system.integrals is integrals
    assert system.scf.e_total == want


# HF and FCI energies of the shipped molecules in their default windows,
# the same pins the benchmark gates on. The CO2 window splits a degenerate
# pi shell, so its FCI energy moves by milli-Hartree under a 1e-16 change
# in the integrals; this pin catches such a drift in the unit suite.
PINNED_ENERGIES = {
    "h2": (-1.1169989968520082, -1.1373060359051401),
    "lih": (-7.862026973277844, -7.882176004920568),
    "h2o": (-74.9629282714757, -75.0123255243906),
    "nh3": (-55.45399652884778, -55.46377581098422),
    "ch4": (-39.726810112419486, -39.76875373561735),
    "co2": (-185.0652201647274, -185.0961537618902),
}


@pytest.mark.parametrize("key", sorted(PINNED_ENERGIES))
def test_shipped_hf_and_fci_energies_are_pinned(assembled, key):
    # through cli.execute, the route whose FCI energy the CLI prints
    e_hf, e_fci = PINNED_ENERGIES[key]
    system = assembled(key)
    report = execute(RunSpec(molecule=system.molecule,
                             methods=("hf", "fci")))
    assert method_row(report, "hf").energy == pytest.approx(e_hf, abs=1e-6)
    assert method_row(report, "fci").energy == pytest.approx(e_fci, abs=1e-6)
    # the CLI's caps count, before any integral, the register and the
    # sector built here
    assert pipeline.window_size(system.molecule) == (system.n_qubits,
                                                     system.sector.size)


@pytest.mark.parametrize("key", SHIPPED + ["ch4 (8e, 8o)"])
def test_the_sector_is_one_array_under_every_mapping(key, assembled,
                                                     wide_ch4):
    # the determinants' occupations in alpha-beta string order, whatever
    # the mapping; each mapping's encoded states decode to them row for row
    system = wide_ch4 if key == "ch4 (8e, 8o)" else assembled(key)
    n, half = system.n_qubits, system.spin_orbitals.n_electrons // 2
    want = np.array(string_order(n, half, half), dtype=np.int64)
    for kind in MappingKind:
        remapped = dataclasses.replace(system, mapping=kind)
        assert remapped.sector.dtype == np.int64
        assert remapped.sector.tobytes() == want.tobytes()
        encoded = remapped.encoded_sector
        assert encoded.tobytes() == sector_basis(kind, n, half,
                                                 half).tobytes()
        assert decode_states(kind, n, encoded).tobytes() == want.tobytes()


@pytest.mark.parametrize("key", SHIPPED)
def test_fci_and_exact_vqe_do_not_depend_on_the_mapping(key, assembled):
    # one sector order under every mapping: the energies agree to 1e-12 Ha
    # (on the shipped molecules, bit for bit) and the optimizer takes the
    # same iterations and evaluations
    system = assembled(key)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    runs = []
    for kind in MappingKind:
        remapped = dataclasses.replace(system, mapping=kind)
        result = run_vqe(remapped, ansatz)
        runs.append((exact_ground_energy(remapped.block), result.energy,
                     result.n_iterations, result.n_evaluations))
    for fci, vqe, iterations, evaluations in runs[1:]:
        assert abs(fci - runs[0][0]) <= 1e-12
        assert abs(vqe - runs[0][1]) <= 1e-12
        assert (iterations, evaluations) == runs[0][2:]


@pytest.mark.parametrize("key", sorted(PINNED_ENERGIES))
def test_sector_and_fock_space_minima_agree(assembled, key):
    # the whole-Fock-space minimum of every shipped window lies in its
    # closed-shell sector; FCI before the sector solve relied on this
    system = assembled(key)
    register = np.arange(1 << system.n_qubits)
    assert exact_ground_energy(system.block) == pytest.approx(
        exact_ground_energy(pauli_to_sparse(system.qubit_hamiltonian,
                                            register)), abs=1e-10)


def test_registry_windows_resolve_for_all_shipped_molecules():
    for key in SHIPPED_MOLECULES:
        molecule = shipped_geometry(key)
        spec = default_active_space(molecule)
        window = DEFAULT_ACTIVE_SPACES[canonical_formula(molecule)]
        assert (spec.n_active_electrons, spec.n_active_orbitals) == window
        assert spec.n_active_electrons <= molecule.n_electrons
        assert 2 * spec.n_active_orbitals <= 12


def test_unregistered_molecule_gets_full_space():
    helium_hydride = diatomic_geometry(("He", "H"), 1.4632, charge=1)
    assert default_active_space(helium_hydride) is None


def test_canonical_formula_hill_convention():
    water = shipped_geometry("h2o")
    assert canonical_formula(water) == "H2O"
    methane = shipped_geometry("ch4")
    assert canonical_formula(methane) == "CH4"
    lih = shipped_geometry("lih")
    assert canonical_formula(lih) == "HLi"
    ammonia = shipped_geometry("nh3")
    assert canonical_formula(ammonia) == "H3N"


def test_display_name_prefers_convention_then_explicit_name():
    lih = shipped_geometry("lih")
    assert display_name(lih) == "LiH"
    bare = from_atom_list([("Li", (0, 0, 0)), ("H", (0, 0, 3.0))])
    assert display_name(bare) == "LiH"
    named = from_atom_list([("Li", (0, 0, 0)), ("H", (0, 0, 3.0))],
                           name="lithium hydride")
    assert display_name(named) == "lithium hydride"


def test_shipped_geometry_rejects_unknown_name():
    with pytest.raises(ValueError, match="available"):
        shipped_geometry("benzene")


def test_load_molecule_argument_paths(tmp_path):
    xyz = tmp_path / "probe.xyz"
    xyz.write_text("1\nlone hydrogen anion\nH 0.0 0.0 0.0\n")
    loaded = load_molecule_argument(str(xyz))
    assert len(loaded.atoms) == 1
    by_name = load_molecule_argument("LiH")
    assert canonical_formula(by_name) == "HLi"
    with pytest.raises(FileNotFoundError, match="shipped molecule"):
        load_molecule_argument("unobtainium.xyz")


def test_diatomic_geometry_layout():
    mol = diatomic_geometry(("He", "H"), 1.4632, charge=1, name="helium hydride")
    assert [a.symbol for a in mol.atoms] == ["He", "H"]
    assert mol.atoms[0].position == pytest.approx((0.0, 0.0, 0.0))
    assert mol.atoms[1].position == pytest.approx((0.0, 0.0, 1.4632))
    assert mol.charge == 1
    assert mol.n_electrons == 2
    assert mol.name == "helium hydride"
    # unnamed is "", as for from_atom_list and parse_xyz, and the display
    # name falls back to the formula
    unnamed = diatomic_geometry(("Li", "H"), 3.0)
    assert unnamed.name == ""
    assert display_name(unnamed) == "LiH"


def test_active_integrals_export(assembled):
    system = assembled("lih")
    h, eri, core, n_e = system.active_integrals
    assert h.shape == (5, 5)
    assert eri.shape == (5, 5, 5, 5)
    assert n_e == 2
    assert core != pytest.approx(system.integrals.nuclear_repulsion)

    full = assemble(shipped_geometry("h2"),
                    active=full_space(shipped_geometry("h2")))
    h2_h, h2_eri, h2_core, h2_ne = full.active_integrals
    assert h2_core == pytest.approx(full.integrals.nuclear_repulsion)
    assert h2_ne == 2


@pytest.mark.parametrize("molecule", [
    shipped_geometry("h2"), shipped_geometry("lih"),
    diatomic_geometry(("Li", "H"), 3.0), shipped_geometry("h2o")],
    ids=["h2", "lih", "lih-3.0", "h2o"])
def test_full_space_window_expands_the_unfolded_integrals(molecule):
    # the full space is the window of all electrons in all orbitals: its
    # fold freezes nothing, so the spin-orbital integrals are the bytes of
    # expanding the MO integrals directly
    system = assemble(molecule, active=full_space(molecule))
    ints = system.integrals
    h_mo, eri_mo = mo_spatial_integrals(ints, system.scf.mo_coefficients)
    want = to_spin_orbitals(h_mo, eri_mo, ints.nuclear_repulsion,
                            molecule.n_electrons)
    got = system.spin_orbitals
    assert got.one_body.tobytes() == want.one_body.tobytes()
    assert got.two_body.tobytes() == want.two_body.tobytes()
    assert (got.core_energy, got.n_electrons) == (want.core_energy,
                                                  want.n_electrons)


def test_fcidump_export_reuses_the_folded_window(tmp_path, monkeypatch):
    folds = []
    fold = pipeline.spatial_active_space

    def counting(*args):
        folds.append(args[-1])
        return fold(*args)

    monkeypatch.setattr(pipeline, "spatial_active_space", counting)
    execute(RunSpec(molecule=shipped_geometry("lih"),
                    fcidump_path=str(tmp_path / "lih.fcidump")))
    assert folds == [ActiveSpaceSpec(2, 5)]

