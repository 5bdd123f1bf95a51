"""Second-quantization layer: Hamiltonian assembly (checked against dense
ladder matrices built from scratch) and active windows."""

import numpy as np
import pytest

from qelectra.fermion import (ActiveSpaceSpec, FermionOperator,
                              SpinOrbitalIntegrals, build_hamiltonian,
                              mo_spatial_integrals, number_operator,
                              spatial_active_space, sz_operator,
                              to_spin_orbitals)
from qelectra.integrals import compute_integrals
from qelectra.molecule import from_atom_list
from qelectra.oracle import exact_ground_energy, pauli_to_sparse
from qelectra.pauli import MappingKind, map_fermion
from qelectra.pipeline import shipped_geometry
from qelectra.scf import run_rhf
from qelectra.simulator import StateVector


def dense_annihilator(mode, n_modes):
    """Occupation-number-basis matrix of a_mode, bit i of the index = n_i."""
    dim = 2 ** n_modes
    a = np.zeros((dim, dim))
    for b in range(dim):
        if b >> mode & 1:
            sign = (-1) ** bin(b & ((1 << mode) - 1)).count("1")
            a[b ^ (1 << mode), b] = sign
    return a


def dense_operator(op: FermionOperator, n_modes):
    dim = 2 ** n_modes
    ladders = [dense_annihilator(m, n_modes) for m in range(n_modes)]
    total = np.zeros((dim, dim), dtype=complex)
    for key, coeff in op.terms.items():
        m = np.eye(dim)
        for mode, dagger in key:
            m = m @ (ladders[mode].T if dagger else ladders[mode])
        total += coeff * m
    return total


def full_spin_orbitals(ints, scf, n_electrons):
    h_mo, eri_mo = mo_spatial_integrals(ints, scf.mo_coefficients)
    return to_spin_orbitals(h_mo, eri_mo, ints.nuclear_repulsion,
                            n_electrons)


def active_spin_orbitals(ints, scf, n_electrons, spec):
    """The production window: fold spatial integrals, then add spin."""
    h_mo, eri_mo = mo_spatial_integrals(ints, scf.mo_coefficients)
    return to_spin_orbitals(*spatial_active_space(
        h_mo, eri_mo, ints.nuclear_repulsion, n_electrons, spec))


def fold_spin_orbital_window(so, spec):
    """Independent oracle for spatial_active_space: the same frozen-core
    window folded in the spin-orbital basis. Frozen spin orbitals go into
    the constant and an effective one-body term; orbitals above the window
    are dropped."""
    n_frozen = (so.n_electrons - spec.n_active_electrons) // 2
    frozen = list(range(2 * n_frozen))
    active = list(range(2 * n_frozen, 2 * (n_frozen + spec.n_active_orbitals)))
    h = so.one_body
    g = so.two_body

    core = so.core_energy
    for i in frozen:
        core += h[i, i].real
    for i in frozen:
        for j in frozen:
            core += 0.5 * (g[i, j, i, j] - g[i, j, j, i]).real

    h_eff = h[np.ix_(active, active)].copy()
    for a, p in enumerate(active):
        for b, q in enumerate(active):
            for i in frozen:
                h_eff[a, b] += g[p, i, q, i] - g[p, i, i, q]

    g_act = g[np.ix_(active, active, active, active)].copy()
    return SpinOrbitalIntegrals(core_energy=core, one_body=h_eff,
                                two_body=g_act, n_orbitals=len(active),
                                n_electrons=spec.n_active_electrons)


def h2_spin_orbitals():
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 1.388861))])
    ints = compute_integrals(mol)
    scf = run_rhf(ints, 2)
    return scf, full_spin_orbitals(ints, scf, 2)


def test_h2_term_count():
    _, so = h2_spin_orbitals()
    ham = build_hamiltonian(so)
    assert ham.constant() == so.core_energy
    assert len(map_fermion(ham, MappingKind.JORDAN_WIGNER,
                           so.n_orbitals)) == 15


def test_hamiltonian_against_dense_ladder_construction():
    scf, so = h2_spin_orbitals()
    ham = build_hamiltonian(so)
    dense = dense_operator(ham, so.n_orbitals)
    # independently: same matrix out of the mapped Pauli form
    mapped = pauli_to_sparse(map_fermion(ham, MappingKind.JORDAN_WIGNER,
                                         so.n_orbitals),
                             np.arange(1 << so.n_orbitals)).toarray()
    assert np.max(np.abs(dense - mapped)) < 1e-12
    # the reference determinant |0011> must give the SCF energy
    hf_index = 0b0011
    assert dense[hf_index, hf_index].real == pytest.approx(scf.e_total,
                                                           abs=1e-10)


def test_spin_orbital_interleaving():
    # spatial orbital p lands on spin orbitals 2p (alpha) and 2p+1 (beta),
    # and the one-body part never mixes spins
    _, so = h2_spin_orbitals()
    h = so.one_body
    assert h[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert h[0, 0] == pytest.approx(h[1, 1], abs=1e-14)
    assert h[0, 0] == pytest.approx(-1.2563672433063395, abs=1e-10)


def test_two_body_spin_selection():
    _, so = h2_spin_orbitals()
    g = so.two_body
    # <pq|rs> vanishes unless spin(p)=spin(r) and spin(q)=spin(s)
    assert g[0, 0, 1, 0] == pytest.approx(0.0, abs=1e-14)
    assert g[0, 1, 0, 1] != pytest.approx(0.0, abs=1e-6)


def test_active_space_routes_agree():
    # folding in the spatial basis and in the spin-orbital basis must
    # produce identical reduced problems
    for key, spec in [("lih", ActiveSpaceSpec(2, 5)),
                      ("h2o", ActiveSpaceSpec(8, 6)),
                      ("h2o", ActiveSpaceSpec(4, 3))]:
        mol = shipped_geometry(key)
        ints = compute_integrals(mol)
        scf = run_rhf(ints, mol.n_electrons)
        so_a = active_spin_orbitals(ints, scf, mol.n_electrons, spec)
        so_b = fold_spin_orbital_window(
            full_spin_orbitals(ints, scf, mol.n_electrons), spec)

        assert so_a.core_energy == pytest.approx(so_b.core_energy, abs=1e-10)
        assert np.allclose(so_a.one_body, so_b.one_body, atol=1e-10)
        assert np.allclose(so_a.two_body, so_b.two_body, atol=1e-10)


def test_active_space_preserves_total_hf_energy():
    mol = shipped_geometry("h2o")
    ints = compute_integrals(mol)
    scf = run_rhf(ints, 10)
    so_act = active_spin_orbitals(ints, scf, 10, ActiveSpaceSpec(8, 6))
    # the window's aufbau determinant, 8 electrons in 12 Jordan-Wigner modes
    reference = StateVector.computational_basis(12, 0xFF)
    hamiltonian = map_fermion(build_hamiltonian(so_act),
                              MappingKind.JORDAN_WIGNER, 12)
    assert reference.expectation(hamiltonian) == pytest.approx(
        scf.e_total, abs=1e-9)


def test_active_space_validation():
    for key, spec, message in [
            ("h2", ActiveSpaceSpec(1, 2), "cannot freeze"),
            ("h2", ActiveSpaceSpec(2, 9), "exceeds 2 spatial orbitals"),
            ("h2o", ActiveSpaceSpec(6, 2), "more active electrons")]:
        mol = shipped_geometry(key)
        ints = compute_integrals(mol)
        scf = run_rhf(ints, mol.n_electrons)
        h_mo, eri_mo = mo_spatial_integrals(ints, scf.mo_coefficients)
        with pytest.raises(ValueError, match=message):
            spatial_active_space(h_mo, eri_mo, ints.nuclear_repulsion,
                                 mol.n_electrons, spec)


def test_number_and_sz_operators():
    n_modes = 4
    n_dense = dense_operator(number_operator(n_modes), n_modes)
    sz_dense = dense_operator(sz_operator(n_modes), n_modes)
    for b in range(2 ** n_modes):
        occ = [b >> k & 1 for k in range(n_modes)]
        assert n_dense[b, b].real == pytest.approx(sum(occ))
        expected_sz = 0.5 * (occ[0] + occ[2] - occ[1] - occ[3])
        assert sz_dense[b, b].real == pytest.approx(expected_sz)
    assert np.count_nonzero(n_dense - np.diag(np.diag(n_dense))) == 0


def test_full_vs_active_ground_state_bound():
    # freezing can only raise the ground energy
    mol = shipped_geometry("lih")
    ints = compute_integrals(mol)
    scf = run_rhf(ints, 4)
    so_full = full_spin_orbitals(ints, scf, 4)
    e_full = exact_ground_energy(pauli_to_sparse(
        map_fermion(build_hamiltonian(so_full), MappingKind.PARITY,
                    so_full.n_orbitals), np.arange(1 << so_full.n_orbitals)))
    so_act = active_spin_orbitals(ints, scf, 4, ActiveSpaceSpec(2, 5))
    e_act = exact_ground_energy(pauli_to_sparse(
        map_fermion(build_hamiltonian(so_act), MappingKind.PARITY,
                    so_act.n_orbitals), np.arange(1 << so_act.n_orbitals)))
    assert e_act >= e_full - 1e-9
    assert e_act == pytest.approx(-7.882176004920536, abs=1e-8)
    assert e_full == pytest.approx(-7.882403424257525, abs=1e-7)
