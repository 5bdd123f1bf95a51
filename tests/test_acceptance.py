"""End-to-end acceptance checks for the whole toolkit.

Each test prints exactly one PASS/FAIL line (visible with -s or in the
captured output of a failure) and enforces its own wall-clock budget
where one applies. Golden numbers are pinned from independent solves:
the exact ground energy at the 1.388861 Bohr hydrogen geometry is what
dense `eigvalsh` gives on its sector block, which the package's Davidson
solve meets within 2 ulps.
"""

import time

import numpy as np
import pytest

from qelectra.cli import RunSpec, execute
from qelectra.integrals import compute_integrals
from qelectra.oracle import (
    exact_ground_energy,
    pauli_to_sparse,
)
from qelectra.pauli import MappingKind, map_fermion
from qelectra.pipeline import SHIPPED_MOLECULES, assemble, diatomic_geometry
from pauli_oracle import (anticommutation_check, block_matrix,
                          number_operator, pauli_circuit, pauli_sum,
                          register_state, sz_operator)
from quadrature_oracle import quadrature_one_electron
from qelectra.simulator import StateVector, sampled_expectation
from qelectra.vqe import (DEFAULT_ITERATIONS, DEFAULT_TOLERANCE,
                          ansatz_circuit, build_uccsd, run_vqe)
from conftest import NEAR_EXACT_SHOTS
from test_cli import method_row

ALL_KINDS = (MappingKind.JORDAN_WIGNER, MappingKind.PARITY,
             MappingKind.BRAVYI_KITAEV)

# hydrogen bond length (Bohr) used for the optimizer benchmarks, with the
# frozen exact ground energy of its full configuration space
BENCH_BOND = 1.388861
BENCH_GROUND = -1.1373060447235548


def verdict(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {label}: {detail}")
    return ok


@pytest.fixture(scope="module")
def bench_hydrogen():
    molecule = diatomic_geometry(("H", "H"), BENCH_BOND, name="H2")
    return assemble(molecule)


def test_three_mappings_are_isospectral(assembled):
    t0 = time.perf_counter()
    worst = 0.0
    for key in ("h2", "lih"):
        system = assembled(key)
        register = np.arange(1 << system.n_qubits)
        spectra = []
        for kind in ALL_KINDS:
            mapped = map_fermion(system.hamiltonian, kind, system.n_qubits)
            spectra.append(np.sort(np.linalg.eigvalsh(
                block_matrix(pauli_to_sparse(mapped, register)))))
        for other in spectra[1:]:
            worst = max(worst, float(np.max(np.abs(spectra[0] - other))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert verdict(ok, "mapping equivalence",
                   f"sorted-eigenvalue deviation {worst:.2e} "
                   f"(limit 1e-10) across jw/parity/bk on 4 and 10 qubits "
                   f"in {elapsed:.1f} s (limit 10 s)")


def test_canonical_anticommutation_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ALL_KINDS:
        for n_modes in range(1, 7):
            worst = max(worst, anticommutation_check(kind, n_modes))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    assert verdict(ok, "anticommutation algebra",
                   f"largest residual {worst:.2e} (limit 1e-12) for all "
                   f"mappings up to 6 modes in {elapsed:.1f} s (limit 5 s)")


def test_bfgs_reaches_exact_ground_energy(bench_hydrogen):
    t0 = time.perf_counter()
    system = bench_hydrogen
    target = exact_ground_energy(system.block)
    assert target == pytest.approx(BENCH_GROUND, abs=1e-9)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    # the default budget of 200 iterations
    result = run_vqe(system, ansatz)
    elapsed = time.perf_counter() - t0
    gap = abs(result.energy - target)
    ok = gap <= 1e-6 and result.converged and elapsed < 60.0
    assert verdict(ok, "BFGS ground state",
                   f"|e - exact| = {gap:.2e} (limit 1e-6) at bond length "
                   f"{BENCH_BOND} Bohr in {elapsed:.1f} s (limit 60 s)")


def test_seeded_spsa_is_accurate_and_reproducible(bench_hydrogen):
    t0 = time.perf_counter()
    system = bench_hydrogen
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    # the default budget of 300 iterations for 3 parameters
    first = run_vqe(system, ansatz, seed=0, shots=NEAR_EXACT_SHOTS)
    second = run_vqe(system, ansatz, seed=0, shots=NEAR_EXACT_SHOTS)
    elapsed = time.perf_counter() - t0
    gap = abs(first.energy - BENCH_GROUND)
    identical = (first.energy == second.energy
                 and first.energy_history == second.energy_history
                 and first.theta_star.tobytes() == second.theta_star.tobytes())
    ok = gap <= 1e-3 and identical and elapsed < 60.0
    assert verdict(ok, "seeded stochastic optimizer",
                   f"|e - exact| = {gap:.2e} (limit 1e-3), rerun "
                   f"bitwise-identical: {identical}, in {elapsed:.1f} s "
                   f"(limit 60 s)")


def test_variational_ordering_on_every_shipped_molecule(assembled):
    t0 = time.perf_counter()
    margins = []
    ok = True
    for key in SHIPPED_MOLECULES:
        spec = RunSpec(molecule=assembled(key).molecule,
                       methods=("hf", "vqe", "fci"))
        report = execute(spec)
        e_hf = method_row(report, "hf").energy
        vqe = method_row(report, "vqe")
        e_vqe = vqe.energy
        e_fci = method_row(report, "fci").energy
        ok = (ok
              and abs(e_vqe - e_hf) <= 5e-2
              and e_vqe <= e_hf + 1e-9
              and e_vqe >= e_fci - 1e-9
              and e_hf >= e_fci - 1e-9
              and vqe.converged)
        # exact expectations: bfgs
        budget = DEFAULT_ITERATIONS["bfgs"]
        margins.append(f"{key} {e_hf - e_vqe:.4f} Ha (gap to fci "
                       f"{1000.0 * (e_vqe - e_fci):.3g} mHa, "
                       f"converged={vqe.converged} at "
                       f"{vqe.iterations}/{budget})")
    elapsed = time.perf_counter() - t0
    assert verdict(ok, "variational ordering",
                   "e_fci <= e_vqe <= e_hf with |e_vqe - e_hf| <= 0.05 Ha "
                   "and a converged vqe on all six shipped systems; "
                   "recovered correlation: " + ", ".join(margins)
                   + f"; in {elapsed:.1f} s")


def test_zero_parameter_ansatz_reproduces_scf(assembled):
    worst = 0.0
    for key in SHIPPED_MOLECULES:
        system = assembled(key)
        ansatz = build_uccsd(system.n_qubits,
                             system.spin_orbitals.n_electrons)
        state = register_state(system, ansatz_circuit(ansatz, system).run(
            np.zeros(ansatz.n_parameters)))
        energy = state.expectation(system.qubit_hamiltonian)
        worst = max(worst, abs(energy - system.scf.e_total))
    ok = worst <= 1e-9
    assert verdict(ok, "zero-angle reference energy",
                   f"largest |<H> - e_scf| = {worst:.2e} (limit 1e-9) "
                   "over all six shipped systems")


def test_quadrature_oracle_confirms_analytic_integrals():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [diatomic_geometry(("H", "H"), 1.4011, name="H2"),
             diatomic_geometry(("He", "H"), 1.4632, charge=1, name="HeH+")]
    for molecule in cases:
        analytic = compute_integrals(molecule)
        grid = quadrature_one_electron(molecule)
        assert not grid.accuracy_warning
        for exact, numeric in ((analytic.overlap, grid.overlap),
                               (analytic.kinetic, grid.kinetic),
                               (analytic.nuclear, grid.nuclear)):
            worst = max(worst, float(np.max(np.abs(exact - numeric))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    assert verdict(ok, "integral quadrature oracle",
                   f"largest |analytic - grid| = {worst:.2e} (limit 1e-4) "
                   f"for H2 and HeH+ in {elapsed:.1f} s (limit 30 s)")


def test_number_and_spin_conserved_along_trajectory(assembled, monkeypatch):
    # the sector amplitudes conserve both by construction, so the check
    # runs the trajectory through the Pauli rotations on the register
    system = assembled("h2")
    n = system.n_qubits
    number = map_fermion(number_operator(n), system.mapping, n)
    spin_z = map_fermion(sz_operator(n), system.mapping, n)
    ansatz = build_uccsd(n, system.spin_orbitals.n_electrons)
    monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 100)
    monkeypatch.setitem(DEFAULT_TOLERANCE, "spsa", 1e-30)
    result = run_vqe(system, ansatz, seed=2, shots=NEAR_EXACT_SHOTS)
    assert result.n_iterations == 100
    circuit = pauli_circuit(ansatz, system.mapping)
    worst_n = 0.0
    worst_sz = 0.0
    for theta in result.theta_history:
        state = circuit.run(theta)
        worst_n = max(worst_n, abs(state.expectation(number) - 2.0))
        worst_sz = max(worst_sz, abs(state.expectation(spin_z)))
    ok = worst_n <= 1e-8 and worst_sz <= 1e-8
    assert verdict(ok, "symmetry conservation",
                   f"max |<N> - 2| = {worst_n:.2e}, max |<S_z>| = "
                   f"{worst_sz:.2e} (limits 1e-8) across a 100-iteration "
                   "trajectory")


def test_sampled_expectation_tracks_exact_statistics():
    shots = 1 << 14
    letters = np.array(list("IXYZ"))
    failures = 0
    worst_pull = 0.0
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(1, 5))
        op = pauli_sum(n, [("".join(rng.choice(letters, size=n)),
                            float(rng.standard_normal()))
                           for _ in range(int(rng.integers(3, 7)))])
        amp = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        state = StateVector(n, amp / np.linalg.norm(amp))
        exact = state.expectation(op)
        est, err = sampled_expectation(
            state.data, np.arange(1 << n), op, shots,
            np.random.default_rng(int(rng.integers(1 << 31))))
        allowed = max(5.0 * err, 1e-12)
        if abs(est - exact) > allowed:
            failures += 1
        if err > 0.0:
            worst_pull = max(worst_pull, abs(est - exact) / err)
    ok = failures == 0
    assert verdict(ok, "sampling statistics",
                   f"{20 - failures}/20 seeded cases within 5 standard "
                   f"errors at {shots} shots (worst pull "
                   f"{worst_pull:.2f} sigma)")
