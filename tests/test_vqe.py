"""Coupled-cluster ansatz construction and the variational optimizers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelectra import oracle, simulator
from qelectra.fermion import FermionOperator
from qelectra.oracle import exact_ground_energy
from qelectra.pauli import (MappingKind, PauliString, PauliSum, map_fermion,
                            sector_basis)
from qelectra.vqe import (
    DEFAULT_ITERATIONS,
    DEFAULT_TOLERANCE,
    Excitation,
    OptimizerConfig,
    UccsdAnsatz,
    ansatz_circuit,
    build_uccsd,
    excitation_generator,
    optimizer_kind,
    run_vqe,
    spsa_gradient_estimate,
    spsa_schedule,
)
from test_fermion import dense_operator

ALL_KINDS = [MappingKind.JORDAN_WIGNER, MappingKind.PARITY,
             MappingKind.BRAVYI_KITAEV]


def remapped(system, kind):
    """A copy of the system with its Hamiltonian mapped under `kind`."""
    return dataclasses.replace(
        system, mapping=kind,
        qubit_hamiltonian=map_fermion(system.hamiltonian, kind,
                                      system.n_qubits))


def test_minimal_ansatz_has_three_excitations():
    ansatz = build_uccsd(4, 2)
    assert ansatz.n_parameters == 3
    orders = [exc.order for exc in ansatz.excitations]
    assert orders == [1, 1, 2]
    assert ansatz.excitations[0] == Excitation((0,), (2,))
    assert ansatz.excitations[1] == Excitation((1,), (3,))
    assert ansatz.excitations[2] == Excitation((0, 1), (2, 3))


def test_excitations_preserve_spin_and_ordering():
    ansatz = build_uccsd(10, 2)
    singles = [e for e in ansatz.excitations if e.order == 1]
    doubles = [e for e in ansatz.excitations if e.order == 2]
    # 2 occupied x 4 same-spin virtuals, then 4 alpha x 4 beta pair targets
    assert len(singles) == 8
    assert len(doubles) == 16
    assert ansatz.n_parameters == 24
    # singles enumerate before doubles, and no excitation repeats
    assert ansatz.excitations[:8] == singles
    assert len(set(ansatz.excitations)) == 24
    for exc in ansatz.excitations:
        assert sum(i % 2 for i in exc.occupied) == \
            sum(a % 2 for a in exc.virtual)
        assert all(i < 2 for i in exc.occupied)
        assert all(a >= 2 for a in exc.virtual)
        assert tuple(sorted(exc.occupied)) == exc.occupied
        assert tuple(sorted(exc.virtual)) == exc.virtual


def test_build_uccsd_validation():
    with pytest.raises(ValueError, match="n_electrons"):
        build_uccsd(4, 0)
    with pytest.raises(ValueError, match="n_electrons"):
        build_uccsd(4, 4)
    with pytest.raises(ValueError, match="no spin-preserving"):
        build_uccsd(2, 1)
    # interleaved spin layout: mode 4 of five would have no beta partner
    with pytest.raises(ValueError, match="even number"):
        build_uccsd(5, 2)


def test_generators_are_anti_hermitian():
    for exc in (Excitation((0,), (2,)), Excitation((0, 1), (2, 3))):
        matrix = dense_operator(excitation_generator(exc), 4)
        assert np.allclose(matrix.conj().T, -matrix, atol=1e-14)
        assert np.any(matrix != 0.0)


def test_generator_rejects_triples():
    with pytest.raises(ValueError, match="order"):
        excitation_generator(Excitation((0, 1, 2), (3, 4, 5)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_zero_angles_reproduce_hartree_fock(kind, assembled):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    mapped = map_fermion(system.hamiltonian, kind, system.n_qubits)
    state = ansatz_circuit(ansatz, kind=kind).run(np.zeros(3))
    assert state.expectation(mapped) == pytest.approx(system.e_hf, abs=1e-9)


def test_zero_angles_match_scf_on_ten_qubits(assembled):
    system = assembled("lih")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    state = ansatz_circuit(ansatz, kind=MappingKind.PARITY).run(
        np.zeros(ansatz.n_parameters))
    assert state.expectation(system.qubit_hamiltonian) == pytest.approx(
        system.e_hf, abs=1e-9)


def test_ansatz_circuit_validation():
    ansatz = build_uccsd(4, 2)
    circuit = ansatz_circuit(ansatz, kind=MappingKind.JORDAN_WIGNER)
    with pytest.raises(ValueError, match="parameters"):
        circuit.run([0.1])
    state = circuit.run([0.02, -0.03, 0.05])
    assert state.norm() == pytest.approx(1.0)


@settings(deadline=None, max_examples=5)
@given(data=st.data())
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("key", ["h2", "lih"])
def test_adjoint_gradient_matches_central_differences(key, kind, assembled,
                                                      data):
    system = remapped(assembled(key), kind)
    n = system.n_qubits
    matrix = oracle.pauli_to_sparse(system.qubit_hamiltonian,
                                    np.arange(1 << n))
    ansatz = build_uccsd(n, system.spin_orbitals.n_electrons)
    m = ansatz.n_parameters
    theta = np.array(data.draw(st.lists(
        st.floats(-np.pi, np.pi, allow_nan=False), min_size=m, max_size=m)))
    circuit = ansatz_circuit(ansatz, kind=kind)

    def energy(t):
        psi = circuit.run(t).data
        return np.vdot(psi, matrix @ psi).real

    psi = circuit.run(theta).data
    gradient = circuit.adjoint_gradient(theta, psi, matrix @ psi)
    h = 1e-5
    central = np.array([(energy(theta + h * e) - energy(theta - h * e))
                        / (2.0 * h) for e in np.eye(m)])
    assert np.max(np.abs(gradient - central)) <= 1e-7
    # BFGS from the same point is deterministic to the last bit
    config = OptimizerConfig(kind="bfgs", max_iterations=10)
    first, second = (run_vqe(system, ansatz, config,
                             initial_parameters=theta) for _ in range(2))
    assert first.energy_history == second.energy_history
    assert first.theta_star.tobytes() == second.theta_star.tobytes()


def test_adjoint_gradient_validation():
    circuit = ansatz_circuit(build_uccsd(4, 2),
                             kind=MappingKind.JORDAN_WIGNER)
    psi = circuit.run(np.zeros(3)).data
    with pytest.raises(ValueError, match="parameters"):
        circuit.adjoint_gradient(np.zeros(2), psi, psi)
    with pytest.raises(ValueError, match="shape"):
        circuit.adjoint_gradient(np.zeros(3), psi[:8], psi)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bfgs_converges_on_the_gradient_norm(kind, assembled):
    system = remapped(assembled("lih"), kind)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    result = run_vqe(system, ansatz, OptimizerConfig(kind="bfgs"))
    target = exact_ground_energy(system.block)
    assert result.converged
    assert result.n_iterations < 20
    assert result.e_min == pytest.approx(target, abs=1e-8)
    # Armijo steps only go down, one record per accepted iterate
    assert np.all(np.diff(result.energy_history) < 0.0)
    assert len(result.energy_history) == result.n_iterations + 1
    assert len(result.theta_history) == len(result.energy_history)
    assert result.evaluation_history[-1] == result.n_evaluations
    assert result.e_min == min(result.energy_history)
    circuit = ansatz_circuit(ansatz, kind=kind)
    psi = circuit.run(result.theta_star).data
    lam = oracle.pauli_to_sparse(system.qubit_hamiltonian,
                                 np.arange(1 << system.n_qubits)) @ psi
    gradient = circuit.adjoint_gradient(result.theta_star, psi, lam)
    assert np.max(np.abs(gradient)) <= 1e-6


def test_bfgs_stops_when_no_descent_is_left(assembled):
    # a gradient bound below what double precision resolves: the run ends
    # at the first step that moves the energy only at rounding level
    # (iterate 17, 18 evaluations) instead of in failing line searches
    system = assembled("lih")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    result = run_vqe(system, ansatz,
                     OptimizerConfig(kind="bfgs", tolerance=1e-12))
    assert not result.converged
    assert result.n_iterations < 200
    assert result.n_evaluations <= 20
    assert result.e_min == pytest.approx(
        exact_ground_energy(system.block), abs=1e-10)


@pytest.mark.parametrize("optimizer", ["bfgs"])
def test_gradient_optimizers_refuse_shots(optimizer, assembled,
                                          monkeypatch):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)

    def refuse(self, parameters):
        raise AssertionError("no circuit runs for a refused optimizer")

    monkeypatch.setattr(simulator.Circuit, "run", refuse)
    with pytest.raises(ValueError, match="exact expectations"):
        run_vqe(system, ansatz, OptimizerConfig(kind=optimizer), shots=64)


def test_spsa_reproduces_bitwise_and_lands_near_target(assembled):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    config = OptimizerConfig(kind="spsa", max_iterations=200, seed=11)
    first = run_vqe(system, ansatz, config)
    target = exact_ground_energy(system.block)
    assert abs(first.e_min - target) < 1e-3
    second = run_vqe(system, ansatz, config)
    assert first.e_min == second.e_min
    assert first.energy_history == second.energy_history
    assert first.theta_star.tobytes() == second.theta_star.tobytes()


def test_shot_noise_runs_are_seeded(assembled):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    config = OptimizerConfig(kind="spsa", max_iterations=10, seed=5)
    first = run_vqe(system, ansatz, config, shots=128)
    second = run_vqe(system, ansatz, config, shots=128)
    assert first.energy_history == second.energy_history
    exact = run_vqe(system, ansatz, config)
    assert first.energy_history != exact.energy_history


def test_initial_parameters_are_honored(assembled):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    warm = run_vqe(system, ansatz,
                   OptimizerConfig(kind="bfgs", max_iterations=60))
    resumed = run_vqe(system, ansatz,
                      OptimizerConfig(kind="bfgs", max_iterations=20),
                      initial_parameters=warm.theta_star)
    assert resumed.energy_history[0] == pytest.approx(warm.e_min, abs=1e-9)
    with pytest.raises(ValueError, match="length"):
        run_vqe(system, ansatz, OptimizerConfig(kind="bfgs"),
                initial_parameters=[0.0])


def test_register_mismatch_rejected(assembled):
    system = assembled("h2")
    with pytest.raises(ValueError, match="qubits"):
        run_vqe(system, build_uccsd(6, 2), OptimizerConfig())
    # the circuit's reference must lie in the system's sector
    with pytest.raises(ValueError, match="electrons"):
        run_vqe(system, UccsdAnsatz(4, 1, []), OptimizerConfig())


def test_the_mapping_has_no_default(assembled):
    # a PauliSum does not record its mapping: a Jordan-Wigner default on
    # the parity-mapped H2 Hamiltonian returned -0.5246 Ha, converged. The
    # mapping comes with the Hamiltonian on the system; only the circuit
    # builder takes it as an argument
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    with pytest.raises(TypeError, match="kind"):
        run_vqe(system, ansatz, OptimizerConfig(),
                kind=MappingKind.JORDAN_WIGNER)
    with pytest.raises(TypeError, match="kind"):
        ansatz_circuit(ansatz)
    for kind in ALL_KINDS:
        result = run_vqe(remapped(system, kind), ansatz, OptimizerConfig())
        assert result.e_min == pytest.approx(
            exact_ground_energy(system.block), abs=1e-9)


def test_exact_runs_build_the_hamiltonian_matrix_once(assembled,
                                                      monkeypatch):
    # a copy carries no cached block
    system = dataclasses.replace(assembled("h2"))
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    built = []
    build = oracle.pauli_to_sparse

    def counting(observable, basis):
        built.append((observable, basis))
        return build(observable, basis)

    monkeypatch.setattr(oracle, "pauli_to_sparse", counting)
    config = OptimizerConfig(kind="spsa", max_iterations=5, seed=3)
    result = run_vqe(system, ansatz, config)
    assert len(built) == 1
    observable, basis = built[0]
    assert observable is system.qubit_hamiltonian
    # the (1 alpha, 1 beta) sector of H2's aufbau reference: 4 states
    assert np.array_equal(basis,
                          sector_basis(MappingKind.PARITY, 4, 1, 1))
    assert basis.size == 4
    assert result.n_evaluations > 1
    # a second run, and the FCI solve, reuse the system's block
    run_vqe(system, ansatz, config)
    exact_ground_energy(system.block)
    assert len(built) == 1
    # sampled energies measure the Pauli terms; no matrix is built
    run_vqe(dataclasses.replace(system), ansatz, config, shots=64)
    assert len(built) == 1


def test_non_hermitian_hamiltonian_rejected_before_any_evaluation(
        assembled, monkeypatch):
    system = assembled("h2")
    skewed = (system.qubit_hamiltonian
              + PauliSum.from_string(PauliString("XYII"), 0.1j))

    def refuse(self, parameters):
        raise AssertionError("no circuit runs for a rejected Hamiltonian")

    monkeypatch.setattr(simulator.Circuit, "run", refuse)
    # the system that run_vqe would take cannot be built
    with pytest.raises(ValueError, match="Hermitian"):
        dataclasses.replace(system, qubit_hamiltonian=skewed)


def test_hamiltonian_leaving_the_reference_sector_is_refused(assembled):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    # a_0^ + a_0 is Hermitian but changes the particle number
    ladder = map_fermion(FermionOperator({((0, 1),): 0.1, ((0, 0),): 0.1}),
                         MappingKind.PARITY, system.n_qubits)
    leaky = dataclasses.replace(
        system, qubit_hamiltonian=system.qubit_hamiltonian + ladder)
    with pytest.raises(ValueError, match="outside the basis"):
        run_vqe(leaky, ansatz, OptimizerConfig(seed=0))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("key", ["lih", "h2o"])
def test_sector_energy_matches_the_full_register_term_loop(key, kind,
                                                           assembled):
    # run_vqe's first energy is psi_S^ H_SS psi_S at the initial angles;
    # the term loop sums every Pauli term over all 2^n amplitudes
    system = remapped(assembled(key), kind)
    n = system.n_qubits
    n_e = system.spin_orbitals.n_electrons
    ansatz = build_uccsd(n, n_e)
    theta = np.random.default_rng(41).uniform(-1.0, 1.0,
                                              ansatz.n_parameters)
    result = run_vqe(system, ansatz,
                     OptimizerConfig(kind="spsa", max_iterations=1, seed=0),
                     initial_parameters=theta)
    state = ansatz_circuit(ansatz, kind=kind).run(theta)
    assert result.energy_history[0] == pytest.approx(
        state.expectation(system.qubit_hamiltonian), abs=1e-10)
    outside = np.delete(state.data,
                        sector_basis(kind, n, n_e // 2, n_e // 2))
    assert np.linalg.norm(outside) <= 1e-12


def test_empty_ansatz_returns_reference_energy(assembled):
    system = assembled("h2")
    bare = UccsdAnsatz(n_spin_orbitals=4, n_electrons=2, excitations=[])
    result = run_vqe(system, bare, OptimizerConfig())
    assert result.converged
    assert result.n_iterations == 0
    assert result.e_min == pytest.approx(system.e_hf, abs=1e-9)


def test_optimizer_config_validation():
    for kind in ("adam", "gd"):
        with pytest.raises(ValueError, match="kind"):
            OptimizerConfig(kind=kind)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)
    # the gains are derived by run_vqe, not set
    with pytest.raises(TypeError):
        OptimizerConfig(a=0.2)


def test_optimizer_config_defaults():
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == [
        "kind", "max_iterations", "tolerance", "seed"]
    config = OptimizerConfig()
    assert (config.kind, config.max_iterations, config.tolerance,
            config.seed) == (None, None, None, None)
    assert optimizer_kind(None, None) == "bfgs"
    assert optimizer_kind(None, 64) == "spsa"
    assert optimizer_kind("spsa", None) == "spsa"
    assert DEFAULT_TOLERANCE == {"spsa": 1e-5, "bfgs": 1e-6}
    assert DEFAULT_ITERATIONS == {"spsa": 300, "bfgs": 200}


def test_spsa_budget_grows_with_parameter_count_but_gains_do_not():
    for m, budget in ((3, 300), (24, 300), (92, 575), (117, 732)):
        schedule = spsa_schedule(m)
        c = min(0.1, 0.25 / np.sqrt(m))
        assert schedule.iterations == budget
        assert schedule.big_a == 0.1 * 300
        assert schedule.c == c
        assert schedule.a == 2.0 * c
    # an explicit budget is the base the schedule scales
    assert spsa_schedule(117, 100) == dataclasses.replace(
        spsa_schedule(117), iterations=244, big_a=0.1 * 100)


def test_spsa_gradient_is_exact_for_one_parameter_quadratic():
    rng = np.random.default_rng(41)
    theta = np.array([0.7])
    grad = spsa_gradient_estimate(lambda t: float(t @ t), theta, 1e-3, rng)
    assert grad[0] == pytest.approx(2 * 0.7, abs=1e-9)


def test_spsa_gradient_is_unbiased_on_average():
    rng = np.random.default_rng(42)
    theta = np.array([0.5, -0.3, 0.1])
    estimates = np.array([
        spsa_gradient_estimate(lambda t: float(t @ t), theta, 1e-3, rng)
        for _ in range(4000)])
    assert np.allclose(estimates.mean(axis=0), 2 * theta, atol=0.05)

