"""Coupled-cluster ansatz construction and the variational optimizers."""

import dataclasses
import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qelectra import oracle, simulator, vqe
from qelectra.oracle import exact_ground_energy
from qelectra.pauli import MappingKind, map_fermion, sector_basis
from qelectra.vqe import (
    DEFAULT_ITERATIONS,
    DEFAULT_TOLERANCE,
    ROUNDING_LEVEL,
    SPSA_PATIENCE,
    Excitation,
    UccsdAnsatz,
    ansatz_circuit,
    build_uccsd,
    run_vqe,
    spsa_gradient_estimate,
    spsa_schedule,
)
from conftest import NEAR_EXACT_SHOTS, SHIPPED
from pauli_oracle import (add, circuit_by_excitations, excitation_generator,
                          fermion_operator, pauli_circuit, register_state,
                          rotated_plus_probability)
from test_fermion import dense_operator
from test_pauli import term

ALL_KINDS = [MappingKind.JORDAN_WIGNER, MappingKind.PARITY,
             MappingKind.BRAVYI_KITAEV]


def remapped(system, kind):
    """A copy of the system that maps its Hamiltonian under `kind`."""
    return dataclasses.replace(system, mapping=kind)


def test_minimal_ansatz_has_three_excitations():
    ansatz = build_uccsd(4, 2)
    assert ansatz.n_parameters == 3
    orders = [len(exc.occupied) for exc in ansatz.excitations]
    assert orders == [1, 1, 2]
    assert ansatz.excitations[0] == Excitation((0,), (2,))
    assert ansatz.excitations[1] == Excitation((1,), (3,))
    assert ansatz.excitations[2] == Excitation((0, 1), (2, 3))


def test_excitations_preserve_spin_and_ordering():
    ansatz = build_uccsd(10, 2)
    singles = [e for e in ansatz.excitations if len(e.occupied) == 1]
    doubles = [e for e in ansatz.excitations if len(e.occupied) == 2]
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
    system = remapped(assembled("h2"), kind)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    state = register_state(system,
                           ansatz_circuit(ansatz, system).run(np.zeros(3)))
    assert state.expectation(system.qubit_hamiltonian) == pytest.approx(
        system.scf.e_total, abs=1e-9)


def test_zero_angles_match_scf_on_ten_qubits(assembled):
    system = assembled("lih")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    state = register_state(system, ansatz_circuit(ansatz, system).run(
        np.zeros(ansatz.n_parameters)))
    assert state.expectation(system.qubit_hamiltonian) == pytest.approx(
        system.scf.e_total, abs=1e-9)


def test_ansatz_circuit_validation(assembled):
    system = assembled("h2")
    circuit = ansatz_circuit(build_uccsd(4, 2), system)
    with pytest.raises(ValueError, match="parameters"):
        circuit.run([0.1])
    psi = circuit.run([0.02, -0.03, 0.05])
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    # an aufbau reference outside the system's sector
    with pytest.raises(ValueError, match="sector"):
        ansatz_circuit(build_uccsd(4, 1), system)


@settings(deadline=None, max_examples=5)
@given(data=st.data())
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("key", ["h2", "lih"])
def test_adjoint_gradient_matches_central_differences(key, kind, assembled,
                                                      data):
    system = remapped(assembled(key), kind)
    block = system.block
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    m = ansatz.n_parameters
    theta = np.array(data.draw(st.lists(
        st.floats(-np.pi, np.pi, allow_nan=False), min_size=m, max_size=m)))
    circuit = ansatz_circuit(ansatz, system)

    def energy(t):
        psi = circuit.run(t)
        return psi @ (block @ psi).real

    psi = circuit.run(theta)
    gradient = circuit.adjoint_gradient(theta, psi, (block @ psi).real)
    h = 1e-5
    central = np.array([(energy(theta + h * e) - energy(theta - h * e))
                        / (2.0 * h) for e in np.eye(m)])
    assert np.max(np.abs(gradient - central)) <= 1e-7


def test_adjoint_gradient_validation(assembled):
    circuit = ansatz_circuit(build_uccsd(4, 2), assembled("h2"))
    psi = circuit.run(np.zeros(3))
    with pytest.raises(ValueError, match="parameters"):
        circuit.adjoint_gradient(np.zeros(2), psi, psi)
    with pytest.raises(ValueError, match="shape"):
        circuit.adjoint_gradient(np.zeros(3), psi[:2], psi)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bfgs_converges_on_the_gradient_norm(kind, assembled):
    system = remapped(assembled("lih"), kind)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    result = run_vqe(system, ansatz)
    target = exact_ground_energy(system.block)
    assert result.converged
    assert result.n_iterations < 20
    assert result.energy == pytest.approx(target, abs=1e-8)
    # Armijo steps only go down, one record per accepted iterate
    assert np.all(np.diff(result.energy_history) < 0.0)
    assert len(result.energy_history) == result.n_iterations + 1
    assert len(result.theta_history) == len(result.energy_history)
    assert result.evaluation_history[-1] == result.n_evaluations
    assert result.energy == min(result.energy_history)
    circuit = ansatz_circuit(ansatz, system)
    psi = circuit.run(result.theta_star)
    gradient = circuit.adjoint_gradient(result.theta_star, psi,
                                        (system.block @ psi).real)
    assert np.max(np.abs(gradient)) <= 1e-6
    # BFGS is deterministic to the last bit
    again = run_vqe(system, ansatz)
    assert again.energy_history == result.energy_history
    assert again.theta_star.tobytes() == result.theta_star.tobytes()


def test_bfgs_stops_when_no_descent_is_left(assembled, monkeypatch):
    # a gradient bound below what double precision resolves: the run ends
    # at the first step that moves the energy only at rounding level
    # (iterate 17, 18 evaluations) instead of in failing line searches
    system = assembled("lih")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    monkeypatch.setitem(DEFAULT_TOLERANCE, "bfgs", 1e-12)
    result = run_vqe(system, ansatz)
    assert not result.converged
    assert result.n_iterations < 200
    assert result.n_evaluations <= 20
    assert result.energy == pytest.approx(
        exact_ground_energy(system.block), abs=1e-10)


def test_bfgs_line_search_that_finds_no_descent_gives_up():
    # a flat energy with a nonzero gradient: no step meets the Armijo
    # condition, so the first line search halves below MIN_STEP and the
    # run ends unconverged with nothing recorded beyond the start
    evaluations, recorded = [], []

    def flat(theta, gradient=False):
        evaluations.append(theta)
        return 1.0, np.array([1.0, -2.0])

    outcome = vqe._bfgs(flat, np.zeros(2), lambda e, th: recorded.append(e))
    assert outcome is False
    assert recorded == [1.0]
    # the start, the full step, then halves down to the last one above
    # MIN_STEP
    assert len(evaluations) == int(np.log2(1.0 / vqe.MIN_STEP)) + 2


def assert_trajectory(result, sampled=False):
    """What every stop keeps: one record per accepted iterate after the
    start, and evaluation counts that never decrease and end at the run's
    count, before the fresh estimate of a sampled run."""
    assert (result.n_iterations == len(result.energy_history) - 1
            == len(result.theta_history) - 1)
    assert len(result.evaluation_history) == len(result.energy_history)
    assert np.all(np.diff(result.evaluation_history) >= 0)
    assert result.evaluation_history[-1] == result.n_evaluations - int(sampled)


@pytest.mark.parametrize("stop", ["gradient", "rounding", "budget"])
def test_every_bfgs_stop_keeps_the_trajectory(stop, assembled, monkeypatch):
    system = assembled("lih")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    if stop == "rounding":
        monkeypatch.setitem(DEFAULT_TOLERANCE, "bfgs", 1e-12)
    if stop == "budget":
        monkeypatch.setitem(DEFAULT_ITERATIONS, "bfgs", 3)
    result = run_vqe(system, ansatz)
    assert_trajectory(result)
    # the verdict is the gradient bound at the last accepted iterate
    theta = result.theta_history[-1]
    circuit = ansatz_circuit(ansatz, system)
    psi = circuit.run(theta)
    gradient = circuit.adjoint_gradient(theta, psi, system.block @ psi)
    assert result.converged == (
        np.max(np.abs(gradient)) <= DEFAULT_TOLERANCE["bfgs"])
    energies = result.energy_history
    if stop == "budget":
        assert result.n_iterations == 3
        assert not result.converged
        return
    assert result.n_iterations < DEFAULT_ITERATIONS["bfgs"]
    stalled = abs(energies[-1] - energies[-2]) <= (ROUNDING_LEVEL
                                                    * abs(energies[-1]))
    assert result.converged == (stop == "gradient")
    assert stalled == (stop == "rounding")


@pytest.mark.parametrize("stop", ["patience", "budget"])
def test_every_spsa_stop_keeps_the_trajectory(stop, assembled, monkeypatch):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    if stop == "budget":
        monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 10)
    result = run_vqe(system, ansatz, seed=2, shots=NEAR_EXACT_SHOTS)
    assert_trajectory(result, sampled=True)
    budget = spsa_schedule(ansatz.n_parameters).iterations
    changes = np.abs(np.diff(result.energy_history))
    quiet = changes[-SPSA_PATIENCE:] <= DEFAULT_TOLERANCE["spsa"]
    if stop == "budget":
        assert result.n_iterations == budget == 10
        assert not result.converged
    else:
        # seed 2 converges at iteration 65 of 300
        assert SPSA_PATIENCE <= result.n_iterations < budget
        assert result.converged
        assert np.all(quiet)


def test_the_bare_ansatz_and_a_shot_run_keep_the_trajectory(assembled,
                                                            monkeypatch):
    system = assembled("h2")
    bare = run_vqe(system, UccsdAnsatz(4, 2, []))
    assert_trajectory(bare)
    assert (bare.converged, bare.n_iterations, bare.n_evaluations) == (
        True, 0, 1)
    monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 20)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    sampled = run_vqe(system, ansatz, seed=3, shots=64)
    assert_trajectory(sampled, sampled=True)
    assert sampled.n_iterations == 20


def test_spsa_reproduces_bitwise_and_lands_near_target(assembled,
                                                       monkeypatch):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 200)
    first = run_vqe(system, ansatz, seed=11, shots=NEAR_EXACT_SHOTS)
    target = exact_ground_energy(system.block)
    assert abs(first.energy - target) < 1e-3
    second = run_vqe(system, ansatz, seed=11, shots=NEAR_EXACT_SHOTS)
    assert first.energy == second.energy
    assert first.energy_history == second.energy_history
    assert first.theta_star.tobytes() == second.theta_star.tobytes()


def test_shot_noise_runs_are_seeded(assembled, monkeypatch):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 10)
    first = run_vqe(system, ansatz, seed=5, shots=128)
    second = run_vqe(system, ansatz, seed=5, shots=128)
    assert first.energy_history == second.energy_history
    # the seed draws both the perturbations and the shots
    other = run_vqe(system, ansatz, seed=6, shots=128)
    assert first.energy_history != other.energy_history


def test_register_mismatch_rejected(assembled):
    system = assembled("h2")
    with pytest.raises(ValueError, match="qubits"):
        run_vqe(system, build_uccsd(6, 2))
    # the circuit's reference must lie in the system's sector
    with pytest.raises(ValueError, match="electrons"):
        run_vqe(system, UccsdAnsatz(4, 1, []))


def test_the_mapping_has_no_default(assembled):
    # a PauliSum does not record its mapping: a Jordan-Wigner default on
    # the parity-mapped H2 Hamiltonian returned -0.5246 Ha, converged. The
    # mapping comes with the Hamiltonian on the system, and the circuit
    # builder reads the sector from the system too
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    with pytest.raises(TypeError, match="kind"):
        run_vqe(system, ansatz, kind=MappingKind.JORDAN_WIGNER)
    with pytest.raises(TypeError, match="system"):
        ansatz_circuit(ansatz)
    for kind in ALL_KINDS:
        result = run_vqe(remapped(system, kind), ansatz)
        assert result.energy == pytest.approx(
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
    result = run_vqe(system, ansatz)
    assert len(built) == 1
    observable, basis = built[0]
    assert observable is system.qubit_hamiltonian
    # the (1 alpha, 1 beta) sector of H2's aufbau reference: 4 states
    assert np.array_equal(basis,
                          sector_basis(MappingKind.PARITY, 4, 1, 1))
    assert basis.size == 4
    assert result.n_evaluations > 1
    # a second run, and the FCI solve, reuse the system's block
    run_vqe(system, ansatz)
    exact_ground_energy(system.block)
    assert len(built) == 1
    # sampled energies measure the Pauli terms; no matrix is built
    monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 5)
    run_vqe(dataclasses.replace(system), ansatz, seed=3, shots=64)
    assert len(built) == 1


def test_non_hermitian_hamiltonian_rejected_before_any_evaluation(
        assembled, monkeypatch):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    skewed = dataclasses.replace(system)
    skewed.qubit_hamiltonian = add(system.qubit_hamiltonian,
                                   term("XYII", 0.1j))

    def refuse(self, parameters):
        raise AssertionError("no circuit runs for a rejected Hamiltonian")

    monkeypatch.setattr(simulator.Circuit, "run", refuse)
    with pytest.raises(ValueError, match="Hermitian"):
        run_vqe(skewed, ansatz)


def test_hamiltonian_leaving_the_reference_sector_is_refused(assembled):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    # a_0^ + a_0 is Hermitian but changes the particle number
    ladder = map_fermion(fermion_operator([(((0, 1),), 0.1),
                                           (((0, 0),), 0.1)]),
                         MappingKind.PARITY, system.n_qubits)
    leaky = dataclasses.replace(system)
    leaky.qubit_hamiltonian = add(system.qubit_hamiltonian, ladder)
    with pytest.raises(ValueError, match="outside the basis"):
        run_vqe(leaky, ansatz, seed=0)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("key", ["lih", "h2o"])
def test_sector_energy_matches_the_full_register_term_loop(key, kind,
                                                           assembled):
    # an exact energy is psi_S^ H_SS psi_S, with psi_S the circuit's
    # sector amplitudes and H_SS the system's block; the term loop sums
    # every Pauli term over all 2^n amplitudes
    system = remapped(assembled(key), kind)
    n = system.n_qubits
    n_e = system.spin_orbitals.n_electrons
    ansatz = build_uccsd(n, n_e)
    theta = np.random.default_rng(41).uniform(-1.0, 1.0,
                                              ansatz.n_parameters)
    psi = ansatz_circuit(ansatz, system).run(theta)
    state = pauli_circuit(ansatz, kind).run(theta)
    assert psi @ (system.block @ psi).real == pytest.approx(
        state.expectation(system.qubit_hamiltonian), abs=1e-10)
    outside = np.delete(state.data,
                        sector_basis(kind, n, n_e // 2, n_e // 2))
    assert np.linalg.norm(outside) <= 1e-12


def test_empty_ansatz_returns_reference_energy(assembled):
    system = assembled("h2")
    bare = UccsdAnsatz(n_spin_orbitals=4, n_electrons=2, excitations=[])
    result = run_vqe(system, bare)
    assert result.converged
    assert result.n_iterations == 0
    assert result.energy == pytest.approx(system.scf.e_total, abs=1e-9)


def test_optimizer_config_validation(assembled, monkeypatch):
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    assert run_vqe(system, ansatz, seed=0).converged

    def refuse(self, parameters):
        raise AssertionError("no circuit runs for refused settings")

    monkeypatch.setattr(simulator.Circuit, "run", refuse)
    with pytest.raises(ValueError, match="seed"):
        run_vqe(system, ansatz, seed=-1)
    # the optimizer follows the shot setting, and its budget, tolerance
    # and gains are derived by run_vqe: none of them is set
    for name in ("optimizer", "max_iterations", "tolerance", "a"):
        with pytest.raises(TypeError):
            run_vqe(system, ansatz, **{name: 0.2})


def test_optimizer_config_defaults():
    parameters = inspect.signature(run_vqe).parameters
    assert list(parameters) == ["system", "ansatz", "seed", "shots"]
    assert [parameters[name].default
            for name in ("seed", "shots")] == [0, None]
    assert DEFAULT_TOLERANCE == {"spsa": 1e-5, "bfgs": 1e-6}
    assert DEFAULT_ITERATIONS == {"spsa": 300, "bfgs": 200}


def test_spsa_budget_grows_with_parameter_count_but_gains_do_not(
        monkeypatch):
    for m, budget in ((3, 300), (24, 300), (92, 575), (117, 732)):
        schedule = spsa_schedule(m)
        c = min(0.1, 0.25 / np.sqrt(m))
        assert schedule.iterations == budget
        assert schedule.big_a == 0.1 * 300
        assert schedule.c == c
        assert schedule.a == 2.0 * c
    # the base budget is the one the schedule scales
    default = spsa_schedule(117)
    monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 100)
    assert spsa_schedule(117) == dataclasses.replace(
        default, iterations=244, big_a=0.1 * 100)


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


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_one_excitation_is_the_exponential_of_its_generator(data):
    # the sign rule against dense ladder matrices, with no Pauli algebra:
    # exp(theta (T - T^)) on the aufbau determinant of a Jordan-Wigner
    # register, which never leaves the sector
    n = data.draw(st.sampled_from([4, 6, 8]), label="modes")
    n_e = data.draw(st.integers(1, n - 1), label="electrons")
    exc = data.draw(st.sampled_from(build_uccsd(n, n_e).excitations))
    theta = data.draw(st.floats(-np.pi, np.pi, allow_nan=False))
    kind = MappingKind.JORDAN_WIGNER
    sector = sector_basis(kind, n, (n_e + 1) // 2, n_e // 2)
    circuit = ansatz_circuit(UccsdAnsatz(n, n_e, [exc]),
                             SimpleNamespace(sector=sector))
    assert len(circuit.instructions) == 1
    aufbau = np.zeros(1 << n)
    aufbau[(1 << n_e) - 1] = 1.0
    want = expm(theta * dense_operator(excitation_generator(exc), n)) @ aufbau
    assert np.max(np.abs(circuit.run([theta]) - want[sector])) <= 1e-13
    assert np.linalg.norm(np.delete(want, sector)) <= 1e-13


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("key", ["h2", "lih", "h2o", "nh3", "ch4", "co2"])
def test_sector_route_matches_the_pauli_oracle(key, kind, assembled):
    # energy and gradient of the determinant rotations against the Pauli
    # rotations on the whole register, gathered onto the same sector
    system = remapped(assembled(key), kind)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    theta = np.random.default_rng(43).uniform(-1.0, 1.0,
                                              ansatz.n_parameters)
    circuit = ansatz_circuit(ansatz, system)
    psi = circuit.run(theta)
    h_psi = system.block @ psi
    gradient = circuit.adjoint_gradient(theta, psi, h_psi)

    pauli = pauli_circuit(ansatz, kind)
    data = pauli.run(theta).data
    lam = np.zeros_like(data)
    # the real block on the real and imaginary parts apart
    gathered = data[system.encoded_sector]
    lam[system.encoded_sector] = (system.block @ gathered.real
                                  + 1j * (system.block @ gathered.imag))
    want_energy = np.vdot(data, lam).real
    want_gradient = pauli.adjoint_gradient(theta, data, lam)
    assert abs(psi @ h_psi - want_energy) <= 1e-12
    assert np.max(np.abs(gradient - want_gradient)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("key", SHIPPED + ["ch4 (8e, 8o)"])
def test_circuit_matches_the_excitation_loop_bit_for_bit(key, kind,
                                                         assembled, wide_ch4):
    system = remapped(wide_ch4 if key == "ch4 (8e, 8o)" else assembled(key),
                      kind)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    got = ansatz_circuit(ansatz, system)
    want = circuit_by_excitations(ansatz, system)
    assert (got.dim, got.reference) == (want.dim, want.reference)
    assert len(got.instructions) == len(want.instructions)
    for rotations, wanted in zip(got.instructions, want.instructions):
        for a, b in zip(rotations, wanted):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_circuit_of_an_empty_ansatz_has_no_rotations(assembled):
    system = assembled("h2")
    circuit = ansatz_circuit(UccsdAnsatz(4, 2, []), system)
    assert circuit.instructions == ()
    assert circuit.run([]) @ circuit.run([]) == 1.0


def refuse_registers(monkeypatch, dim):
    """Fail on a StateVector, or on a numpy array with a dimension of `dim`
    or more, made after this call."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a VQE run built a StateVector")

    def bounded(make):
        def checked(*args, **kwargs):
            out = make(*args, **kwargs)
            assert max(out.shape, default=0) < dim, \
                f"{make.__name__} made an array of shape {out.shape}"
            return out
        return checked

    monkeypatch.setattr(simulator.StateVector, "__init__", refuse)
    for name in ("zeros", "empty", "ones", "full", "arange", "eye",
                 "zeros_like", "empty_like", "bincount"):
        monkeypatch.setattr(np, name, bounded(getattr(np, name)))


@pytest.mark.parametrize("key", SHIPPED)
def test_exact_runs_hold_no_register(key, assembled, monkeypatch):
    # exact VQE lives on the sector: no StateVector and no numpy array
    # with a dimension of 2^n or more is made while it runs
    system = assembled(key)
    dim = 1 << system.n_qubits
    # the block is built here, before the checks go in
    assert system.block.shape[0] < dim
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    refuse_registers(monkeypatch, dim)
    monkeypatch.setitem(DEFAULT_ITERATIONS, "bfgs", 3)
    result = run_vqe(system, ansatz)
    assert result.n_evaluations > 1


@pytest.mark.parametrize("key", SHIPPED)
def test_shot_runs_hold_no_register(key, assembled, monkeypatch):
    # a shot-sampled run measures on the same sector amplitudes, under the
    # same checks
    system = assembled(key)
    dim = 1 << system.n_qubits
    # the sector and the qubit Hamiltonian are built before the checks
    assert system.sector.size < dim
    assert system.qubit_hamiltonian.n_qubits == system.n_qubits
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    refuse_registers(monkeypatch, dim)
    monkeypatch.setitem(DEFAULT_ITERATIONS, "spsa", 3)
    result = run_vqe(system, ansatz, seed=0, shots=64)
    assert result.n_evaluations > 1


def test_sampled_runs_report_a_fresh_estimate_at_theta_star(assembled,
                                                            monkeypatch):
    # the lowest of ~900 noisy energies sits 5.0 mHa (about 2.5 standard
    # errors) below FCI here; one more draw at theta_star is unbiased
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    draws = []
    sample = vqe.sampled_expectation

    def recording(amplitudes, *args):
        draws.append((amplitudes.copy(), sample(amplitudes, *args)))
        return draws[-1][1]

    monkeypatch.setattr(vqe, "sampled_expectation", recording)
    result = run_vqe(system, ansatz, seed=0, shots=4096)
    assert len(draws) == result.n_evaluations
    assert result.n_evaluations == result.evaluation_history[-1] + 1
    amplitudes, (mean, error) = draws[-1]
    assert result.energy == mean
    psi = ansatz_circuit(ansatz, system).run(result.theta_star)
    assert np.array_equal(amplitudes, psi)
    assert min(result.energy_history) < result.energy
    assert result.energy >= exact_ground_energy(system.block) - 2.0 * error


def test_sampling_the_sector_state_matches_the_register_state(assembled,
                                                              monkeypatch):
    # along a seeded shot run, every term is drawn with the +1 probability
    # that the Pauli rotations' register state gives it at the same angles
    system = assembled("h2")
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    pauli = pauli_circuit(ansatz, system.mapping)
    terms = [(x, z) for (x, z), _ in system.qubit_hamiltonian.items()
             if x | z]
    angles, worst = [], []
    run = simulator.Circuit.run
    sample = vqe.sampled_expectation

    def recording(self, theta):
        angles.append(np.array(theta))
        return run(self, theta)

    class Checked:
        # draws from the run's generator, after comparing what it draws from
        def __init__(self, rng):
            self.rng = rng

        def binomial(self, shots, p):
            state = pauli.run(angles[-1])
            worst.append(max(abs(p[k] - rotated_plus_probability(state, *t))
                             for k, t in enumerate(terms)))
            return self.rng.binomial(shots, p)

    def checked(amplitudes, basis, observable, shots, rng):
        return sample(amplitudes, basis, observable, shots, Checked(rng))

    monkeypatch.setattr(simulator.Circuit, "run", recording)
    monkeypatch.setattr(vqe, "sampled_expectation", checked)
    result = run_vqe(system, ansatz, seed=4, shots=64)
    assert len(worst) == len(angles) == result.n_evaluations
    assert max(worst) <= 1e-12
