"""Statevector simulator, shot sampler and sector circuits checked against
dense matrix algebra, and the Pauli-rotation oracle of `pauli_oracle`
checked the same way."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qelectra.pauli import MappingKind
from qelectra.simulator import (MAX_QUBITS, Circuit, StateVector,
                                sampled_expectation)
from qelectra.vqe import ansatz_circuit, build_uccsd
from conftest import SHIPPED
from pauli_oracle import (PauliCircuit, apply_pauli, apply_pauli_exponential,
                          basis_state, masks, pauli_circuit, pauli_sum,
                          register_state, rotated_plus_probability)
from test_pauli import dense, dense_sum, term


def random_state(n_qubits, rng):
    dim = 1 << n_qubits
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amp /= np.linalg.norm(amp)
    return StateVector(n_qubits, amp)


def random_word(n, rng):
    return "".join(np.random.default_rng(rng.integers(1 << 30)).choice(
        np.array(list("IXYZ")), size=n))


def test_state_holds_a_complex_copy_of_its_data():
    data = np.zeros(8)
    data[0] = 1.0
    sv = StateVector(3, data)
    data[0] = 0.0
    assert sv.data.shape == (8,)
    assert sv.data.dtype == complex
    assert sv.data[0] == 1.0
    assert np.linalg.norm(sv.data) == pytest.approx(1.0)
    assert np.all(sv.data[1:] == 0.0)


def test_state_validation():
    with pytest.raises(ValueError):
        StateVector(0, np.ones(1))
    with pytest.raises(ValueError):
        StateVector(MAX_QUBITS + 1, np.ones(1))
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        word = random_word(n, rng)
        sv = random_state(n, rng)
        want = dense(word) @ sv.data
        assert np.allclose(apply_pauli(sv, *masks(word)), want, atol=1e-12)
    with pytest.raises(ValueError, match="outside the register"):
        apply_pauli(basis_state(2, 0), 0b100, 0)


def test_pauli_exponential_matches_expm():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        word = random_word(n, rng)
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        sv = random_state(n, rng)
        want = expm(-0.5j * angle * dense(word)) @ sv.data
        apply_pauli_exponential(sv, *masks(word), angle)
        assert np.allclose(sv.data, want, atol=1e-12)


def test_pauli_exponential_at_zero_angle_is_identity():
    rng = np.random.default_rng(23)
    sv = random_state(3, rng)
    before = sv.data.copy()
    apply_pauli_exponential(sv, *masks("XYZ"), 0.0)
    assert np.allclose(sv.data, before, atol=1e-15)


def test_expectation_matches_dense():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        op = pauli_sum(n, [(random_word(n, rng), float(rng.standard_normal()))
                           for _ in range(4)])
        sv = random_state(n, rng)
        want = float(np.real(np.conj(sv.data) @ dense_sum(op) @ sv.data))
        assert sv.expectation(op) == pytest.approx(want, abs=1e-12)


def test_expectation_flags_imaginary_result():
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(ValueError, match="imaginary"):
        plus.expectation(term("X", 1.0j))
    with pytest.raises(ValueError, match="mismatch"):
        plus.expectation(term("II"))


def test_matrix_expectation_matches_term_loop_on_lih(assembled):
    # the sector block on the sector amplitudes, as run_vqe evaluates it,
    # against the term loop over all 2^n amplitudes
    system = assembled("lih")
    so = system.spin_orbitals
    ansatz = build_uccsd(so.n_orbitals, so.n_electrons)
    circuit = ansatz_circuit(ansatz, system)
    theta = np.random.default_rng(28).normal(scale=0.2,
                                             size=ansatz.n_parameters)
    psi = circuit.run(theta)
    state = register_state(system, psi)
    assert psi @ (system.block @ psi).real == pytest.approx(
        state.expectation(system.qubit_hamiltonian), abs=1e-12)


def test_term_loop_serves_a_fifteen_qubit_register():
    n = 15
    op = pauli_sum(n, [("Z" + "I" * (n - 1), 0.75), ("X" * n, -0.5),
                       ("I" * (n - 2) + "YY", 0.25)])
    # |+>^n on every qubit but qubit 0, which is |1>: <Z_0> = -1,
    # <X...X> = 0 because of qubit 0, <Y_{n-2} Y_{n-1}> = 0
    plus = np.full(1 << (n - 1), (1.0 / np.sqrt(2.0)) ** (n - 1))
    data = np.zeros(1 << n, dtype=complex)
    data[1::2] = plus
    state = StateVector(n, data)
    assert state.expectation(op) == pytest.approx(-0.75, abs=1e-12)


def sample(state, *args):
    """`sampled_expectation` of a register state, its basis every state."""
    return sampled_expectation(state.data, np.arange(1 << state.n_qubits),
                               *args)


def test_sampled_expectation_tracks_exact_value():
    rng = np.random.default_rng(26)
    op = pauli_sum(2, [("II", 0.5), ("ZZ", -0.8), ("XI", 0.3), ("YY", 0.4)])
    sv = random_state(2, rng)
    exact = sv.expectation(op)
    est, err = sample(sv, op, 8192, np.random.default_rng(7))
    assert err > 0.0
    assert abs(est - exact) <= 5.0 * err


def test_sampled_expectation_is_deterministic_per_seed():
    rng = np.random.default_rng(27)
    op = pauli_sum(2, [("XZ", 1.0), ("ZI", -0.5)])
    sv = random_state(2, rng)
    first = sample(sv, op, 500, np.random.default_rng(42))
    second = sample(sv, op, 500, np.random.default_rng(42))
    assert first == second
    other = sample(sv, op, 500, np.random.default_rng(43))
    assert first != other


def test_sampled_expectation_identity_is_exact():
    sv = basis_state(2, 0)
    est, err = sample(sv, term("II", 1.25), 10, np.random.default_rng(0))
    assert est == pytest.approx(1.25)
    assert err == 0.0


def test_sampling_measures_y_in_its_eigenbasis():
    # +1 eigenstate of Y gives a deterministic outcome after rotation
    sv = StateVector(1, np.array([1.0, 1.0j]) / np.sqrt(2.0))
    op = term("Y")
    est, err = sample(sv, op, 64, np.random.default_rng(0))
    assert est == pytest.approx(1.0)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_sampled_expectation_validation():
    sv = basis_state(1, 0)
    op = term("Z")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="positive"):
        sample(sv, op, 0, rng)
    # a basis wider than the observable's register
    with pytest.raises(ValueError, match="lie in 0..1"):
        sample(basis_state(2, 0), op, 10, rng)
    with pytest.raises(ValueError, match="one amplitude per basis state"):
        sampled_expectation(sv.data, np.arange(1), op, 10, rng)
    with pytest.raises(ValueError, match="sorted and distinct"):
        sampled_expectation(sv.data, np.array([1, 0]), op, 10, rng)
    with pytest.raises(ValueError, match="Hermitian"):
        sample(sv, term("Z", 1j), 10, rng)


class ProbabilityRecorder:
    """A generator stand-in for `sampled_expectation`: it keeps the +1
    probabilities it is asked to draw from and draws no +1 outcome."""

    def binomial(self, shots, p):
        self.p = p
        return np.zeros_like(p, dtype=int)


@pytest.mark.parametrize("kind", list(MappingKind))
@pytest.mark.parametrize("key", SHIPPED)
def test_sector_and_register_measure_every_term_alike(key, kind, assembled):
    # each non-identity term's (1 + <P>) / 2 on the sector amplitudes is the
    # +1 probability of the Pauli rotations' register state, rotated onto
    # the term's eigenbasis as a device would measure it
    system = dataclasses.replace(assembled(key), mapping=kind)
    ansatz = build_uccsd(system.n_qubits, system.spin_orbitals.n_electrons)
    theta = np.random.default_rng(44).uniform(-1.0, 1.0,
                                              ansatz.n_parameters)
    psi = ansatz_circuit(ansatz, system).run(theta)
    state = pauli_circuit(ansatz, kind).run(theta)
    observable = system.qubit_hamiltonian
    recorder = ProbabilityRecorder()
    sampled_expectation(psi, system.sector, observable, 1, recorder)
    want = [rotated_plus_probability(state, x, z)
            for (x, z), _ in observable.items() if x | z]
    assert recorder.p.shape == (len(want),)
    assert np.max(np.abs(recorder.p - want)) <= 1e-12


def test_single_shot_has_zero_variance_estimate():
    sv = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    est, err = sample(sv, term("Z"), 1, np.random.default_rng(3))
    assert est in (-1.0, 1.0)
    assert err == 0.0


def test_circuit_runs_flips_then_exponentials():
    # the reference 0b01 is qubit 0 flipped; the rotation follows it
    circ = PauliCircuit(2, 0b01, [(masks("YI"), 0, 1.0)], 1)
    assert circ.instructions == (((0b01, 0b01), 0, 1.0),)
    theta = 0.7
    out = circ.run([theta])
    start = basis_state(2, 0b01)
    want = expm(-0.5j * theta * dense("YI")) @ start.data
    assert np.allclose(out.data, want, atol=1e-12)


def test_circuit_zero_angles_reproduce_reference():
    circ = PauliCircuit(3, 0b101, [(masks("XYZ"), 0, 2.0)], 1)
    out = circ.run([0.0])
    assert np.allclose(out.data, basis_state(3, 0b101).data)


def test_circuit_scale_multiplies_parameter():
    circ = PauliCircuit(1, 0, [(masks("X"), 0, -3.0)], 1)
    out = circ.run([0.5])
    want = expm(-0.5j * (-1.5) * dense("X")) @ basis_state(1, 0).data
    assert np.allclose(out.data, want, atol=1e-12)


def test_circuit_validation():
    with pytest.raises(ValueError, match="outside the register"):
        PauliCircuit(2, 0, [(masks("IIX"), 0, 1.0)], 1)
    for index in (-1, 1):
        with pytest.raises(ValueError, match="parameter index"):
            PauliCircuit(2, 0, [(masks("XX"), index, 1.0)], 1)
    with pytest.raises(ValueError, match="out of range"):
        PauliCircuit(2, 4, [], 0)
    with pytest.raises(ValueError, match="register size"):
        PauliCircuit(MAX_QUBITS + 1, 0, [], 0)
    circ = PauliCircuit(2, 0, [(masks("XX"), 0, 1.0)], 1)
    with pytest.raises(ValueError, match="parameters"):
        circ.run([0.1, 0.2])


def run_one_by_one(circuit, theta):
    """Reference for PauliCircuit.run: the reference basis state, then
    each rotation applied by `apply_pauli_exponential`."""
    state = basis_state(circuit.n_qubits, circuit.reference)
    for (x, z), param_index, scale in circuit.instructions:
        apply_pauli_exponential(state, x, z, scale * theta[param_index])
    return state


_ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def circuits(draw):
    """Random circuits on 1-6 qubits: a reference basis state, then
    exponentials of Pauli strings drawn from a small pool of X-masks so
    that strings repeat and share their compiled action, with arbitrary
    scales and shared parameters."""
    n = draw(st.integers(1, 6))
    register_masks = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(register_masks, min_size=1, max_size=3))
    n_params = draw(st.integers(1, 4))
    rotations = []
    for _ in range(draw(st.integers(0, 12))):
        x, z = draw(st.sampled_from(pool)), draw(register_masks)
        rotations.append(((x, z), draw(st.integers(0, n_params - 1)),
                          draw(st.floats(-3.0, 3.0))))
    circuit = PauliCircuit(n, draw(register_masks), rotations, n_params)
    theta = np.array(draw(st.lists(_ANGLES, min_size=n_params,
                                   max_size=n_params)))
    return circuit, theta


@settings(deadline=None)
@given(circuits())
def test_compiled_run_is_bit_identical_to_instruction_by_instruction(case):
    circuit, theta = case
    want = run_one_by_one(circuit, theta).data
    assert np.array_equal(circuit.run(theta).data, want)
    # a second run gathers from the same compiled vectors
    assert np.array_equal(circuit.run(theta).data, want)


def generator_matrix(dim, rotations):
    """Dense real antisymmetric G with G e_s = sign e_t for every pair."""
    source, target, sign = rotations
    g = np.zeros((dim, dim))
    g[target, source] = sign
    g[source, target] = -sign
    return g


@st.composite
def sector_circuits(draw):
    """Random sector programs on 2-8 states: per parameter, disjoint
    (source, target) pairs with random signs."""
    dim = draw(st.integers(2, 8))
    instructions = []
    for _ in range(draw(st.integers(0, 4))):
        states = draw(st.permutations(range(dim)))
        n_pairs = draw(st.integers(0, dim // 2))
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]),
                              min_size=n_pairs, max_size=n_pairs))
        instructions.append((np.array(states[:n_pairs], dtype=np.int64),
                             np.array(states[n_pairs:2 * n_pairs],
                                      dtype=np.int64),
                             np.array(signs)))
    circuit = Circuit(dim, draw(st.integers(0, dim - 1)), instructions)
    theta = np.array(draw(st.lists(_ANGLES, min_size=circuit.n_parameters,
                                   max_size=circuit.n_parameters)))
    return circuit, theta


@settings(deadline=None)
@given(sector_circuits(), st.integers(0, 2 ** 32 - 1))
def test_sector_circuit_matches_expm_and_differentiates(case, seed):
    circuit, theta = case
    dim = circuit.dim
    want = np.eye(dim)[circuit.reference]
    for rotations, angle in zip(circuit.instructions, theta):
        want = expm(angle * generator_matrix(dim, rotations)) @ want
    psi = circuit.run(theta)
    assert psi.dtype == np.float64
    assert np.allclose(psi, want, atol=1e-12)
    h = np.random.default_rng(seed).standard_normal((dim, dim))
    h = h + h.T

    def energy(t):
        state = circuit.run(t)
        return state @ h @ state

    step = 1e-6
    central = np.array([(energy(theta + step * e) - energy(theta - step * e))
                        / (2.0 * step) for e in np.eye(theta.size)])
    gradient = circuit.adjoint_gradient(theta, psi, h @ psi)
    assert np.allclose(gradient, central, atol=1e-6)
    # the sweep leaves its inputs alone
    assert np.array_equal(psi, circuit.run(theta))


def test_sector_circuit_validation():
    pairs = (np.array([0]), np.array([2]), np.array([1.0]))
    with pytest.raises(ValueError, match="reference"):
        Circuit(3, 3, [pairs])
    circuit = Circuit(3, 0, [pairs])
    assert circuit.n_parameters == 1
    with pytest.raises(ValueError, match="parameters"):
        circuit.run([0.1, 0.2])
    psi = circuit.run([0.3])
    with pytest.raises(ValueError, match="shape"):
        circuit.adjoint_gradient([0.3], psi[:2], psi)
    # with no instructions the run is the reference state
    assert np.array_equal(Circuit(3, 1, []).run([]), [0.0, 1.0, 0.0])
