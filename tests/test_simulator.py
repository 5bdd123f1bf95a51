"""Statevector simulator checked against dense matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qelectra.pauli import PauliString, PauliSum
from qelectra.simulator import MAX_QUBITS, Circuit, StateVector
from qelectra.vqe import ansatz_circuit, build_uccsd
from test_pauli import dense, dense_sum


def random_state(n_qubits, rng):
    dim = 1 << n_qubits
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amp /= np.linalg.norm(amp)
    return StateVector(n_qubits, amp)


def random_word(n, rng):
    return "".join(np.random.default_rng(rng.integers(1 << 30)).choice(
        np.array(list("IXYZ")), size=n))


def test_default_state_is_all_zeros():
    sv = StateVector(3)
    assert sv.data.shape == (8,)
    assert sv.data[0] == 1.0
    assert sv.norm() == pytest.approx(1.0)
    assert np.all(sv.data[1:] == 0.0)


def test_state_validation():
    with pytest.raises(ValueError):
        StateVector(0)
    with pytest.raises(ValueError):
        StateVector(MAX_QUBITS + 1)
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))
    with pytest.raises(ValueError):
        StateVector.computational_basis(2, 4)


def test_copy_is_independent():
    sv = StateVector.computational_basis(2, 3)
    other = sv.copy()
    other.data[3] = 0.0
    assert sv.data[3] == 1.0


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        word = random_word(n, rng)
        phase = (1, 1j, -1, -1j)[int(rng.integers(4))]
        string = PauliString(word, phase=phase)
        sv = random_state(n, rng)
        want = dense(word, phase) @ sv.data
        sv.apply_pauli(string)
        assert np.allclose(sv.data, want, atol=1e-12)


def test_pauli_exponential_matches_expm():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        word = random_word(n, rng)
        phase = (1, -1)[int(rng.integers(2))]
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        sv = random_state(n, rng)
        want = expm(-0.5j * angle * dense(word, phase)) @ sv.data
        sv.apply_pauli_exponential(PauliString(word, phase=phase), angle)
        assert np.allclose(sv.data, want, atol=1e-12)


def test_pauli_exponential_rejects_imaginary_phase():
    sv = StateVector(1)
    with pytest.raises(ValueError, match="Hermitian"):
        sv.apply_pauli_exponential(PauliString("X", phase=1j), 0.3)


def test_pauli_exponential_at_zero_angle_is_identity():
    rng = np.random.default_rng(23)
    sv = random_state(3, rng)
    before = sv.data.copy()
    sv.apply_pauli_exponential(PauliString("XYZ"), 0.0)
    assert np.allclose(sv.data, before, atol=1e-15)


def test_expectation_matches_dense():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        op = PauliSum(n)
        for _ in range(4):
            op.add_string(PauliString(random_word(n, rng)),
                          float(rng.standard_normal()))
        sv = random_state(n, rng)
        want = float(np.real(np.conj(sv.data) @ dense_sum(op) @ sv.data))
        assert sv.expectation(op) == pytest.approx(want, abs=1e-12)


def test_expectation_flags_imaginary_result():
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    skewed = PauliSum(1)
    skewed.add_string(PauliString("X"), 1.0j)
    with pytest.raises(ValueError, match="imaginary"):
        plus.expectation(skewed)
    with pytest.raises(ValueError, match="mismatch"):
        plus.expectation(PauliSum.identity(2))


def test_matrix_expectation_matches_term_loop_on_lih(assembled):
    # the sector block on the gathered sector amplitudes, as run_vqe
    # evaluates it, against the term loop over all 2^n amplitudes
    system = assembled("lih")
    hamiltonian = system.qubit_hamiltonian
    so = system.spin_orbitals
    ansatz = build_uccsd(so.n_orbitals, so.n_electrons)
    circuit = ansatz_circuit(ansatz, kind=system.mapping)
    theta = np.random.default_rng(28).normal(scale=0.2,
                                             size=ansatz.n_parameters)
    state = circuit.run(theta)
    basis, block = system.sector, system.block
    psi = state.data[basis]
    assert np.vdot(psi, block @ psi).real == pytest.approx(
        state.expectation(hamiltonian), abs=1e-12)


def test_term_loop_serves_a_fifteen_qubit_register():
    n = 15
    op = PauliSum(n)
    op.add_string(PauliString("Z" + "I" * (n - 1)), 0.75)
    op.add_string(PauliString("X" * n), -0.5)
    op.add_string(PauliString("I" * (n - 2) + "YY"), 0.25)
    # |+>^n on every qubit but qubit 0, which is |1>: <Z_0> = -1,
    # <X...X> = 0 because of qubit 0, <Y_{n-2} Y_{n-1}> = 0
    plus = np.full(1 << (n - 1), (1.0 / np.sqrt(2.0)) ** (n - 1))
    data = np.zeros(1 << n, dtype=complex)
    data[1::2] = plus
    state = StateVector(n, data)
    assert state.expectation(op) == pytest.approx(-0.75, abs=1e-12)


def test_probabilities_normalized():
    rng = np.random.default_rng(25)
    sv = random_state(4, rng)
    p = sv.probabilities()
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0)


def test_sampled_expectation_tracks_exact_value():
    rng = np.random.default_rng(26)
    op = PauliSum(2)
    op.add_string(PauliString("II"), 0.5)
    op.add_string(PauliString("ZZ"), -0.8)
    op.add_string(PauliString("XI"), 0.3)
    op.add_string(PauliString("YY"), 0.4)
    sv = random_state(2, rng)
    exact = sv.expectation(op)
    est, err = sv.sampled_expectation(op, 8192, np.random.default_rng(7))
    assert err > 0.0
    assert abs(est - exact) <= 5.0 * err


def test_sampled_expectation_is_deterministic_per_seed():
    rng = np.random.default_rng(27)
    op = PauliSum(2)
    op.add_string(PauliString("XZ"), 1.0)
    op.add_string(PauliString("ZI"), -0.5)
    sv = random_state(2, rng)
    first = sv.sampled_expectation(op, 500, np.random.default_rng(42))
    second = sv.sampled_expectation(op, 500, np.random.default_rng(42))
    assert first == second
    other = sv.sampled_expectation(op, 500, np.random.default_rng(43))
    assert first != other


def test_sampled_expectation_identity_is_exact():
    sv = StateVector(2)
    est, err = sv.sampled_expectation(PauliSum.identity(2, 1.25), 10,
                                      np.random.default_rng(0))
    assert est == pytest.approx(1.25)
    assert err == 0.0


def test_sampling_measures_y_in_its_eigenbasis():
    # +1 eigenstate of Y gives a deterministic outcome after rotation
    sv = StateVector(1, np.array([1.0, 1.0j]) / np.sqrt(2.0))
    op = PauliSum.from_string(PauliString("Y"))
    est, err = sv.sampled_expectation(op, 64, np.random.default_rng(0))
    assert est == pytest.approx(1.0)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_sampled_expectation_validation():
    sv = StateVector(1)
    op = PauliSum.from_string(PauliString("Z"))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sv.sampled_expectation(op, 0, rng)
    with pytest.raises(ValueError):
        sv.sampled_expectation(PauliSum.identity(2), 10, rng)
    crooked = PauliSum(1)
    crooked.add_string(PauliString("Z"), 1j)
    with pytest.raises(ValueError, match="Hermitian"):
        sv.sampled_expectation(crooked, 10, rng)


def test_single_shot_has_zero_variance_estimate():
    sv = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    est, err = sv.sampled_expectation(PauliSum.from_string(PauliString("Z")),
                                      1, np.random.default_rng(3))
    assert est in (-1.0, 1.0)
    assert err == 0.0


def test_circuit_runs_flips_then_exponentials():
    # the reference 0b01 is qubit 0 flipped; the rotation follows it
    circ = Circuit(2, 0b01, [(PauliString("YI"), 0, 1.0)], 1)
    assert circ.instructions == ((PauliString("YI"), 0, 1.0),)
    theta = 0.7
    out = circ.run([theta])
    start = StateVector.computational_basis(2, 0b01)
    want = expm(-0.5j * theta * dense("YI")) @ start.data
    assert np.allclose(out.data, want, atol=1e-12)


def test_circuit_zero_angles_reproduce_reference():
    circ = Circuit(3, 0b101, [(PauliString("XYZ"), 0, 2.0)], 1)
    out = circ.run([0.0])
    assert np.allclose(out.data, StateVector.computational_basis(3, 0b101).data)


def test_circuit_scale_multiplies_parameter():
    circ = Circuit(1, 0, [(PauliString("X"), 0, -3.0)], 1)
    out = circ.run([0.5])
    want = expm(-0.5j * (-1.5) * dense("X")) @ StateVector(1).data
    assert np.allclose(out.data, want, atol=1e-12)


def test_circuit_validation():
    with pytest.raises(ValueError, match="mismatch"):
        Circuit(2, 0, [(PauliString("X"), 0, 1.0)], 1)
    for index in (-1, 1):
        with pytest.raises(ValueError, match="parameter index"):
            Circuit(2, 0, [(PauliString("XX"), index, 1.0)], 1)
    with pytest.raises(ValueError, match="Hermitian"):
        Circuit(1, 0, [(PauliString("X", phase=1j), 0, 1.0)], 1)
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, 4, [], 0)
    with pytest.raises(ValueError, match="register size"):
        Circuit(MAX_QUBITS + 1, 0, [], 0)
    circ = Circuit(2, 0, [(PauliString("XX"), 0, 1.0)], 1)
    with pytest.raises(ValueError, match="parameters"):
        circ.run([0.1, 0.2])


def run_one_by_one(circuit, theta):
    """Reference for Circuit.run: the reference basis state, then each
    rotation applied by StateVector."""
    state = StateVector.computational_basis(circuit.n_qubits,
                                            circuit.reference)
    for string, param_index, scale in circuit.instructions:
        state.apply_pauli_exponential(string, scale * theta[param_index])
    return state


_ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def circuits(draw):
    """Random circuits on 1-6 qubits: a reference basis state, then
    Hermitian exponentials with phase +1 or -1, drawn from a small pool of
    X-masks so that rotations share gathers, with arbitrary scales and
    shared parameters."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(masks, min_size=1, max_size=3))
    n_params = draw(st.integers(1, 4))
    rotations = []
    for _ in range(draw(st.integers(0, 12))):
        x, z = draw(st.sampled_from(pool)), draw(masks)
        flip = draw(st.sampled_from([0, 2]))
        string = PauliString.from_masks(n, x, z,
                                        (x & z).bit_count() + flip)
        rotations.append((string, draw(st.integers(0, n_params - 1)),
                          draw(st.floats(-3.0, 3.0))))
    circuit = Circuit(n, draw(masks), rotations, n_params)
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
