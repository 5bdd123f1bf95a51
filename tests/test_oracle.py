"""Exact diagonalization: the Pauli matrix builder and the eigensolver."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qelectra import cli
from qelectra.fermion import FermionOperator, number_operator
from qelectra import oracle
from qelectra.oracle import (
    exact_ground_energy,
    lowest_eigenvalues,
    pauli_to_sparse,
)
from qelectra.pauli import (MappingKind, PauliString, PauliSum,
                            encode_occupation, map_fermion, sector_basis)
from qelectra.pipeline import assemble, shipped_geometry
from qelectra.simulator import StateVector
from test_pauli import dense_sum


def test_single_letter_matrices():
    for word, want in (("X", [[0, 1], [1, 0]]), ("Y", [[0, -1j], [1j, 0]]),
                       ("Z", [[1, 0], [0, -1]]), ("I", np.eye(2))):
        letter = PauliSum.from_string(PauliString(word))
        assert np.allclose(pauli_to_sparse(letter, np.arange(2)).toarray(),
                           want)


def test_matrix_builders_match_local_kron():
    rng = np.random.default_rng(31)
    letters = np.array(list("IXYZ"))
    for _ in range(10):
        n = int(rng.integers(1, 5))
        op = PauliSum(n)
        for _ in range(3):
            word = "".join(rng.choice(letters, size=n))
            op.add_string(PauliString(word),
                          complex(*rng.standard_normal(2)))
        want = dense_sum(op)
        assert np.allclose(pauli_to_sparse(op, np.arange(1 << n)).toarray(),
                           want, atol=1e-13)


# coefficient parts drawn partly from a few exact values, so that terms
# sharing an X-mask often cancel exactly on some matrix entries
_PARTS = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def pauli_sums(draw):
    """Random sums on 1-6 qubits: complex coefficients, string phases
    +-1 and +-i, repeated strings, exactly cancelling pairs, and (with
    an empty term list) the empty sum."""
    n = draw(st.integers(1, 6))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(
        words, st.sampled_from([1, -1, 1j, -1j]),
        st.builds(complex, _PARTS, _PARTS), st.booleans()), max_size=12))
    op = PauliSum(n)
    for word, phase, coeff, cancel in terms:
        string = PauliString(word, phase)
        op.add_string(string, coeff)
        if cancel:
            op.add_string(string, -coeff)
    return op


@settings(deadline=None)
@given(pauli_sums())
def test_sparse_build_matches_kron_reference(op):
    matrix = pauli_to_sparse(op, np.arange(1 << op.n_qubits))
    want = dense_sum(op)
    assert matrix.shape == want.shape
    assert np.array_equal(matrix.toarray(), want)
    # no stored zeros: oracle.nnz counts nonzero entries
    assert matrix.nnz == np.count_nonzero(want)
    # (row, col) pairs strictly ascending: sorted, no duplicates
    row_step, col_step = np.diff(matrix.rows), np.diff(matrix.cols)
    assert np.all((row_step > 0) | ((row_step == 0) & (col_step > 0)))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_empty_sum_gives_zero_matrix(n):
    matrix = pauli_to_sparse(PauliSum(n), np.arange(1 << n))
    assert matrix.shape == (1 << n, 1 << n)
    assert matrix.nnz == 0
    assert not matrix.toarray().any()


def test_sparse_build_matches_term_by_term_action(assembled):
    # LiH: 10 qubits, 276 terms; StateVector.apply_pauli is an independent
    # implementation of each term's action
    hamiltonian = assembled("lih").qubit_hamiltonian
    n = hamiltonian.n_qubits
    rng = np.random.default_rng(33)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi /= np.linalg.norm(psi)
    want = np.zeros_like(psi)
    for string, coeff in hamiltonian.strings():
        state = StateVector(n, psi)
        state.apply_pauli(string)
        want += coeff * state.data
    got = pauli_to_sparse(hamiltonian, np.arange(1 << n)) @ psi
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", list(MappingKind))
def test_block_matvec_is_bit_identical_to_csr(kind):
    # exact VQE energies are <psi|H psi> with this mat-vec, so it must
    # add every row's products in the order a CSR mat-vec does
    system = assemble(shipped_geometry("h2o"), mapping=kind)
    block = system.block
    csr = sp.csr_matrix((block.values, (block.rows, block.cols)),
                        shape=block.shape)
    rng = np.random.default_rng(34)
    psi = rng.standard_normal(block.shape[0]) \
        + 1j * rng.standard_normal(block.shape[0])
    assert np.array_equal(block @ psi, csr @ psi)


def test_block_has_no_qubit_cap():
    # a block never spans the register, so 25 qubits build at once
    block = pauli_to_sparse(PauliSum.identity(25),
                            np.array([0, 5, 1 << 19]))
    assert np.array_equal(block.toarray(), np.eye(3))


def test_full_spectrum_request_falls_back_to_dense(monkeypatch):
    # a diagonal sum on 2,100 states, above the dense cutoff: with 4k >=
    # dim a Davidson subspace would near the whole space, so the block is
    # solved densely
    fields = 1.0 + 0.37 * np.arange(12)
    op = PauliSum(12)
    for q, h in enumerate(fields):
        op.add_string(PauliString("I" * q + "Z" + "I" * (11 - q)), h)
    basis = np.arange(2100)
    bits = (basis[:, None] >> np.arange(12)) & 1
    diagonal = ((1.0 - 2.0 * bits) * fields).sum(axis=1)

    def refuse(block, k):
        raise AssertionError("the full-spectrum request reached Davidson")

    monkeypatch.setattr(oracle, "_davidson", refuse)
    got = lowest_eigenvalues(pauli_to_sparse(op, basis), k=525)
    assert np.allclose(got, np.sort(diagonal)[:525], rtol=0.0, atol=1e-10)


def test_k_validation():
    block = pauli_to_sparse(PauliSum.from_string(PauliString("Z")),
                            np.arange(2))
    with pytest.raises(ValueError):
        lowest_eigenvalues(block, k=0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(block, k=3)


def test_non_hermitian_inputs_rejected():
    crooked = PauliSum(1)
    crooked.add_string(PauliString("X"), 0.5j)
    block = pauli_to_sparse(crooked, np.arange(2))
    assert not block.hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        lowest_eigenvalues(block)
    # 1j * X has eigenvalues +-i; eigh would read one triangle and
    # report -1
    with pytest.raises(ValueError, match="Hermitian"):
        exact_ground_energy(pauli_to_sparse(
            PauliSum.from_string(PauliString("X"), 1j), np.arange(2)))
    # an imaginary string phase is not Hermitian either
    with pytest.raises(ValueError, match="Hermitian"):
        exact_ground_energy(pauli_to_sparse(
            PauliSum.from_string(PauliString("XY", -1j)), np.arange(4)))


def independent_spins(n, fields, coupling):
    """H = sum_i (h_i Z_i + g X_i): each qubit contributes +-sqrt(h_i^2 +
    g^2), so the spectrum is known in closed form."""
    op = PauliSum(n)
    for q, h in enumerate(fields):
        for letter, coeff in (("Z", h), ("X", coupling)):
            op.add_string(PauliString("I" * q + letter + "I" * (n - 1 - q)),
                          coeff)
    return op


def test_davidson_branch_matches_a_closed_form_spectrum():
    # 12 qubits, 4,096 dimensions: above the dense cutoff
    fields = 1.0 + 0.37 * np.arange(12)
    op = independent_spins(12, fields, 0.6)
    levels = np.sqrt(fields ** 2 + 0.36)
    # ground state, then the two cheapest single flips
    want = -levels.sum() + np.concatenate([[0.0], 2.0 * np.sort(levels)[:2]])
    block = pauli_to_sparse(op, np.arange(1 << 12))
    assert np.allclose(lowest_eigenvalues(block, k=3), want, rtol=0.0,
                       atol=1e-9)


def test_davidson_that_does_not_converge_raises(monkeypatch):
    op = independent_spins(12, 1.0 + 0.37 * np.arange(12), 0.6)
    monkeypatch.setattr(oracle, "_DAVIDSON_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="residual"):
        lowest_eigenvalues(pauli_to_sparse(op, np.arange(1 << 12)), k=3)


def test_ground_energy_of_assembled_hydrogen(assembled):
    system = assembled("h2")
    energy = exact_ground_energy(system.block)
    assert energy == pytest.approx(-1.1373060359051401, abs=1e-9)
    assert energy < system.e_hf


def test_lowest_eigenvalues_of_a_pauli_sum_ascending_and_truncated():
    op = PauliSum(2)
    op.add_string(PauliString("ZI"), 0.5)
    op.add_string(PauliString("IZ"), 0.25)
    op.add_string(PauliString("XX"), 0.1)
    block = pauli_to_sparse(op, np.arange(4))
    full = lowest_eigenvalues(block, k=4)
    assert full.shape == (4,)
    assert np.all(np.diff(full) >= 0)
    assert np.allclose(lowest_eigenvalues(block, k=2), full[:2])
    assert np.allclose(full, np.linalg.eigvalsh(dense_sum(op)), atol=1e-12)


# ---- sector blocks -------------------------------------------------------------


def fixed_number_basis(kind, n_modes, n_electrons):
    """Encoded states of every determinant with n_electrons, sorted."""
    half = n_modes // 2
    return np.sort(np.concatenate([
        sector_basis(kind, n_modes, n_alpha, n_electrons - n_alpha)
        for n_alpha in range(max(0, n_electrons - half),
                             min(half, n_electrons) + 1)]))


@st.composite
def number_conserving(draw):
    """A mapping, a particle number and a random operator on 2-8 modes
    built from one- and two-body terms that conserve the particle number
    but not necessarily S_z."""
    kind = draw(st.sampled_from(list(MappingKind)))
    n_modes = 2 * draw(st.integers(1, 4))
    n_electrons = draw(st.integers(0, n_modes))
    mode = st.integers(0, n_modes - 1)
    coeff = st.floats(-1.0, 1.0, allow_nan=False)
    op = FermionOperator()
    for p, q, c in draw(st.lists(st.tuples(mode, mode, coeff), max_size=4)):
        op.add_term(((p, 1), (q, 0)), c)
    for p, q, r, s, c in draw(st.lists(
            st.tuples(mode, mode, mode, mode, coeff), max_size=4)):
        op.add_term(((p, 1), (q, 1), (r, 0), (s, 0)), c)
    mapped = map_fermion(op, kind, n_modes)
    return mapped, fixed_number_basis(kind, n_modes, n_electrons)


@settings(deadline=None)
@given(number_conserving())
def test_sector_block_equals_the_slice_of_the_full_matrix(case):
    operator, basis = case
    block = pauli_to_sparse(operator, basis)
    assert block.shape == (basis.size, basis.size)
    full = pauli_to_sparse(operator, np.arange(1 << operator.n_qubits))
    want = full.toarray()[np.ix_(basis, basis)]
    assert np.array_equal(block.toarray(), want)


def test_lithium_hydride_sector_block_equals_the_slice(assembled):
    system = assembled("lih")
    basis = system.sector
    assert basis.size == 25
    block = pauli_to_sparse(system.qubit_hamiltonian, basis)
    full = pauli_to_sparse(system.qubit_hamiltonian,
                           np.arange(1 << system.n_qubits))
    assert np.array_equal(block.toarray(),
                          full.toarray()[np.ix_(basis, basis)])


@pytest.mark.parametrize("kind", list(MappingKind))
def test_sector_block_refuses_an_operator_that_leaves_it(kind):
    # a_0^ + a_0 changes the particle number of every state it touches
    ladder = map_fermion(FermionOperator({((0, 1),): 1.0, ((0, 0),): 1.0}),
                         kind, 4)
    basis = sector_basis(kind, 4, 1, 1)
    with pytest.raises(ValueError, match="outside the basis"):
        pauli_to_sparse(ladder, basis)


def test_sector_basis_argument_validation():
    op = PauliSum.identity(2)
    for bad, fragment in (([2, 1], "sorted"), ([1, 1], "sorted"),
                          ([0, 4], "0..3"), ([-1, 0], "0..3"),
                          ([], "nonempty")):
        with pytest.raises(ValueError, match=fragment):
            pauli_to_sparse(op, np.array(bad, dtype=np.int64))


@pytest.mark.parametrize("kind", list(MappingKind))
def test_fci_stays_in_the_sector_when_the_fock_minimum_leaves_it(kind):
    # H2 - mu N with mu = 5 Ha: the Fock-space minimum fills all four
    # modes, so only a solve inside the (2, 0) sector gives the FCI energy
    system = assemble(shipped_geometry("h2"), mapping=kind)
    n = system.n_qubits
    shifted = (system.qubit_hamiltonian
               - map_fermion(number_operator(n), kind, n) * 5.0)
    # the (2, 0) block built independently: one alpha mode of {0, 2},
    # one beta mode of {1, 3}
    states = [sum(1 << q for q in encode_occupation(kind, [a, b], n))
              for a in (0, 2) for b in (1, 3)]
    full = pauli_to_sparse(shifted, np.arange(1 << n))
    want = np.linalg.eigvalsh(full.toarray()[np.ix_(states, states)])[0]
    got = exact_ground_energy(pauli_to_sparse(shifted, system.sector))
    assert got == pytest.approx(want, abs=1e-12)
    assert got > exact_ground_energy(full) + 1.0
    report = cli.execute(
        cli.RunSpec(molecule=system.molecule, methods=("fci",),
                    mapping=kind),
        system=dataclasses.replace(system, qubit_hamiltonian=shifted))
    assert report.result("fci").energy == pytest.approx(want, abs=1e-12)

