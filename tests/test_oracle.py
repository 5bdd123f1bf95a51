"""Exact diagonalization: the Pauli matrix builder and the eigensolver."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qelectra import cli
from qelectra.fermion import ActiveSpaceSpec
from qelectra import oracle
from qelectra.oracle import (
    exact_ground_energy,
    lowest_eigenvalues,
    pauli_to_sparse,
)
from qelectra.pauli import MappingKind, map_fermion, sector_basis
from qelectra.pipeline import assemble, shipped_geometry
from qelectra.simulator import StateVector
from conftest import SHIPPED
from pauli_oracle import (add, apply_pauli, block_by_diagonals, block_matrix,
                          encode_occupation, fermion_operator, masked_sum,
                          number_operator, pauli_sum)
from test_cli import method_row
from test_pauli import dense_sum, pauli_sums, term


def test_single_letter_matrices():
    for word, want in (("X", [[0, 1], [1, 0]]), ("Z", [[1, 0], [0, -1]]),
                       ("I", np.eye(2))):
        block = pauli_to_sparse(term(word), np.arange(2))
        assert np.allclose(block_matrix(block), want)
    # Y alone is imaginary, but Y Y is real: i^2 X X Z Z
    with pytest.raises(ValueError, match="even number of Y"):
        pauli_to_sparse(term("Y"), np.arange(2))
    block = pauli_to_sparse(term("YY"), np.arange(4))
    assert np.allclose(block_matrix(block), [[0, 0, 0, -1], [0, 0, 1, 0],
                                             [0, 1, 0, 0], [-1, 0, 0, 0]])


def even_y_word(rng, n):
    """A random n-letter Pauli word with an even number of Y letters."""
    while True:
        word = "".join(rng.choice(list("IXYZ"), size=n))
        if word.count("Y") % 2 == 0:
            return word


def test_matrix_builders_match_local_kron():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        op = pauli_sum(n, [(even_y_word(rng, n), rng.standard_normal())
                           for _ in range(3)])
        want = dense_sum(op)
        block = pauli_to_sparse(op, np.arange(1 << n))
        assert np.allclose(block_matrix(block), want, atol=1e-13)


@settings(deadline=None)
@given(pauli_sums(real=True))
def test_sparse_build_matches_kron_reference(op):
    matrix = pauli_to_sparse(op, np.arange(1 << op.n_qubits))
    want = dense_sum(op)
    assert matrix.shape == want.shape
    assert np.array_equal(block_matrix(matrix), want)
    # no stored zeros: oracle.nnz counts nonzero entries
    assert matrix.nnz == np.count_nonzero(want)
    # (row, col) pairs strictly ascending: sorted, no duplicates
    row_step, col_step = np.diff(matrix.rows), np.diff(matrix.cols)
    assert np.all((row_step > 0) | ((row_step == 0) & (col_step > 0)))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_empty_sum_gives_zero_matrix(n):
    matrix = pauli_to_sparse(masked_sum(n, {}), np.arange(1 << n))
    assert matrix.shape == (1 << n, 1 << n)
    assert matrix.nnz == 0
    assert not block_matrix(matrix).any()


def test_sparse_build_matches_term_by_term_action(assembled):
    # LiH: 10 qubits, 276 terms; the oracle's apply_pauli is an
    # independent implementation of each term's action
    hamiltonian = assembled("lih").qubit_hamiltonian
    n = hamiltonian.n_qubits
    rng = np.random.default_rng(33)
    psi = rng.standard_normal(1 << n)
    psi /= np.linalg.norm(psi)
    want = np.zeros(1 << n, dtype=complex)
    state = StateVector(n, psi)
    for (x, z), coeff in hamiltonian.items():
        want += coeff * apply_pauli(state, x, z)
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
    psi = np.random.default_rng(34).standard_normal(block.shape[0])
    assert block.values.dtype == np.float64
    assert np.array_equal(block @ psi, csr @ psi)


def test_block_has_no_qubit_cap():
    # a block never spans the register, so 25 qubits build at once
    block = pauli_to_sparse(masked_sum(25, {(0, 0): 1.0}),
                            np.array([0, 5, 1 << 19]))
    assert np.array_equal(block_matrix(block), np.eye(3))


@pytest.mark.parametrize("n", [11, 12])
def test_zero_diagonal_block_reaches_the_ground_state(n):
    # X_0 - X_0 Z_1 has a zero diagonal and maps states 0 and 1 to zero,
    # so a start on their unit vectors converges to 0.0, not -2.0
    op = masked_sum(12, {(1, 0): 1.0, (1, 2): -1.0})
    assert lowest_eigenvalues(pauli_to_sparse(op, np.arange(1 << n))) \
        == pytest.approx(-2.0, abs=1e-12)


@st.composite
def hermitian_sums(draw):
    """Real symmetric Pauli sums on 1-8 qubits: real coefficients, and
    an even Y count |x & z| in every string (a z with an odd one flips
    its bit at the lowest bit of x). Some have no diagonal (every X-mask
    nonzero), some one string, and some leave the top qubit idle, so
    that every level is exactly degenerate. A nonzero coefficient is at
    least 1e-6: the solve resolves levels only to its 1e-10 residual, and
    a smaller term could split the ground level by about that much."""
    n = draw(st.integers(1, 8))
    acted = draw(st.integers(max(1, n - 1), n))
    no_diagonal = draw(st.booleans())
    mask = st.integers(0, (1 << acted) - 1)
    x_mask = st.integers(1, (1 << acted) - 1) if no_diagonal else mask
    coeff = st.one_of(st.just(0.0), st.floats(1e-6, 2.0),
                      st.floats(-2.0, -1e-6))
    terms = draw(st.lists(st.tuples(x_mask, mask, coeff),
                          min_size=1, max_size=12))
    return masked_sum(n, {(x, z ^ (x & -x) * ((x & z).bit_count() % 2)): c
                          for x, z, c in terms})


@settings(deadline=None)
@given(hermitian_sums())
def test_lowest_eigenvalue_of_random_hermitian_sums(op):
    got = lowest_eigenvalues(pauli_to_sparse(op, np.arange(1 << op.n_qubits)))
    assert got == pytest.approx(np.linalg.eigvalsh(dense_sum(op))[0],
                                abs=1e-10)


def test_one_state_block_and_empty_sum():
    # Z_0 + 0.5 I on state 1 alone is the 1 x 1 block [-0.5]
    op = pauli_sum(2, [("ZI", 1.0), ("II", 0.5)])
    assert lowest_eigenvalues(pauli_to_sparse(op, np.array([1]))) == -0.5
    assert lowest_eigenvalues(pauli_to_sparse(masked_sum(3, {}),
                                              np.arange(8))) == 0.0


def test_non_hermitian_inputs_rejected(monkeypatch):
    # refused before any diagonal is summed
    def refuse(*args):
        raise AssertionError("the block was built")

    monkeypatch.setattr(oracle, "_diagonals", refuse)
    # 1j * X has eigenvalues +-i, and -i XY an imaginary coefficient
    for op in (term("X", 0.5j), term("X", 1j), term("XY", -1j)):
        with pytest.raises(ValueError, match="Hermitian"):
            pauli_to_sparse(op, np.arange(1 << op.n_qubits))
    # Hermitian, but an odd Y count makes the matrix imaginary there
    for op in (term("Y"), term("XY"),
               pauli_sum(2, [("ZZ", 1.0), ("YI", 0.5)])):
        with pytest.raises(ValueError, match="even number of Y"):
            pauli_to_sparse(op, np.arange(1 << op.n_qubits))


@pytest.mark.parametrize("kind", list(MappingKind))
@pytest.mark.parametrize("key, window", [
    ("h2", None), ("lih", None), ("h2o", None), ("nh3", None), ("ch4", None),
    ("co2", None), ("ch4", ActiveSpaceSpec(8, 8))])
def test_mapped_hamiltonians_build_a_real_block(key, window, kind):
    # every shipped window and CH4 (8e, 8o): real coefficients on strings
    # of an even Y count, so a float64 block
    system = assemble(shipped_geometry(key), active=window, mapping=kind)
    block = system.block
    assert block.values.dtype == np.float64
    assert block.shape[0] == system.sector.size


def same_block(got, want):
    """Whether two blocks have the same shape and the same bytes."""
    return got.shape == want.shape and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in ((got.rows, want.rows), (got.cols, want.cols),
                     (got.values, want.values)))


@pytest.mark.parametrize("kind", list(MappingKind))
@pytest.mark.parametrize("key", SHIPPED + ["ch4 (8e, 8o)"])
def test_block_matches_the_diagonal_loop_bit_for_bit(key, kind, assembled,
                                                     wide_ch4):
    system = wide_ch4 if key == "ch4 (8e, 8o)" else assembled(key)
    hamiltonian = map_fermion(system.hamiltonian, kind, system.n_qubits)
    sector = sector_basis(kind, system.n_qubits,
                          *[system.spin_orbitals.n_electrons // 2] * 2)
    assert same_block(pauli_to_sparse(hamiltonian, sector),
                      block_by_diagonals(hamiltonian, sector))


# exact values, so that terms sharing an X-mask often cancel exactly
_EXACT = st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.25, 1e-11, -3e-11])


@st.composite
def sums_on_bases(draw):
    """A real symmetric Pauli sum on 1-6 qubits (real coefficients, an
    even Y count in every string), up to 40 strings on few X-masks, and a
    sorted basis of distinct states: either closed under the sum's
    X-masks, so that no entry leaves it, or any subset of the register."""
    n = draw(st.integers(1, 6))
    x_masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                            max_size=4))
    terms = draw(st.lists(st.tuples(
        st.sampled_from(x_masks), st.integers(0, (1 << n) - 1),
        st.one_of(_EXACT, st.floats(-2.0, 2.0))), min_size=1, max_size=40))
    op = masked_sum(n, {(x, z ^ (x & -x) * ((x & z).bit_count() % 2)): c
                        for x, z, c in terms})
    states = set(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=8)))
    if draw(st.booleans()):
        for x in x_masks:
            states |= {b ^ x for b in states}
    return op, np.array(sorted(states))


@settings(deadline=None, max_examples=300)
@given(sums_on_bases())
def test_block_matches_the_diagonal_loop_on_random_bases(case):
    op, basis = case
    try:
        want = block_by_diagonals(op, basis)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            pauli_to_sparse(op, basis)
    else:
        assert same_block(pauli_to_sparse(op, basis), want)


@pytest.mark.parametrize("basis", [[0], [0, 1 << 4]])
def test_block_adds_an_entrys_terms_in_order(basis):
    # twelve diagonal strings, each +1 on both states: a pairwise sum of
    # the column, such as numpy's along a one-state axis, rounds otherwise
    coeffs = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.3]
    op = masked_sum(5, {(0, z): c for z, c in enumerate(coeffs)})
    block = pauli_to_sparse(op, np.array(basis))
    assert same_block(block, block_by_diagonals(op, np.array(basis)))
    assert block.values.tolist() == [sum(coeffs)] * len(basis)


@pytest.mark.parametrize("op, basis, fragment", [
    (term("X", 1j), [0, 1], "Hermitian"),
    (term("XY"), [0, 1, 2, 3], "even number of Y"),
    (term("X"), [0], "outside the basis")])
def test_block_and_its_oracle_refuse_alike(op, basis, fragment):
    for build in (pauli_to_sparse, block_by_diagonals):
        with pytest.raises(ValueError, match=fragment):
            build(op, np.array(basis))


def test_block_drops_an_entry_outside_the_basis_at_rounding_level():
    # at or below 1e-10 an entry outside the basis is dropped, not refused
    small = term("X", 1e-10)
    assert same_block(pauli_to_sparse(small, np.array([0])),
                      block_by_diagonals(small, np.array([0])))
    assert pauli_to_sparse(small, np.array([0])).nnz == 0


def test_ch4_block_peaks_below_3_4_megabytes(assembled):
    # each pass's sign table holds about oracle._PASS_ENTRIES entries; the
    # block's 44,320 stored entries dominate the peak
    system = assembled("ch4")
    hamiltonian, sector = system.qubit_hamiltonian, system.sector
    tracemalloc.start()
    try:
        pauli_to_sparse(hamiltonian, sector)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_400_000


def independent_spins(n, fields, coupling):
    """H = sum_i (h_i Z_i + g X_i): each qubit contributes +-sqrt(h_i^2 +
    g^2), so the spectrum is known in closed form."""
    return pauli_sum(n, [("I" * q + letter + "I" * (n - 1 - q), coeff)
                         for q, h in enumerate(fields)
                         for letter, coeff in (("Z", h), ("X", coupling))])


def test_davidson_branch_matches_a_closed_form_spectrum():
    # 12 qubits, 4,096 dimensions
    fields = 1.0 + 0.37 * np.arange(12)
    op = independent_spins(12, fields, 0.6)
    want = -np.sqrt(fields ** 2 + 0.36).sum()
    block = pauli_to_sparse(op, np.arange(1 << 12))
    assert lowest_eigenvalues(block) == pytest.approx(want, abs=1e-9)


def test_davidson_thick_restart_keeps_the_ground_state(monkeypatch):
    # a subspace of at most 4 vectors restarts from its lowest 2 Ritz
    # vectors many times before the solve converges
    fields = 1.0 + 0.37 * np.arange(12)
    op = independent_spins(12, fields, 0.6)
    widths = []
    eigh = np.linalg.eigh

    def recording(matrix):
        widths.append(matrix.shape[0])
        return eigh(matrix)

    monkeypatch.setattr(oracle, "_DAVIDSON_SPACE", 4)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    got = lowest_eigenvalues(pauli_to_sparse(op, np.arange(1 << 12)))
    assert got == pytest.approx(-np.sqrt(fields ** 2 + 0.36).sum(), abs=1e-9)
    assert max(widths) == 4
    assert widths.count(3) > 1


@pytest.mark.parametrize("key, value", [("h2", -1.1373060359051403),
                                        ("lih", -7.882176004920572)])
def test_davidson_stops_once_the_subspace_stops_growing(assembled, key,
                                                        value, monkeypatch):
    # with no residual small enough, the subspace stops growing at 4 (H2,
    # the whole block) and 18 (LiH) vectors, once neither the correction
    # nor the residual, now at rounding level, can widen it
    block = assembled(key).block
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix):
        calls.append(matrix.shape[0])
        return eigh(matrix)

    monkeypatch.setattr(oracle, "_DAVIDSON_TOL", 0.0)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    # the largest entry of a molecular block is above 1 Ha: scale 1
    got, _ = oracle._davidson(block, 1.0)
    assert len(calls) <= block.shape[0] + 1
    assert got == value


def test_davidson_that_does_not_converge_raises(monkeypatch):
    op = independent_spins(12, 1.0 + 0.37 * np.arange(12), 0.6)
    monkeypatch.setattr(oracle, "_DAVIDSON_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="residual"):
        lowest_eigenvalues(pauli_to_sparse(op, np.arange(1 << 12)))


def test_davidson_resolves_a_block_of_small_entries():
    # 1e-10 X: the start's residual, about 1e-10, would pass a tolerance
    # that ignored the block's size, and the solve would return the
    # Rayleigh quotient of the start instead of -1e-10
    block = pauli_to_sparse(masked_sum(1, {(1, 0): 1e-10}), np.arange(2))
    assert lowest_eigenvalues(block) == pytest.approx(-1e-10, rel=1e-9)


def test_ground_energy_of_assembled_hydrogen(assembled):
    system = assembled("h2")
    energy = exact_ground_energy(system.block)
    assert energy == pytest.approx(-1.1373060359051401, abs=1e-9)
    assert energy < system.scf.e_total


def test_lowest_eigenvalues_of_a_pauli_sum_ascending_and_truncated():
    # the first of the ascending spectrum, as a float
    op = pauli_sum(2, [("ZI", 0.5), ("IZ", 0.25), ("XX", 0.1)])
    lowest = lowest_eigenvalues(pauli_to_sparse(op, np.arange(4)))
    assert isinstance(lowest, float)
    assert lowest == pytest.approx(np.linalg.eigvalsh(dense_sum(op))[0],
                                   abs=1e-12)


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
    """A mapping, a particle number and a random Hermitian operator on
    2-8 modes built from one- and two-body terms with real coefficients
    that conserve the particle number but not necessarily S_z."""
    kind = draw(st.sampled_from(list(MappingKind)))
    n_modes = 2 * draw(st.integers(1, 4))
    n_electrons = draw(st.integers(0, n_modes))
    mode = st.integers(0, n_modes - 1)
    coeff = st.floats(-1.0, 1.0, allow_nan=False)
    # each term T enters as T + T^, so the operator's block is real
    # symmetric
    terms = []
    for p, q, c in draw(st.lists(st.tuples(mode, mode, coeff), max_size=4)):
        terms += [(((p, 1), (q, 0)), c), (((q, 1), (p, 0)), c)]
    for p, q, r, s, c in draw(st.lists(
            st.tuples(mode, mode, mode, mode, coeff), max_size=4)):
        terms += [(((p, 1), (q, 1), (r, 0), (s, 0)), c),
                  (((s, 1), (r, 1), (q, 0), (p, 0)), c)]
    mapped = map_fermion(fermion_operator(terms), kind, n_modes)
    return mapped, fixed_number_basis(kind, n_modes, n_electrons)


@settings(deadline=None)
@given(number_conserving())
def test_sector_block_equals_the_slice_of_the_full_matrix(case):
    operator, basis = case
    block = pauli_to_sparse(operator, basis)
    assert block.shape == (basis.size, basis.size)
    full = pauli_to_sparse(operator, np.arange(1 << operator.n_qubits))
    want = block_matrix(full)[np.ix_(basis, basis)]
    assert np.array_equal(block_matrix(block), want)


def test_lithium_hydride_sector_block_equals_the_slice(assembled):
    system = assembled("lih")
    basis = system.sector
    assert basis.size == 25
    block = pauli_to_sparse(system.qubit_hamiltonian, basis)
    full = pauli_to_sparse(system.qubit_hamiltonian,
                           np.arange(1 << system.n_qubits))
    assert np.array_equal(block_matrix(block),
                          block_matrix(full)[np.ix_(basis, basis)])


@pytest.mark.parametrize("kind", list(MappingKind))
def test_sector_block_refuses_an_operator_that_leaves_it(kind):
    # a_0^ + a_0 changes the particle number of every state it touches
    ladder = map_fermion(fermion_operator([(((0, 1),), 1.0),
                                           (((0, 0),), 1.0)]), kind, 4)
    basis = sector_basis(kind, 4, 1, 1)
    with pytest.raises(ValueError, match="outside the basis"):
        pauli_to_sparse(ladder, basis)


def test_sector_basis_argument_validation():
    op = masked_sum(2, {(0, 0): 1.0})
    for bad, fragment in (([2, 1], "sorted"), ([1, 1], "sorted"),
                          ([0, 4], "0..3"), ([-1, 0], "0..3"),
                          ([], "nonempty")):
        with pytest.raises(ValueError, match=fragment):
            pauli_to_sparse(op, np.array(bad, dtype=np.int64))


@pytest.mark.parametrize("kind", list(MappingKind))
def test_fci_stays_in_the_sector_when_the_fock_minimum_leaves_it(
        kind, monkeypatch):
    # H2 - mu N with mu = 5 Ha: the Fock-space minimum fills all four
    # modes, so only a solve inside the (2, 0) sector gives the FCI energy
    system = assemble(shipped_geometry("h2"), mapping=kind)
    n = system.n_qubits
    shifted = add(system.qubit_hamiltonian,
                  map_fermion(number_operator(n), kind, n), -5.0)
    # the (2, 0) block built independently: one alpha mode of {0, 2},
    # one beta mode of {1, 3}
    states = [sum(1 << q for q in encode_occupation(kind, [a, b], n))
              for a in (0, 2) for b in (1, 3)]
    full = pauli_to_sparse(shifted, np.arange(1 << n))
    want = np.linalg.eigvalsh(block_matrix(full)[np.ix_(states, states)])[0]
    got = exact_ground_energy(pauli_to_sparse(shifted, system.sector))
    assert got == pytest.approx(want, abs=1e-12)
    assert got > exact_ground_energy(full) + 1.0
    # the CLI's FCI route, on the shifted system
    shifted_system = dataclasses.replace(system)
    shifted_system.qubit_hamiltonian = shifted
    monkeypatch.setattr(cli, "assemble",
                        lambda *args, **kwargs: shifted_system)
    report = cli.execute(
        cli.RunSpec(molecule=system.molecule, methods=("fci",),
                    mapping=kind))
    assert method_row(report, "fci").energy == pytest.approx(want,
                                                             abs=1e-12)

