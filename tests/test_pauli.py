"""Pauli algebra, GF(2) encodings and fermion-to-qubit mappings."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelectra.oracle import pauli_to_sparse
from qelectra.pauli import (
    DEFAULT_PRUNE_THRESHOLD,
    MAX_MAPPED_MODES,
    MappingKind,
    bit_parity,
    decode_states,
    map_fermion,
    mapping_from_name,
    sector_basis,
)
from qelectra.pipeline import SHIPPED_MOLECULES
from pauli_oracle import (add, anticommutation_check, bit_parity_by_folds,
                          encode_occupation, fermion_operator, ladder_image,
                          letters, masked_sum, masks, number_operator,
                          pauli_sum, product, sz_operator)
from test_fermion import bitwise, dense_annihilator

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(word):
    """Matrix of a Pauli word with qubit 0 on the least significant bit."""
    out = np.eye(1, dtype=complex)
    for k in range(len(word) - 1, -1, -1):
        out = np.kron(out, SINGLE[word[k]])
    return out


def dense_sum(op):
    total = np.zeros((1 << op.n_qubits,) * 2, dtype=complex)
    for (x, z), coeff in op.items():
        total += coeff * dense(letters(op.n_qubits, x, z))
    return total


def term(word, coeff=1.0):
    """The one-term sum coeff * word."""
    return pauli_sum(len(word), [(word, coeff)])


# coefficient parts drawn partly from a few exact values, so that terms
# sharing an X-mask often cancel exactly on some matrix entries
_PARTS = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def pauli_sums(draw, n=None, real=False):
    """Random sums on `n` qubits (default 1-6): complex coefficients,
    repeated strings, exactly cancelling pairs, and (with an empty term
    list) the empty sum. With `real`, the coefficients are real and every
    string holds an even number of Y letters: the sum's matrix is real
    symmetric."""
    if n is None:
        n = draw(st.integers(1, 6))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.builds(complex, _PARTS, _PARTS)
    if real:
        # an odd Y count loses its first Y to an X
        words = words.map(lambda w: w.replace("Y", "X", w.count("Y") % 2))
        coeffs = _PARTS
    terms = draw(st.lists(st.tuples(words, coeffs, st.booleans()),
                          max_size=12))
    return pauli_sum(n, itertools.chain.from_iterable(
        [(word, coeff), (word, -coeff)] if cancel else [(word, coeff)]
        for word, coeff, cancel in terms))


# ---- one term ----------------------------------------------------------------


def test_string_letters_round_trip():
    op = term("IXYZ", 0.5)
    # X and Y set the x bit, Y and Z the z bit, character k on bit k
    assert list(op.items()) == [((0b0110, 0b1100), 0.5)]
    assert masks("IXYZ") == (0b0110, 0b1100)
    assert letters(4, 0b0110, 0b1100) == "IXYZ"
    assert op.n_qubits == 4
    for word in map("".join, itertools.product("IXYZ", repeat=3)):
        assert letters(3, *masks(word)) == word


def test_string_rejects_bad_input():
    with pytest.raises(ValueError, match="invalid Pauli letter"):
        term("XQ")
    with pytest.raises(ValueError, match="mismatch"):
        pauli_sum(2, [("XX", 1.0), ("X", 1.0)])


def test_string_single_qubit_products():
    xy = product(term("X"), term("Y"))
    assert list(xy.items()) == [((0, 1), 1j)]
    yx = product(term("Y"), term("X"))
    assert list(yx.items()) == [(masks("Z"), -1j)]
    xx = product(term("X"), term("X"))
    assert list(xx.items()) == [((0, 0), 1)]


def test_string_product_matches_dense():
    rng = np.random.default_rng(11)
    alphabet = np.array(list("IXYZ"))
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = "".join(rng.choice(alphabet, size=n))
        b = "".join(rng.choice(alphabet, size=n))
        prod = product(term(a), term(b))
        # a product of two words is one word times a power of i
        assert len(prod) == 1
        assert np.allclose(dense_sum(prod), dense(a) @ dense(b), atol=1e-14)


def test_string_product_is_associative():
    rng = np.random.default_rng(12)
    alphabet = np.array(list("IXYZ"))
    for _ in range(20):
        a, b, c = (term("".join(rng.choice(alphabet, size=4)))
                   for _ in range(3))
        # unit coefficients times powers of i stay exact
        assert dict(product(product(a, b), c).items()) == dict(
            product(a, product(b, c)).items())


def test_string_length_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        product(term("XX"), term("X"))
    with pytest.raises(ValueError, match="mismatch"):
        add(term("XX"), term("X"))


# ---- PauliSum ---------------------------------------------------------------


def test_sum_collects_repeated_terms():
    op = pauli_sum(2, [("XZ", 0.25), ("XZ", 0.75), ("IZ", -1.0)])
    assert dict(op.items()) == {masks("XZ"): 1.0, masks("IZ"): -1.0}


@st.composite
def products(draw):
    """Two sums on one register."""
    a = draw(pauli_sums())
    return a, draw(pauli_sums(a.n_qubits))


@settings(deadline=None)
@given(products())
def test_sum_product_matches_dense(case):
    # `product` is the product law the oracle of map_fermion multiplies
    # ladder images with
    a, b = case
    assert np.allclose(dense_sum(product(a, b)), dense_sum(a) @ dense_sum(b),
                       rtol=0.0, atol=1e-12)
    assert np.allclose(dense_sum(add(a, b)), dense_sum(a) + dense_sum(b),
                       rtol=0.0, atol=1e-12)
    assert np.allclose(dense_sum(add(a, b, -2.5)),
                       dense_sum(a) - 2.5 * dense_sum(b), rtol=0.0, atol=1e-12)


def test_simplify_drops_small_terms():
    op = pauli_sum(1, [("X", 1.0), ("Z", 1e-14),
                       ("Y", -DEFAULT_PRUNE_THRESHOLD)])
    assert list(op.simplify().items()) == [(masks("X"), 1.0)]
    # a new sum: the old one keeps its terms
    assert len(op) == 3


def test_is_hermitian_checks_imaginary_parts():
    assert term("X").is_hermitian()
    assert not pauli_sum(1, [("X", 1.0), ("Z", 0.5j)]).is_hermitian()


# ---- ladder images -----------------------------------------------------------


ALL_KINDS = [MappingKind.JORDAN_WIGNER, MappingKind.PARITY,
             MappingKind.BRAVYI_KITAEV]


def encoded(kind, occupation, n_modes):
    """Encoded basis state of an occupation bitmask, as a bitmask."""
    occupied = [m for m in range(n_modes) if (occupation >> m) & 1]
    return sum(1 << q for q in encode_occupation(kind, occupied, n_modes))


def odd(mask):
    return mask.bit_count() & 1


@settings(deadline=None, max_examples=200)
@given(kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 24), data=st.data())
def test_ladder_masks_flip_and_read_the_encoded_state(kind, n, data):
    # the encoding is invertible, so these three facts fix each mask
    occupation = data.draw(st.integers(0, (1 << n) - 1))
    state = encoded(kind, occupation, n)
    for j in range(n):
        ((flip, parity), _), ((y_flip, y_z), _) = ladder_image(
            kind, j, False, n).items()
        assert y_flip == flip
        occupation_j = y_z ^ parity
        assert encoded(kind, occupation ^ (1 << j), n) == state ^ flip
        assert odd(state & parity) == odd(occupation & ((1 << j) - 1))
        assert odd(state & occupation_j) == (occupation >> j) & 1


@pytest.mark.parametrize("n, starts", [
    (4, [0, 0, 2, 0]),
    (10, [0, 0, 0, 3, 0, 5, 5, 5, 8, 0]),
    (12, [0, 0, 0, 3, 3, 0, 6, 6, 6, 9, 9, 0]),
])
def test_bravyi_kitaev_qubits_store_midpoint_ranges(n, starts):
    # qubit q stores the parity of modes [starts[q], q]
    rows = [0] * n
    for m in range(n):
        for q in encode_occupation(MappingKind.BRAVYI_KITAEV, [m], n):
            rows[q] |= 1 << m
    assert rows == [(2 << q) - (1 << start) for q, start in enumerate(starts)]


def encoding_permutation(kind, n_modes):
    """Permutation matrix from occupation-number basis to encoded basis."""
    dim = 1 << n_modes
    perm = np.zeros((dim, dim))
    for b in range(dim):
        occupied = [m for m in range(n_modes) if (b >> m) & 1]
        enc = 0
        for q in encode_occupation(kind, occupied, n_modes):
            enc |= 1 << q
        perm[enc, b] = 1.0
    return perm


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_ladder_images_match_occupation_basis(kind):
    for n in range(1, 5):
        perm = encoding_permutation(kind, n)
        for index in range(n):
            lower = dense_annihilator(index, n)
            for dagger in (False, True):
                ladder = lower.T if dagger else lower
                want = perm @ ladder @ perm.T
                got = dense_sum(ladder_image(kind, index, dagger, n))
                assert np.allclose(got, want, atol=1e-12)


def test_jordan_wigner_hand_image():
    img = ladder_image(MappingKind.JORDAN_WIGNER, 2, True, 3)
    assert dict(img.items()) == {masks("ZZX"): 0.5, masks("ZZY"): -0.5j}
    img0 = ladder_image(MappingKind.JORDAN_WIGNER, 0, False, 3)
    assert dict(img0.items()) == {masks("XII"): 0.5, masks("YII"): 0.5j}


def test_parity_hand_image():
    img = ladder_image(MappingKind.PARITY, 1, False, 3)
    assert dict(img.items()) == {masks("ZXX"): 0.5, masks("IYX"): 0.5j}
    first = ladder_image(MappingKind.PARITY, 0, True, 3)
    assert dict(first.items()) == {masks("XXX"): 0.5, masks("YXX"): -0.5j}


def test_bravyi_kitaev_hand_image():
    img = ladder_image(MappingKind.BRAVYI_KITAEV, 1, False, 4)
    assert dict(img.items()) == {masks("ZXIX"): 0.5, masks("IYIX"): 0.5j}
    img2 = ladder_image(MappingKind.BRAVYI_KITAEV, 2, True, 4)
    assert dict(img2.items()) == {masks("IZXX"): 0.5, masks("IZYX"): -0.5j}


def test_ladder_image_index_validation():
    with pytest.raises(ValueError):
        ladder_image(MappingKind.JORDAN_WIGNER, 4, False, 4)
    with pytest.raises(ValueError):
        ladder_image(MappingKind.PARITY, -1, False, 4)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_anticommutation_relations(kind):
    assert anticommutation_check(kind, 4) <= 1e-12


# ---- mapping operators --------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_number_operator_spectrum(kind):
    n = 4
    mapped = map_fermion(number_operator(n), kind, n)
    assert mapped.is_hermitian()
    vals = np.sort(np.linalg.eigvalsh(dense_sum(mapped)))
    want = np.sort(np.array(
        [bin(b).count("1") for b in range(1 << n)], dtype=float))
    assert np.allclose(vals, want, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_encoded_determinants_diagonalize_number(kind):
    n = 4
    matrix = dense_sum(map_fermion(number_operator(n), kind, n))
    rng = np.random.default_rng(16)
    for _ in range(10):
        occupied = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                     replace=False).tolist())
        enc = 0
        for q in encode_occupation(kind, occupied, n):
            enc |= 1 << q
        column = matrix[:, enc]
        assert column[enc] == pytest.approx(len(occupied))
        off = np.delete(column, enc)
        assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mapped_hamiltonian_is_hermitian_and_isospectral(kind, assembled):
    system = assembled("h2")
    mapped = map_fermion(system.hamiltonian, kind, system.n_qubits)
    assert mapped.is_hermitian()
    vals = np.sort(np.linalg.eigvalsh(dense_sum(mapped)))
    jw = map_fermion(system.hamiltonian, MappingKind.JORDAN_WIGNER,
                     system.n_qubits)
    ref = np.sort(np.linalg.eigvalsh(dense_sum(jw)))
    assert np.allclose(vals, ref, atol=1e-10)


def map_by_ladder_products(op, kind, n_modes):
    """The mapping term by term: each coefficient times the product of its
    term's ladder images, added to a dict of running sums in term order.
    This is the loop `map_fermion` replaces with array passes."""
    images = {}
    data = {}
    for key, coeff in op.terms.items():
        if not key:
            data[(0, 0)] = data.get((0, 0), 0.0) + coeff
            continue
        prod = None
        for index, dagger in key:
            if (index, dagger) not in images:
                images[index, dagger] = ladder_image(kind, index, dagger,
                                                     n_modes)
            img = images[index, dagger]
            prod = img if prod is None else product(prod, img)
        for k, c in prod.items():
            data[k] = data.get(k, 0.0) + c * coeff
    return masked_sum(n_modes, data).simplify()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("molecule", SHIPPED_MOLECULES)
def test_map_fermion_matches_term_by_term_sums(kind, molecule, assembled):
    system = assembled(molecule)
    n = system.n_qubits
    want = map_by_ladder_products(system.hamiltonian, kind, n)
    got = map_fermion(system.hamiltonian, kind, n)
    assert bitwise(got.items()) == bitwise(want.items())


@st.composite
def fermion_operators(draw):
    """Random operators on 1-8 modes: terms of 0-4 ladder operators with
    repeated modes and both flags, real and complex coefficients, and
    (with an empty term list) the empty operator."""
    n = draw(st.integers(1, 8))
    ladder = st.tuples(st.integers(0, n - 1), st.sampled_from([0, 1]))
    coeff = st.one_of(_PARTS, st.builds(complex, _PARTS, _PARTS))
    return fermion_operator(draw(st.lists(st.tuples(
        st.lists(ladder, max_size=4).map(tuple), coeff), max_size=12))), n


@settings(deadline=None, max_examples=300)
@given(case=fermion_operators(), kind=st.sampled_from(ALL_KINDS))
def test_map_fermion_matches_ladder_products_bit_for_bit(case, kind):
    op, n = case
    want = map_by_ladder_products(op, kind, n)
    assert bitwise(map_fermion(op, kind, n).items()) == bitwise(want.items())


def test_map_fermion_refuses_a_mode_outside_the_register():
    # the modes are int64: 2**63 - 1 is the largest one a run can hold
    for key in [((0, 1), (4, 0)), ((-1, 1), (0, 0)),
                ((0, 1), (2**63 - 1, 0))]:
        with pytest.raises(ValueError, match="outside register of 4"):
            map_fermion(fermion_operator([(key, 1.0)]), MappingKind.PARITY,
                        4)


def test_map_fermion_refuses_a_register_wider_than_its_masks():
    widest = MAX_MAPPED_MODES
    op = fermion_operator([
        *number_operator(widest).terms.items(),
        (((0, 1), (widest - 1, 1), (widest - 2, 0), (1, 0)), 0.25j)])
    for kind in ALL_KINDS:
        assert bitwise(map_fermion(op, kind, widest).items()) == bitwise(
            map_by_ladder_products(op, kind, widest).items())
    with pytest.raises(ValueError, match=f"at most {widest}"):
        map_fermion(number_operator(widest + 1), MappingKind.PARITY,
                    widest + 1)


def test_mapping_ch4_peaks_below_two_megabytes(assembled):
    # the array pass works in chunks of MAP_CHUNK_ENTRIES choices; larger
    # passes raise the peak (4.6 MB at 32,768 choices on this operator)
    hamiltonian = assembled("ch4").hamiltonian
    tracemalloc.start()
    try:
        map_fermion(hamiltonian, MappingKind.PARITY, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_mapping_from_name_aliases():
    assert mapping_from_name("jw") == MappingKind.JORDAN_WIGNER
    assert mapping_from_name("Jordan_Wigner") == MappingKind.JORDAN_WIGNER
    assert mapping_from_name("parity") == MappingKind.PARITY
    assert mapping_from_name("BK") == MappingKind.BRAVYI_KITAEV
    assert mapping_from_name("bravyi_kitaev") == MappingKind.BRAVYI_KITAEV
    with pytest.raises(ValueError, match="out of scope"):
        mapping_from_name("binary_code")
    with pytest.raises(ValueError, match="unknown mapping"):
        mapping_from_name("steane")


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.sampled_from([0, 1, 2 ** 62, 2 ** 63 - 1]),
                          st.integers(0, 2 ** 63 - 1)), max_size=64))
def test_bit_parity_matches_the_bit_folds(values):
    values = np.array(values + [0, 2 ** 63 - 1], dtype=np.int64)
    got = bit_parity(values)
    assert got.dtype == np.int8
    assert got.tobytes() == bit_parity_by_folds(values).tobytes()
    assert got.tolist() == [bin(v).count("1") % 2 for v in values.tolist()]


# ---- (N, S_z) sectors ---------------------------------------------------------


@pytest.mark.parametrize("n_spatial", range(1, 7))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sector_basis_holds_exactly_the_sector(kind, n_spatial):
    # distinct states, as many as determinants, each an eigenstate of N
    # and S_z with the sector's values: together these make the array the
    # whole sector
    n = 2 * n_spatial
    register = np.arange(1 << n)
    number = pauli_to_sparse(map_fermion(number_operator(n), kind, n),
                             register)
    spin = pauli_to_sparse(map_fermion(sz_operator(n), kind, n), register)
    for n_alpha in range(n_spatial + 1):
        for n_beta in range(n_spatial + 1):
            states = sector_basis(kind, n, n_alpha, n_beta)
            assert states.dtype == np.int64
            assert np.all(np.diff(states) > 0)
            assert states.size == comb(n_spatial, n_alpha) * comb(n_spatial,
                                                                  n_beta)
            assert np.allclose(number.diagonal()[states], n_alpha + n_beta,
                               rtol=0.0, atol=1e-12)
            assert np.allclose(spin.diagonal()[states],
                               (n_alpha - n_beta) / 2, rtol=0.0, atol=1e-12)


def test_sector_basis_validation():
    with pytest.raises(ValueError, match="even number"):
        sector_basis(MappingKind.PARITY, 5, 1, 1)
    with pytest.raises(ValueError, match="do not fit"):
        sector_basis(MappingKind.PARITY, 4, 3, 0)
    with pytest.raises(ValueError, match="do not fit"):
        sector_basis(MappingKind.PARITY, 4, 1, -1)


@settings(deadline=None, max_examples=200)
@given(kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 24), data=st.data())
def test_decoding_inverts_the_encoding(kind, n, data):
    occupations = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                     min_size=1, max_size=8))
    states = np.array([encoded(kind, occ, n) for occ in occupations],
                      dtype=np.int64)
    assert decode_states(kind, n, states).tolist() == occupations


@settings(deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), n_spatial=st.integers(1, 8),
       data=st.data())
def test_a_sector_decodes_to_its_determinants(kind, n_spatial, data):
    n_alpha = data.draw(st.integers(0, n_spatial))
    n_beta = data.draw(st.integers(0, n_spatial))
    n = 2 * n_spatial
    occupations = decode_states(kind, n, sector_basis(kind, n, n_alpha,
                                                      n_beta)).tolist()
    assert len(set(occupations)) == len(occupations) == (
        comb(n_spatial, n_alpha) * comb(n_spatial, n_beta))
    even = sum(1 << m for m in range(0, n, 2))
    for occ in occupations:
        assert (occ & even).bit_count() == n_alpha
        assert (occ & ~even).bit_count() == n_beta


def test_encode_occupation_values_and_validation():
    assert encode_occupation(MappingKind.JORDAN_WIGNER, [0, 1], 4) == [0, 1]
    assert encode_occupation(MappingKind.PARITY, [0, 1], 4) == [0]
    assert encode_occupation(MappingKind.BRAVYI_KITAEV, [0, 1], 4) == [0]
    with pytest.raises(ValueError):
        encode_occupation(MappingKind.PARITY, [4], 4)
