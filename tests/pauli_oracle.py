"""Pauli strings by letters, their algebra, and the Pauli-rotation oracle
of the UCCSD state.

The package reads a Pauli string only as its masks (x, z), standing for
its Hermitian letters-operator, character k of the letters on qubit k;
`letters` and `masks` convert between the two, `pauli_sum` writes a
`PauliSum` by letters and `masked_sum` by masks; `block_matrix` is the
dense matrix of a block `oracle.pauli_to_sparse` built, and
`block_by_diagonals` the oracle it is checked against bit for bit: each
X-mask's diagonal summed term by term in a Python loop.
`fermion_operator` writes a `FermionOperator` from (term key,
coefficient) pairs. `add` and `product` combine two sums
string by string, and `ladder_image` is the qubit image of one ladder
operator as a two-string sum: the term-by-term products of ladder images
are the oracle `map_fermion` must match bit for bit, and
`anticommutation_check` measures the canonical relations on them.
`number_operator` and `sz_operator` are the symmetry operators the
mapped sectors are checked with.

The package runs each excitation exp(theta (T - T^)) as real rotations of
the determinant pairs it couples, inside one (N, S_z) sector. This module
takes the other route, the one a gate-based circuit takes: the generator
T - T^ is mapped to qubits (`map_fermion`), its image i * sum_k s_k
sigma_k is exponentiated as a product of Pauli rotations (exact, because
the strings of one generator commute pairwise), and the rotations act on
the complex amplitudes of the whole 2^n register. It shares no code with
the sector route beyond the mapping itself.

`pauli_action` is the action of one string on the register, a gather
vector b ^ x, its gathered signs and the letters phase; `apply_pauli`
applies it. `PauliCircuit` compiles the rotations once into those
actions, so `run` only gathers and multiplies and is bit-identical to
applying the rotations one by one with `apply_pauli_exponential`.
`adjoint_gradient` walks them backwards (Jones & Gacon,
arXiv:2009.02823). `circuit_by_excitations` compiles the sector route's
`simulator.Circuit` one excitation at a time, the oracle
`vqe.ansatz_circuit` is checked against bit for bit.
`decode_states` reads determinants back from encoded states, the oracle
the order of `pauli.sector_basis` is checked against, and
`register_state` scatters sector amplitudes onto the whole register.

`rotated_plus_probability` is the probability of +1 when one string is
measured on a register state the way a device measures it: each qubit
rotated onto its letter's eigenbasis, then the parity of the outcome on
the string's support. `simulator.sampled_expectation` is checked against
it.

`bit_parity_by_folds` is the shift-and-xor parity `pauli.bit_parity` is
checked against.
"""

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from qelectra.fermion import FermionOperator
from qelectra.oracle import SparseBlock, basis_lookup
from qelectra.pauli import (I_POWERS, MappingKind, PauliSum, _encoding,
                            _mode_masks, bit_parity, map_fermion)
from qelectra.simulator import Circuit, StateVector
from qelectra.vqe import Excitation, UccsdAnsatz

Masks = Tuple[int, int]


def bit_parity_by_folds(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry in [0, 2**63), by folding the
    64 bits onto the lowest one: the oracle of `pauli.bit_parity`."""
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(np.int8)


def encode_occupation(kind: MappingKind, occupied: Iterable[int],
                      n_modes: int) -> List[int]:
    """Qubits set to 1 in the encoded basis state of a given determinant.

    Qubit q is set when its encoding row holds an odd number of occupied
    modes.
    """
    occ = 0
    for m in occupied:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode {m} outside register")
        occ |= 1 << m
    return [q for q, row in enumerate(_encoding(kind, n_modes))
            if (row & occ).bit_count() & 1]


def decode_states(kind: MappingKind, n_modes: int,
                  states: np.ndarray) -> np.ndarray:
    """Occupied modes of each encoded basis state, as a bitmask with mode m
    at bit m, by back-substitution: row q of the encoding holds mode q and
    otherwise only lower modes, so mode q is occupied when qubit q's bit
    differs from the parity of the lower modes row q holds."""
    occupations = np.zeros_like(states)
    for q, row in enumerate(_encoding(kind, n_modes)):
        bit = (states >> q & 1) ^ bit_parity(occupations & row)
        occupations |= bit.astype(np.int64) << q
    return occupations


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state `index` of an n-qubit register."""
    data = np.zeros(1 << n_qubits)
    if not 0 <= index < data.size:
        raise ValueError("basis index out of range")
    data[index] = 1.0
    return StateVector(n_qubits, data)


# ---- Pauli strings by letters, and their algebra ----------------------------

_LETTERS = "IXZY"   # index x_k | z_k << 1


def letters(n_qubits: int, x: int, z: int) -> str:
    """The letters of masks (x, z), character k for qubit k."""
    return "".join(_LETTERS[(x >> k) & 1 | ((z >> k) & 1) << 1]
                   for k in range(n_qubits))


def masks(word: str) -> Masks:
    """The masks (x, z) of a letters string: the inverse of `letters`."""
    x = z = 0
    for k, ch in enumerate(word):
        if ch not in _LETTERS:
            raise ValueError(f"invalid Pauli letter {ch!r}")
        code = _LETTERS.index(ch)
        x |= (code & 1) << k
        z |= (code >> 1) << k
    return x, z


def pauli_sum(n_qubits: int,
              terms: Iterable[Tuple[str, complex]] = ()) -> PauliSum:
    """The sum of coeff times the letters-operator of each (letters, coeff)
    pair, added in order to a running total per string."""
    data: Dict[Masks, complex] = {}
    for word, coeff in terms:
        if len(word) != n_qubits:
            raise ValueError("register size mismatch")
        key = masks(word)
        data[key] = data.get(key, 0.0) + coeff
    return masked_sum(n_qubits, data)


def masked_sum(n_qubits: int, data: Dict[Masks, complex]) -> PauliSum:
    """The sum of a {(x, z): coefficient} map, strings in its order."""
    return PauliSum(n_qubits, [x for x, _ in data], [z for _, z in data],
                    list(data.values()))


def block_matrix(block: SparseBlock) -> np.ndarray:
    """The dense real matrix of a block, zero off its stored entries."""
    out = np.zeros(block.shape)
    out[block.rows, block.cols] = block.values
    return out


def _diagonal(x: int, terms: List[Tuple[int, float]],
              states: np.ndarray) -> np.ndarray:
    """Entries (b ^ x, b) over the basis states b, summed in `terms` order."""
    out = np.zeros(states.size)
    for z, coeff in terms:
        signs = 1.0 - 2.0 * bit_parity(states & z)
        # i^{n_y} = (-1)^{n_y / 2} for an even Y count n_y
        out += (coeff * (1 - ((x & z).bit_count() & 2))) * signs
    return out


def block_by_diagonals(observable: PauliSum,
                       basis: np.ndarray) -> SparseBlock:
    """The block `oracle.pauli_to_sparse` builds, one X-mask at a time:
    the terms grouped by X-mask in `items()` order, each group's diagonal
    summed term by term, with the same refusals."""
    states = basis_lookup(basis, observable.n_qubits)[0]
    dim = states.size
    row = {b: i for i, b in enumerate(states.tolist())}
    if not observable.is_hermitian() or any(
            (x & z).bit_count() % 2 for (x, z), _ in observable.items()):
        raise ValueError(
            "the block needs a real symmetric operator: a Hermitian sum "
            "(real coefficients) with an even number of Y letters in "
            "every string")
    groups: Dict[int, List[Tuple[int, float]]] = {}
    for (x, z), coeff in observable.items():
        groups.setdefault(x, []).append((z, coeff.real))
    empty = np.zeros(0, dtype=np.int64)
    rows, cols, values = [empty], [empty], [np.zeros(0)]
    for x, terms in groups.items():
        d_x = _diagonal(x, terms, states)
        nonzero = np.flatnonzero(d_x)
        at = np.array([row.get(b ^ x, -1) for b in states[nonzero].tolist()],
                      dtype=np.int64)
        inside = at >= 0
        if np.any(np.abs(d_x[nonzero[~inside]]) > 1e-10):
            raise ValueError(
                "the operator maps basis states outside the basis")
        rows.append(at[inside])
        cols.append(nonzero[inside])
        values.append(d_x[nonzero[inside]])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(rows * dim + cols)
    return SparseBlock(rows[order], cols[order],
                       np.concatenate(values)[order], dim)


def add(a: PauliSum, b: PauliSum, scale: complex = 1.0) -> PauliSum:
    """a + scale * b: each string of b adds scale times its coefficient to
    its total in a, in b's order."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register size mismatch")
    data = dict(a.items())
    for key, c in b.items():
        data[key] = data.get(key, 0.0) + scale * c
    return masked_sum(a.n_qubits, data)


def product(a: PauliSum, b: PauliSum) -> PauliSum:
    """The operator product a b, string by string in the order of a's
    strings, then b's: X^x Z^z carries the letters phase i^{|x & z|}, and
    (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^{|z1 & x2|} X^(x1 ^ x2) Z^(z1 ^ z2)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register size mismatch")
    data: Dict[Masks, complex] = {}
    for (x1, z1), c1 in a.items():
        y1 = (x1 & z1).bit_count()
        for (x2, z2), c2 in b.items():
            y2 = (x2 & z2).bit_count()
            x3 = x1 ^ x2
            z3 = z1 ^ z2
            y3 = (x3 & z3).bit_count()
            power = (y1 + y2 - y3 + 2 * (z1 & x2).bit_count()) % 4
            key = (x3, z3)
            data[key] = data.get(key, 0.0) + c1 * c2 * I_POWERS[power]
    return masked_sum(a.n_qubits, data)


def ladder_image(kind: MappingKind, index: int, dagger: bool,
                 n_modes: int) -> PauliSum:
    """Qubit image of a single creation or annihilation operator.

    Both branches are (X-like - i Y-like)/2 for a_i^ and the conjugate for
    a_i. X flips the qubits that store mode i; Z reads the parity of the
    modes below i (X-like) or up to and including i (Y-like).
    """
    if not 0 <= index < n_modes:
        raise ValueError(f"mode index {index} outside register of {n_modes}")
    flip, below, occ = (per_mode[index]
                        for per_mode in _mode_masks(kind, n_modes))
    # complex() keeps the real part +0.0, where the literal -0.5j has -0.0
    y_like = complex(0.0, -0.5 if dagger else 0.5)
    return masked_sum(n_modes, {(flip, below): 0.5,
                                (flip, below ^ occ): y_like})


def anticommutation_check(kind: MappingKind, n_modes: int) -> float:
    """Largest violation of the canonical anticommutation relations.

    Checks {a_i, a_j^} = delta_ij, {a_i, a_j} = 0 and {a_i^, a_j^} = 0 for
    all pairs, measured as the l1 norm of the residual operator.
    """
    def anticommutator(a, b):
        return add(product(a, b), product(b, a))

    lower = [ladder_image(kind, i, False, n_modes) for i in range(n_modes)]
    raise_ = [ladder_image(kind, i, True, n_modes) for i in range(n_modes)]
    identity = masked_sum(n_modes, {(0, 0): 1.0})
    worst = 0.0
    for i in range(n_modes):
        for j in range(n_modes):
            residuals = [anticommutator(lower[i], raise_[j]),
                         anticommutator(lower[i], lower[j]),
                         anticommutator(raise_[i], raise_[j])]
            if i == j:
                residuals[0] = add(residuals[0], identity, -1.0)
            worst = max(worst, *(sum(abs(c) for _, c in residual.items())
                                 for residual in residuals))
    return worst


def fermion_operator(terms: Iterable[Tuple[tuple, complex]]
                     ) -> FermionOperator:
    """The operator of (term key, coefficient) pairs, a key a tuple of
    (mode, dagger) pairs: a repeated key adds its coefficient to its
    total, and the terms keep the order of their first appearance, in
    runs of equal length."""
    data: Dict[tuple, complex] = {}
    for key, coeff in terms:
        data[key] = data[key] + coeff if key in data else coeff
    runs = []
    for length, keys in itertools.groupby(data, key=len):
        keys = list(keys)
        factors = np.array(keys, dtype=np.int64).reshape(len(keys), length, 2)
        runs.append((factors[:, :, 0], factors[:, :, 1] != 0,
                     np.array([data[key] for key in keys], dtype=complex)))
    return FermionOperator(runs)


def number_operator(n_modes: int) -> FermionOperator:
    """Total particle number, sum of a_p^ a_p over all modes."""
    return fermion_operator((((p, 1), (p, 0)), 1.0) for p in range(n_modes))


def sz_operator(n_modes: int) -> FermionOperator:
    """Spin projection S_z for the interleaved even-alpha, odd-beta layout."""
    if n_modes % 2 != 0:
        raise ValueError("spin layout needs an even number of modes")
    return fermion_operator((((p, 1), (p, 0)), 0.5 - p % 2)
                            for p in range(n_modes))


# ---- Pauli strings on the register ------------------------------------------

def pauli_action(n_qubits: int, x: int, z: int
                 ) -> Tuple[np.ndarray, np.ndarray, complex]:
    """The letters-operator P of masks (x, z) on an n-qubit register, as
    (order, signs, phase) with (P psi)[b] = phase * signs[b] * psi[order[b]].

    (X^x Z^z)|b> = (-1)^{|z & b|} |b ^ x>, so order[b] = b ^ x,
    signs[b] = (-1)^{|z & (b ^ x)|} as int8 and phase = i^{|x & z|}.
    """
    if (x | z) >> n_qubits:
        raise ValueError("Pauli masks reach outside the register")
    order = np.arange(1 << n_qubits, dtype=np.int64) ^ x
    return (order, 1 - 2 * bit_parity(order & z),
            I_POWERS[(x & z).bit_count() % 4])


def apply_pauli(state: StateVector, x: int, z: int) -> np.ndarray:
    """The amplitudes of P psi for the letters-operator P of masks (x, z)."""
    order, signs, phase = pauli_action(state.n_qubits, x, z)
    return (signs * state.data[order]) * phase


def apply_pauli_exponential(state: StateVector, x: int, z: int,
                            angle: float) -> None:
    """Apply exp(-i * angle / 2 * P) to `state` for the letters-operator P
    of masks (x, z)."""
    image = apply_pauli(state, x, z)
    half = 0.5 * angle
    state.data = np.cos(half) * state.data - 1.0j * np.sin(half) * image


_SQ_HALF = 1.0 / np.sqrt(2.0)
_H_GATE = np.array([[_SQ_HALF, _SQ_HALF], [_SQ_HALF, -_SQ_HALF]],
                   dtype=complex)
# H S^dagger rotates the Y eigenbasis onto the computational basis
_Y_BASIS_GATE = _H_GATE @ np.diag([1.0, -1.0j])


def rotated_plus_probability(state: StateVector, x: int, z: int) -> float:
    """Probability of +1 when the letters-operator of masks (x, z) is
    measured on `state`: H rotates each X qubit, H S^dagger each Y qubit,
    and the outcomes of even parity on the support x | z count as +1."""
    data = state.data.copy()
    for k in range(state.n_qubits):
        if not (x >> k) & 1:
            continue
        gate = _Y_BASIS_GATE if (z >> k) & 1 else _H_GATE
        work = data.reshape(-1, 2, 1 << k)
        top, bot = work[:, 0, :].copy(), work[:, 1, :].copy()
        work[:, 0, :] = gate[0, 0] * top + gate[0, 1] * bot
        work[:, 1, :] = gate[1, 0] * top + gate[1, 1] * bot
    probs = np.abs(data) ** 2
    even = bit_parity(np.arange(data.size) & (x | z)) == 0
    return float(probs[even].sum() / probs.sum())


def excitation_generator(excitation: Excitation) -> FermionOperator:
    """Anti-Hermitian generator T - T^ for one excitation."""
    order = len(excitation.occupied)
    if order == 1:
        (i,), (a,) = excitation.occupied, excitation.virtual
        return fermion_operator([(((a, 1), (i, 0)), 1.0),
                                 (((i, 1), (a, 0)), -1.0)])
    if order == 2:
        (i, j), (a, b) = excitation.occupied, excitation.virtual
        return fermion_operator([(((a, 1), (b, 1), (j, 0), (i, 0)), 1.0),
                                 (((i, 1), (j, 1), (b, 0), (a, 0)), -1.0)])
    raise ValueError(f"unsupported excitation order {order}")


def generator_rotations(excitation: Excitation, kind: MappingKind,
                        n_modes: int) -> List[Tuple[Masks, float]]:
    """Mapped generator as (string masks, rotation scale) pairs, sorted by
    the strings' letters.

    The qubit image of theta*(T - T^) is i * theta * sum_k s_k sigma_k
    with real s_k; exp of that equals a product of
    exp(-i * (-2 s_k theta) / 2 * sigma_k) because the strings of one
    generator commute pairwise. Both facts are checked here rather than
    assumed.
    """
    mapped = map_fermion(excitation_generator(excitation), kind, n_modes)
    pairs: List[Tuple[Masks, float]] = []
    for masks, coeff in mapped.items():
        if abs(coeff.real) > 1e-12:
            raise RuntimeError(
                "generator image has a real coefficient; the excitation "
                "operator is not anti-Hermitian")
        pairs.append((masks, -2.0 * coeff.imag))
    pairs.sort(key=lambda pair: letters(n_modes, *pair[0]))
    for idx, ((x1, z1), _) in enumerate(pairs):
        for (x2, z2), _ in pairs[idx + 1:]:
            if ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2:
                raise RuntimeError(
                    "generator strings do not commute; per-generator "
                    "exponential would not be exact")
    return pairs


# One compiled rotation: the `pauli_action` of its string, parameter index
# and scale.
_Step = Tuple[np.ndarray, np.ndarray, complex, int, float]


class PauliCircuit:
    """Pauli rotations on one computational basis state, compiled once.

    `instructions` is a tuple of ((x, z), parameter index, scale);
    rotation k applies exp(-i * (scale * theta[index]) / 2 * P), P the
    letters-operator of masks (x, z), to the state the rotations before it
    left, starting from basis state `reference`.
    Rotation k maps the state to cos(h) psi - i sin(h) image with
    image[b] = phase * s[b ^ x] * psi[b ^ x], s the Z-mask signs.
    """

    def __init__(self, n_qubits: int, reference: int,
                 instructions: Sequence[Tuple[Masks, int, float]],
                 n_parameters: int):
        # validates the register size and the reference index
        basis_state(n_qubits, reference)
        self.n_qubits = n_qubits
        self.reference = reference
        self.instructions = tuple(instructions)
        self.n_parameters = n_parameters
        actions: Dict[Masks, Tuple[np.ndarray, np.ndarray, complex]] = {}
        steps: List[_Step] = []
        for string, param_index, scale in self.instructions:
            if string not in actions:
                actions[string] = pauli_action(n_qubits, *string)
            if not 0 <= param_index < n_parameters:
                raise ValueError(
                    f"parameter index {param_index} outside 0.."
                    f"{n_parameters - 1}")
            steps.append((*actions[string], param_index, scale))
        self._steps = tuple(steps)

    def _angles(self, parameters: Sequence[float]) -> np.ndarray:
        theta = np.asarray(parameters, dtype=float)
        if theta.shape != (self.n_parameters,):
            raise ValueError(
                f"expected {self.n_parameters} parameters, got {theta.shape}")
        return theta

    def run(self, parameters: Sequence[float]) -> StateVector:
        """The state the rotations at `parameters` make of the reference;
        each does the floating-point operations of
        `apply_pauli_exponential`, in the same order."""
        theta = self._angles(parameters)
        state = basis_state(self.n_qubits, self.reference)
        data = state.data
        for order, signs, phase, param_index, scale in self._steps:
            half = 0.5 * (scale * theta[param_index])
            image = (signs * data[order]) * phase
            data = np.cos(half) * data - 1.0j * np.sin(half) * image
        state.data = data
        return state

    def adjoint_gradient(self, parameters: Sequence[float], psi: np.ndarray,
                         lam: np.ndarray) -> np.ndarray:
        """Gradient of <psi|H|psi> over the parameters by one reverse sweep.

        `psi` is the amplitude array `run(parameters)` returned and `lam` is
        H psi on the same register. Walking the compiled rotations
        backwards, each exp(-i h P) adds scale * Im<lam|P psi> to the
        derivative of its parameter, then is undone on both vectors.
        """
        theta = self._angles(parameters)
        dim = 1 << self.n_qubits
        if psi.shape != (dim,) or lam.shape != (dim,):
            raise ValueError(f"psi and lam must have shape ({dim},)")
        gradient = np.zeros(self.n_parameters)
        for order, signs, phase, param_index, scale in reversed(self._steps):
            image = (signs * psi[order]) * phase
            gradient[param_index] += scale * np.vdot(lam, image).imag
            half = 0.5 * (scale * theta[param_index])
            cos, isin = np.cos(half), 1.0j * np.sin(half)
            psi = cos * psi + isin * image
            lam = cos * lam + isin * ((signs * lam[order]) * phase)
        return gradient


def pauli_circuit(ansatz: UccsdAnsatz, kind: MappingKind) -> PauliCircuit:
    """The ansatz as Pauli rotations on the aufbau determinant encoded under
    `kind`, parameter index k for excitation k."""
    n = ansatz.n_spin_orbitals
    reference = sum(1 << q for q in encode_occupation(
        kind, range(ansatz.n_electrons), n))
    rotations = [(masks, p, scale)
                 for p, exc in enumerate(ansatz.excitations)
                 for masks, scale in generator_rotations(exc, kind, n)]
    return PauliCircuit(n, reference, rotations, ansatz.n_parameters)


def register_state(system, amplitudes: np.ndarray) -> StateVector:
    """Sector amplitudes scattered onto the whole register of `system`,
    each onto its determinant's state under the system's mapping."""
    data = np.zeros(1 << system.n_qubits, dtype=complex)
    data[system.encoded_sector] = amplitudes
    return StateVector(system.n_qubits, data)


def circuit_by_excitations(ansatz: UccsdAnsatz, system) -> Circuit:
    """The circuit `vqe.ansatz_circuit` compiles, one excitation at a
    time: the sources of excitation T are the determinants with its
    occupied modes occupied and its virtual modes empty, and T's ladder
    operators act on them right to left, each adding the parity of the
    occupied modes below its own to the sign. Determinants are found in
    the rows of `system.sector` by a dictionary."""
    occupations = system.sector
    row = {occ: i for i, occ in enumerate(occupations.tolist())}

    def locate(occ: np.ndarray) -> np.ndarray:
        if not set(occ.tolist()) <= row.keys():
            raise ValueError("the ansatz leaves the system's sector")
        return np.array([row[o] for o in occ.tolist()], dtype=np.int64)

    instructions = []
    for exc in ansatz.excitations:
        holes = sum(1 << i for i in exc.occupied)
        moved = holes | sum(1 << a for a in exc.virtual)
        source = np.flatnonzero((occupations & moved) == holes)
        occ = occupations[source]
        parity = np.zeros(source.size, dtype=np.int8)
        for mode in exc.occupied + exc.virtual[::-1]:
            parity ^= bit_parity(occ & ((1 << mode) - 1))
            occ = occ ^ (1 << mode)
        instructions.append((source, locate(occ), 1.0 - 2.0 * parity))
    aufbau = np.array([(1 << ansatz.n_electrons) - 1])
    return Circuit(occupations.size, int(locate(aufbau)[0]), instructions)
