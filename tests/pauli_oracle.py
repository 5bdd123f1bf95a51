"""Independent oracle for the UCCSD state: Pauli rotations on the register.

The package runs each excitation exp(theta (T - T^)) as real rotations of
the determinant pairs it couples, inside one (N, S_z) sector. This module
takes the other route, the one a gate-based circuit takes: the generator
T - T^ is mapped to qubits (`map_fermion`), its image i * sum_k s_k
sigma_k is exponentiated as a product of Pauli rotations (exact, because
the strings of one generator commute pairwise), and the rotations act on
the complex amplitudes of the whole 2^n register. It shares no code with
the sector route beyond the mapping itself.

A Pauli string is a pair of masks (x, z) standing for its Hermitian
letters-operator, as in a `PauliSum` key. `PauliCircuit` compiles the
rotations once: each keeps the gather vector b ^ x (shared by the
rotations with the same X-mask) and its gathered signs, so `run` only
gathers and multiplies and is bit-identical to applying the rotations one
by one with `apply_pauli_exponential`. `adjoint_gradient` walks them
backwards (Jones & Gacon, arXiv:2009.02823).

`bit_parity_by_folds` is the shift-and-xor parity `pauli.bit_parity` is
checked against.
"""

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from qelectra.fermion import FermionOperator
from qelectra.pauli import (I_POWERS, MappingKind, _encoding, bit_parity,
                            map_fermion)
from qelectra.simulator import StateVector
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


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state `index` of an n-qubit register."""
    state = StateVector(n_qubits)
    if not 0 <= index < state.data.size:
        raise ValueError("basis index out of range")
    state.data[0] = 0.0
    state.data[index] = 1.0
    return state


def letters(n_qubits: int, x: int, z: int) -> str:
    """The letters of masks (x, z), character k for qubit k."""
    return "".join("IXZY"[(x >> k) & 1 | ((z >> k) & 1) << 1]
                   for k in range(n_qubits))


def apply_pauli_exponential(state: StateVector, x: int, z: int,
                            angle: float) -> None:
    """Apply exp(-i * angle / 2 * P) to `state` for the letters-operator P
    of masks (x, z)."""
    image = state.copy()
    image.apply_pauli(x, z)
    half = 0.5 * angle
    state.data = np.cos(half) * state.data - 1.0j * np.sin(half) * image.data


def excitation_generator(excitation: Excitation) -> FermionOperator:
    """Anti-Hermitian generator T - T^ for one excitation."""
    op = FermionOperator()
    if excitation.order == 1:
        (i,), (a,) = excitation.occupied, excitation.virtual
        op.add_term(((a, 1), (i, 0)), 1.0)
        op.add_term(((i, 1), (a, 0)), -1.0)
    elif excitation.order == 2:
        (i, j), (a, b) = excitation.occupied, excitation.virtual
        op.add_term(((a, 1), (b, 1), (j, 0), (i, 0)), 1.0)
        op.add_term(((i, 1), (j, 1), (b, 0), (a, 0)), -1.0)
    else:
        raise ValueError(f"unsupported excitation order {excitation.order}")
    return op


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


# One compiled rotation: gather vector b ^ x, gathered signs as int8, phase
# of the letters-operator, parameter index and scale.
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
        basis = np.arange(1 << n_qubits, dtype=np.int64)
        gathers: Dict[int, np.ndarray] = {}
        signs: Dict[Tuple[int, int], np.ndarray] = {}
        steps: List[_Step] = []
        for (x, z), param_index, scale in self.instructions:
            if (x | z) >> n_qubits:
                raise ValueError("Pauli masks reach outside the register")
            if not 0 <= param_index < n_parameters:
                raise ValueError(
                    f"parameter index {param_index} outside 0.."
                    f"{n_parameters - 1}")
            if x not in gathers:
                gathers[x] = basis ^ x
            if (x, z) not in signs:
                signs[(x, z)] = 1 - 2 * bit_parity(gathers[x] & z)
            n_y = (x & z).bit_count()
            steps.append((gathers[x], signs[(x, z)], I_POWERS[n_y % 4],
                          param_index, scale))
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
    """Sector amplitudes scattered onto the whole register of `system`."""
    data = np.zeros(1 << system.n_qubits, dtype=complex)
    data[system.sector] = amplitudes
    return StateVector(system.n_qubits, data)
