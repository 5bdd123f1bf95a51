"""Independent oracle for the UCCSD state: Pauli rotations on the register.

The package runs each excitation exp(theta (T - T^)) as real rotations of
the determinant pairs it couples, inside one (N, S_z) sector. This module
takes the other route, the one a gate-based circuit takes: the generator
T - T^ is mapped to qubits (`map_fermion`), its image i * sum_k s_k
sigma_k is exponentiated as a product of Pauli rotations (exact, because
the strings of one generator commute pairwise), and the rotations act on
the complex amplitudes of the whole 2^n register. It shares no code with
the sector route beyond the mapping itself.

`PauliCircuit` compiles the rotations once: each keeps the gather vector
b ^ x (shared by the rotations with the same X-mask) and its gathered
signs, so `run` only gathers and multiplies and is bit-identical to
applying the rotations one by one with `apply_pauli_exponential`.
`adjoint_gradient` walks them backwards (Jones & Gacon, arXiv:2009.02823).
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from qelectra.fermion import FermionOperator
from qelectra.pauli import (MappingKind, PauliString, bit_parity,
                            encode_occupation, map_fermion)
from qelectra.simulator import StateVector
from qelectra.vqe import Excitation, UccsdAnsatz

_POWER_PHASE = (1.0, 1.0j, -1.0, -1.0j)


def string_sign(string: PauliString) -> int:
    """+1 or -1: the phase of a Hermitian string relative to its letters."""
    rel = (string.phase_power - (string.x & string.z).bit_count()) % 4
    if rel not in (0, 2):
        raise ValueError("exponential needs a Hermitian string "
                         "(phase +1 or -1)")
    return 1 - rel


def apply_pauli_exponential(state: StateVector, string: PauliString,
                            angle: float) -> None:
    """Apply exp(-i * angle / 2 * P) to `state` for an involutory Pauli
    string P with phase +1 or -1 (a -1 phase is folded into the angle)."""
    angle = string_sign(string) * angle
    hermitian = PauliString.from_masks(state.n_qubits, string.x, string.z,
                                       (string.x & string.z).bit_count())
    image = state.copy()
    image.apply_pauli(hermitian)
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
                        n_modes: int) -> List[Tuple[PauliString, float]]:
    """Mapped generator as (Hermitian string, rotation scale) pairs.

    The qubit image of theta*(T - T^) is i * theta * sum_k s_k sigma_k
    with real s_k; exp of that equals a product of
    exp(-i * (-2 s_k theta) / 2 * sigma_k) because the strings of one
    generator commute pairwise. Both facts are checked here rather than
    assumed.
    """
    mapped = map_fermion(excitation_generator(excitation), kind, n_modes)
    pairs: List[Tuple[PauliString, float]] = []
    for string, coeff in mapped.strings():
        if abs(coeff.real) > 1e-12:
            raise RuntimeError(
                "generator image has a real coefficient; the excitation "
                "operator is not anti-Hermitian")
        pairs.append((string, -2.0 * coeff.imag))
    pairs.sort(key=lambda sc: sc[0].letters)
    for idx, (s1, _) in enumerate(pairs):
        for s2, _ in pairs[idx + 1:]:
            if not s1.commutes_with(s2):
                raise RuntimeError(
                    "generator strings do not commute; per-generator "
                    "exponential would not be exact")
    return pairs


# One compiled rotation: gather vector b ^ x, gathered signs as int8, phase
# of the Hermitian string, parameter index and the scale with the string's
# sign folded in.
_Step = Tuple[np.ndarray, np.ndarray, complex, int, float]


class PauliCircuit:
    """Pauli rotations on one computational basis state, compiled once.

    `instructions` is a tuple of (string, parameter index, scale); rotation
    k applies exp(-i * (scale * theta[index]) / 2 * string) to the state
    the rotations before it left, starting from basis state `reference`.
    Rotation k maps the state to cos(h) psi - i sin(h) image with
    image[b] = phase * s[b ^ x] * psi[b ^ x], s the Z-mask signs.
    """

    def __init__(self, n_qubits: int, reference: int,
                 instructions: Sequence[Tuple[PauliString, int, float]],
                 n_parameters: int):
        # validates the register size and the reference index
        StateVector.computational_basis(n_qubits, reference)
        self.n_qubits = n_qubits
        self.reference = reference
        self.instructions = tuple(instructions)
        self.n_parameters = n_parameters
        basis = np.arange(1 << n_qubits, dtype=np.int64)
        gathers: Dict[int, np.ndarray] = {}
        signs: Dict[Tuple[int, int], np.ndarray] = {}
        steps: List[_Step] = []
        for string, param_index, scale in self.instructions:
            if string.n_qubits != n_qubits:
                raise ValueError("register size mismatch")
            if not 0 <= param_index < n_parameters:
                raise ValueError(
                    f"parameter index {param_index} outside 0.."
                    f"{n_parameters - 1}")
            sign = string_sign(string)
            x, z = string.x, string.z
            if x not in gathers:
                gathers[x] = basis ^ x
            if (x, z) not in signs:
                signs[(x, z)] = 1 - 2 * bit_parity(gathers[x] & z)
            n_y = (x & z).bit_count()
            steps.append((gathers[x], signs[(x, z)], _POWER_PHASE[n_y % 4],
                          param_index, sign * scale))
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
        state = StateVector.computational_basis(self.n_qubits, self.reference)
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
    rotations = [(string, p, scale)
                 for p, exc in enumerate(ansatz.excitations)
                 for string, scale in generator_rotations(exc, kind, n)]
    return PauliCircuit(n, reference, rotations, ansatz.n_parameters)


def register_state(system, amplitudes: np.ndarray) -> StateVector:
    """Sector amplitudes scattered onto the whole register of `system`."""
    data = np.zeros(1 << system.n_qubits, dtype=complex)
    data[system.sector] = amplitudes
    return StateVector(system.n_qubits, data)
