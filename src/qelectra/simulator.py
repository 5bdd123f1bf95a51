"""Dense statevector simulation of Pauli operators and circuits.

Basis states use little-endian convention: computational index b has qubit
k in bit k of b. The register is capped at 24 qubits, above which the
amplitude array alone would pass two gigabytes.

Pauli application never builds a matrix. In the symplectic picture
(X^x Z^z)|b> = (-1)^{|z & b|} |b ^ x>, so a string acts as one permutation
of the amplitude array plus a sign mask, with bit-parity evaluated by
folding.

A `Circuit` is an immutable program: a reference basis state and a tuple
of Pauli rotations, compiled when it is built. Each rotation keeps the
gather vector b ^ x (shared by the rotations with the same X-mask) and
its gathered signs, so `Circuit.run` only gathers and multiplies, and its
state is bit-identical to applying the rotations one by one to the
reference. `Circuit.adjoint_gradient` walks the same compiled rotations
backwards for the gradient of an expectation value.
`StateVector.expectation` sums a Pauli operator term by term over the
whole register; VQE takes its energies on the sector block instead
(`oracle.pauli_to_sparse`), and this loop is the reference that route is
checked against.
"""

import numpy as np
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .pauli import PauliString, PauliSum, bit_parity

MAX_QUBITS = 24
# largest imaginary part, relative to max(1, |real part|), that an
# expectation value may carry before the observable counts as not Hermitian
IMAG_TOL = 1e-10

_POWER_PHASE = (1.0, 1.0j, -1.0, -1.0j)

_SQ_HALF = 1.0 / np.sqrt(2.0)
_H_GATE = np.array([[_SQ_HALF, _SQ_HALF], [_SQ_HALF, -_SQ_HALF]],
                   dtype=complex)
# H S^dagger rotates the Y eigenbasis onto the computational basis
_Y_BASIS_GATE = _H_GATE @ np.diag([1.0, -1.0j])


def _string_sign(string: PauliString) -> int:
    """+1 or -1: the phase of a Hermitian string relative to its letters."""
    rel = (string.phase_power - (string.x & string.z).bit_count()) % 4
    if rel not in (0, 2):
        raise ValueError("exponential needs a Hermitian string "
                         "(phase +1 or -1)")
    return 1 - rel


class StateVector:
    """Normalized complex amplitude vector over a little-endian register."""

    def __init__(self, n_qubits: int, data: Optional[np.ndarray] = None):
        if n_qubits < 1 or n_qubits > MAX_QUBITS:
            raise ValueError(
                f"register size {n_qubits} outside supported range "
                f"1..{MAX_QUBITS}")
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if data is None:
            self.data = np.zeros(dim, dtype=complex)
            self.data[0] = 1.0
        else:
            arr = np.asarray(data, dtype=complex)
            if arr.shape != (dim,):
                raise ValueError(f"amplitude array must have shape ({dim},)")
            self.data = arr.copy()

    @classmethod
    def computational_basis(cls, n_qubits: int, index: int) -> "StateVector":
        sv = cls(n_qubits)
        if not 0 <= index < (1 << n_qubits):
            raise ValueError("basis index out of range")
        sv.data[0] = 0.0
        sv.data[index] = 1.0
        return sv

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    # ---- Pauli action --------------------------------------------------------
    def _string_image(self, string: PauliString) -> np.ndarray:
        if string.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        idx = np.arange(self.data.size, dtype=np.int64)
        signs = 1.0 - 2.0 * bit_parity(idx & string.z)
        out = np.empty_like(self.data)
        out[idx ^ string.x] = signs * self.data
        return out * _POWER_PHASE[string.phase_power % 4]

    def apply_pauli(self, string: PauliString) -> None:
        self.data = self._string_image(string)

    def apply_x(self, qubit: int) -> None:
        """Flip one qubit (used to prepare occupation-encoded references)."""
        if not 0 <= qubit < self.n_qubits:
            raise ValueError("qubit index out of range")
        # swapping the two halves of every 2 * 2**qubit block flips the bit
        step = 1 << qubit
        self.data = self.data.reshape(-1, 2, step)[:, ::-1, :].reshape(-1)

    def apply_single_qubit(self, qubit: int, gate: np.ndarray) -> None:
        step = 1 << qubit
        work = self.data.reshape(-1, 2, step)
        top = work[:, 0, :].copy()
        bot = work[:, 1, :].copy()
        work[:, 0, :] = gate[0, 0] * top + gate[0, 1] * bot
        work[:, 1, :] = gate[1, 0] * top + gate[1, 1] * bot

    def apply_pauli_exponential(self, string: PauliString,
                                angle: float) -> None:
        """Apply exp(-i * angle / 2 * P) for an involutory Pauli string.

        Requires the string phase to be +1 or -1 so that P is Hermitian;
        a -1 phase is folded into the angle.
        """
        n_y = (string.x & string.z).bit_count()
        angle = _string_sign(string) * angle
        hermitian = PauliString.from_masks(self.n_qubits, string.x, string.z,
                                           n_y)
        half = 0.5 * angle
        image = self._string_image(hermitian)
        self.data = np.cos(half) * self.data - 1.0j * np.sin(half) * image

    # ---- expectation values -----------------------------------------------------
    def expectation(self, observable: Union[PauliString, PauliSum]) -> float:
        """Exact <psi|O|psi> of a Pauli string or sum, summed term by term;
        raises if a nominally real value comes out complex."""
        if isinstance(observable, PauliString):
            observable = PauliSum.from_string(observable)
        if observable.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        idx = np.arange(self.data.size, dtype=np.int64)
        total = 0.0 + 0.0j
        conj = np.conj(self.data)
        for (x, z), coeff in observable.items():
            n_y = (x & z).bit_count()
            signs = 1.0 - 2.0 * bit_parity(idx & z)
            overlap = np.dot(conj[idx ^ x], signs * self.data)
            total += coeff * _POWER_PHASE[n_y % 4] * overlap
        if abs(total.imag) > IMAG_TOL * max(1.0, abs(total.real)):
            raise ValueError(
                f"expectation has imaginary part {total.imag:.3e}; "
                "observable is not Hermitian on this state")
        return float(total.real)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.data) ** 2

    def sampled_expectation(self, observable: PauliSum, shots: int,
                            rng: np.random.Generator
                            ) -> Tuple[float, float]:
        """Estimate <O> by simulated projective measurement.

        Each non-identity term is measured in its own rotated basis with
        `shots` repetitions drawn from `rng`; identity terms enter
        exactly. Returns the estimate and its standard error (square root
        of the summed per-term variances of the mean).
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        if observable.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        if not observable.is_hermitian():
            raise ValueError("sampling needs a Hermitian observable")
        mean_total = 0.0
        var_total = 0.0
        for (x, z), coeff in observable.items():
            c = coeff.real
            if x == 0 and z == 0:
                mean_total += c
                continue
            rotated = self.copy()
            for k in range(self.n_qubits):
                xb = (x >> k) & 1
                zb = (z >> k) & 1
                if xb and zb:
                    rotated.apply_single_qubit(k, _Y_BASIS_GATE)
                elif xb:
                    rotated.apply_single_qubit(k, _H_GATE)
            support = x | z
            probs = rotated.probabilities()
            probs = probs / probs.sum()
            outcomes = rng.choice(probs.size, size=shots, p=probs)
            values = 1.0 - 2.0 * bit_parity(outcomes & support)
            term_mean = float(values.mean())
            term_var = float(values.var(ddof=1)) if shots > 1 else 0.0
            mean_total += c * term_mean
            var_total += c * c * term_var / shots
        return mean_total, float(np.sqrt(var_total))


# ---- circuits ------------------------------------------------------------------

# One compiled rotation: gather vector b ^ x, gathered signs as int8, phase
# of the Hermitian string, parameter index and the scale with the string's
# sign folded in.
_Step = Tuple[np.ndarray, np.ndarray, complex, int, float]


class Circuit:
    """Pauli rotations on one computational basis state, compiled once.

    `instructions` is a tuple of (string, parameter index, scale); rotation
    k applies exp(-i * (scale * theta[index]) / 2 * string) to the state
    the rotations before it left, starting from basis state `reference`.
    The constructor checks the register, the parameter range and that
    every string is Hermitian, then compiles: rotation k maps the state to
    cos(h) psi - i sin(h) image with image[b] = phase * s[b ^ x] *
    psi[b ^ x], s the Z-mask signs. The gather b ^ x (shared by the
    rotations with the same X-mask) and the gathered signs depend only on
    the string, so a run only gathers and multiplies.
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
            sign = _string_sign(string)
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
        `StateVector.apply_pauli_exponential`, in the same order."""
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
        derivative of its parameter, then is undone on both vectors,
        v -> cos(h) v + i sin(h) P v, so that lam stays H psi pulled back
        through the suffix already walked (adjoint differentiation, Jones &
        Gacon, arXiv:2009.02823).
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
