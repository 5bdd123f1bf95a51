"""Pauli expectations, shot-sampled energies, and sector circuits.

Basis states use little-endian convention: computational index b has qubit
k in bit k of b. In the symplectic picture
(X^x Z^z)|b> = (-1)^{|z & b|} |b ^ x>, so the string with masks (x, z)
acts as one permutation of the amplitudes plus a sign per basis state,
times the phase i^{|x & z|} of its letters-operator; no Pauli string
becomes a matrix. `sampled_expectation` measures that way on amplitudes
over a sorted array of basis states, such as one sector, and holds
nothing of the register's size. `StateVector.expectation` sums
<psi|P|psi> over a whole register of at most 24 qubits, the reference the
sector route is checked against. The action of one string on a state is
kept in `tests/pauli_oracle.py`, where the Pauli-rotation circuit applies
it.

A `Circuit` never holds the register. It is a real program over the
amplitudes of one sector (for UCCSD, the determinants of one (N, S_z)
sector): a reference basis state and, per parameter, the pairs of states
it rotates into each other, with a sign per pair. `Circuit.run` only
gathers, multiplies and scatters, and `Circuit.adjoint_gradient` walks the
same rotations backwards for the gradient of an expectation value.
"""

import numpy as np
from typing import Sequence, Tuple

from .oracle import basis_states
from .pauli import I_POWERS, PauliSum, bit_parity

MAX_QUBITS = 24
# largest imaginary part, relative to max(1, |real part|), that an
# expectation value may carry before the observable counts as not Hermitian
IMAG_TOL = 1e-10


class StateVector:
    """Normalized complex amplitude vector over a little-endian register."""

    def __init__(self, n_qubits: int, data: np.ndarray):
        if n_qubits < 1 or n_qubits > MAX_QUBITS:
            raise ValueError(
                f"register size {n_qubits} outside supported range "
                f"1..{MAX_QUBITS}")
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        arr = np.asarray(data, dtype=complex)
        if arr.shape != (dim,):
            raise ValueError(f"amplitude array must have shape ({dim},)")
        self.data = arr.copy()

    def expectation(self, observable: PauliSum) -> float:
        """Exact <psi|O|psi> of a Pauli sum, summed term by term; raises if a
        nominally real value comes out complex."""
        if observable.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        idx = np.arange(self.data.size, dtype=np.int64)
        total = 0.0 + 0.0j
        conj = np.conj(self.data)
        for (x, z), coeff in observable.items():
            n_y = (x & z).bit_count()
            signs = 1.0 - 2.0 * bit_parity(idx & z)
            overlap = np.dot(conj[idx ^ x], signs * self.data)
            total += coeff * I_POWERS[n_y % 4] * overlap
        if abs(total.imag) > IMAG_TOL * max(1.0, abs(total.real)):
            raise ValueError(
                f"expectation has imaginary part {total.imag:.3e}; "
                "observable is not Hermitian on this state")
        return float(total.real)


def sampled_expectation(amplitudes: np.ndarray, basis: np.ndarray,
                        observable: PauliSum, shots: int,
                        rng: "np.random.Generator") -> Tuple[float, float]:
    """Estimate <O> by simulated projective measurement, `shots` per term.

    The state is the normalized `amplitudes` over the `basis` states
    (`oracle.basis_states`), zero elsewhere. Measuring a non-identity term
    P gives +1 with probability (1 + <P>) / 2, so one `rng.binomial` draw
    gives each term's +1 count k of s = `shots`, in `items()` order.
    <P> = Re(i^{n_y} sum_b conj(psi[b ^ x]) (-1)^{|z & b|} psi[b]) sums
    over the basis states b with b ^ x in the basis, grouped by X-mask.
    The term's mean is m = (2k - s) / s and the sample variance of its
    outcomes s (1 - m^2) / (s - 1); identity terms enter exactly. Returns
    the estimate and its standard error, the square root of the summed
    per-term variances of the mean.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if not observable.is_hermitian():
        raise ValueError("sampling needs a Hermitian observable")
    states = basis_states(basis, observable.n_qubits)
    psi = np.asarray(amplitudes)
    if psi.shape != states.shape:
        raise ValueError("need one amplitude per basis state")
    measured = (observable.x | observable.z) != 0
    coeffs = observable.coeffs.real[measured]
    x, z = observable.x[measured], observable.z[measured]
    expected = np.empty(coeffs.size)
    for mask in dict.fromkeys(x.tolist()):
        targets = states ^ mask
        at = np.minimum(np.searchsorted(states, targets), states.size - 1)
        inside = states[at] == targets
        kets = states[inside]
        products = np.conj(psi[at[inside]]) * psi[inside]
        for k in np.flatnonzero(x == mask).tolist():
            signs = 1.0 - 2.0 * bit_parity(kets & z[k])
            expected[k] = (I_POWERS[(mask & int(z[k])).bit_count() % 4]
                           * np.dot(signs, products)).real
    p_plus = np.clip(0.5 * (1.0 + expected), 0.0, 1.0)
    means = (2 * rng.binomial(shots, p_plus) - shots) / shots
    # at one shot m = +-1, so the variance is 0
    variances = shots * (1.0 - means ** 2) / max(shots - 1, 1)
    constant = np.sum(observable.coeffs.real[~measured], initial=0.0)
    return (float(constant + np.sum(coeffs * means)),
            float(np.sqrt(np.sum(coeffs * coeffs * variances) / shots)))


# ---- circuits ------------------------------------------------------------------

# one parameter's rotations: source indices, target indices, sign per pair
Rotations = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _turn(vec: np.ndarray, source: np.ndarray, target: np.ndarray,
          cos: float, sin: np.ndarray) -> None:
    """Rotate each pair (vec[s], vec[t]) in place by the angle whose cosine
    is `cos` and whose sine, per pair, is `sin`."""
    a, b = vec[source], vec[target]
    vec[source] = cos * a - sin * b
    vec[target] = cos * b + sin * a


class Circuit:
    """Real two-state rotations of a sector's amplitudes, compiled once.

    Amplitude k stands for basis state k of a sector of `dim` states; a
    run starts from basis state `reference`. `instructions[p]` holds the
    rotations of parameter p, a (source, target, sign) triple of equal-
    length arrays in which no index appears twice: it turns every pair
    (s, t) = (source[j], target[j]) by theta[p],
    psi[s] -> cos psi[s] - sign sin psi[t] and
    psi[t] -> cos psi[t] + sign sin psi[s],
    which is exp(theta[p] G) for the real antisymmetric G that takes s to
    sign * t, and leaves every other amplitude alone. The parameters act
    in order.
    """

    def __init__(self, dim: int, reference: int,
                 instructions: Sequence[Rotations]):
        if not 0 <= reference < dim:
            raise ValueError(f"reference {reference} outside 0..{dim - 1}")
        self.dim = dim
        self.reference = reference
        self.instructions = tuple(instructions)

    @property
    def n_parameters(self) -> int:
        return len(self.instructions)

    def _angles(self, parameters: Sequence[float]) -> np.ndarray:
        theta = np.asarray(parameters, dtype=float)
        if theta.shape != (self.n_parameters,):
            raise ValueError(
                f"expected {self.n_parameters} parameters, got {theta.shape}")
        return theta

    def run(self, parameters: Sequence[float]) -> np.ndarray:
        """The sector amplitudes the rotations at `parameters` make of the
        reference state."""
        theta = self._angles(parameters)
        psi = np.zeros(self.dim)
        psi[self.reference] = 1.0
        for (source, target, sign), angle in zip(self.instructions, theta):
            _turn(psi, source, target, np.cos(angle), sign * np.sin(angle))
        return psi

    def adjoint_gradient(self, parameters: Sequence[float], psi: np.ndarray,
                         lam: np.ndarray) -> np.ndarray:
        """Gradient of <psi|H|psi> over the parameters by one reverse sweep.

        `psi` is what `run(parameters)` returned and `lam` is H psi, both
        real. Walking the parameters backwards, parameter p's derivative is
        2 <lam|G_p psi> = 2 sum_j sign_j (lam[t_j] psi[s_j] -
        lam[s_j] psi[t_j]); then its rotation is undone on both vectors, so
        that lam stays H psi pulled back through the suffix already walked
        (adjoint differentiation, Jones & Gacon, arXiv:2009.02823).
        """
        theta = self._angles(parameters)
        if psi.shape != (self.dim,) or lam.shape != (self.dim,):
            raise ValueError(f"psi and lam must have shape ({self.dim},)")
        psi, lam = psi.copy(), lam.copy()
        gradient = np.zeros(self.n_parameters)
        for p in reversed(range(self.n_parameters)):
            source, target, sign = self.instructions[p]
            gradient[p] = 2.0 * (lam[target] @ (sign * psi[source])
                                 - lam[source] @ (sign * psi[target]))
            cos, sin = np.cos(theta[p]), -sign * np.sin(theta[p])
            _turn(psi, source, target, cos, sin)
            _turn(lam, source, target, cos, sin)
        return gradient
