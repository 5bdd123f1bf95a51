"""Unitary coupled-cluster ansatz and variational ground-state search.

The ansatz enumerates spin-preserving single and double excitations out of
the aufbau determinant, one real parameter per excitation. Each generator
theta * (T - T^) is anti-Hermitian, so its qubit image has purely
imaginary coefficients and exponentiates to a product of Pauli rotations.
For these generators the mapped strings commute pairwise (asserted at
build time), which makes the per-generator product exact.

Two optimizers are provided: simultaneous-perturbation stochastic
approximation with the standard gain schedules, and plain gradient descent
on central-difference gradients. Both record the full energy trajectory
and stop after `patience` consecutive sub-tolerance energy changes.

An exact energy evaluation is one `Circuit.run` plus one
`StateVector.expectation`. The work that does not depend on the parameters
is done once per `run_vqe`: the circuit caches its gather and sign vectors
on the first run, and up to `oracle.MAX_SPARSE_QUBITS` qubits the
Hamiltonian is compiled to the sparse matrix the eigensolver uses, so
<H> is one mat-vec. Larger registers sum the Pauli terms one by one.
"""

import csv
import numpy as np
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Tuple, Union

from . import oracle
from .fermion import FermionOperator
from .pauli import MappingKind, PauliString, PauliSum, encode_occupation, map_fermion
from .simulator import Circuit

GENERATOR_PRUNE = 1e-12


@dataclass(frozen=True)
class Excitation:
    """One excitation out of the reference determinant.

    Singles carry one occupied and one virtual spin orbital; doubles carry
    two of each, stored ascending.
    """
    occupied: Tuple[int, ...]
    virtual: Tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.occupied)


@dataclass
class UccsdAnsatz:
    n_spin_orbitals: int
    n_electrons: int
    excitations: List[Excitation]
    parameters: np.ndarray

    @property
    def n_parameters(self) -> int:
        return len(self.excitations)


def build_uccsd(n_spin_orbitals: int, n_electrons: int) -> UccsdAnsatz:
    """All spin-preserving singles and doubles from the aufbau reference.

    Spin orbitals are interleaved (even = alpha, odd = beta); occupied
    means index < n_electrons. Singles keep the spin label, doubles keep
    the summed spin. Order is deterministic: singles lexicographic, then
    doubles lexicographic.
    """
    if n_electrons <= 0 or n_electrons >= n_spin_orbitals:
        raise ValueError(
            f"need 0 < n_electrons < n_spin_orbitals, got "
            f"{n_electrons}/{n_spin_orbitals}; no virtual space leaves a "
            "degenerate ansatz")
    occupied = range(n_electrons)
    virtual = range(n_electrons, n_spin_orbitals)
    excitations: List[Excitation] = []
    for i in occupied:
        for a in virtual:
            if i % 2 == a % 2:
                excitations.append(Excitation((i,), (a,)))
    for i in occupied:
        for j in occupied:
            if j <= i:
                continue
            for a in virtual:
                for b in virtual:
                    if b <= a:
                        continue
                    if (i % 2 + j % 2) == (a % 2 + b % 2):
                        excitations.append(Excitation((i, j), (a, b)))
    if not excitations:
        raise ValueError("degenerate ansatz: no spin-preserving excitations")
    return UccsdAnsatz(n_spin_orbitals=n_spin_orbitals,
                       n_electrons=n_electrons,
                       excitations=excitations,
                       parameters=np.zeros(len(excitations)))


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


def _generator_rotations(excitation: Excitation, kind: MappingKind,
                         n_modes: int) -> List[Tuple[PauliString, float]]:
    """Mapped generator as (Hermitian string, rotation scale) pairs.

    The qubit image of theta*(T - T^) is i * theta * sum_k s_k sigma_k
    with real s_k; exp of that equals a product of
    exp(-i * (-2 s_k theta) / 2 * sigma_k) because the strings of one
    generator commute pairwise. Both facts are checked here rather than
    assumed.
    """
    mapped = map_fermion(excitation_generator(excitation), kind, n_modes,
                         threshold=GENERATOR_PRUNE)
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


def ansatz_circuit(ansatz: UccsdAnsatz,
                   kind: MappingKind = MappingKind.JORDAN_WIGNER) -> Circuit:
    """Parametrized state-preparation circuit for the ansatz.

    X gates encode the aufbau determinant for the chosen mapping, then
    every excitation contributes its Pauli rotations, parameter index k
    for excitation k. The returned circuit is evaluated as
    circuit.run(theta).
    """
    n = ansatz.n_spin_orbitals
    circuit = Circuit(n)
    for qubit in encode_occupation(kind, range(ansatz.n_electrons), n):
        circuit.add_x(qubit)
    for p, exc in enumerate(ansatz.excitations):
        for string, scale in _generator_rotations(exc, kind, n):
            circuit.add_exponential(string, p, scale)
    circuit.n_parameters = max(circuit.n_parameters, ansatz.n_parameters)
    return circuit


# ---- optimization ----------------------------------------------------------

@dataclass
class OptimizerConfig:
    """Settings for the variational minimizer.

    kind "spsa": gains a_k = a / (k + 1 + A)**alpha and
    c_k = c / (k + 1)**gamma with Rademacher directions from the seeded
    generator; A defaults to 0.1 * max_iterations.
    kind "gd": fixed-step descent on central-difference gradients.
    Convergence needs `patience` consecutive energy changes below
    `tolerance` (default 1e-8 for gd, 1e-5 for spsa).
    """
    kind: str = "spsa"
    max_iterations: int = 200
    a: float = 0.2
    c: float = 0.1
    alpha: float = 0.602
    gamma: float = 0.101
    big_a: Optional[float] = None
    learning_rate: float = 0.1
    fd_step: float = 1e-5
    tolerance: Optional[float] = None
    patience: int = 5
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("spsa", "gd"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        for name in ("a", "c", "alpha", "gamma", "learning_rate", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.patience < 1:
            raise ValueError("patience must be positive")

    @property
    def effective_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-8 if self.kind == "gd" else 1e-5

    @property
    def effective_big_a(self) -> float:
        return 0.1 * self.max_iterations if self.big_a is None else self.big_a


@dataclass
class VqeResult:
    e_min: float
    theta_star: np.ndarray
    energy_history: List[float]
    theta_history: List[np.ndarray]
    evaluation_history: List[int]
    n_evaluations: int
    converged: bool
    n_iterations: int
    excited: Optional[List[float]] = None


def run_vqe(hamiltonian: PauliSum, ansatz: UccsdAnsatz,
            config: OptimizerConfig,
            kind: MappingKind = MappingKind.JORDAN_WIGNER,
            shots: Optional[int] = None,
            initial_parameters: Optional[Sequence[float]] = None
            ) -> VqeResult:
    """Minimize the energy of the ansatz state over its parameters.

    `shots = None` evaluates exact expectations; an integer turns on
    simulated projective measurement with that many shots per term, drawn
    from the same seeded generator as the optimizer. Identical
    (hamiltonian, ansatz, config, shots) reproduce the identical result.
    """
    if hamiltonian.n_qubits != ansatz.n_spin_orbitals:
        raise ValueError(
            f"hamiltonian acts on {hamiltonian.n_qubits} qubits but the "
            f"ansatz register has {ansatz.n_spin_orbitals}")
    circuit = ansatz_circuit(ansatz, kind=kind)
    rng = np.random.default_rng(config.seed)
    counter = {"n": 0}
    observable = hamiltonian
    if shots is None and hamiltonian.n_qubits <= oracle.MAX_SPARSE_QUBITS:
        observable = oracle.pauli_to_sparse(hamiltonian)

    def evaluate(theta: np.ndarray) -> float:
        counter["n"] += 1
        state = circuit.run(theta)
        if shots is None:
            return state.expectation(observable)
        mean, _ = state.sampled_expectation(hamiltonian, shots, rng=rng)
        return mean

    if initial_parameters is None:
        theta = ansatz.parameters.astype(float).copy()
    else:
        theta = np.asarray(initial_parameters, dtype=float).copy()
        if theta.shape != (ansatz.n_parameters,):
            raise ValueError("initial parameter vector has the wrong length")

    energy_history: List[float] = []
    theta_history: List[np.ndarray] = []
    eval_history: List[int] = []

    def record(e: float, th: np.ndarray) -> None:
        energy_history.append(float(e))
        theta_history.append(th.copy())
        eval_history.append(counter["n"])

    e_current = evaluate(theta)
    record(e_current, theta)

    m = ansatz.n_parameters
    if m == 0:
        return VqeResult(e_min=e_current, theta_star=theta,
                         energy_history=energy_history,
                         theta_history=theta_history,
                         evaluation_history=eval_history,
                         n_evaluations=counter["n"], converged=True,
                         n_iterations=0)

    tol = config.effective_tolerance
    big_a = config.effective_big_a
    streak = 0
    converged = False
    iterations_done = 0
    for k in range(config.max_iterations):
        if config.kind == "spsa":
            a_k = config.a / (k + 1 + big_a) ** config.alpha
            c_k = config.c / (k + 1) ** config.gamma
            gradient = spsa_gradient_estimate(evaluate, theta, c_k, rng)
            theta = theta - a_k * gradient
        else:
            gradient = np.empty(m)
            h = config.fd_step
            for i in range(m):
                step = np.zeros(m)
                step[i] = h
                gradient[i] = (evaluate(theta + step)
                               - evaluate(theta - step)) / (2.0 * h)
            theta = theta - config.learning_rate * gradient
        e_new = evaluate(theta)
        record(e_new, theta)
        iterations_done = k + 1
        if abs(e_new - e_current) <= tol:
            streak += 1
            if streak >= config.patience:
                converged = True
                e_current = e_new
                break
        else:
            streak = 0
        e_current = e_new

    best = int(np.argmin(energy_history))
    return VqeResult(e_min=float(energy_history[best]),
                     theta_star=theta_history[best],
                     energy_history=energy_history,
                     theta_history=theta_history,
                     evaluation_history=eval_history,
                     n_evaluations=counter["n"],
                     converged=converged,
                     n_iterations=iterations_done)


def spsa_gradient_estimate(evaluate, theta: np.ndarray, c_k: float,
                           rng: np.random.Generator) -> np.ndarray:
    """One simultaneous-perturbation gradient estimate: a Rademacher
    direction from `rng`, then two evaluations c_k either side."""
    m = theta.size
    delta = rng.integers(0, 2, size=m) * 2 - 1
    e_plus = evaluate(theta + c_k * delta)
    e_minus = evaluate(theta - c_k * delta)
    return (e_plus - e_minus) / (2.0 * c_k) * delta


def excited_estimate(e0: float, k: int, lam: float = 0.1) -> float:
    """Linear-offset guess E_k = E0 + k * lambda for excited levels.

    This is a bookkeeping heuristic, not a computed spectrum; it is
    reported with that label wherever it surfaces.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return e0 + k * lam


def export_history(result: VqeResult, destination: Union[str, IO]) -> None:
    """Write the optimization trace as CSV (iteration,energy,evaluations)."""
    own = isinstance(destination, str)
    handle = open(destination, "w", newline="") if own else destination
    try:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "energy", "evaluations"])
        for i, (e, n) in enumerate(zip(result.energy_history,
                                       result.evaluation_history)):
            writer.writerow([i, repr(e), n])
    finally:
        if own:
            handle.close()
