"""Unitary coupled-cluster ansatz and variational ground-state search.

The ansatz enumerates spin-preserving single and double excitations out of
the aufbau determinant, one real parameter per excitation. Each generator
theta * (T - T^) is anti-Hermitian, so its qubit image has purely
imaginary coefficients and exponentiates to a product of Pauli rotations.
For these generators the mapped strings commute pairwise (asserted at
build time), which makes the per-generator product exact.

Two optimizers are provided, and this module owns every setting of both:
`OptimizerConfig` names the kind, budget, tolerance and seed, and
`run_vqe` derives whatever is left open from the shot setting and the
ansatz size. BFGS with an Armijo line search, the default for exact
expectations, takes exact gradients: one circuit run forward and one
adjoint sweep back (`Circuit.adjoint_gradient`) give the energy and all
its parameter derivatives. It stops when the largest derivative is below
its tolerance, or once an accepted step changes the energy only at the
level of rounding. Simultaneous-perturbation stochastic approximation
needs only energies and is the one optimizer for shot-sampled runs; its
gains and budget follow the parameter count (`spsa_schedule`), and it
stops after SPSA_PATIENCE consecutive sub-tolerance energy changes. Both
record the energy trajectory, one entry per accepted iterate.

Every generator conserves the particle number and S_z, so the ansatz
state stays in the (N, S_z) sector of its aufbau reference. `run_vqe`
takes the assembled system, which holds the qubit Hamiltonian, its
mapping, that sector and the Hamiltonian's block on it (the block the FCI
eigensolver diagonalizes). An exact energy evaluation is one
`Circuit.run`, a gather of the sector's amplitudes psi_S and
psi_S^ H_SS psi_S with H_SS that block; for a gradient, H psi is the
block mat-vec inside the sector and zero outside it. `ansatz_circuit`
compiles the circuit, which starts from the aufbau determinant encoded
under the system's mapping, once per `run_vqe`.
"""

import numpy as np
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .fermion import FermionOperator
from .pauli import MappingKind, PauliString, encode_occupation, map_fermion
from .pipeline import AssembledSystem
from .simulator import Circuit


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

    @property
    def n_parameters(self) -> int:
        return len(self.excitations)


def build_uccsd(n_spin_orbitals: int, n_electrons: int) -> UccsdAnsatz:
    """All spin-preserving singles and doubles from the aufbau reference.

    Spin orbitals are interleaved (even = alpha, odd = beta); occupied
    means index < n_electrons. Singles keep the spin label, doubles keep
    the summed spin. Order is deterministic: singles lexicographic, then
    doubles lexicographic. The register must be even: the last mode of an
    odd one has no partner of the other spin.
    """
    if n_spin_orbitals % 2 != 0:
        raise ValueError(
            f"spin layout needs an even number of spin orbitals, got "
            f"{n_spin_orbitals}")
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
                       excitations=excitations)


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


def ansatz_circuit(ansatz: UccsdAnsatz, kind: MappingKind) -> Circuit:
    """Parametrized state-preparation circuit for the ansatz.

    The circuit starts from the aufbau determinant encoded under `kind`,
    and every excitation contributes its Pauli rotations, parameter index
    k for excitation k. The returned circuit is evaluated as
    circuit.run(theta).
    """
    n = ansatz.n_spin_orbitals
    reference = sum(1 << q for q in encode_occupation(
        kind, range(ansatz.n_electrons), n))
    rotations = [(string, p, scale)
                 for p, exc in enumerate(ansatz.excitations)
                 for string, scale in _generator_rotations(exc, kind, n)]
    return Circuit(n, reference, rotations, ansatz.n_parameters)


# ---- optimization ----------------------------------------------------------

# sufficient-decrease constant of the BFGS backtracking line search
ARMIJO_C1 = 1e-4
# BFGS gives up on a line search once the step falls below this fraction
# of the quasi-Newton step: no decrease is left at machine precision
MIN_STEP = 1e-10
# BFGS ends a run once an accepted step moves the energy by at most this
# fraction of |E| (4 eps): the energy no longer resolves further descent,
# and later line searches would only fail on rounding
ROUNDING_LEVEL = 4.0 * float(np.finfo(float).eps)
# SPSA gain exponents, fixed by Spall (IEEE Trans. Aerosp. Electron. Syst.
# 34, 817 (1998)): a_k = a / (k + 1 + A)**alpha, c_k = c / (k + 1)**gamma
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
# an SPSA run converges after this many consecutive sub-tolerance changes
SPSA_PATIENCE = 5
# ansatz size up to which the base SPSA budget applies unscaled
SPSA_BUDGET_PARAMETERS = 48
# base iteration budget per optimizer kind when max_iterations is None
DEFAULT_ITERATIONS = {"spsa": 300, "bfgs": 200}
# convergence tolerance per optimizer kind: a gradient bound for bfgs, an
# energy change for spsa
DEFAULT_TOLERANCE = {"spsa": 1e-5, "bfgs": 1e-6}


@dataclass
class OptimizerConfig:
    """What a caller chooses for the variational minimizer ("bfgs" or
    "spsa"); `run_vqe` derives the rest. None takes the default: `kind` by
    the shot setting (`optimizer_kind`), `max_iterations` from
    DEFAULT_ITERATIONS (for spsa the base that `spsa_schedule` scales) and
    `tolerance` from DEFAULT_TOLERANCE.
    """
    kind: Optional[str] = None
    max_iterations: Optional[int] = None
    tolerance: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind is not None and self.kind not in DEFAULT_TOLERANCE:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def optimizer_kind(kind: Optional[str], shots: Optional[int]) -> str:
    """The optimizer a run uses: `kind`, or by default bfgs for exact
    expectations and spsa for shot-sampled ones."""
    if kind is not None:
        return kind
    return "bfgs" if shots is None else "spsa"


@dataclass(frozen=True)
class SpsaSchedule:
    """Iteration budget and gains of one SPSA run: a_k = a / (k + 1 +
    big_a)**SPSA_ALPHA and c_k = c / (k + 1)**SPSA_GAMMA."""
    iterations: int
    a: float
    c: float
    big_a: float


def spsa_schedule(n_parameters: int,
                  max_iterations: Optional[int] = None) -> SpsaSchedule:
    """SPSA settings for an ansatz of m = `n_parameters` parameters.

    Perturbation sizes shrink with m: at a flat c = 0.1 a ~100-parameter
    ansatz probes the landscape about a radian away from the reference
    state, where the two-point estimate carries no usable gradient signal
    and the optimizer stalls. c = min(0.1, 0.25 / sqrt(m)) keeps the probe
    radius roughly constant, and a = 2c.

    The iteration budget grows with m, because the variance of the
    two-point gradient estimate does: the base budget (`max_iterations`,
    or DEFAULT_ITERATIONS["spsa"]) up to SPSA_BUDGET_PARAMETERS parameters,
    base * m / SPSA_BUDGET_PARAMETERS (rounded up) beyond. The gains do not
    grow with it: the stability constant A stays at 10% of the base, so a
    larger budget only lets the same trajectory run longer.
    """
    base = max_iterations or DEFAULT_ITERATIONS["spsa"]
    m = max(1, n_parameters)
    c = min(0.1, 0.25 / np.sqrt(m))
    return SpsaSchedule(
        iterations=max(base, -(-base * m // SPSA_BUDGET_PARAMETERS)),
        a=2.0 * c, c=c, big_a=0.1 * base)


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


def run_vqe(system: AssembledSystem, ansatz: UccsdAnsatz,
            config: OptimizerConfig, shots: Optional[int] = None,
            initial_parameters: Optional[Sequence[float]] = None
            ) -> VqeResult:
    """Minimize the energy of the ansatz state over its parameters.

    The ansatz circuit is encoded under `system.mapping`, and the ansatz
    must have the system's register and electron count. `shots = None`
    evaluates exact expectations on `system.block`, the qubit Hamiltonian
    on the system's closed-shell sector: a Hamiltonian that leaves that
    sector raises the ValueError of `oracle.pauli_to_sparse`. An integer
    turns on simulated projective measurement of `system.qubit_hamiltonian`
    with that many shots per term, drawn from the same seeded generator as
    the optimizer; only spsa accepts it. The SPSA gains, and the kind,
    budget and tolerance that `config` leaves None, are derived here from
    the shot setting and the ansatz size (`optimizer_kind`,
    `spsa_schedule`). Identical (system, ansatz, config, shots) reproduce
    the identical result.
    """
    n, n_e = system.n_qubits, system.spin_orbitals.n_electrons
    if (ansatz.n_spin_orbitals, ansatz.n_electrons) != (n, n_e):
        raise ValueError(
            f"the system has {n_e} electrons on {n} qubits but the ansatz "
            f"has {ansatz.n_electrons} on {ansatz.n_spin_orbitals}")
    optimizer = optimizer_kind(config.kind, shots)
    if shots is not None and optimizer != "spsa":
        raise ValueError(
            f"the {optimizer} optimizer needs exact expectations; use "
            "spsa for shot-sampled energies")
    tol = config.tolerance or DEFAULT_TOLERANCE[optimizer]
    circuit = ansatz_circuit(ansatz, kind=system.mapping)
    rng = np.random.default_rng(config.seed)
    counter = {"n": 0}
    if shots is None:
        basis, block = system.sector, system.block

    def evaluate(theta: np.ndarray) -> float:
        counter["n"] += 1
        state = circuit.run(theta)
        if shots is None:
            psi = state.data[basis]
            return float(np.vdot(psi, block @ psi).real)
        mean, _ = state.sampled_expectation(system.qubit_hamiltonian, shots,
                                            rng=rng)
        return mean

    def evaluate_with_gradient(theta: np.ndarray
                               ) -> Tuple[float, np.ndarray]:
        """Exact energy and gradient: one run and one adjoint sweep, with
        H psi zero outside the sector and the block mat-vec inside it."""
        counter["n"] += 1
        data = circuit.run(theta).data
        psi = data[basis]
        h_psi = block @ psi
        lam = np.zeros_like(data)
        lam[basis] = h_psi
        return (float(np.vdot(psi, h_psi).real),
                circuit.adjoint_gradient(theta, data, lam))

    if initial_parameters is None:
        theta = np.zeros(ansatz.n_parameters)
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

    if optimizer == "spsa":
        e_current = evaluate(theta)
    else:
        e_current, gradient = evaluate_with_gradient(theta)
    record(e_current, theta)

    def result(converged: bool, iterations: int) -> VqeResult:
        best = int(np.argmin(energy_history))
        return VqeResult(e_min=float(energy_history[best]),
                         theta_star=theta_history[best],
                         energy_history=energy_history,
                         theta_history=theta_history,
                         evaluation_history=eval_history,
                         n_evaluations=counter["n"],
                         converged=converged,
                         n_iterations=iterations)

    if ansatz.n_parameters == 0:
        return result(True, 0)
    if optimizer == "bfgs":
        return result(*_bfgs(
            evaluate_with_gradient, theta, e_current, gradient, tol,
            config.max_iterations or DEFAULT_ITERATIONS["bfgs"], record))

    schedule = spsa_schedule(ansatz.n_parameters, config.max_iterations)
    streak = 0
    converged = False
    iterations_done = 0
    for k in range(schedule.iterations):
        a_k = schedule.a / (k + 1 + schedule.big_a) ** SPSA_ALPHA
        c_k = schedule.c / (k + 1) ** SPSA_GAMMA
        gradient = spsa_gradient_estimate(evaluate, theta, c_k, rng)
        theta = theta - a_k * gradient
        e_new = evaluate(theta)
        record(e_new, theta)
        iterations_done = k + 1
        if abs(e_new - e_current) <= tol:
            streak += 1
            if streak >= SPSA_PATIENCE:
                converged = True
                e_current = e_new
                break
        else:
            streak = 0
        e_current = e_new
    return result(converged, iterations_done)


def _bfgs(evaluate_with_gradient, theta: np.ndarray, energy: float,
          gradient: np.ndarray, tol: float, max_iterations: int,
          record) -> Tuple[bool, int]:
    """BFGS from (theta, energy, gradient); returns (converged, iterations).

    The inverse Hessian starts as the identity and is scaled by s.y / y.y
    before its first update; a step with s.y <= 0 leaves it unchanged, so
    it stays positive definite. Each iteration backtracks by halves from
    the full quasi-Newton step until the Armijo condition holds and records
    the accepted iterate. Converged means max |gradient| <= tolerance. An
    accepted step with |dE| <= ROUNDING_LEVEL * |E| ends the run there,
    converged only if that iterate meets the gradient bound.
    """
    inverse = np.eye(theta.size)
    for k in range(max_iterations):
        if np.max(np.abs(gradient)) <= tol:
            return True, k
        direction = -(inverse @ gradient)
        slope = float(gradient @ direction)
        step = 1.0
        while True:
            trial = theta + step * direction
            e_trial, g_trial = evaluate_with_gradient(trial)
            if e_trial <= energy + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
            if step < MIN_STEP:
                return False, k
        s, y = trial - theta, g_trial - gradient
        sy = float(s @ y)
        if sy > 0.0:
            if k == 0:
                inverse *= sy / float(y @ y)
            rho = 1.0 / sy
            hy = inverse @ y
            inverse += ((rho * rho * float(y @ hy) + rho) * np.outer(s, s)
                        - rho * (np.outer(hy, s) + np.outer(s, hy)))
        stalled = abs(e_trial - energy) <= ROUNDING_LEVEL * abs(e_trial)
        theta, energy, gradient = trial, e_trial, g_trial
        record(energy, theta)
        if stalled:
            return bool(np.max(np.abs(gradient)) <= tol), k + 1
    return bool(np.max(np.abs(gradient)) <= tol), max_iterations


def spsa_gradient_estimate(evaluate, theta: np.ndarray, c_k: float,
                           rng: np.random.Generator) -> np.ndarray:
    """One simultaneous-perturbation gradient estimate: a Rademacher
    direction from `rng`, then two evaluations c_k either side."""
    m = theta.size
    delta = rng.integers(0, 2, size=m) * 2 - 1
    e_plus = evaluate(theta + c_k * delta)
    e_minus = evaluate(theta - c_k * delta)
    return (e_plus - e_minus) / (2.0 * c_k) * delta

