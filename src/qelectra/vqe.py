"""Unitary coupled-cluster ansatz and variational ground-state search.

The ansatz enumerates spin-preserving single and double excitations out of
the aufbau determinant, one real parameter per excitation. Each
excitation T conserves the particle number and S_z, and on a determinant
it either vanishes or gives one other determinant with a sign. So
exp(theta (T - T^)) is a real rotation by theta of each determinant pair
(D, T D) and the identity elsewhere (Yordanov, Arvidsson-Shukur & Barnes,
arXiv:2005.14475), and the ansatz state never leaves the (N, S_z) sector
of its aufbau reference. `ansatz_circuit` compiles those pairs once per
`run_vqe`, in the rows of `system.sector`, into a `simulator.Circuit`:
real amplitudes over the sector's determinants, no qubit register.

The shot setting picks the optimizer, and this module owns every setting
of both: a caller names at most the seed and the shot count. `run_vqe`
hands one objective, `energy(theta, gradient=False)`, and one trajectory
recorder to `_bfgs` for exact expectations or to `_spsa` for
shot-sampled ones; each evaluates its start, keeps its own budget,
tolerance (module constants, BFGS_* or SPSA_*) and stop rule, and returns
only whether it converged. Iteration counts are read off the trajectory,
one entry per accepted iterate after the start.
`_bfgs`, with an Armijo line search, takes exact gradients: one circuit
run forward and one adjoint sweep back (`Circuit.adjoint_gradient`) give
the energy and all its parameter derivatives. It stops on its gradient
bound, at a step that moves the energy only at rounding level, at a line
search with no descent, or at its budget. `_spsa`
(simultaneous-perturbation stochastic approximation) needs only
energies; its gains and budget follow the parameter count, and it
stops after SPSA_PATIENCE consecutive sub-tolerance energy changes or at
its budget.

An exact energy evaluation is one `Circuit.run` giving the sector
amplitudes psi and psi^T H psi with H `system.block`, the block the FCI
eigensolver diagonalizes; a gradient adds one adjoint sweep with H psi.
A shot-sampled evaluation measures the qubit Hamiltonian term by term on
the same amplitudes (`simulator.sampled_expectation` over
`system.encoded_sector`), so no run holds an array over the 2^n
register. The mapping shapes only what the system builds, never the
ansatz; this module never reads it.
"""

import numpy as np
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

from . import oracle
from .pauli import bit_parity
from .pipeline import AssembledSystem
from .simulator import Circuit, sampled_expectation

# (excitation, determinant) entries per pass of `ansatz_circuit`, which
# bound the pass's temporaries
_COMPILE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Excitation:
    """One excitation out of the reference determinant.

    Singles carry one occupied and one virtual spin orbital; doubles carry
    two of each, stored ascending.
    """
    occupied: Tuple[int, ...]
    virtual: Tuple[int, ...]


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
    singles = [Excitation((i,), (a,)) for i in occupied for a in virtual
               if i % 2 == a % 2]
    doubles = [Excitation((i, j), (a, b))
               for i, j in combinations(occupied, 2)
               for a, b in combinations(virtual, 2)
               if i % 2 + j % 2 == a % 2 + b % 2]
    excitations = singles + doubles
    if not excitations:
        raise ValueError("degenerate ansatz: no spin-preserving excitations")
    return UccsdAnsatz(n_spin_orbitals=n_spin_orbitals,
                       n_electrons=n_electrons,
                       excitations=excitations)


def ansatz_circuit(ansatz: UccsdAnsatz, system: AssembledSystem) -> Circuit:
    """The ansatz as a program over the amplitudes of `system.sector`.

    The ansatz must have the system's register and electron count. The
    sector holds each determinant's occupied modes, and the run starts
    from the aufbau determinant, the modes below n_electrons occupied: the
    first alpha and the first beta string, row 0.
    Excitation k, T = a_a^ a_b^ a_j a_i (a single: a_a^ a_i), becomes the
    rotations of parameter k: its sources are the determinants D with i
    (and j) occupied and a (and b) empty, its targets T D up to the sign
    T picks up there, the Jordan-Wigner sign (-1)^(occupied modes below
    the mode) of each ladder operator in turn, whatever the mapping.
    Excitations are compiled in passes over several at once, one array
    step per ladder operator, and each pass is split per excitation.
    """
    occupations, find = oracle.basis_lookup(system.sector,
                                            ansatz.n_spin_orbitals)
    if occupations[0] != (1 << ansatz.n_electrons) - 1:
        raise ValueError("the ansatz's reference leaves the system's sector")

    # T acts right to left: a_i, a_j, then a_b^, a_a^; each row of `flips`
    # holds an excitation's steps, padded with steps that flip no mode,
    # and `below` the modes below each step's
    steps = [exc.occupied + exc.virtual[::-1] for exc in ansatz.excitations]
    width = max(map(len, steps), default=0)
    flips = np.array([[1 << m for m in modes] + [0] * (width - len(modes))
                      for modes in steps],
                     dtype=np.int64).reshape(len(steps), width)
    below = np.maximum(flips - 1, 0)
    holes = np.array([sum(1 << i for i in exc.occupied)
                      for exc in ansatz.excitations], dtype=np.int64)
    moved = np.bitwise_or.reduce(flips, axis=1)
    # excitations per pass: (excitation, determinant) entries at most
    # _COMPILE_ENTRIES, and fewer than the register's states, so that no
    # pass makes an array of the register's size
    span = max(1, (min(_COMPILE_ENTRIES, 1 << ansatz.n_spin_orbitals) - 1)
               // occupations.size)
    instructions = []
    for lo in range(0, len(steps), span):
        hi = min(lo + span, len(steps))
        # excitation by excitation, the determinants each one acts on
        owner, source = np.divmod(np.flatnonzero(
            (occupations & moved[lo:hi, None]) == holes[lo:hi, None]),
            occupations.size)
        occ = occupations[source]
        parity = np.zeros(source.size, dtype=np.int8)
        for flip, lower in zip(flips[lo:hi].T, below[lo:hi].T):
            parity ^= bit_parity(occ & lower[owner])
            occ ^= flip[owner]
        target, inside = find(occ)
        if not inside.all():
            raise ValueError("the ansatz leaves the system's sector")
        rotations = (source, target, 1.0 - 2.0 * parity)
        bounds = np.searchsorted(owner, np.arange(hi - lo + 1)).tolist()
        instructions += [tuple(a[b:e] for a in rotations)
                         for b, e in zip(bounds, bounds[1:])]
    return Circuit(occupations.size, instructions)


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
# iteration budget of a BFGS run
BFGS_ITERATIONS = 200
# BFGS converges once every energy derivative is at most this
BFGS_TOLERANCE = 1e-6
# SPSA gain exponents, fixed by Spall (IEEE Trans. Aerosp. Electron. Syst.
# 34, 817 (1998)): a_k = a / (k + 1 + A)**alpha, c_k = c / (k + 1)**gamma
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
# base iteration budget of an SPSA run, which `_spsa` scales with the
# ansatz size beyond SPSA_BUDGET_PARAMETERS parameters
SPSA_ITERATIONS = 300
SPSA_BUDGET_PARAMETERS = 48
# an SPSA run converges after SPSA_PATIENCE consecutive iterates that each
# change the energy by at most SPSA_TOLERANCE
SPSA_TOLERANCE = 1e-5
SPSA_PATIENCE = 5


@dataclass
class VqeResult:
    # the lowest energy recorded for exact expectations; for sampled ones a
    # fresh estimate at theta_star, which the noisy minimum would bias low
    energy: float
    theta_star: np.ndarray
    energy_history: List[float]
    theta_history: List[np.ndarray]
    evaluation_history: List[int]
    n_evaluations: int
    converged: bool

    @property
    def n_iterations(self) -> int:
        """Accepted iterates after the start."""
        return len(self.energy_history) - 1


def run_vqe(system: AssembledSystem, ansatz: UccsdAnsatz, seed: int = 0,
            shots: Optional[int] = None) -> VqeResult:
    """Minimize the energy of the ansatz state over its parameters.

    The ansatz must have the system's register and electron count; its
    state is held as amplitudes over `system.sector` (`ansatz_circuit`).
    `shots = None` evaluates exact expectations on `system.block`, the
    qubit Hamiltonian on that sector, and runs `_bfgs`: a Hamiltonian
    that leaves the sector, or whose block is not real symmetric, raises
    the ValueError of `oracle.pauli_to_sparse` before the first
    evaluation. An integer turns on simulated projective measurement of
    `system.qubit_hamiltonian` on the same sector amplitudes
    (`simulator.sampled_expectation`), with that many shots per term, and
    runs `_spsa`; `seed` seeds the one generator that draws both its
    perturbations and the shots, and the reported energy is one more
    estimate at theta_star. No run, exact or sampled, holds an array over
    the 2^n register. `_bfgs` has a fixed budget and tolerance; `_spsa`
    derives its budget and gains from the ansatz size. The run starts from
    the aufbau determinant, all parameters zero. Identical (system,
    ansatz, seed, shots) reproduce the identical result.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n, n_e = system.n_qubits, system.spin_orbitals.n_electrons
    if (ansatz.n_spin_orbitals, ansatz.n_electrons) != (n, n_e):
        raise ValueError(
            f"the system has {n_e} electrons on {n} qubits but the ansatz "
            f"has {ansatz.n_electrons} on {ansatz.n_spin_orbitals}")
    circuit = ansatz_circuit(ansatz, system)
    rng = None if shots is None else np.random.default_rng(seed)
    # built, or refused, before the first evaluation
    block = system.block if shots is None else None
    n_evaluations = 0

    def energy(theta: np.ndarray, gradient: bool = False):
        # with `gradient` (exact runs only): (energy, its gradient)
        nonlocal n_evaluations
        n_evaluations += 1
        psi = circuit.run(theta)
        if shots is None:
            h_psi = block @ psi
            e = float(psi @ h_psi)
            return ((e, circuit.adjoint_gradient(theta, psi, h_psi))
                    if gradient else e)
        return sampled_expectation(psi, system.encoded_sector,
                                   system.qubit_hamiltonian, shots, rng)[0]

    energy_history: List[float] = []
    theta_history: List[np.ndarray] = []
    evaluation_history: List[int] = []

    def record(e: float, theta: np.ndarray) -> None:
        energy_history.append(float(e))
        theta_history.append(theta.copy())
        evaluation_history.append(n_evaluations)

    theta = np.zeros(ansatz.n_parameters)
    if ansatz.n_parameters == 0:
        record(energy(theta), theta)
        converged = True
    elif shots is None:
        converged = _bfgs(energy, theta, record)
    else:
        converged = _spsa(energy, theta, record, rng)
    best = int(np.argmin(energy_history))
    theta_star = theta_history[best]
    e_star = energy_history[best] if shots is None else energy(theta_star)
    return VqeResult(energy=float(e_star), theta_star=theta_star,
                     energy_history=energy_history,
                     theta_history=theta_history,
                     evaluation_history=evaluation_history,
                     n_evaluations=n_evaluations, converged=converged)


def _bfgs(energy, theta: np.ndarray, record) -> bool:
    """BFGS from theta with exact gradients; returns whether it converged.

    `energy(theta, gradient=True)` gives the energy and its gradient, and
    `record(energy, theta)` takes the start and each accepted iterate. The
    inverse Hessian starts as the identity and is scaled by s.y / y.y
    before its first update; a step with s.y <= 0 leaves it unchanged, so
    it stays positive definite. Each iteration backtracks by halves from
    the full quasi-Newton step until the Armijo condition holds. Converged
    means max |gradient| <= BFGS_TOLERANCE. A line search whose step falls
    below MIN_STEP ends the run unconverged; an accepted step with
    |dE| <= ROUNDING_LEVEL * |E| ends it there, converged only if that
    iterate meets the gradient bound; so does the end of the budget,
    BFGS_ITERATIONS iterations.
    """
    e, gradient = energy(theta, gradient=True)
    record(e, theta)
    inverse = np.eye(theta.size)
    for k in range(BFGS_ITERATIONS):
        if np.max(np.abs(gradient)) <= BFGS_TOLERANCE:
            return True
        direction = -(inverse @ gradient)
        slope = float(gradient @ direction)
        step = 1.0
        while True:
            trial = theta + step * direction
            e_trial, g_trial = energy(trial, gradient=True)
            if e_trial <= e + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
            if step < MIN_STEP:
                return False
        s, y = trial - theta, g_trial - gradient
        sy = float(s @ y)
        if sy > 0.0:
            if k == 0:
                inverse *= sy / float(y @ y)
            rho = 1.0 / sy
            hy = inverse @ y
            inverse += ((rho * rho * float(y @ hy) + rho) * np.outer(s, s)
                        - rho * (np.outer(hy, s) + np.outer(s, hy)))
        stalled = abs(e_trial - e) <= ROUNDING_LEVEL * abs(e_trial)
        theta, e, gradient = trial, e_trial, g_trial
        record(e, theta)
        if stalled:
            break
    return bool(np.max(np.abs(gradient)) <= BFGS_TOLERANCE)


def _spsa(energy, theta: np.ndarray, record, rng: "np.random.Generator"
          ) -> bool:
    """SPSA from theta; returns whether it converged: SPSA_PATIENCE
    consecutive iterates that each move the energy by at most
    SPSA_TOLERANCE. `record(energy, theta)` takes the start and every
    iterate.

    The gains are a_k = a / (k + 1 + A)**SPSA_ALPHA and c_k = c / (k +
    1)**SPSA_GAMMA for an ansatz of m = theta.size parameters. The
    perturbation size shrinks with m: at a flat c = 0.1 a ~100-parameter
    ansatz probes the landscape about a radian away from the reference
    state, where the two-point estimate carries no usable gradient signal
    and the optimizer stalls. c = min(0.1, 0.25 / sqrt(m)) keeps the probe
    radius roughly constant, and a = 2c.

    The budget grows with m, because the variance of the two-point
    gradient estimate does: SPSA_ITERATIONS up to SPSA_BUDGET_PARAMETERS
    parameters, SPSA_ITERATIONS * m / SPSA_BUDGET_PARAMETERS (rounded up)
    beyond. The gains do not grow with it: the stability constant A stays
    at 10% of SPSA_ITERATIONS, so a larger budget only lets the same
    trajectory run longer.
    """
    m = max(1, theta.size)
    iterations = max(SPSA_ITERATIONS,
                     -(-SPSA_ITERATIONS * m // SPSA_BUDGET_PARAMETERS))
    c = min(0.1, 0.25 / np.sqrt(m))
    a, big_a = 2.0 * c, 0.1 * SPSA_ITERATIONS
    e = energy(theta)
    record(e, theta)
    streak = 0
    for k in range(iterations):
        a_k = a / (k + 1 + big_a) ** SPSA_ALPHA
        c_k = c / (k + 1) ** SPSA_GAMMA
        theta = theta - a_k * spsa_gradient_estimate(energy, theta, c_k, rng)
        e_new = energy(theta)
        record(e_new, theta)
        streak = streak + 1 if abs(e_new - e) <= SPSA_TOLERANCE else 0
        if streak >= SPSA_PATIENCE:
            return True
        e = e_new
    return False


def spsa_gradient_estimate(evaluate, theta: np.ndarray, c_k: float,
                           rng: "np.random.Generator") -> np.ndarray:
    """One simultaneous-perturbation gradient estimate: a Rademacher
    direction from `rng`, then two evaluations c_k either side."""
    delta = rng.integers(0, 2, size=theta.size) * 2 - 1
    e_plus = evaluate(theta + c_k * delta)
    e_minus = evaluate(theta - c_k * delta)
    return (e_plus - e_minus) / (2.0 * c_k) * delta
