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

Two optimizers are provided, and this module owns every setting of both:
a caller names at most the kind and the seed. `run_vqe` hands one
objective, `energy(theta, gradient=False)`, and one trajectory recorder
to `_bfgs` or `_spsa`; each evaluates its start, takes its budget from
DEFAULT_ITERATIONS, its tolerance from DEFAULT_TOLERANCE and its own stop
rule, and returns only whether it converged. Iteration counts are read
off the trajectory, one entry per accepted iterate after the start.
`_bfgs`, with an Armijo line search and the default for exact
expectations, takes exact gradients: one circuit run forward and one
adjoint sweep back (`Circuit.adjoint_gradient`) give the energy and all
its parameter derivatives. It stops on its gradient bound, at a step
that moves the energy only at rounding level, at a line search with no
descent, or at its budget. `_spsa` (simultaneous-perturbation stochastic
approximation) needs only energies and is the one optimizer for
shot-sampled runs; its gains and budget follow the parameter count
(`spsa_schedule`), and it stops after SPSA_PATIENCE consecutive
sub-tolerance energy changes or at its budget.

`run_vqe` takes the assembled system, which builds on first use the
qubit Hamiltonian in its mapping, the sector and the Hamiltonian's block
on it (the block the FCI eigensolver diagonalizes). An exact energy
evaluation is one `Circuit.run` giving the sector amplitudes psi and
psi^T H psi with H that block; a gradient adds one adjoint sweep with
H psi. A shot-sampled evaluation measures the qubit Hamiltonian term by
term on the same amplitudes (`simulator.sampled_expectation` over
`system.sector`), so no run holds an array over the 2^n register. The
mapping shapes only the Hamiltonian, the block and these measurements,
never the ansatz.
"""

import numpy as np
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .pauli import bit_parity, decode_states
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


def ansatz_circuit(ansatz: UccsdAnsatz, system: AssembledSystem) -> Circuit:
    """The ansatz as a program over the amplitudes of `system.sector`.

    The ansatz must have the system's register and electron count. The
    sector's encoded states are decoded to occupations, and the run starts
    from the aufbau determinant, the modes below n_electrons occupied.
    Excitation k, T = a_a^ a_b^ a_j a_i (a single: a_a^ a_i), becomes the
    rotations of parameter k: its sources are the determinants D with i
    (and j) occupied and a (and b) empty, its targets T D up to the sign
    T picks up there, the Jordan-Wigner sign (-1)^(occupied modes below
    the mode) of each ladder operator in turn. Every mapping encodes these
    same amplitudes, so the mapping enters only through the decoding.
    Excitations are compiled in passes over several at once, one array
    step per ladder operator, and each pass is split per excitation.
    """
    occupations = decode_states(system.mapping, ansatz.n_spin_orbitals,
                                system.sector)
    order = np.argsort(occupations)
    ranked = occupations[order]

    def locate(occ: np.ndarray) -> np.ndarray:
        pos = np.minimum(np.searchsorted(ranked, occ), ranked.size - 1)
        if np.any(ranked[pos] != occ):
            raise ValueError("the ansatz leaves the system's sector")
        return order[pos]

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
        rotations = (source, locate(occ), 1.0 - 2.0 * parity)
        bounds = np.searchsorted(owner, np.arange(hi - lo + 1)).tolist()
        instructions += [tuple(a[b:e] for a in rotations)
                         for b, e in zip(bounds, bounds[1:])]
    aufbau = np.array([(1 << ansatz.n_electrons) - 1])
    return Circuit(occupations.size, int(locate(aufbau)[0]), instructions)


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
# iteration budget per optimizer kind: for spsa the base that
# `spsa_schedule` scales
DEFAULT_ITERATIONS = {"spsa": 300, "bfgs": 200}
# convergence tolerance per optimizer kind: a gradient bound for bfgs, an
# energy change for spsa
DEFAULT_TOLERANCE = {"spsa": 1e-5, "bfgs": 1e-6}


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


def spsa_schedule(n_parameters: int) -> SpsaSchedule:
    """SPSA settings for an ansatz of m = `n_parameters` parameters.

    Perturbation sizes shrink with m: at a flat c = 0.1 a ~100-parameter
    ansatz probes the landscape about a radian away from the reference
    state, where the two-point estimate carries no usable gradient signal
    and the optimizer stalls. c = min(0.1, 0.25 / sqrt(m)) keeps the probe
    radius roughly constant, and a = 2c.

    The iteration budget grows with m, because the variance of the
    two-point gradient estimate does: the base budget
    DEFAULT_ITERATIONS["spsa"] up to SPSA_BUDGET_PARAMETERS parameters,
    base * m / SPSA_BUDGET_PARAMETERS (rounded up) beyond. The gains do not
    grow with it: the stability constant A stays at 10% of the base, so a
    larger budget only lets the same trajectory run longer.
    """
    base = DEFAULT_ITERATIONS["spsa"]
    m = max(1, n_parameters)
    c = min(0.1, 0.25 / np.sqrt(m))
    return SpsaSchedule(
        iterations=max(base, -(-base * m // SPSA_BUDGET_PARAMETERS)),
        a=2.0 * c, c=c, big_a=0.1 * base)


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


def run_vqe(system: AssembledSystem, ansatz: UccsdAnsatz,
            optimizer: Optional[str] = None, seed: int = 0,
            shots: Optional[int] = None) -> VqeResult:
    """Minimize the energy of the ansatz state over its parameters.

    The ansatz must have the system's register and electron count; its
    state is held as amplitudes over `system.sector` (`ansatz_circuit`).
    `shots = None` evaluates exact expectations on `system.block`, the
    qubit Hamiltonian on that sector: one that leaves the sector, or whose
    block is not real symmetric, raises the ValueError of
    `oracle.pauli_to_sparse` before the first evaluation. An integer turns on
    simulated projective measurement of `system.qubit_hamiltonian` on the
    same sector amplitudes (`simulator.sampled_expectation`), with that
    many shots per term drawn from the same seeded generator as the
    optimizer; only spsa accepts it, and the reported energy is then one
    more estimate at theta_star. No run, exact or sampled, holds an array
    over the 2^n register. `optimizer` is "bfgs" or "spsa", or None to
    choose by the shot setting (`optimizer_kind`); `seed` seeds the spsa
    perturbations. Each optimizer (`_bfgs`, `_spsa`) derives its budget,
    tolerance and gains from its kind and the ansatz size. The run starts
    from the reference state, all parameters zero. Identical (system,
    ansatz, optimizer, seed, shots) reproduce the identical result.
    """
    if optimizer is not None and optimizer not in DEFAULT_TOLERANCE:
        raise ValueError(f"unknown optimizer kind {optimizer!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n, n_e = system.n_qubits, system.spin_orbitals.n_electrons
    if (ansatz.n_spin_orbitals, ansatz.n_electrons) != (n, n_e):
        raise ValueError(
            f"the system has {n_e} electrons on {n} qubits but the ansatz "
            f"has {ansatz.n_electrons} on {ansatz.n_spin_orbitals}")
    kind = optimizer_kind(optimizer, shots)
    if shots is not None and kind != "spsa":
        raise ValueError(
            f"the {kind} optimizer needs exact expectations; use "
            "spsa for shot-sampled energies")
    circuit = ansatz_circuit(ansatz, system)
    # only spsa draws: its perturbations, and the shots of a sampled run
    rng = np.random.default_rng(seed) if kind == "spsa" else None
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
        return sampled_expectation(psi, system.sector,
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
    elif kind == "bfgs":
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
    means max |gradient| <= DEFAULT_TOLERANCE["bfgs"]. A line search whose
    step falls below MIN_STEP ends the run unconverged; an accepted step
    with |dE| <= ROUNDING_LEVEL * |E| ends it there, converged only if that
    iterate meets the gradient bound; so does the end of the budget,
    DEFAULT_ITERATIONS["bfgs"] iterations.
    """
    tol = DEFAULT_TOLERANCE["bfgs"]
    e, gradient = energy(theta, gradient=True)
    record(e, theta)
    inverse = np.eye(theta.size)
    for k in range(DEFAULT_ITERATIONS["bfgs"]):
        if np.max(np.abs(gradient)) <= tol:
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
    return bool(np.max(np.abs(gradient)) <= tol)


def _spsa(energy, theta: np.ndarray, record, rng: "np.random.Generator"
          ) -> bool:
    """SPSA from theta on the gains and budget of `spsa_schedule`; returns
    whether it converged: SPSA_PATIENCE consecutive iterates that each move
    the energy by at most DEFAULT_TOLERANCE["spsa"]. `record(energy,
    theta)` takes the start and every iterate."""
    schedule = spsa_schedule(theta.size)
    tol = DEFAULT_TOLERANCE["spsa"]
    e = energy(theta)
    record(e, theta)
    streak = 0
    for k in range(schedule.iterations):
        a_k = schedule.a / (k + 1 + schedule.big_a) ** SPSA_ALPHA
        c_k = schedule.c / (k + 1) ** SPSA_GAMMA
        theta = theta - a_k * spsa_gradient_estimate(energy, theta, c_k, rng)
        e_new = energy(theta)
        record(e_new, theta)
        streak = streak + 1 if abs(e_new - e) <= tol else 0
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
