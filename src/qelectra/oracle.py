"""Reference answers: exact diagonalization and a Metropolis sampler.

These routines are the independent yardstick the variational code is
measured against. The matrix builders use the same little-endian
convention as the simulator (qubit k lives in bit k, so qubit n-1 is the
leftmost Kronecker factor).

Every matrix comes from `pauli_to_sparse`, which builds it in one pass
over X-mask diagonals; the dense builder and the eigensolvers go through it.
Given a sorted array of basis states, such as one (N, S_z) sector from
`pauli.sector_basis`, the same builder fills only the block on those
states, so FCI diagonalizes the determinants of the requested electron
count and spin rather than the whole Fock space.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .pauli import PauliString, PauliSum, bit_parity

MAX_SPARSE_QUBITS = 14
MAX_DENSE_QUBITS = 10
_DENSE_DIRECT_DIM = 1024
_RESIDUAL_TOL = 1e-9
_LEAK_TOL = 1e-10

# i^{n_y}: the letters-operator of a term is i^{n_y} X^x Z^z
_I_POWER = (1.0, 1.0j, -1.0, -1.0j)


def _diagonal(x: int, terms: List[Tuple[int, complex]],
              states: np.ndarray) -> np.ndarray:
    """Entries (b ^ x, b) over the basis states b, summed in `terms` order."""
    out = np.zeros(states.size, dtype=complex)
    for z, coeff in terms:
        signs = 1.0 - 2.0 * bit_parity(states & z)
        out += (coeff * _I_POWER[(x & z).bit_count() % 4]) * signs
    return out


def pauli_to_sparse(observable: Union[PauliString, PauliSum],
                    basis: Optional[np.ndarray] = None) -> sp.csr_matrix:
    """Sparse matrix of a Pauli string or sum (up to 14 qubits).

    A term c * i^{n_y} X^x Z^z maps |b> to c i^{n_y} (-1)^{|z & b|} |b ^ x>,
    so the terms sharing an X-mask x fill one generalized diagonal: entry
    (b ^ x, b) is d_x[b] = sum over z of c i^{n_y} (-1)^{|z & b|}. Each d_x
    is summed in `items()` order, so every entry is the same floating-point
    sum as a term-by-term build. Only nonzero entries are stored, so `nnz`
    counts them, and the CSR matrix is built once, with sorted column
    indices.

    `basis`, a sorted array of distinct basis states, restricts the matrix
    to the block on those states (for example `pauli.sector_basis`): row
    and column i stand for state basis[i], and the entries are the same
    sums as in the full matrix. An operator that maps a basis state outside
    the basis (an entry above 1e-10) raises ValueError.
    """
    if isinstance(observable, PauliString):
        observable = PauliSum.from_string(observable)
    n = observable.n_qubits
    if n > MAX_SPARSE_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the sparse-matrix limit of "
            f"{MAX_SPARSE_QUBITS}")
    masks: Dict[int, List[Tuple[int, complex]]] = {}
    for (x, z), coeff in observable.items():
        masks.setdefault(x, []).append((z, coeff))
    if basis is not None:
        return _block(masks, np.asarray(basis, dtype=np.int64), n)
    dim = 1 << n
    states = np.arange(dim, dtype=np.int64)

    # Two passes, one counting and one filling, so that the entries go
    # straight into arrays of their final size. Keeping one small array per
    # mask instead left about 8 MB of fragmented heap resident after the
    # CH4 build, which raised the peak RSS of the jobs that followed it.
    counts = [np.count_nonzero(_diagonal(x, terms, states))
              for x, terms in masks.items()]
    rows = np.empty(sum(counts), dtype=np.int32)
    cols = np.empty_like(rows)
    values = np.empty(rows.size, dtype=complex)
    start = 0
    for (x, terms), count in zip(masks.items(), counts):
        d_x = _diagonal(x, terms, states)
        nonzero = np.flatnonzero(d_x)
        stop = start + count
        rows[start:stop] = nonzero ^ x
        cols[start:stop] = nonzero
        values[start:stop] = d_x[nonzero]
        start = stop
    # the (data, (row, col)) constructor sums duplicates and sorts the
    # column indices of every row; there are no duplicates to sum
    return sp.csr_matrix((values, (rows, cols)), shape=(dim, dim))


def _block(masks: Dict[int, List[Tuple[int, complex]]], states: np.ndarray,
           n_qubits: int) -> sp.csr_matrix:
    """The rows and columns of `states` (sorted, distinct) of the matrix."""
    dim = states.size
    if states.ndim != 1 or dim == 0:
        raise ValueError("basis must be a nonempty 1-D array of states")
    if states[0] < 0 or states[-1] >= 1 << n_qubits:
        raise ValueError(f"basis states must lie in 0..{(1 << n_qubits) - 1}")
    if np.any(np.diff(states) <= 0):
        raise ValueError("basis states must be sorted and distinct")
    if not masks:
        return sp.csr_matrix((dim, dim), dtype=complex)
    rows, cols, values = [], [], []
    for x, terms in masks.items():
        d_x = _diagonal(x, terms, states)
        nonzero = np.flatnonzero(d_x)
        targets = states[nonzero] ^ x
        at = np.minimum(np.searchsorted(states, targets), dim - 1)
        inside = states[at] == targets
        if np.any(np.abs(d_x[nonzero[~inside]]) > _LEAK_TOL):
            raise ValueError(
                "the operator maps basis states outside the basis")
        rows.append(at[inside])
        cols.append(nonzero[inside])
        values.append(d_x[nonzero[inside]])
    return sp.csr_matrix((np.concatenate(values),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def pauli_to_matrix(observable: Union[PauliString, PauliSum]) -> np.ndarray:
    """Dense matrix of a Pauli string or sum (up to 10 qubits)."""
    if isinstance(observable, PauliString):
        observable = PauliSum.from_string(observable)
    if observable.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"{observable.n_qubits} qubits exceeds the dense-matrix limit "
            f"of {MAX_DENSE_QUBITS}")
    return pauli_to_sparse(observable).toarray()


def _as_sparse(operator, basis: Optional[np.ndarray]) -> sp.csr_matrix:
    if isinstance(operator, PauliString):
        operator = PauliSum.from_string(operator)
    if isinstance(operator, PauliSum):
        if not operator.is_hermitian():
            raise ValueError(
                "eigenvalue routines need a Hermitian operator")
        return pauli_to_sparse(operator, basis)
    if basis is not None:
        raise ValueError("a basis restricts Pauli operators only; slice "
                         "the matrix instead")
    if isinstance(operator, np.ndarray):
        matrix = sp.csr_matrix(operator)
    elif sp.issparse(operator):
        matrix = operator.tocsr()
    else:
        raise TypeError(f"cannot diagonalize {type(operator).__name__}")
    deviation = abs(matrix - matrix.getH())
    if deviation.nnz and deviation.max() > 1e-12:
        raise ValueError("eigenvalue routines need a Hermitian matrix")
    return matrix


def lowest_eigenvalues(operator, k: int = 1,
                       basis: Optional[np.ndarray] = None) -> np.ndarray:
    """The k smallest eigenvalues of a Hermitian operator, ascending.

    Accepts a PauliSum, a dense array or a sparse matrix. `basis` restricts
    a Pauli operator to the block on those basis states (see
    `pauli_to_sparse`), for example one (N, S_z) sector from
    `pauli.sector_basis`. Dimensions up to 1024 are solved densely; larger
    ones go through a sparse Lanczos solve whose eigenpair residuals are
    verified before the values are returned.
    """
    matrix = _as_sparse(operator, basis)
    dim = matrix.shape[0]
    if k < 1 or k > dim:
        raise ValueError(f"k must lie in 1..{dim}")
    # the Lanczos path cannot produce a full spectrum; fall back to dense
    if dim <= _DENSE_DIRECT_DIM or k >= dim - 1:
        return np.linalg.eigvalsh(matrix.toarray())[:k]
    # fixed start vector: scipy would otherwise draw a random one, making
    # the low digits (and any serialized report) differ between runs
    v0 = np.random.default_rng(2357).standard_normal(dim)
    vals, vecs = spla.eigsh(matrix, k=k, which="SA", v0=v0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for i in range(k):
        residual = np.linalg.norm(matrix @ vecs[:, i] - vals[i] * vecs[:, i])
        if residual > _RESIDUAL_TOL:
            raise RuntimeError(
                f"iterative eigensolve residual {residual:.3e} exceeds "
                f"{_RESIDUAL_TOL:.0e}")
    return vals


def exact_ground_energy(hamiltonian,
                        basis: Optional[np.ndarray] = None) -> float:
    """Lowest eigenvalue of a Hermitian Pauli sum or matrix.

    With `basis` (a sector from `pauli.sector_basis`) this is the FCI
    energy of that electron count and spin; without it, the minimum over
    the whole Fock space.
    """
    return float(lowest_eigenvalues(hamiltonian, k=1, basis=basis)[0])


def exact_spectrum(hamiltonian: PauliSum, k: Optional[int] = None) -> np.ndarray:
    """Sorted eigenvalues (all of them, or the k lowest)."""
    if not hamiltonian.is_hermitian():
        raise ValueError("spectrum is defined for Hermitian operators")
    values = np.linalg.eigvalsh(pauli_to_matrix(hamiltonian))
    return values if k is None else values[:k]


def exact_ground_state(hamiltonian: PauliSum) -> Tuple[float, np.ndarray]:
    """Lowest eigenvalue with its eigenvector (dense path only)."""
    if not hamiltonian.is_hermitian():
        raise ValueError("ground state is defined for Hermitian operators")
    values, vectors = np.linalg.eigh(pauli_to_matrix(hamiltonian))
    return float(values[0]), vectors[:, 0]


# ---- Metropolis sampling ---------------------------------------------------

@dataclass
class MetropolisConfig:
    n_samples: int
    temperature: float = 1.0
    burn_in: int = 0
    seed: Optional[int] = None


@dataclass
class MetropolisResult:
    samples: np.ndarray
    acceptance_rate: float
    mean_energy: float


def metropolis_sample(energy: Callable, proposal: Callable, initial,
                      config: MetropolisConfig) -> MetropolisResult:
    """Metropolis chain over an arbitrary discrete or continuous state.

    `energy(state)` returns a float; `proposal(state, rng)` returns a
    candidate state. A move with energy change dE is accepted when dE <= 0,
    otherwise with probability exp(-dE / T). Burn-in sweeps are discarded
    from the returned samples and from the acceptance statistics.
    """
    if config.n_samples < 1:
        raise ValueError("n_samples must be positive")
    if config.temperature <= 0.0:
        raise ValueError("temperature must be positive")
    rng = np.random.default_rng(config.seed)
    state = initial
    e_cur = float(energy(state))
    energies = np.empty(config.n_samples)
    accepted = 0
    total = config.burn_in + config.n_samples
    for step in range(total):
        candidate = proposal(state, rng)
        e_new = float(energy(candidate))
        d_e = e_new - e_cur
        take = d_e <= 0.0 or rng.random() < np.exp(-d_e / config.temperature)
        if take:
            state = candidate
            e_cur = e_new
        if step >= config.burn_in:
            if take:
                accepted += 1
            energies[step - config.burn_in] = e_cur
    rate = accepted / config.n_samples
    return MetropolisResult(samples=energies, acceptance_rate=rate,
                            mean_energy=float(energies.mean()))
