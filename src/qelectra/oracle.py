"""Reference answers: exact diagonalization.

These routines are the independent yardstick the variational code is
measured against. The matrix builder uses the same little-endian
convention as the simulator (qubit k lives in bit k, so qubit n-1 is the
leftmost Kronecker factor).

Every matrix comes from `pauli_to_sparse`, which builds it in one pass
over X-mask diagonals as a `SparseBlock` of numpy arrays, and every
eigenvalue from `lowest_eigenvalues`: densely for small blocks, by
Davidson's method for large ones. The module needs numpy alone.
The one Hamiltonian form is the block on a sorted array of basis states,
such as one (N, S_z) sector from `pauli.sector_basis`: FCI diagonalizes
the determinants of the requested electron count and spin rather than
the whole Fock space, and VQE takes <H> on the sector of its reference.
The whole register is the default basis, kept for tests.
"""

import numpy as np
from typing import Dict, List, Optional, Tuple, Union

from .pauli import PauliString, PauliSum, bit_parity

MAX_SPARSE_QUBITS = 14
# a dense complex matrix of this dimension takes 64 MB
_DENSE_DIRECT_DIM = 2048
_RESIDUAL_TOL = 1e-9
_LEAK_TOL = 1e-10
# Davidson: Rayleigh-Ritz steps, residual norm at which a pair stops
# being expanded, and the smallest subspace before a thick restart
_DAVIDSON_ITERATIONS = 200
_DAVIDSON_TOL = 1e-10
_DAVIDSON_SPACE = 32

# i^{n_y}: the letters-operator of a term is i^{n_y} X^x Z^z
_I_POWER = (1.0, 1.0j, -1.0, -1.0j)


class SparseBlock:
    """A square complex matrix held as its nonzero entries.

    `rows`, `cols` and `values` list the entries sorted by (row, col)
    ascending, without duplicates. `block @ x`, for a vector x, sums the
    products of each row in column order, the order of a compressed
    sparse row (CSR) mat-vec, so its result does not depend on how the
    entries were produced.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray, dim: int):
        self.rows = rows
        self.cols = cols
        self.values = values
        self.shape = (dim, dim)

    @property
    def nnz(self) -> int:
        return self.values.size

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.rows, self.cols] = self.values
        return out

    def diagonal(self) -> np.ndarray:
        on = self.rows == self.cols
        out = np.zeros(self.shape[0], dtype=complex)
        out[self.rows[on]] = self.values[on]
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # bincount adds the weights of each row in entry order
        products = self.values * x[self.cols]
        dim = self.shape[0]
        out = np.empty(dim, dtype=complex)
        out.real = np.bincount(self.rows, products.real, minlength=dim)
        out.imag = np.bincount(self.rows, products.imag, minlength=dim)
        return out


def _hermitian_deviation(block: SparseBlock) -> float:
    """Largest entry of |A - A^H|."""
    dim = block.shape[0]
    keys = np.concatenate([block.rows * dim + block.cols,
                           block.cols * dim + block.rows])
    _, slot = np.unique(keys, return_inverse=True)
    diff = np.concatenate([block.values, -block.values.conj()])
    deviation = (np.bincount(slot, diff.real)
                 + 1j * np.bincount(slot, diff.imag))
    return float(np.abs(deviation).max(initial=0.0))


def _diagonal(x: int, terms: List[Tuple[int, complex]],
              states: np.ndarray) -> np.ndarray:
    """Entries (b ^ x, b) over the basis states b, summed in `terms` order."""
    out = np.zeros(states.size, dtype=complex)
    for z, coeff in terms:
        signs = 1.0 - 2.0 * bit_parity(states & z)
        out += (coeff * _I_POWER[(x & z).bit_count() % 4]) * signs
    return out


def pauli_to_sparse(observable: Union[PauliString, PauliSum],
                    basis: Optional[np.ndarray] = None) -> SparseBlock:
    """Sparse matrix of a Pauli string or sum on the given basis states.

    A term c * i^{n_y} X^x Z^z maps |b> to c i^{n_y} (-1)^{|z & b|} |b ^ x>,
    so the terms sharing an X-mask x fill one generalized diagonal: entry
    (b ^ x, b) is d_x[b] = sum over z of c i^{n_y} (-1)^{|z & b|}. Each d_x
    is summed in `items()` order, so every entry is the same floating-point
    sum as a term-by-term build. Only nonzero entries are stored, so `nnz`
    counts them; distinct X-masks fill distinct entries, so the
    SparseBlock needs only a sort by (row, col).

    `basis`, a sorted array of distinct basis states, restricts the matrix
    to the block on those states (for example `pauli.sector_basis`): row
    and column i stand for state basis[i], and the entries are the same
    sums as in the full matrix. An operator that maps a basis state outside
    the basis (an entry above 1e-10) raises ValueError. The block never
    forms a vector over the whole register, so it has no qubit cap;
    `basis=None`, the whole register, is capped at 14 qubits.
    """
    if isinstance(observable, PauliString):
        observable = PauliSum.from_string(observable)
    n = observable.n_qubits
    if basis is None:
        if n > MAX_SPARSE_QUBITS:
            raise ValueError(
                f"{n} qubits exceeds the full-register matrix limit of "
                f"{MAX_SPARSE_QUBITS}; pass a basis to build a block")
        basis = np.arange(1 << n, dtype=np.int64)
    states = np.asarray(basis, dtype=np.int64)
    dim = states.size
    if states.ndim != 1 or dim == 0:
        raise ValueError("basis must be a nonempty 1-D array of states")
    if states[0] < 0 or states[-1] >= 1 << n:
        raise ValueError(f"basis states must lie in 0..{(1 << n) - 1}")
    if np.any(np.diff(states) <= 0):
        raise ValueError("basis states must be sorted and distinct")
    masks: Dict[int, List[Tuple[int, complex]]] = {}
    for (x, z), coeff in observable.items():
        masks.setdefault(x, []).append((z, coeff))
    if not masks:
        empty = np.zeros(0, dtype=np.int64)
        return SparseBlock(empty, empty, np.zeros(0, dtype=complex), dim)
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
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(rows * dim + cols)
    return SparseBlock(rows[order], cols[order],
                       np.concatenate(values)[order], dim)


def _as_matrix(operator, basis: Optional[np.ndarray]
               ) -> Union[np.ndarray, SparseBlock]:
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
    if isinstance(operator, SparseBlock):
        deviation = _hermitian_deviation(operator)
    elif isinstance(operator, np.ndarray):
        if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
            raise ValueError("eigenvalue routines need a square matrix")
        deviation = np.abs(operator - operator.conj().T).max(initial=0.0)
    else:
        raise TypeError(f"cannot diagonalize {type(operator).__name__}")
    if deviation > 1e-12:
        raise ValueError("eigenvalue routines need a Hermitian matrix")
    return operator


def _davidson(block: Union[np.ndarray, SparseBlock], k: int
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Lowest k Ritz pairs of a Hermitian block by Davidson's method.

    Each step solves the block projected on an orthonormal subspace and
    widens the subspace by the diagonal-preconditioned residual
    (theta - D)^{-1} r of every pair not yet converged (E. R. Davidson,
    J. Comput. Phys. 17, 87 (1975)). The start is the unit vectors on the
    2k lowest diagonal entries, so a run is deterministic; a subspace
    that outgrows its limit restarts from its lowest half of Ritz
    vectors. The preconditioner suits diagonally dominant blocks, such as
    a Hamiltonian on determinants; on others convergence may be slow.
    After _DAVIDSON_ITERATIONS steps the last Ritz pairs are returned
    whether converged or not: the caller checks the residuals.
    """
    dim = block.shape[0]
    diag = block.diagonal().real
    limit = max(_DAVIDSON_SPACE, 4 * k)
    start = np.argsort(diag, kind="stable")[:2 * k]
    space = np.zeros((dim, start.size), dtype=complex)
    space[start, np.arange(start.size)] = 1.0
    images = np.column_stack([block @ v for v in space.T])
    for _ in range(_DAVIDSON_ITERATIONS):
        projected = space.conj().T @ images
        theta, coeffs = np.linalg.eigh(0.5 * (projected
                                              + projected.conj().T))
        vectors = space @ coeffs[:, :k]
        residuals = images @ coeffs[:, :k] - vectors * theta[:k]
        open_pairs = np.flatnonzero(
            np.linalg.norm(residuals, axis=0) > _DAVIDSON_TOL)
        if open_pairs.size == 0:
            break
        if space.shape[1] + open_pairs.size > limit:
            keep = limit // 2
            space, images = space @ coeffs[:, :keep], images @ coeffs[:, :keep]
        for i in open_pairs:
            gap = theta[i] - diag
            # finite where a Ritz value meets a diagonal entry
            gap[np.abs(gap) < 1e-8] = 1e-8
            t = residuals[:, i] / gap
            for _ in range(2):
                t -= space @ (space.conj().T @ t)
            norm = np.linalg.norm(t)
            if norm < 1e-12:    # already in the subspace
                continue
            t /= norm
            space = np.column_stack([space, t])
            images = np.column_stack([images, block @ t])
    return theta[:k], vectors


def lowest_eigenvalues(operator, k: int = 1,
                       basis: Optional[np.ndarray] = None) -> np.ndarray:
    """The k smallest eigenvalues of a Hermitian operator, ascending.

    Accepts a PauliSum or PauliString, a dense array or a SparseBlock.
    `basis` restricts a Pauli operator to the block on those basis states
    (see `pauli_to_sparse`), for example one (N, S_z) sector from
    `pauli.sector_basis`. Dimensions up to 2048 are solved densely by
    `numpy.linalg.eigvalsh`. Larger ones go through a Davidson solve with
    the diagonal preconditioner, meant for diagonally dominant blocks
    such as an FCI Hamiltonian; its eigenpair residuals are verified
    before the values are returned, and a RuntimeError reports a solve
    that did not converge.
    """
    matrix = _as_matrix(operator, basis)
    dim = matrix.shape[0]
    if k < 1 or k > dim:
        raise ValueError(f"k must lie in 1..{dim}")
    # a subspace of up to 4k vectors gains nothing once it nears the space
    if dim <= _DENSE_DIRECT_DIM or 4 * k >= dim:
        dense = matrix.toarray() if isinstance(matrix, SparseBlock) else matrix
        return np.linalg.eigvalsh(dense)[:k]
    vals, vecs = _davidson(matrix, k)
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

