"""Reference answers: exact diagonalization.

These routines are the independent yardstick the variational code is
measured against. The matrix builder uses the same little-endian
convention as the simulator (qubit k lives in bit k, so qubit n-1 is the
leftmost Kronecker factor).

`pauli_to_sparse` builds the block of a `PauliSum` on a sorted array of
basis states, such as one (N, S_z) sector from `pauli.sector_basis`, in
one pass over X-mask diagonals, as a `SparseBlock` of numpy arrays that
records whether its Pauli sum was Hermitian. `lowest_eigenvalues` solves
such a block: densely for small ones, by Davidson's method for large
ones. `AssembledSystem.block` is the block of a system's qubit
Hamiltonian on its sector: FCI diagonalizes it and exact VQE takes <H>
on it. The module needs numpy alone.
"""

import numpy as np
from typing import Dict, List, Tuple

from .pauli import PauliSum, bit_parity

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
    entries were produced. `hermitian` records whether the operator it
    was built from is Hermitian, which the eigensolver requires.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray, dim: int, hermitian: bool):
        self.rows = rows
        self.cols = cols
        self.values = values
        self.shape = (dim, dim)
        self.hermitian = hermitian

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


def _diagonal(x: int, terms: List[Tuple[int, complex]],
              states: np.ndarray) -> np.ndarray:
    """Entries (b ^ x, b) over the basis states b, summed in `terms` order."""
    out = np.zeros(states.size, dtype=complex)
    for z, coeff in terms:
        signs = 1.0 - 2.0 * bit_parity(states & z)
        out += (coeff * _I_POWER[(x & z).bit_count() % 4]) * signs
    return out


def pauli_to_sparse(observable: PauliSum, basis: np.ndarray) -> SparseBlock:
    """Block of a Pauli sum on the given basis states.

    A term c * i^{n_y} X^x Z^z maps |b> to c i^{n_y} (-1)^{|z & b|} |b ^ x>,
    so the terms sharing an X-mask x fill one generalized diagonal: entry
    (b ^ x, b) is d_x[b] = sum over z of c i^{n_y} (-1)^{|z & b|}. Each d_x
    is summed in `items()` order, so every entry is the same floating-point
    sum as a term-by-term build. Only nonzero entries are stored, so `nnz`
    counts them; distinct X-masks fill distinct entries, so the
    SparseBlock needs only a sort by (row, col).

    `basis` is a sorted array of distinct basis states, for example one
    sector from `pauli.sector_basis`, or `np.arange(1 << n)` for the whole
    register: row and column i stand for state basis[i], and the entries
    are the same sums as in the matrix on the whole register. An operator
    that maps a basis state outside the basis (an entry above 1e-10)
    raises ValueError. The block never forms a vector over the whole
    register, so it has no qubit cap. It records
    `observable.is_hermitian()`, so a solve needs no pass over its
    entries to refuse a non-Hermitian operator.
    """
    n = observable.n_qubits
    states = np.asarray(basis, dtype=np.int64)
    dim = states.size
    if states.ndim != 1 or dim == 0:
        raise ValueError("basis must be a nonempty 1-D array of states")
    if states[0] < 0 or states[-1] >= 1 << n:
        raise ValueError(f"basis states must lie in 0..{(1 << n) - 1}")
    if np.any(np.diff(states) <= 0):
        raise ValueError("basis states must be sorted and distinct")
    hermitian = observable.is_hermitian()
    masks: Dict[int, List[Tuple[int, complex]]] = {}
    for (x, z), coeff in observable.items():
        masks.setdefault(x, []).append((z, coeff))
    if not masks:
        empty = np.zeros(0, dtype=np.int64)
        return SparseBlock(empty, empty, np.zeros(0, dtype=complex), dim,
                           hermitian)
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
                       np.concatenate(values)[order], dim, hermitian)


def _davidson(block: SparseBlock, k: int) -> Tuple[np.ndarray, np.ndarray]:
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


def lowest_eigenvalues(block: SparseBlock, k: int = 1) -> np.ndarray:
    """The k smallest eigenvalues of a Hermitian block, ascending.

    The block comes from `pauli_to_sparse`, for example on one (N, S_z)
    sector from `pauli.sector_basis`; one built from a non-Hermitian Pauli
    sum raises ValueError. Dimensions up to 2048 are solved densely by
    `numpy.linalg.eigvalsh`. Larger ones go through a Davidson solve with
    the diagonal preconditioner, meant for diagonally dominant blocks
    such as an FCI Hamiltonian; its eigenpair residuals are verified
    before the values are returned, and a RuntimeError reports a solve
    that did not converge.
    """
    if not block.hermitian:
        raise ValueError("eigenvalue routines need a Hermitian operator")
    dim = block.shape[0]
    if k < 1 or k > dim:
        raise ValueError(f"k must lie in 1..{dim}")
    # a subspace of up to 4k vectors gains nothing once it nears the space
    if dim <= _DENSE_DIRECT_DIM or 4 * k >= dim:
        return np.linalg.eigvalsh(block.toarray())[:k]
    vals, vecs = _davidson(block, k)
    for i in range(k):
        residual = np.linalg.norm(block @ vecs[:, i] - vals[i] * vecs[:, i])
        if residual > _RESIDUAL_TOL:
            raise RuntimeError(
                f"iterative eigensolve residual {residual:.3e} exceeds "
                f"{_RESIDUAL_TOL:.0e}")
    return vals


def exact_ground_energy(block: SparseBlock) -> float:
    """Lowest eigenvalue of a Hermitian block.

    On `AssembledSystem.block`, the qubit Hamiltonian on the system's
    sector, this is the FCI energy of that electron count and spin.
    """
    return float(lowest_eigenvalues(block)[0])
