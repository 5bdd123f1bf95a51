"""Reference answers: exact diagonalization.

These routines are the independent yardstick the variational code is
measured against. The matrix builder uses the same little-endian
convention as the simulator (qubit k lives in bit k, so qubit n-1 is the
leftmost Kronecker factor).

Every matrix comes from `pauli_to_sparse`, which builds it in one pass
over X-mask diagonals, and every eigenvalue from `lowest_eigenvalues`.
The one Hamiltonian form is the block on a sorted array of basis states,
such as one (N, S_z) sector from `pauli.sector_basis`: FCI diagonalizes
the determinants of the requested electron count and spin rather than
the whole Fock space, and VQE takes <H> on the sector of its reference.
The whole register is the default basis, kept for tests.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from typing import Dict, List, Optional, Tuple, Union

from .pauli import PauliString, PauliSum, bit_parity

MAX_SPARSE_QUBITS = 14
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
    """Sparse matrix of a Pauli string or sum on the given basis states.

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
    # the (data, (row, col)) constructor sums duplicates and sorts the
    # column indices of every row; there are no duplicates to sum
    return sp.csr_matrix((np.concatenate(values),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


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

