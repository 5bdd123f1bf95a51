"""Reference answers: exact diagonalization.

These routines are the independent yardstick the variational code is
measured against. The matrix builder uses the same little-endian
convention as the simulator (qubit k lives in bit k, so qubit n-1 is the
leftmost Kronecker factor).

`pauli_to_sparse` builds the block of a `PauliSum` on a sorted array of
basis states, such as one (N, S_z) sector from `pauli.sector_basis`, from
the sum's arrays: its terms sorted by X-mask, in passes of whole X-mask
diagonals, each pass one bounded table of signed coefficients. It
returns a real `SparseBlock`, and refuses a sum whose block is not real
symmetric; `basis_states` checks such an
array, for it and for `simulator.sampled_expectation`, which reads a
state on the same basis. `lowest_eigenvalues` solves such
a block by Davidson's method. `AssembledSystem.block` is the block of a
system's qubit Hamiltonian on its sector: FCI diagonalizes it and exact
VQE takes <H> on it. The module needs numpy alone.
"""

import bisect

import numpy as np
from typing import Tuple

from .pauli import PauliSum, bit_parity

_RESIDUAL_TOL = 1e-9
_LEAK_TOL = 1e-10
# sign-table entries (terms times basis states) per pass of
# `pauli_to_sparse`, which bound the pass's temporaries
_PASS_ENTRIES = 1 << 15
# Davidson: Rayleigh-Ritz steps, residual norm at which the pair counts
# as converged, and the subspace size that triggers a thick restart
_DAVIDSON_ITERATIONS = 500
_DAVIDSON_TOL = 1e-10
_DAVIDSON_SPACE = 32


class SparseBlock:
    """A square real symmetric matrix held as its nonzero entries.

    `rows`, `cols` and `values` (float64) list the entries sorted by
    (row, col) ascending, without duplicates. `block @ x`, for a real
    vector x, sums the products of each row in column order, the order of
    a compressed sparse row (CSR) mat-vec, so its result does not depend
    on how the entries were produced.
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

    def diagonal(self) -> np.ndarray:
        on = self.rows == self.cols
        out = np.zeros(self.shape[0])
        out[self.rows[on]] = self.values[on]
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # bincount adds the weights of each row in entry order
        return np.bincount(self.rows, self.values * x[self.cols],
                           minlength=self.shape[0])


def _diagonals(x: np.ndarray, z: np.ndarray, coeffs: np.ndarray,
               sizes: np.ndarray, states: np.ndarray):
    """Nonzero entries (rows, cols, values) of the X-mask groups of one
    pass of `pauli_to_sparse`.

    Group g has X-mask x[g] and the next sizes[g] terms of `z` and
    `coeffs`, each coefficient already times i^{n_y}. Entry (b ^ x, b)
    adds the group's terms, each signed by (-1)^{|z & b|}, in order from
    0.0; raises ValueError if a nonzero entry falls outside the basis.
    """
    dim = states.size
    signed = np.where(bit_parity(z[:, None] & states), -coeffs[:, None],
                      coeffs[:, None])
    # bincount adds the terms of each (group, state) entry in order
    group = np.repeat(np.arange(x.size), sizes)
    sums = np.bincount((group[:, None] * dim + np.arange(dim)).ravel(),
                       signed.ravel(), x.size * dim)
    nonzero = np.flatnonzero(sums)
    cols = nonzero % dim
    targets = states[cols] ^ x[nonzero // dim]
    at = np.minimum(np.searchsorted(states, targets), dim - 1)
    inside = states[at] == targets
    if np.any(np.abs(sums[nonzero[~inside]]) > _LEAK_TOL):
        raise ValueError("the operator maps basis states outside the basis")
    return at[inside], cols[inside], sums[nonzero[inside]]


def basis_states(basis: np.ndarray, n_qubits: int) -> np.ndarray:
    """`basis` as int64 states, checked to be a nonempty, sorted array of
    distinct states of an n-qubit register; raises ValueError otherwise."""
    states = np.asarray(basis, dtype=np.int64)
    if states.ndim != 1 or states.size == 0:
        raise ValueError("basis must be a nonempty 1-D array of states")
    if states[0] < 0 or states[-1] >= 1 << n_qubits:
        raise ValueError(f"basis states must lie in 0..{(1 << n_qubits) - 1}")
    if np.any(np.diff(states) <= 0):
        raise ValueError("basis states must be sorted and distinct")
    return states


def pauli_to_sparse(observable: PauliSum, basis: np.ndarray) -> SparseBlock:
    """Block of a real symmetric Pauli sum on the given basis states.

    A term c * i^{n_y} X^x Z^z maps |b> to c i^{n_y} (-1)^{|z & b|} |b ^ x>,
    so the terms sharing an X-mask x fill one generalized diagonal: entry
    (b ^ x, b) is d_x[b] = sum over z of c i^{n_y} (-1)^{|z & b|}. The
    terms are stable-sorted by X-mask and built in passes of whole X-mask
    groups, each of at most about _PASS_ENTRIES terms times basis states
    (a larger group makes a pass alone): a pass tabulates each term's
    signed coefficient on every basis state and adds each group's rows in
    `items()` order from 0.0, so every entry is the same floating-point
    sum as a term-by-term build. Only nonzero entries are stored, so `nnz`
    counts them; distinct X-masks fill distinct entries, so the
    SparseBlock needs only a sort by (row, col). The entries are float64:
    a sum with an imaginary coefficient (`observable.is_hermitian()`), or
    with an odd Y count n_y in a string, raises ValueError before any is
    built.

    `basis` is a sorted array of distinct basis states, for example one
    sector from `pauli.sector_basis`, or `np.arange(1 << n)` for the whole
    register: row and column i stand for state basis[i], and the entries
    are the same sums as in the matrix on the whole register. An operator
    that maps a basis state outside the basis (an entry above 1e-10)
    raises ValueError. The block never forms a vector over the whole
    register, so it has no qubit cap.
    """
    states = basis_states(basis, observable.n_qubits)
    dim = states.size
    # cast first: 1 - (n_y & 2) would wrap in bitwise_count's uint8
    n_y = np.bitwise_count(observable.x & observable.z).astype(np.int64)
    if not observable.is_hermitian() or np.any(n_y & 1):
        raise ValueError(
            "the block needs a real symmetric operator: a Hermitian sum "
            "(real coefficients) with an even number of Y letters in "
            "every string")
    if not len(observable):
        empty = np.zeros(0, dtype=np.int64)
        return SparseBlock(empty, empty, np.zeros(0), dim)
    order = np.argsort(observable.x, kind="stable")
    x, z = observable.x[order], observable.z[order]
    # i^{n_y} = (-1)^{n_y / 2} for an even Y count n_y
    coeffs = (observable.coeffs.real * (1 - (n_y & 2)))[order]
    # each X-mask group's first term, then the end of the last group
    starts = np.flatnonzero(np.diff(x, prepend=-1)).tolist() + [x.size]
    # the first group of each pass: whole groups up to about
    # _PASS_ENTRIES entries, and at least one group
    span = max(1, _PASS_ENTRIES // dim)
    passes = [0]
    while passes[-1] < len(starts) - 1:
        first = passes[-1]
        passes.append(max(first + 1, bisect.bisect_right(
            starts, starts[first] + span) - 1))
    rows, cols, values = map(np.concatenate, zip(*[
        _diagonals(x[starts[a:b]], z[starts[a]:starts[b]],
                   coeffs[starts[a]:starts[b]], np.diff(starts[a:b + 1]),
                   states)
        for a, b in zip(passes, passes[1:])]))
    order = np.argsort(rows * dim + cols)
    return SparseBlock(rows[order], cols[order], values[order], dim)


def _davidson(block: SparseBlock, scale: float) -> Tuple[float, np.ndarray]:
    """Lowest Ritz pair of a real symmetric block by Davidson's method.

    Each step solves the block projected on an orthonormal subspace and,
    until the pair converges, widens the subspace by the
    diagonal-preconditioned residual (theta - D)^{-1} r (E. R. Davidson,
    J. Comput. Phys. 17, 87 (1975)), or by r itself where that correction
    lies in the subspace: Rayleigh-Ritz leaves r orthogonal to the
    subspace, so the subspace stops growing only once r is rounding. The
    start is the unit vector on the lowest diagonal entry plus 0.1 times
    a fixed aperiodic sequence: deterministic, and not confined, as unit
    vectors can be, to an invariant subspace that misses the ground
    state. A subspace of _DAVIDSON_SPACE vectors restarts from its lowest
    half of Ritz vectors. The preconditioner suits diagonally dominant
    blocks, such as a Hamiltonian on determinants; on others convergence
    is slower. After _DAVIDSON_ITERATIONS steps, or once the subspace
    stops growing, the last Ritz pair is returned whether converged or
    not: the caller checks the residual. The tolerance and the floors
    are in units of `scale`.
    """
    dim = block.shape[0]
    diag = block.diagonal()
    # golden-ratio sequence: every entry differs, none repeats periodically
    tilt = np.arange(dim) * 0.6180339887498949 % 1.0 - 0.5
    start = 0.1 * tilt / np.linalg.norm(tilt)
    start[np.argmin(diag)] += 1.0
    space = (start / np.linalg.norm(start))[:, None]
    images = (block @ space[:, 0])[:, None]
    for _ in range(_DAVIDSON_ITERATIONS):
        projected = space.T @ images
        theta, coeffs = np.linalg.eigh(0.5 * (projected + projected.T))
        # the lowest pair, kept as one-column matrices
        vector = space @ coeffs[:, :1]
        residual = images @ coeffs[:, :1] - vector * theta[:1]
        if np.linalg.norm(residual, axis=0)[0] <= _DAVIDSON_TOL * scale:
            break
        if space.shape[1] >= _DAVIDSON_SPACE:
            keep = _DAVIDSON_SPACE // 2
            space, images = space @ coeffs[:, :keep], images @ coeffs[:, :keep]
        gap = theta[0] - diag
        # finite where the Ritz value meets a diagonal entry
        gap[np.abs(gap) < 1e-8 * scale] = 1e-8 * scale
        for t in (residual[:, 0] / gap, residual[:, 0]):
            for _ in range(2):
                t = t - space @ (space.T @ t)
            norm = np.linalg.norm(t)
            if norm >= 1e-12 * scale:
                break
        else:    # r is at rounding level: no step can widen the subspace
            break
        t /= norm
        space = np.column_stack([space, t])
        images = np.column_stack([images, block @ t])
    return theta[0], vector[:, 0]


def lowest_eigenvalues(block: SparseBlock) -> float:
    """The lowest eigenvalue of a real symmetric block.

    The block comes from `pauli_to_sparse`, for example on one (N, S_z)
    sector from `pauli.sector_basis`. Every block, of any dimension, goes
    through a Davidson solve with the diagonal preconditioner, meant for
    diagonally dominant blocks such as an FCI Hamiltonian; its residual is
    verified before the value is returned, and a RuntimeError reports a
    solve that did not converge. Both residual tolerances are in units of
    min(1, max |entry|): absolute on a molecular block, whose largest
    entry is above 1 Ha, and relative on a block of smaller entries.
    """
    scale = min(1.0, float(np.abs(block.values).max(initial=0.0)))
    value, vector = _davidson(block, scale)
    residual = np.linalg.norm(block @ vector - value * vector)
    if residual > _RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"iterative eigensolve residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOL * scale:.0e}")
    return float(value)


def exact_ground_energy(block: SparseBlock) -> float:
    """Lowest eigenvalue of a real symmetric block.

    On `AssembledSystem.block`, the qubit Hamiltonian on the system's
    sector, this is the FCI energy of that electron count and spin.
    """
    return lowest_eigenvalues(block)
