"""Restricted Hartree-Fock with Loewdin orthogonalization and DIIS.

Closed-shell only: the electron count must be even. Every iteration
extrapolates the Fock matrix by DIIS over the last DIIS_DEPTH iterates.
Convergence requires both the energy change (ENERGY_TOL) and the rms
density change (DENSITY_TOL) to pass within MAX_ITERATIONS iterations.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .integrals import IntegralSet

OVERLAP_EIGENVALUE_FLOOR = 1e-8
MAX_ITERATIONS = 100
ENERGY_TOL = 1e-10    # Hartree
DENSITY_TOL = 1e-8    # rms change in P
DIIS_DEPTH = 8


@dataclass
class ScfResult:
    e_total: float
    e_electronic: float
    e_nuclear: float
    mo_coefficients: np.ndarray   # columns are MOs, ascending orbital energy
    mo_energies: np.ndarray
    density: np.ndarray
    fock: np.ndarray
    converged: bool
    history: List[Tuple[float, float]]  # (e_total, rms dP), one per iteration
    n_occupied: int

    @property
    def n_iterations(self) -> int:
        return len(self.history)


def density_matrix(mo_coefficients: np.ndarray, n_occupied: int) -> np.ndarray:
    """Closed-shell density P = 2 * C_occ C_occ^T."""
    c_occ = mo_coefficients[:, :n_occupied]
    return 2.0 * c_occ @ c_occ.T


def _lowdin(S: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(S)
    if evals.min() < OVERLAP_EIGENVALUE_FLOOR:
        raise ValueError(
            f"overlap matrix is numerically singular "
            f"(smallest eigenvalue {evals.min():.3e})")
    return evecs @ np.diag(evals ** -0.5) @ evecs.T


def _fock(h: np.ndarray, eri: np.ndarray, P: np.ndarray) -> np.ndarray:
    J = np.einsum("mnsl,ls->mn", eri, P)
    K = np.einsum("mlsn,ls->mn", eri, P)
    return h + J - 0.5 * K


def _solve_fock(F: np.ndarray, A: np.ndarray):
    Fp = A.T @ F @ A
    eps, Cp = np.linalg.eigh(Fp)
    return eps, A @ Cp


def run_rhf(integrals: IntegralSet, n_electrons: int) -> ScfResult:
    """Solve the closed-shell RHF equations for a precomputed integral set."""
    if n_electrons <= 0:
        raise ValueError("need at least two electrons")
    if n_electrons % 2 != 0:
        raise ValueError(
            f"restricted HF requires an even electron count, got {n_electrons}")
    n_occ = n_electrons // 2
    n = integrals.n_basis
    if n_occ > n:
        raise ValueError(
            f"{n_electrons} electrons do not fit in {n} spatial orbitals")

    S = integrals.overlap
    h = integrals.core_hamiltonian
    eri = integrals.eri
    A = _lowdin(S)

    # core-Hamiltonian initial guess
    eps, C = _solve_fock(h, A)
    P = density_matrix(C, n_occ)

    e_nuc = integrals.nuclear_repulsion
    e_elec = 0.0
    history: List[Tuple[float, float]] = []
    fock_list: List[np.ndarray] = []
    error_list: List[np.ndarray] = []
    # overlaps[i, j] = sum(e_i * e_j) of the kept error vectors
    overlaps = np.zeros((0, 0))
    converged = False

    for iteration in range(1, MAX_ITERATIONS + 1):
        F = _fock(h, eri, P)
        e_new = 0.5 * float(np.einsum("nm,mn->", P, h + F))

        err = A.T @ (F @ P @ S - S @ P @ F) @ A
        fock_list.append(F.copy())
        error_list.append(err)
        # only the new error vector's row of overlaps is new; B is symmetric
        overlaps = np.pad(overlaps, ((0, 1), (0, 1)))
        overlaps[-1] = overlaps[:, -1] = [float(np.sum(err * e))
                                          for e in error_list]
        if len(fock_list) > DIIS_DEPTH:
            fock_list.pop(0)
            error_list.pop(0)
            overlaps = overlaps[1:, 1:]
        if len(fock_list) >= 2:
            F_use = _diis_extrapolate(fock_list, overlaps)
            if F_use is not None:
                F = F_use

        eps, C = _solve_fock(F, A)
        P_new = density_matrix(C, n_occ)
        rms_dp = float(np.sqrt(np.mean((P_new - P) ** 2)))
        de = e_new - e_elec
        history.append((e_new + e_nuc, rms_dp))

        P = P_new
        e_elec = e_new
        if iteration > 1 and abs(de) < ENERGY_TOL and rms_dp < DENSITY_TOL:
            converged = True
            break

    # final self-consistent quantities for the converged density
    F = _fock(h, eri, P)
    e_elec = 0.5 * float(np.einsum("nm,mn->", P, h + F))
    eps, C = _solve_fock(F, A)

    return ScfResult(
        e_total=e_elec + e_nuc,
        e_electronic=e_elec,
        e_nuclear=e_nuc,
        mo_coefficients=C,
        mo_energies=eps,
        density=P,
        fock=F,
        converged=converged,
        history=history,
        n_occupied=n_occ,
    )


def _diis_extrapolate(fock_list, overlaps):
    """Pulay's DIIS Fock matrix from the kept Fock matrices and their
    error vectors' overlap matrix; None if the system is singular."""
    m = len(fock_list)
    B = np.empty((m + 1, m + 1))
    B[-1, :] = -1.0
    B[:, -1] = -1.0
    B[-1, -1] = 0.0
    B[:m, :m] = overlaps
    rhs = np.zeros(m + 1)
    rhs[-1] = -1.0
    try:
        coeffs = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(coeffs)):
        return None
    F = np.zeros_like(fock_list[0])
    for c, Fi in zip(coeffs[:-1], fock_list):
        F += c * Fi
    return F
