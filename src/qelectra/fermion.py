"""Second-quantized electronic Hamiltonians in a spin-orbital basis.

Conventions, fixed package-wide:
  - spin orbitals interleave spin per spatial orbital: 2p is (p, alpha),
    2p + 1 is (p, beta);
  - the two-body tensor is stored in physicists' notation <pq|rs>, and the
    Hamiltonian is  H = E_core + sum_pq h_pq a_p^ a_q
                      + 1/2 sum_pqrs <pq|rs> a_p^ a_q^ a_s a_r;
  - FermionOperator terms are tuples of (orbital index, dagger flag), kept
    exactly as constructed; the qubit mappings take them in that order.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .integrals import IntegralSet

TermKey = Tuple[Tuple[int, int], ...]

# integrals at or below this magnitude emit no Hamiltonian term
TERM_THRESHOLD = 1e-12


@dataclass
class SpinOrbitalIntegrals:
    core_energy: float        # nuclear repulsion plus any frozen-core energy
    one_body: np.ndarray      # (n_so, n_so)
    two_body: np.ndarray      # <pq|rs>, (n_so, n_so, n_so, n_so)
    n_orbitals: int           # number of spin orbitals
    n_electrons: int          # electrons occupying them


@dataclass
class ActiveSpaceSpec:
    n_active_electrons: int
    n_active_orbitals: int    # spatial orbitals kept


class FermionOperator:
    """Linear combination of products of fermionic ladder operators.

    Terms map an ordered tuple of (index, dagger) pairs to a complex
    coefficient; the empty tuple is the identity (constant) term.
    """

    def __init__(self, terms: Dict[TermKey, complex] = None):
        self.terms: Dict[TermKey, complex] = dict(terms) if terms else {}

    def add_term(self, key: TermKey, coeff: complex) -> None:
        if key in self.terms:
            self.terms[key] += coeff
        else:
            self.terms[key] = coeff

    def constant(self) -> complex:
        return self.terms.get((), 0.0)

    def __len__(self) -> int:
        return len(self.terms)


def mo_spatial_integrals(integrals: IntegralSet, mo_coefficients: np.ndarray):
    """Transform AO integrals to the MO basis.

    Returns (h_mo, eri_mo) with eri_mo in chemists' notation (pq|rs). The
    quartic transform runs as four sequential one-index contractions.
    """
    C = mo_coefficients
    h_mo = C.T @ integrals.core_hamiltonian @ C
    g = integrals.eri
    g = np.einsum("mnls,mi->inls", g, C, optimize=True)
    g = np.einsum("inls,nj->ijls", g, C, optimize=True)
    g = np.einsum("ijls,lk->ijks", g, C, optimize=True)
    g = np.einsum("ijks,sl->ijkl", g, C, optimize=True)
    return h_mo, g


def to_spin_orbitals(h_mo: np.ndarray, eri_mo: np.ndarray, core_energy: float,
                     n_electrons: int) -> SpinOrbitalIntegrals:
    """Expand spatial MO integrals into interleaved spin orbitals.

    Converts chemists' (pq|rs) into physicists' <pq|rs> = (pr|qs) while
    blocking in the spin deltas.
    """
    n = h_mo.shape[0]
    eye2 = np.eye(2)
    one = np.einsum("pq,st->psqt", h_mo, eye2).reshape(2 * n, 2 * n)
    # physicists' spatial tensor: <pq|rs> = (pr|qs)
    phys = eri_mo.transpose(0, 2, 1, 3)
    two = np.einsum("pqrs,ab,cd->paqcrbsd", phys, eye2, eye2,
                    optimize=True).reshape(2 * n, 2 * n, 2 * n, 2 * n)
    return SpinOrbitalIntegrals(core_energy=core_energy, one_body=one,
                                two_body=two, n_orbitals=2 * n,
                                n_electrons=n_electrons)


def spatial_active_space(h_mo: np.ndarray, eri_mo: np.ndarray,
                         core_energy: float, n_electrons: int,
                         spec: ActiveSpaceSpec):
    """Frozen-core reduction on spatial MO integrals (chemists' notation).

    Returns (h_active, eri_active, core_active, n_active_electrons) with
    the closed-shell frozen orbitals folded in: the constant picks up
    2 h_ii + sum_ij [2(ii|jj) - (ij|ji)], the window one-body picks up
    sum_i [2(pq|ii) - (pi|iq)].
    """
    n_spatial = h_mo.shape[0]
    n_frozen2 = n_electrons - spec.n_active_electrons
    if n_frozen2 < 0 or n_frozen2 % 2 != 0:
        raise ValueError(
            f"cannot freeze {n_electrons} -> {spec.n_active_electrons} "
            f"electrons: need an even, nonnegative difference")
    n_frozen = n_frozen2 // 2
    if n_frozen + spec.n_active_orbitals > n_spatial:
        raise ValueError(
            f"active window ({n_frozen} frozen + {spec.n_active_orbitals} "
            f"active) exceeds {n_spatial} spatial orbitals")
    if spec.n_active_electrons > 2 * spec.n_active_orbitals:
        raise ValueError("more active electrons than active spin orbitals")

    frozen = list(range(n_frozen))
    active = list(range(n_frozen, n_frozen + spec.n_active_orbitals))

    core = core_energy
    for i in frozen:
        core += 2.0 * h_mo[i, i]
    for i in frozen:
        for j in frozen:
            core += 2.0 * eri_mo[i, i, j, j] - eri_mo[i, j, j, i]

    h_act = h_mo[np.ix_(active, active)].copy()
    for i in frozen:
        h_act += 2.0 * eri_mo[np.ix_(active, active, [i], [i])][:, :, 0, 0]
        h_act -= eri_mo[np.ix_(active, [i], [i], active)][:, 0, 0, :]

    eri_act = eri_mo[np.ix_(active, active, active, active)].copy()
    return h_act, eri_act, core, spec.n_active_electrons


def build_hamiltonian(so: SpinOrbitalIntegrals) -> FermionOperator:
    """Assemble the second-quantized Hamiltonian from spin-orbital integrals.

    Every index tuple with a coefficient above TERM_THRESHOLD is emitted;
    terms that vanish identically (repeated creation or annihilation index)
    are skipped.
    """
    op = FermionOperator()
    if abs(so.core_energy) > 0.0:
        op.add_term((), complex(so.core_energy))
    n = so.n_orbitals
    h = so.one_body
    g = so.two_body
    for p in range(n):
        for q in range(n):
            c = complex(h[p, q])
            if abs(c) > TERM_THRESHOLD:
                op.add_term(((p, 1), (q, 0)), c)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            for r in range(n):
                for s in range(n):
                    if r == s:
                        continue
                    c = 0.5 * complex(g[p, q, r, s])
                    if abs(c) > TERM_THRESHOLD:
                        op.add_term(((p, 1), (q, 1), (s, 0), (r, 0)), c)
    return op


def number_operator(n_modes: int) -> FermionOperator:
    """Total particle number, sum of a_p^ a_p over all modes."""
    op = FermionOperator()
    for p in range(n_modes):
        op.add_term(((p, 1), (p, 0)), 1.0)
    return op


def sz_operator(n_modes: int) -> FermionOperator:
    """Spin projection S_z for the interleaved even-alpha, odd-beta layout."""
    if n_modes % 2 != 0:
        raise ValueError("spin layout needs an even number of modes")
    op = FermionOperator()
    for p in range(0, n_modes, 2):
        op.add_term(((p, 1), (p, 0)), 0.5)
        op.add_term(((p + 1, 1), (p + 1, 0)), -0.5)
    return op
