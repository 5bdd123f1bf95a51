"""Second-quantized electronic Hamiltonians in a spin-orbital basis.

Conventions, fixed package-wide:
  - spin orbitals interleave spin per spatial orbital: 2p is (p, alpha),
    2p + 1 is (p, beta);
  - the two-body tensor is stored in physicists' notation <pq|rs>, and the
    Hamiltonian is  H = E_core + sum_pq h_pq a_p^ a_q
                      + 1/2 sum_pqrs <pq|rs> a_p^ a_q^ a_s a_r;
  - a FermionOperator term is a product of ladder operators, each an
    (orbital index, dagger flag) pair, kept exactly as constructed; the
    qubit mappings take the terms in that order.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

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

    The terms are held in order as `runs` of equal-length terms, each
    (modes, daggers, coeffs): in a run of k-factor terms, row t of the
    (terms, k) arrays `modes` (int64) and `daggers` (bool) lists term t's
    factors left to right, and `coeffs[t]` (complex) is its coefficient.
    A run of length 0 holds identity (constant) terms. No term appears
    twice.
    """

    def __init__(self, runs: Sequence[Tuple[np.ndarray, np.ndarray,
                                            np.ndarray]]):
        self.runs = tuple(runs)
        for modes, daggers, coeffs in self.runs:
            if (modes.ndim != 2 or daggers.shape != modes.shape
                    or coeffs.shape != modes.shape[:1]):
                raise ValueError(
                    "a run needs modes and dagger flags of one (terms, "
                    "length) shape and one coefficient per term")

    def __len__(self) -> int:
        return sum(coeffs.size for _, _, coeffs in self.runs)

    @property
    def terms(self) -> Mapping[TermKey, complex]:
        """The terms as a read-only {key: coefficient} map (`_Terms`)."""
        return _Terms(self)


class _Terms(Mapping):
    """A FermionOperator's terms as a read-only map
    {((mode, dagger), ...): coefficient}, in order, each dagger flag 1 or
    0. Its length is the operator's; the keys are built on first lookup."""

    def __init__(self, op: FermionOperator):
        self._op = op

    def __len__(self) -> int:
        return len(self._op)

    @cached_property
    def _map(self) -> Dict[TermKey, complex]:
        out: Dict[TermKey, complex] = {}
        for modes, daggers, coeffs in self._op.runs:
            keys = (tuple(zip(m, d)) for m, d in zip(
                modes.tolist(), daggers.astype(np.int64).tolist()))
            out.update(zip(keys, coeffs.tolist()))
        return out

    def __getitem__(self, key: TermKey) -> complex:
        return self._map[key]

    def __iter__(self):
        return iter(self._map)


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


def frozen_orbitals(n_electrons: int, n_spatial: int,
                    spec: ActiveSpaceSpec) -> int:
    """Orbitals frozen below the window; ValueError if it does not fit."""
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
    return n_frozen


def spatial_active_space(h_mo: np.ndarray, eri_mo: np.ndarray,
                         core_energy: float, n_electrons: int,
                         spec: ActiveSpaceSpec):
    """Frozen-core reduction on spatial MO integrals (chemists' notation).

    Returns (h_active, eri_active, core_active, n_active_electrons) with
    the closed-shell frozen orbitals folded in: the constant picks up
    2 h_ii + sum_ij [2(ii|jj) - (ij|ji)], the window one-body picks up
    sum_i [2(pq|ii) - (pi|iq)].
    """
    n_frozen = frozen_orbitals(n_electrons, h_mo.shape[0], spec)
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

    Every index tuple with a coefficient above TERM_THRESHOLD is emitted,
    the one-body terms by (p, q) and then the two-body terms by
    (p, q, r, s), each ascending; terms that vanish identically (repeated
    creation or annihilation index) are skipped. Each kind is one run
    filled from the index arrays of one np.nonzero pass, after a run of
    the constant term when it is nonzero.
    """
    runs = []
    if abs(so.core_energy) > 0.0:
        runs.append((np.zeros((1, 0), dtype=np.int64),
                     np.zeros((1, 0), dtype=bool),
                     np.array([so.core_energy], dtype=complex)))
    h = so.one_body
    half_g = 0.5 * so.two_body
    distinct = ~np.eye(so.n_orbitals, dtype=bool)
    # np.nonzero lists indices in C order, the order of loops over p, q, ...
    p, q = np.nonzero(abs(h) > TERM_THRESHOLD)
    runs.append((np.stack([p, q], axis=1),
                 np.broadcast_to([True, False], (p.size, 2)),
                 h[p, q].astype(complex)))
    p, q, r, s = np.nonzero((abs(half_g) > TERM_THRESHOLD)
                            & distinct[:, :, None, None] & distinct)
    runs.append((np.stack([p, q, s, r], axis=1),
                 np.broadcast_to([True, True, False, False], (p.size, 4)),
                 half_g[p, q, r, s].astype(complex)))
    return FermionOperator(runs)
