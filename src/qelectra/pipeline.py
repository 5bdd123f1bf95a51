"""Assembly line from a molecular geometry to a qubit Hamiltonian.

`assemble` runs what every method reads: basis lookup, integrals,
restricted Hartree-Fock and the optional active-space window. The
system it returns builds the rest (second quantization, the qubit
mapping, the sector and its block) on first use; the mapping shapes the
qubit Hamiltonian and the encoded sector, not the sector. The module
also carries the registry of shipped example molecules with their default
active spaces, chosen so the minimal-basis method comparison stays
representative while every system remains exactly diagonalizable.
"""

import os
from functools import cached_property
from math import comb
import numpy as np
from dataclasses import dataclass
from importlib import resources
from typing import Dict, Optional, Tuple

from . import oracle
from .basis import load_basis
from .molecule import Molecule, from_atom_list, load_xyz, parse_xyz
from .integrals import compute_integrals, IntegralSet
from .scf import ScfResult, run_rhf
from .fermion import (ActiveSpaceSpec, FermionOperator, SpinOrbitalIntegrals,
                      build_hamiltonian, frozen_orbitals, mo_spatial_integrals,
                      spatial_active_space, to_spin_orbitals)
from .pauli import MappingKind, PauliSum, map_fermion, sector_basis

# Active windows keyed by canonical formula: (n_active_electrons,
# n_active_spatial_orbitals). Three constraints shape these. The window
# must keep each example at <= 12 qubits, where a VQE run stays quick:
# its cost grows with the sector's determinants and, for a shot run, the
# mapped terms it measures (FCI and VQE obey the CLI's sector cap, and HF
# maps no Hamiltonian). Its boundaries should
# not split a degenerate shell (the e pair of NH3, the t2 triples
# of CH4): a window cutting through a degenerate shell selects an
# arbitrary rotation of that subspace, so its correlation energy changes
# when the molecule is merely reoriented in the input file.
# And the retained correlation must stay within the ~50 mHa single-
# reference regime these comparisons illustrate. CO2 cannot satisfy the
# last two at once (every whole-shell window containing the pi* pair
# carries ~72 mHa of static correlation), so it keeps a boundary through
# the pi shells and its correlation energy is convention-dependent at the
# few-mHa level; the other five windows are rotation-invariant.
DEFAULT_ACTIVE_SPACES: Dict[str, Tuple[int, int]] = {
    "H2": (2, 2),
    "HLi": (2, 5),
    "H2O": (8, 6),
    "H3N": (8, 5),
    "CH4": (6, 6),
    "CO2": (8, 5),
}

# canonical formula -> conventional display name where they differ
DISPLAY_NAMES: Dict[str, str] = {
    "HLi": "LiH",
    "H3N": "NH3",
}

SHIPPED_MOLECULES: Dict[str, str] = {
    "h2": "H2",
    "lih": "LiH",
    "h2o": "H2O",
    "nh3": "NH3",
    "ch4": "CH4",
    "co2": "CO2",
}


def canonical_formula(molecule: Molecule) -> str:
    """Hill-convention formula: C, then H, then the rest alphabetically."""
    counts: Dict[str, int] = {}
    for atom in molecule.atoms:
        counts[atom.symbol] = counts.get(atom.symbol, 0) + 1

    def rank(symbol: str):
        return (symbol != "C", symbol != "H", symbol)

    parts = []
    for symbol in sorted(counts, key=rank):
        n = counts[symbol]
        parts.append(symbol + (str(n) if n > 1 else ""))
    return "".join(parts)


def display_name(molecule: Molecule) -> str:
    formula = canonical_formula(molecule)
    return molecule.name or DISPLAY_NAMES.get(formula, formula)


def default_active_space(molecule: Molecule) -> Optional[ActiveSpaceSpec]:
    """Registry lookup; None means use the full orbital space."""
    window = DEFAULT_ACTIVE_SPACES.get(canonical_formula(molecule))
    if window is None:
        return None
    return ActiveSpaceSpec(*window)


def shipped_geometry(name: str) -> Molecule:
    """Load one of the packaged example molecules by short name."""
    key = name.strip().lower()
    if key not in SHIPPED_MOLECULES:
        raise ValueError(
            f"unknown shipped molecule {name!r}; available: "
            + ", ".join(SHIPPED_MOLECULES))
    text = (resources.files("qelectra") / "geometries"
            / f"{key}.xyz").read_text()
    return parse_xyz(text, name=SHIPPED_MOLECULES[key])


def load_molecule_argument(argument: str) -> Molecule:
    """Resolve a CLI molecule argument: a file path or a shipped name."""
    if os.path.exists(argument):
        return load_xyz(argument)
    if argument.strip().lower() in SHIPPED_MOLECULES:
        return shipped_geometry(argument)
    raise FileNotFoundError(
        f"no such file {argument!r} and it is not a shipped molecule name "
        f"({', '.join(SHIPPED_MOLECULES)})")


@dataclass
class AssembledSystem:
    """Everything the methods need for one geometry, each part built once.

    `assemble` fills the fields. The properties are built on first use
    and kept, so `hf` builds no Hamiltonian and a shot-sampled VQE no
    block; a copy made with `dataclasses.replace` builds its own.
    """
    molecule: Molecule
    integrals: IntegralSet
    scf: ScfResult
    # the spatial integrals of the window `spin_orbitals` expands, for
    # file export: (h, eri, core energy, electrons) of spatial_active_space
    active_integrals: Tuple[np.ndarray, np.ndarray, float, int]
    active_space: Optional[ActiveSpaceSpec]    # None: the full space
    mapping: MappingKind

    @property
    def n_qubits(self) -> int:
        return 2 * self.active_integrals[0].shape[0]

    @cached_property
    def spin_orbitals(self) -> SpinOrbitalIntegrals:
        return to_spin_orbitals(*self.active_integrals)

    @cached_property
    def hamiltonian(self) -> FermionOperator:
        return build_hamiltonian(self.spin_orbitals)

    @cached_property
    def qubit_hamiltonian(self) -> PauliSum:
        return map_fermion(self.hamiltonian, self.mapping, self.n_qubits)

    def _encoded(self, kind: MappingKind) -> np.ndarray:
        half = self.spin_orbitals.n_electrons // 2
        return sector_basis(kind, self.n_qubits, half, half)

    @cached_property
    def sector(self) -> np.ndarray:
        """Occupation masks (mode m at bit m) of the closed-shell
        (N, S_z = 0) determinants in alpha-beta string order, whatever the
        mapping: the rows of the FCI block and of the UCCSD amplitudes.
        They are their own Jordan-Wigner states; RHF and the active window
        already require an even electron count."""
        return self._encoded(MappingKind.JORDAN_WIGNER)

    @cached_property
    def encoded_sector(self) -> np.ndarray:
        """`sector` encoded under `mapping`, row for row."""
        return self._encoded(self.mapping)

    @cached_property
    def block(self) -> oracle.SparseBlock:
        """The qubit Hamiltonian on `encoded_sector`, built once: FCI
        diagonalizes it and exact VQE takes its expectation values on it."""
        return oracle.pauli_to_sparse(self.qubit_hamiltonian,
                                      self.encoded_sector)


def _fitted_window(molecule: Molecule,
                   spec: Optional[ActiveSpaceSpec]) -> ActiveSpaceSpec:
    """The window `spec` names, or for None the full space (all electrons
    in all orbitals); the ValueError of `fermion.frozen_orbitals` if it
    does not fit the basis. Counted from the basis size alone."""
    n_spatial = len(load_basis(molecule))
    window = spec or ActiveSpaceSpec(molecule.n_electrons, n_spatial)
    frozen_orbitals(molecule.n_electrons, n_spatial, window)
    return window


def window_size(molecule: Molecule,
                active: Optional[ActiveSpaceSpec] = None) -> Tuple[int, int]:
    """Qubits and sector determinants of the window `assemble` would fold.

    Counted from the basis size alone, so an oversized register or sector,
    or a window that does not fit, is refused before any integral.
    """
    spec = _fitted_window(molecule, active or default_active_space(molecule))
    n_orbitals = spec.n_active_orbitals
    return 2 * n_orbitals, comb(n_orbitals, spec.n_active_electrons // 2) ** 2


def assemble(molecule: Molecule, active: Optional[ActiveSpaceSpec] = None,
             mapping: MappingKind = MappingKind.PARITY,
             integrals: Optional[IntegralSet] = None) -> AssembledSystem:
    """Run the chain up to the active window; the system builds the rest.

    `active` is the window to fold; None takes the shipped registry's
    window, or the full orbital space for a molecule not in it. A window
    that does not fit is refused before any integral. `integrals` are the
    molecule's own when the caller has them (a bond scan computes a pass
    of its grid at once); None computes them here.
    """
    spec = active or default_active_space(molecule)
    window = _fitted_window(molecule, spec)
    if integrals is None:
        integrals = compute_integrals(molecule)
    scf = run_rhf(integrals, molecule.n_electrons)
    h_mo, eri_mo = mo_spatial_integrals(integrals, scf.mo_coefficients)
    active_integrals = spatial_active_space(
        h_mo, eri_mo, integrals.nuclear_repulsion, molecule.n_electrons,
        window)
    return AssembledSystem(molecule=molecule, integrals=integrals, scf=scf,
                           active_integrals=active_integrals,
                           active_space=spec, mapping=mapping)


def diatomic_geometry(symbols: Tuple[str, str], bond_length: float,
                      charge: int = 0, name: str = "") -> Molecule:
    """Two atoms on the z axis separated by bond_length (Bohr)."""
    a, b = symbols
    return from_atom_list([(a, (0.0, 0.0, 0.0)), (b, (0.0, 0.0, bond_length))],
                          charge=charge, name=name)
