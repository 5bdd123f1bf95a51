"""Molecular geometry container and XYZ input handling.

All internal coordinates are in Bohr; XYZ files are read as Angstrom and
converted on input. Energies elsewhere in the package are in Hartree.
"""

import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .elements import atomic_number

# CODATA 2018 Bohr radius, Angstrom per Bohr.
BOHR_PER_ANGSTROM = 1.0 / 0.529177210903
# Nuclei nearer than this are refused before any integral: it is far below
# any bond (H2's is 1.4 Bohr), and nearer, basis functions become dependent.
MIN_SEPARATION_BOHR = 0.1
# Coordinates beyond this magnitude are refused before any integral: a
# hundred times the longest dissociation scan, and far below overflow.
MAX_COORDINATE_BOHR = 1e4


@dataclass(frozen=True)
class Atom:
    symbol: str
    atomic_number: int
    position: Tuple[float, float, float]  # Bohr


@dataclass
class Molecule:
    atoms: List[Atom]
    name: str
    charge: int = 0

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_electrons(self) -> int:
        return sum(a.atomic_number for a in self.atoms) - self.charge

    def coordinates(self) -> np.ndarray:
        """(n_atoms, 3) array of positions in Bohr."""
        return np.array([a.position for a in self.atoms], dtype=float)

    def charges(self) -> np.ndarray:
        return np.array([a.atomic_number for a in self.atoms], dtype=float)


def make_atom(symbol: str, position_bohr) -> Atom:
    z = atomic_number(symbol)
    x, y, zc = (float(v) for v in position_bohr)
    if not np.isfinite([x, y, zc]).all():
        raise ValueError(
            f"non-finite coordinate for {symbol}: {(x, y, zc)}")
    if max(abs(x), abs(y), abs(zc)) > MAX_COORDINATE_BOHR:
        raise ValueError(f"coordinate of {symbol} at {(x, y, zc)} Bohr lies "
                         f"beyond the {MAX_COORDINATE_BOHR:g} Bohr bound")
    return Atom(symbol.strip().capitalize(), z, (x, y, zc))


def from_atom_list(spec, charge: int = 0, name: str = "") -> Molecule:
    """Build a molecule from [(symbol, (x, y, z) in Bohr), ...]."""
    atoms = [make_atom(sym, pos) for sym, pos in spec]
    mol = Molecule(atoms=atoms, name=name, charge=charge)
    _validate(mol)
    return mol


def parse_xyz(text: str, name: str = "") -> Molecule:
    """Parse standard XYZ text (coordinates in Angstrom).

    Line 1 is the atom count, line 2 a free-form comment, then one
    `symbol x y z` line per atom. The charge is not part of the format:
    the molecule is neutral.
    """
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ValueError("empty XYZ input")
    try:
        n_decl = int(lines[0].split()[0])
    except (IndexError, ValueError):
        raise ValueError("first XYZ line must be the atom count") from None
    if n_decl < 1:
        raise ValueError(f"XYZ atom count must be at least 1, got {n_decl}")
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) < n_decl:
        raise ValueError(f"XYZ declares {n_decl} atoms but only {len(body)} coordinate lines follow")
    atoms = []
    for ln in body[:n_decl]:
        parts = ln.split()
        if len(parts) < 4:
            raise ValueError(f"malformed XYZ coordinate line: {ln!r}")
        sym = parts[0]
        try:
            pos_ang = [float(p) for p in parts[1:4]]
        except ValueError:
            raise ValueError(f"non-numeric coordinate in line: {ln!r}") from None
        pos_bohr = tuple(v * BOHR_PER_ANGSTROM for v in pos_ang)
        atoms.append(make_atom(sym, pos_bohr))
    mol = Molecule(atoms=atoms, name=name)
    _validate(mol)
    return mol


def load_xyz(path) -> Molecule:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_xyz(text, name=stem)


def nuclear_repulsion(molecule: Molecule) -> float:
    """Coulomb repulsion sum over nuclear pairs, in Hartree (atomic units)."""
    coords = molecule.coordinates()
    charges = molecule.charges()
    energy = 0.0
    n = len(charges)
    for i in range(n):
        for j in range(i + 1, n):
            r = float(np.linalg.norm(coords[i] - coords[j]))
            if r <= 0.0:
                raise ValueError(f"coincident nuclei: atoms {i} and {j}")
            energy += charges[i] * charges[j] / r
    return energy


def _validate(mol: Molecule) -> None:
    if mol.n_atoms == 0:
        raise ValueError("molecule has no atoms")
    if mol.n_electrons < 0:
        raise ValueError(f"charge {mol.charge} leaves a negative electron count")
    coords = mol.coordinates()
    for i in range(mol.n_atoms):
        for j in range(i + 1, mol.n_atoms):
            r = np.linalg.norm(coords[i] - coords[j])
            if r < MIN_SEPARATION_BOHR:
                raise ValueError(
                    f"nuclei {i} ({mol.atoms[i].symbol}) and {j} "
                    f"({mol.atoms[j].symbol}) are {r:.4g} Bohr apart, "
                    f"closer than the {MIN_SEPARATION_BOHR} Bohr minimum")
