"""qelectra: minimal-basis electronic structure with a simulated quantum register.

End-to-end workflow: Gaussian integrals -> restricted Hartree-Fock ->
second-quantized Hamiltonian -> fermion-to-qubit mapping -> statevector
VQE, with exact diagonalization as the cross-checking oracle.
"""

__version__ = "0.1.0"

from .basis import ContractedGaussian, load_basis
from .fcidump import read_fcidump, write_fcidump
from .fermion import (ActiveSpaceSpec, FermionOperator, SpinOrbitalIntegrals,
                      build_hamiltonian, mo_spatial_integrals,
                      number_operator, spatial_active_space, sz_operator,
                      to_spin_orbitals)
from .integrals import IntegralSet, boys, compute_integrals
from .molecule import Atom, Molecule, from_atom_list, load_xyz
from .oracle import exact_ground_energy, lowest_eigenvalues, pauli_to_sparse
from .pauli import (MappingKind, PauliString, PauliSum, anticommutation_check,
                    encode_occupation, ladder_image, map_fermion,
                    mapping_from_name, sector_basis)
from .pipeline import (AssembledSystem, assemble, diatomic_geometry,
                       shipped_geometry)
from .scf import ScfResult, run_rhf
from .simulator import Circuit, StateVector
from .vqe import (OptimizerConfig, UccsdAnsatz, VqeResult, ansatz_circuit,
                  build_uccsd, export_history, run_vqe)

__all__ = [
    "ActiveSpaceSpec", "AssembledSystem", "Atom", "Circuit",
    "ContractedGaussian", "FermionOperator", "IntegralSet", "MappingKind",
    "Molecule", "OptimizerConfig", "PauliString", "PauliSum", "ScfResult",
    "SpinOrbitalIntegrals", "StateVector", "UccsdAnsatz", "VqeResult",
    "__version__", "ansatz_circuit", "anticommutation_check",
    "assemble", "boys", "build_hamiltonian", "build_uccsd",
    "compute_integrals", "diatomic_geometry", "encode_occupation",
    "exact_ground_energy", "export_history", "from_atom_list", "ladder_image",
    "load_basis", "load_xyz", "lowest_eigenvalues", "map_fermion",
    "mapping_from_name", "mo_spatial_integrals", "number_operator",
    "pauli_to_sparse", "read_fcidump", "run_rhf", "run_vqe", "sector_basis",
    "shipped_geometry", "spatial_active_space", "sz_operator",
    "to_spin_orbitals", "write_fcidump",
]
