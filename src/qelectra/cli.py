"""Command-line front end: single-point method comparisons and bond scans.

Exit codes: 0 success, 1 input error, 2 at least one method failed to
converge. All serialized output (json, csv, table) is byte-stable for an
identical spec and seed.
"""

import argparse
import dataclasses
import json
import sys
import numpy as np
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .basis import BASIS_NAME
from .fcidump import write_fcidump
from .fermion import ActiveSpaceSpec
from .molecule import Molecule
from .oracle import exact_ground_energy
from .pauli import MappingKind, mapping_from_name
from .pipeline import (AssembledSystem, assemble, canonical_formula,
                       diatomic_geometry, display_name,
                       load_molecule_argument, sector_size)
from .reference import REFERENCE_FOOTNOTE, reference_for
from .vqe import OptimizerConfig, build_uccsd, optimizer_kind, run_vqe

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

_METHOD_ORDER = ("hf", "vqe", "fci")

# FCI sector size the CLI accepts: CH4 (8e, 8o) has 4,900 determinants
# and a 1.6 M-entry block; the full CH4 space has 15,876
MAX_FCI_DETERMINANTS = 8192


@dataclass
class RunSpec:
    """Everything one invocation needs, resolved and validated."""
    molecule: Molecule
    methods: Tuple[str, ...] = ("hf",)
    mapping: MappingKind = MappingKind.PARITY
    active: Optional[ActiveSpaceSpec] = None    # None: the shipped window
    optimizer: Optional[str] = None             # None: by the shot setting
    shots: Optional[int] = None
    seed: int = 0
    output: str = "table"
    fcidump_path: Optional[str] = None
    reference_table: bool = False


@dataclass
class MethodResult:
    method: str
    energy: float
    converged: bool
    iterations: int = 0
    evaluations: int = 0


@dataclass
class ComparisonReport:
    molecule_name: str
    formula: str
    mapping: str
    active_space: Optional[Tuple[int, int]]
    n_qubits: int
    seed: int
    shots: Optional[int]
    optimizer: Optional[str]
    results: List[MethodResult] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def result(self, method: str) -> Optional[MethodResult]:
        for row in self.results:
            if row.method == method:
                return row
        return None

    @property
    def all_converged(self) -> bool:
        return all(row.converged for row in self.results)


def execute(spec: RunSpec,
            system: Optional[AssembledSystem] = None) -> ComparisonReport:
    """Run the requested methods on one geometry."""
    # refused before any integral: bfgs differentiates exact expectations
    if spec.shots is not None and spec.optimizer not in (None, "spsa"):
        raise ValueError(f"--optimizer {spec.optimizer} needs exact "
                         "expectations; use --optimizer spsa with --shots, "
                         "or --shots exact")
    if "fci" in spec.methods:
        n_determinants = (system.sector.size if system is not None else
                          sector_size(spec.molecule, spec.active))
        if n_determinants > MAX_FCI_DETERMINANTS:
            raise ValueError(
                f"fci needs at most {MAX_FCI_DETERMINANTS} determinants, "
                f"got {n_determinants}; restrict the problem with "
                "--active-space")
    if system is None:
        system = assemble(spec.molecule, active=spec.active,
                          mapping=spec.mapping)
    active = system.active_space
    report = ComparisonReport(
        molecule_name=display_name(system.molecule),
        formula=canonical_formula(system.molecule),
        mapping=system.mapping.value,
        active_space=(None if active is None
                      else (active.n_active_electrons,
                            active.n_active_orbitals)),
        n_qubits=system.n_qubits,
        seed=spec.seed,
        shots=spec.shots,
        optimizer=(optimizer_kind(spec.optimizer, spec.shots)
                   if "vqe" in spec.methods else None))

    for method in _METHOD_ORDER:
        if method not in spec.methods:
            continue
        if method == "hf":
            scf = system.scf
            row = MethodResult(method="hf", energy=float(scf.e_total),
                               converged=scf.converged,
                               iterations=scf.n_iterations,
                               evaluations=scf.n_iterations)
        elif method == "vqe":
            so = system.spin_orbitals
            ansatz = build_uccsd(so.n_orbitals, so.n_electrons)
            result = run_vqe(system, ansatz,
                             OptimizerConfig(kind=spec.optimizer,
                                             seed=spec.seed),
                             shots=spec.shots)
            row = MethodResult(method="vqe", energy=result.e_min,
                               converged=result.converged,
                               iterations=result.n_iterations,
                               evaluations=result.n_evaluations)
            if spec.shots is not None:
                report.notes.append(
                    f"vqe energies are sampled estimates at {spec.shots} "
                    "shots per term")
        else:
            energy = exact_ground_energy(system.block)
            row = MethodResult(method="fci", energy=energy, converged=True)
        report.results.append(row)

    if spec.fcidump_path:
        h_act, eri_act, core_act, n_act = system.active_integrals
        write_fcidump(spec.fcidump_path, h_act, eri_act, core_act, n_act)
    return report


# ---- bond scans -------------------------------------------------------------

@dataclass
class ScanPoint:
    r_bohr: float
    energies: Dict[str, float]
    converged: bool


def scan(spec: RunSpec, start: float, stop: float,
         steps: int) -> List[ScanPoint]:
    """Method energies along a diatomic bond-length grid (Bohr)."""
    if spec.molecule.n_atoms != 2:
        raise ValueError("--scan supports diatomic molecules only; got "
                         f"{spec.molecule.n_atoms} atoms")
    if steps < 1:
        raise ValueError("scan needs at least one step")
    if start <= 0 or stop <= 0:
        raise ValueError("bond lengths must be positive")
    symbols = (spec.molecule.atoms[0].symbol, spec.molecule.atoms[1].symbol)
    charge = spec.molecule.charge
    name = display_name(spec.molecule)
    points = []
    for r in np.linspace(start, stop, steps).tolist():
        geometry = diatomic_geometry(symbols, r, charge=charge, name=name)
        report = execute(dataclasses.replace(spec, molecule=geometry,
                                             fcidump_path=None))
        points.append(ScanPoint(r_bohr=r,
                                energies={row.method: float(row.energy)
                                          for row in report.results},
                                converged=report.all_converged))
    points.sort(key=lambda p: p.r_bohr)
    return points


# ---- rendering ---------------------------------------------------------------

def report_to_json(report: ComparisonReport,
                   include_reference: bool = False) -> str:
    doc = {
        "schema_version": 1,
        "tool": {"name": "qelectra", "version": __version__},
        "molecule": report.molecule_name,
        "formula": report.formula,
        "basis": BASIS_NAME,
        "mapping": report.mapping,
        "active_space": (None if report.active_space is None else
                         {"n_electrons": report.active_space[0],
                          "n_orbitals": report.active_space[1]}),
        "n_qubits": report.n_qubits,
        "seed": report.seed,
        "shots": report.shots,
        "optimizer": report.optimizer,
        "methods": {
            row.method: {
                "energy_hartree": row.energy,
                "converged": row.converged,
                "iterations": row.iterations,
                "evaluations": row.evaluations,
            } for row in report.results
        },
        "notes": list(report.notes),
    }
    if include_reference:
        ref = reference_for(report.formula)
        doc["reference"] = ref
        doc["notes"] = doc["notes"] + [REFERENCE_FOOTNOTE]
    return json.dumps(doc, indent=2, sort_keys=True)


def report_to_csv(report: ComparisonReport) -> str:
    lines = ["method,energy_hartree,iterations,evaluations,converged"]
    for row in report.results:
        lines.append(f"{row.method},{float(row.energy)!r},{row.iterations},"
                     f"{row.evaluations},{str(row.converged).lower()}")
    return "\n".join(lines)


def _aligned(columns: List[str], rows: List[List[str]]) -> List[str]:
    """Header, dashed rule and rows, each column padded to its widest cell."""
    widths = [max(len(col), max((len(r[i]) for r in rows), default=0))
              for i, col in enumerate(columns)]
    return ["  ".join(c.ljust(w) for c, w in zip(cells, widths))
            for cells in [columns, ["-" * w for w in widths]] + rows]


def render_table(report: ComparisonReport,
                 include_reference: bool = False) -> str:
    reference = reference_for(report.formula) if include_reference else None
    active = ("full space" if report.active_space is None
              else f"({report.active_space[0]}e, {report.active_space[1]}o)")
    head = (f"molecule: {report.molecule_name}   basis: {BASIS_NAME}   "
            f"mapping: {report.mapping}   active space: {active}   "
            f"qubits: {report.n_qubits}   seed: {report.seed}")

    columns = ["method", "energy (Ha)", "converged", "iterations",
               "evaluations"]
    if reference is not None:
        columns.append("published reference (Ha)")
    rows = []
    for row in report.results:
        cells = [row.method, f"{row.energy:.10f}",
                 "yes" if row.converged else "NO",
                 str(row.iterations), str(row.evaluations)]
        if reference is not None:
            ref_value = reference.get(row.method)
            cells.append("-" if ref_value is None else f"{ref_value:.10f}")
        rows.append(cells)
    if reference is not None and "dft" in reference:
        rows.append(["dft", "-", "-", "-", "-", f"{reference['dft']:.10f}"])

    lines = [head, ""] + _aligned(columns, rows)
    for note in report.notes:
        lines.append(f"note: {note}")
    if reference is not None:
        lines.append(f"note: {REFERENCE_FOOTNOTE}")
    elif include_reference:
        lines.append("note: no published reference values for "
                     f"{report.formula}")
    return "\n".join(lines)


def scan_to_csv(points: List[ScanPoint],
                methods: Sequence[str]) -> str:
    lines = ["r_bohr,method,energy"]
    for point in points:
        for method in methods:
            if method in point.energies:
                lines.append(f"{point.r_bohr!r},{method},"
                             f"{point.energies[method]!r}")
    return "\n".join(lines)


def scan_to_json(points: List[ScanPoint], spec: RunSpec,
                 start: float, stop: float, steps: int) -> str:
    doc = {
        "schema_version": 1,
        "tool": {"name": "qelectra", "version": __version__},
        "molecule": display_name(spec.molecule),
        "basis": BASIS_NAME,
        "mapping": spec.mapping.value,
        "seed": spec.seed,
        "scan": {"start_bohr": start, "stop_bohr": stop, "steps": steps},
        "points": [{"r_bohr": p.r_bohr, "converged": p.converged,
                    "methods": p.energies} for p in points],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def scan_to_table(points: List[ScanPoint], methods: Sequence[str]) -> str:
    columns = ["r (Bohr)"] + [f"{m} (Ha)" for m in methods]
    rows = []
    for point in points:
        cells = [f"{point.r_bohr:.6f}"]
        for method in methods:
            value = point.energies.get(method)
            cells.append("-" if value is None else f"{value:.10f}")
        rows.append(cells)
    return "\n".join(_aligned(columns, rows))


# ---- argument handling ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qelectra",
        description="Minimal-basis electronic structure on simulated "
                    "qubits: Hartree-Fock, UCCSD-VQE and exact "
                    "diagonalization side by side.")
    parser.add_argument("--molecule", required=True,
                        help="path to an .xyz file (Angstrom), or a "
                             "shipped name: h2, lih, h2o, nh3, ch4, co2")
    parser.add_argument("--basis", default=BASIS_NAME, type=str.lower,
                        choices=(BASIS_NAME,),
                        help=f"basis set; {BASIS_NAME} is the one shipped")
    parser.add_argument("--method", default="hf",
                        help="comma-separated subset of hf,vqe,fci "
                             "(default: hf)")
    parser.add_argument("--mapping", default="parity",
                        help="fermion-to-qubit mapping: jw, parity or bk "
                             "(default: parity)")
    parser.add_argument("--active-space", default=None, metavar="NE,NO",
                        help="override the active window: electrons,"
                             "spatial-orbitals (for example 8,6)")
    parser.add_argument("--optimizer", default=None,
                        choices=["bfgs", "spsa"],
                        help="vqe optimizer (default: bfgs for exact "
                             "expectations, spsa with --shots)")
    parser.add_argument("--shots", default="exact",
                        help="'exact' or a shot count per measured term "
                             "(default: exact)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every stochastic component "
                             "(default: 0)")
    parser.add_argument("--scan", default=None, metavar="START,STOP,STEPS",
                        help="diatomic bond scan in Bohr, for example "
                             "0.9,3.5,14")
    parser.add_argument("--output", default="table",
                        choices=["json", "csv", "table"],
                        help="output format (default: table)")
    parser.add_argument("--fcidump", default=None, metavar="PATH",
                        help="write the active-window integrals to PATH "
                             "in FCIDUMP format")
    parser.add_argument("--reference-table", action="store_true",
                        help="append published reference energies where "
                             "available")
    parser.add_argument("--version", action="version",
                        version=f"qelectra {__version__}")
    return parser


def _parse_methods(raw: str) -> Tuple[str, ...]:
    methods = tuple(m.strip().lower() for m in raw.split(",") if m.strip())
    if not methods:
        raise ValueError("--method needs at least one of hf,vqe,fci")
    for m in methods:
        if m == "dft":
            raise ValueError(
                "dft is out of scope here; its published energies are "
                "display-only via --reference-table (see README)")
        if m not in _METHOD_ORDER:
            raise ValueError(f"unknown method {m!r}; choose from hf,vqe,fci")
    return methods


def _parse_active(raw: Optional[str]) -> Optional[ActiveSpaceSpec]:
    if raw is None:
        return None
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError("--active-space expects NE,NO (for example 8,6)")
    try:
        n_e, n_o = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("--active-space expects two integers") from None
    if n_e < 1 or n_o < 1:
        raise ValueError("--active-space values must be positive")
    return ActiveSpaceSpec(n_e, n_o)


def _parse_shots(raw: str) -> Optional[int]:
    if raw.strip().lower() == "exact":
        return None
    try:
        shots = int(raw)
    except ValueError:
        raise ValueError("--shots expects 'exact' or an integer") from None
    if shots < 1:
        raise ValueError("--shots must be positive")
    return shots


def _parse_scan(raw: str) -> Tuple[float, float, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError("--scan expects START,STOP,STEPS")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("--scan expects two floats and an integer") from None
    return start, stop, steps


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        molecule = load_molecule_argument(args.molecule)
        spec = RunSpec(molecule=molecule,
                       methods=_parse_methods(args.method),
                       mapping=mapping_from_name(args.mapping),
                       active=_parse_active(args.active_space),
                       optimizer=args.optimizer,
                       shots=_parse_shots(args.shots),
                       seed=args.seed,
                       output=args.output,
                       fcidump_path=args.fcidump,
                       reference_table=args.reference_table)
        scan_range = _parse_scan(args.scan) if args.scan else None
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        if scan_range is not None:
            if spec.fcidump_path:
                raise ValueError("--fcidump is a single-run feature; drop "
                                 "--scan or --fcidump")
            points = scan(spec, *scan_range)
            if spec.output == "csv":
                text = scan_to_csv(points, spec.methods)
            elif spec.output == "json":
                text = scan_to_json(points, spec, *scan_range)
            else:
                text = scan_to_table(points, spec.methods)
            converged = all(p.converged for p in points)
        else:
            report = execute(spec)
            if spec.output == "csv":
                if spec.reference_table:
                    print("note: --reference-table applies to table and "
                          "json output; ignored for csv", file=sys.stderr)
                text = report_to_csv(report)
            elif spec.output == "json":
                text = report_to_json(report,
                                      include_reference=spec.reference_table)
            else:
                text = render_table(report,
                                    include_reference=spec.reference_table)
            converged = report.all_converged
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    print(text)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
