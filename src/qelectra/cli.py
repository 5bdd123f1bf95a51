"""Command-line front end: single-point method comparisons and bond scans.

A run's settings live in its `RunSpec` and what it found in the
`ComparisonReport` that `execute` returns; a bond scan is the list of
(r, report) pairs of its points. The renderers read both.

Exit codes: 0 success, 1 input error, 2 at least one method failed to
converge. All serialized output (json, csv, table) is byte-stable for an
identical spec and seed.
"""

import argparse
import dataclasses
import json
import sys
import numpy as np
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .basis import BASIS_NAME, load_basis
from .fcidump import write_fcidump
from .fermion import ActiveSpaceSpec
from .integrals import IntegralSet, compute_integrals_batch
from .molecule import MAX_COORDINATE_BOHR, Molecule
from .oracle import exact_ground_energy
from .pauli import MAX_MAPPED_MODES, MappingKind, mapping_from_name
from .pipeline import (assemble, canonical_formula, diatomic_geometry,
                       display_name, load_molecule_argument, window_size)
from .reference import REFERENCE_FOOTNOTE, reference_for
from .simulator import MAX_SHOTS
from .vqe import build_uccsd, run_vqe

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

_METHOD_ORDER = ("hf", "vqe", "fci")

# sector size the CLI accepts for fci and vqe, the runs that work on the
# sector: CH4 (8e, 8o) has 4,900 determinants and a 1.6 M-entry block;
# the full CH4 space has 15,876
MAX_FCI_DETERMINANTS = 8192

# bytes a bond scan's batched integral pass may hold for its points,
# counted at 4 KiB per basis-function pair of a point: beyond the
# batches' own capped working set, the traced peak of a pass grows by
# 1.9-3.8 KB per pair and point on H2, LiH and N2. That is 18 N2 points
# (a 6.6 MB tracemalloc peak), 48 LiH and 341 H2 per pass.
SCAN_PASS_BYTES = 4 << 20


@dataclass
class RunSpec:
    """A run's settings, resolved and validated; the defaults mirror the
    CLI's."""
    molecule: Molecule
    methods: Tuple[str, ...] = ("hf",)
    mapping: MappingKind = MappingKind.PARITY
    active: Optional[ActiveSpaceSpec] = None    # None: the shipped window
    shots: Optional[int] = None
    seed: int = 0
    fcidump_path: Optional[str] = None


@dataclass
class MethodResult:
    method: str
    energy: float
    converged: bool
    iterations: int = 0
    evaluations: int = 0


@dataclass
class ComparisonReport:
    """What a run found; the settings it ran with stay in its spec."""
    molecule_name: str
    active_space: Optional[ActiveSpaceSpec]     # the folded window
    n_qubits: int
    results: List[MethodResult]

    @property
    def all_converged(self) -> bool:
        return all(row.converged for row in self.results)


def _refuse(spec: RunSpec) -> None:
    """The checks made before any integral; each raises a ValueError.

    They read the spec and the basis size alone, so one call covers every
    point of a bond scan.
    """
    if spec.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    # a count a binomial draw takes, for any method
    if spec.shots is not None and not 1 <= spec.shots <= MAX_SHOTS:
        raise ValueError("--shots must be positive and at most "
                         f"{MAX_SHOTS}, got {spec.shots}")
    # a window that does not fit, for any method; a problem over a cap,
    # for every method but hf: fci and vqe map the Hamiltonian and work on
    # the amplitudes of the sector
    n_qubits, n_determinants = window_size(spec.molecule, spec.active)
    user = next((m for m in ("fci", "vqe") if m in spec.methods), None)
    caps = ((n_determinants, MAX_FCI_DETERMINANTS, "determinants"),
            (n_qubits, MAX_MAPPED_MODES, "qubits")) if user else ()
    for count, cap, unit in caps:
        if count > cap:
            raise ValueError(f"{user} needs at most {cap} {unit}, got "
                             f"{count}; restrict the problem with "
                             "--active-space")


def execute(spec: RunSpec,
            integrals: Optional[IntegralSet] = None) -> ComparisonReport:
    """Run the requested methods on one geometry.

    `_refuse`'s checks come first. A bond scan passes the point's
    `integrals`, computed in a batched pass of its grid; None computes
    them here.
    """
    _refuse(spec)
    system = assemble(spec.molecule, active=spec.active,
                      mapping=spec.mapping, integrals=integrals)
    results = []
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
            result = run_vqe(system, ansatz, seed=spec.seed, shots=spec.shots)
            row = MethodResult(method="vqe", energy=result.energy,
                               converged=result.converged,
                               iterations=result.n_iterations,
                               evaluations=result.n_evaluations)
        else:
            energy = exact_ground_energy(system.block)
            row = MethodResult(method="fci", energy=energy, converged=True)
        results.append(row)

    if spec.fcidump_path:
        h_act, eri_act, core_act, n_act = system.active_integrals
        write_fcidump(spec.fcidump_path, h_act, eri_act, core_act, n_act)
    return ComparisonReport(molecule_name=display_name(system.molecule),
                            active_space=system.active_space,
                            n_qubits=system.n_qubits, results=results)


# ---- bond scans -------------------------------------------------------------

def scan(spec: RunSpec, start: float, stop: float,
         steps: int) -> List[Tuple[float, ComparisonReport]]:
    """Method reports along a diatomic bond-length grid (Bohr), as
    (r, report) pairs in ascending r.

    The grid's integrals come in passes of as many points as
    SCAN_PASS_BYTES holds, one batched call per pass; each point's methods
    then run from its own integrals, one point after another.
    """
    if spec.fcidump_path:
        raise ValueError("--fcidump is a single-run feature; drop --scan "
                         "or --fcidump")
    if spec.molecule.n_atoms != 2:
        raise ValueError("--scan supports diatomic molecules only; got "
                         f"{spec.molecule.n_atoms} atoms")
    if steps < 1:
        raise ValueError("scan needs at least one step")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError(f"--scan bounds must be finite; got {start}, {stop}")
    if start == stop and steps > 1:
        raise ValueError(f"--scan START equals STOP ({start}): {steps} steps "
                         "would repeat one geometry; use STEPS 1")
    if start <= 0 or stop <= 0:
        raise ValueError("bond lengths must be positive")
    if max(start, stop) > MAX_COORDINATE_BOHR:
        raise ValueError(f"--scan bounds must be at most "
                         f"{MAX_COORDINATE_BOHR:g} Bohr; got {start}, {stop}")
    symbols = (spec.molecule.atoms[0].symbol, spec.molecule.atoms[1].symbol)
    charge = spec.molecule.charge
    name = display_name(spec.molecule)
    radii = np.linspace(start, stop, steps).tolist()
    probe = diatomic_geometry(symbols, radii[0], charge=charge, name=name)
    # every point has the same atoms, hence the same checks' outcome: a
    # refused scan fails before its first pass
    _refuse(dataclasses.replace(spec, molecule=probe))
    size = max(1, SCAN_PASS_BYTES // _point_bytes(probe))
    points = []
    for first in range(0, len(radii), size):
        chunk = [diatomic_geometry(symbols, r, charge=charge, name=name)
                 for r in radii[first:first + size]]
        for r, geometry, integrals in zip(radii[first:], chunk,
                                          compute_integrals_batch(chunk)):
            points.append((r, execute(dataclasses.replace(spec,
                                                          molecule=geometry),
                                      integrals)))
    points.sort(key=lambda point: point[0])
    return points


def _point_bytes(molecule: Molecule) -> int:
    """What a batched integral pass counts for one scan point: 4 KiB per
    basis-function pair."""
    n = len(load_basis(molecule))
    return 4096 * (n * (n + 1) // 2)


# ---- rendering ---------------------------------------------------------------

def _notes(spec: RunSpec) -> List[str]:
    if "vqe" in spec.methods and spec.shots is not None:
        return [f"vqe energies are sampled estimates at {spec.shots} shots "
                "per term"]
    return []


def report_to_json(spec: RunSpec, report: ComparisonReport,
                   include_reference: bool) -> str:
    active = report.active_space
    doc = {
        "schema_version": 1,
        "tool": {"name": "qelectra", "version": __version__},
        "molecule": report.molecule_name,
        "formula": canonical_formula(spec.molecule),
        "basis": BASIS_NAME,
        "mapping": spec.mapping.value,
        "active_space": (None if active is None else
                         {"n_electrons": active.n_active_electrons,
                          "n_orbitals": active.n_active_orbitals}),
        "n_qubits": report.n_qubits,
        "seed": spec.seed,
        "shots": spec.shots,
        "optimizer": (("bfgs" if spec.shots is None else "spsa")
                      if "vqe" in spec.methods else None),
        "methods": {
            row.method: {
                "energy_hartree": row.energy,
                "converged": row.converged,
                "iterations": row.iterations,
                "evaluations": row.evaluations,
            } for row in report.results
        },
        "notes": _notes(spec),
    }
    if include_reference:
        doc["reference"] = reference_for(doc["formula"])
        doc["notes"].append(REFERENCE_FOOTNOTE)
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


def render_table(spec: RunSpec, report: ComparisonReport,
                 include_reference: bool) -> str:
    formula = canonical_formula(spec.molecule)
    reference = reference_for(formula) if include_reference else None
    window = report.active_space
    active = ("full space" if window is None else
              f"({window.n_active_electrons}e, {window.n_active_orbitals}o)")
    head = (f"molecule: {report.molecule_name}   basis: {BASIS_NAME}   "
            f"mapping: {spec.mapping.value}   active space: {active}   "
            f"qubits: {report.n_qubits}   seed: {spec.seed}")

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
    lines += [f"note: {note}" for note in _notes(spec)]
    if reference is not None:
        lines.append(f"note: {REFERENCE_FOOTNOTE}")
    elif include_reference:
        lines.append(f"note: no published reference values for {formula}")
    return "\n".join(lines)


def _energies(report: ComparisonReport) -> Dict[str, float]:
    """A scan point's energies by method."""
    return {row.method: float(row.energy) for row in report.results}


def scan_to_csv(spec: RunSpec,
                points: List[Tuple[float, ComparisonReport]]) -> str:
    lines = ["r_bohr,method,energy"]
    for r, report in points:
        energies = _energies(report)
        lines += [f"{r!r},{method},{energies[method]!r}"
                  for method in spec.methods if method in energies]
    return "\n".join(lines)


def scan_to_json(spec: RunSpec, points: List[Tuple[float, ComparisonReport]],
                 start: float, stop: float, steps: int) -> str:
    doc = {
        "schema_version": 1,
        "tool": {"name": "qelectra", "version": __version__},
        "molecule": display_name(spec.molecule),
        "basis": BASIS_NAME,
        "mapping": spec.mapping.value,
        "seed": spec.seed,
        "scan": {"start_bohr": start, "stop_bohr": stop, "steps": steps},
        "points": [{"r_bohr": r, "converged": report.all_converged,
                    "methods": _energies(report)} for r, report in points],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def scan_to_table(spec: RunSpec,
                  points: List[Tuple[float, ComparisonReport]]) -> str:
    columns = ["r (Bohr)"] + [f"{m} (Ha)" for m in spec.methods]
    rows = []
    for r, report in points:
        energies = _energies(report)
        rows.append([f"{r:.6f}"] + [
            "-" if m not in energies else f"{energies[m]:.10f}"
            for m in spec.methods])
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
    parser.add_argument("--shots", default="exact",
                        help="'exact' or a shot count per measured term "
                             "(default: exact); vqe runs bfgs on exact "
                             "expectations and spsa on sampled ones")
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
    """The requested methods, each once, in the order a run takes them."""
    methods = [m.strip().lower() for m in raw.split(",") if m.strip()]
    if not methods:
        raise ValueError("--method needs at least one of hf,vqe,fci")
    for m in methods:
        if m == "dft":
            raise ValueError(
                "dft is out of scope here; its published energies are "
                "display-only via --reference-table (see README)")
        if m not in _METHOD_ORDER:
            raise ValueError(f"unknown method {m!r}; choose from hf,vqe,fci")
    return tuple(m for m in _METHOD_ORDER if m in methods)


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
    args = build_parser().parse_args(argv)
    try:
        spec = RunSpec(molecule=load_molecule_argument(args.molecule),
                       methods=_parse_methods(args.method),
                       mapping=mapping_from_name(args.mapping),
                       active=_parse_active(args.active_space),
                       shots=_parse_shots(args.shots),
                       seed=args.seed,
                       fcidump_path=args.fcidump)
        if args.scan:
            scan_range = _parse_scan(args.scan)
            points = scan(spec, *scan_range)
            if args.reference_table:
                print("note: --reference-table applies to single runs; "
                      "ignored for --scan", file=sys.stderr)
            if args.output == "csv":
                text = scan_to_csv(spec, points)
            elif args.output == "json":
                text = scan_to_json(spec, points, *scan_range)
            else:
                text = scan_to_table(spec, points)
            converged = all(report.all_converged for _, report in points)
        else:
            report = execute(spec)
            if args.output == "csv":
                if args.reference_table:
                    print("note: --reference-table applies to table and "
                          "json output; ignored for csv", file=sys.stderr)
                text = report_to_csv(report)
            elif args.output == "json":
                text = report_to_json(spec, report, args.reference_table)
            else:
                text = render_table(spec, report, args.reference_table)
            converged = report.all_converged
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    print(text)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
