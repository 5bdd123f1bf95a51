"""Spans around the calls into qelectra's modules, and what they add up to.

The spans are recorded from outside the program: `install` replaces the
module attributes through which the CLI's user path calls each layer with
timing wrappers. Each name is patched where the caller looks it up (for
example `pipeline.compute_integrals`, not `integrals.compute_integrals`).
Spans stay in memory until the pass ends.

A span is a dict: id, name, layer, start, end (perf_counter seconds),
parent id, job index, thread id and counts taken from the call's result.
"""

import itertools
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("integrals", "scf", "fermion", "pauli", "vqe", "simulator",
          "oracle", "cli")


def _unique_quartets(integral_set) -> int:
    pairs = integral_set.n_basis * (integral_set.n_basis + 1) // 2
    return pairs * (pairs + 1) // 2


def _distance(molecule) -> Optional[float]:
    if molecule.n_atoms != 2:
        return None
    a, b = (atom.position for atom in molecule.atoms)
    return sum((p - q) ** 2 for p, q in zip(a, b)) ** 0.5


class Tracer:
    """Span recorder shared by every thread of one worker process."""

    def __init__(self):
        self.spans: List[dict] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: List[int] = self._stack()

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, name: str, fn: Callable,
             counts: Optional[Callable] = None) -> Callable:
        """`fn` wrapped in a span; `counts(result, args)` gives its counts."""
        def traced(*args, **kwargs):
            stack = self._stack()
            # a scan point runs on a pool thread; its parent is the span the
            # main thread is waiting in
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": parent, "job": self.job,
                    "thread": threading.get_ident(), "counts": {}}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span["counts"] = counts(result, args)
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Patch the layer entry points of the imported qelectra package."""
    from qelectra import cli, oracle, pipeline, simulator, vqe

    def patch(owner, attr, layer, counts=None, name=None):
        fn = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(layer, name or attr, fn, counts))

    patch(cli, "main", "cli")
    patch(cli, "scan", "cli")
    patch(cli, "execute", "cli",
          lambda r, a: {"label": r.molecule_name,
                        "r_bohr": _distance(a[0].molecule)})
    patch(pipeline, "compute_integrals", "integrals",
          lambda r, a: {"quartets": _unique_quartets(r)})
    patch(pipeline, "run_rhf", "scf",
          lambda r, a: {"iterations": r.n_iterations})
    for attr in ("mo_spatial_integrals", "spatial_active_space",
                 "to_spin_orbitals"):
        patch(pipeline, attr, "fermion")
    patch(pipeline, "build_hamiltonian", "fermion",
          lambda r, a: {"terms": len(r.terms)})
    patch(pipeline, "map_fermion", "pauli",
          lambda r, a: {"qubits": a[2], "terms": len(r),
                        "xmasks": len({x for (x, _), _ in r.items()})})
    patch(cli, "build_uccsd", "vqe",
          lambda r, a: {"params": r.n_parameters})
    patch(vqe, "ansatz_circuit", "vqe",
          lambda r, a: {"instructions": len(r.instructions)})
    patch(cli, "run_vqe", "vqe",
          lambda r, a: {"iterations": r.n_iterations,
                        "evaluations": r.n_evaluations,
                        "converged": int(r.converged)})
    patch(simulator.Circuit, "run", "simulator", name="Circuit.run")
    patch(simulator.StateVector, "expectation", "simulator",
          name="StateVector.expectation")
    patch(cli, "exact_ground_energy", "oracle")
    patch(oracle, "lowest_eigenvalues", "oracle")
    patch(oracle, "pauli_to_sparse", "oracle",
          lambda r, a: {"dim": r.shape[0], "nnz": r.nnz})


# ---- derived numbers ---------------------------------------------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _children(spans: List[dict]) -> Dict[int, List[dict]]:
    out: Dict[int, List[dict]] = {}
    for span in spans:
        out.setdefault(span["parent"], []).append(span)
    for kids in out.values():
        kids.sort(key=lambda s: s["start"])
    return out


def _self_time(span: dict, children: Dict[int, List[dict]]) -> float:
    """Duration minus the part of it that child spans cover."""
    kids = children.get(span["id"], [])
    return _duration(span) - _covered([(k["start"], k["end"]) for k in kids])


def _evaluations_ms(vqe_span: dict, children: Dict[int, List[dict]]
                    ) -> List[float]:
    """Prep plus expectation time of each energy evaluation, in ms."""
    out, prep = [], None
    for kid in children.get(vqe_span["id"], []):
        if kid["name"] == "Circuit.run":
            prep = kid
        elif kid["name"] == "StateVector.expectation" and prep is not None:
            out.append(1000.0 * (_duration(prep) + _duration(kid)))
            prep = None
    return out


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    children = _children(spans)
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name):
        return sum(_duration(s) for s in by_name.get(name, []))

    def count(name, key):
        return sum(s["counts"][key] for s in by_name.get(name, []))

    fermion_calls = ("mo_spatial_integrals", "spatial_active_space",
                     "to_spin_orbitals", "build_hamiltonian")
    matrix_s = total("pauli_to_sparse")
    evaluations = [ms for s in by_name.get("run_vqe", [])
                   for ms in _evaluations_ms(s, children)]
    scans = {s["id"] for s in by_name.get("scan", [])}
    points = [_duration(s) for s in by_name.get("execute", [])
              if s["parent"] in scans]
    workers = max((len({s["thread"] for s in children.get(scan["id"], [])})
                   for scan in by_name.get("scan", [])), default=0)

    out = {
        "integrals.s": total("compute_integrals"),
        "integrals.quartets": count("compute_integrals", "quartets"),
        "scf.s": total("run_rhf"),
        "scf.iterations": count("run_rhf", "iterations"),
        "fermion.s": sum(total(n) for n in fermion_calls),
        "fermion.terms": count("build_hamiltonian", "terms"),
        "pauli.map_s": total("map_fermion"),
        "pauli.terms": count("map_fermion", "terms"),
        "pauli.xmasks": count("map_fermion", "xmasks"),
        "vqe.compile_s": total("build_uccsd") + total("ansatz_circuit"),
        "vqe.params": count("build_uccsd", "params"),
        "vqe.instructions": count("ansatz_circuit", "instructions"),
        "vqe.s": total("run_vqe"),
        "vqe.iterations": count("run_vqe", "iterations"),
        "vqe.evaluations": count("run_vqe", "evaluations"),
        "vqe.converged": count("run_vqe", "converged"),
        "simulator.prep_s": total("Circuit.run"),
        "simulator.expect_s": total("StateVector.expectation"),
        "simulator.eval_ms": statistics.median(evaluations)
        if evaluations else 0.0,
        "oracle.matrix_s": matrix_s,
        "oracle.eig_s": total("lowest_eigenvalues") - matrix_s,
        "oracle.dim": count("pauli_to_sparse", "dim"),
        "oracle.nnz": count("pauli_to_sparse", "nnz"),
        "cli.workers": workers,
        "cli.point_s.p50": statistics.median(points) if points else 0.0,
        "cli.point_s.max": max(points, default=0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(_self_time(s, children)
                                     for s in spans if s["layer"] == layer)
    return out


def molecule_table(spans: List[dict]) -> str:
    """One row per geometry: sizes and the time of each stage."""
    children = _children(spans)
    scans = {s["id"] for s in spans if s["name"] == "scan"}
    rows = []
    for point in sorted((s for s in spans if s["name"] == "execute"),
                        key=lambda s: (s["job"], s["start"])):
        found: Dict[str, List[dict]] = {}
        todo = list(children.get(point["id"], []))
        while todo:
            span = todo.pop()
            found.setdefault(span["name"], []).append(span)
            todo.extend(children.get(span["id"], []))

        def one(name, key=None):
            spans_ = found.get(name)
            if not spans_:
                return "-"
            if key is None:
                return f"{sum(_duration(s) for s in spans_):.3f}"
            return str(spans_[0]["counts"][key])

        preps = [1000.0 * _duration(s) for s in found.get("Circuit.run", [])]
        expects = [1000.0 * _duration(s)
                   for s in found.get("StateVector.expectation", [])]
        label = point["counts"]["label"]
        if point["parent"] in scans:
            label += f" r={point['counts']['r_bohr']:g}"
        rows.append([
            label, one("map_fermion", "qubits"),
            f"{one('map_fermion', 'terms')} / {one('map_fermion', 'xmasks')}",
            one("build_uccsd", "params"), one("compute_integrals"),
            one("map_fermion"),
            (f"{statistics.median(preps):.1f} + "
             f"{statistics.median(expects):.1f} ms" if expects else "-"),
            one("exact_ground_energy"), one("run_vqe")])
    head = ["system", "qubits", "Pauli terms / X-masks", "params",
            "integrals (s)", "map (s)", "one eval (prep + <H>)", "FCI (s)",
            "VQE total (s)"]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(head)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)
