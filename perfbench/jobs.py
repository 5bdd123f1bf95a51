"""Workloads, pinned energies and the correctness gate.

A workload is a list of jobs; a job is one `qelectra` command line. Every
job asks for `--output json` so the gate reads energies at full precision.

Why these workloads (timings on a 2-core x86 machine, numpy 2.4, scipy 1.17):

- reference: `hf,fci` on the six shipped molecules, 20-28 s. Integrals,
  the Hamiltonian build, mapping and the exact eigensolver (oracle) do the
  work; CH4 alone is about 11 s, most of it building the sparse matrix.
  VQE and the simulator only see the H2 probe (below), so a simulator
  change predicts no move here.
- vqe: `hf,vqe` on LiH and NH3, the two 10-qubit systems whose CLI-default
  SPSA run converges with margin, 12-16 s. The simulator and the VQE
  loop do about 95% of the work. FCI is not run; the gap is taken against
  the pinned FCI energy. H2O and CH4 are left out because one H2O job takes
  about 75 s and one CH4 job about 175 s without converging.
- scan: a LiH `hf,vqe,fci` scan over seven points from 2.0 to 5.0 Bohr
  (equilibrium is about 3.0) in a (2e, 4o) window, about 9 s. With
  QELECTRA_THREADS unset the CLI runs the points on two threads, so these
  are many small concurrent jobs; this is the workload for the scan thread
  pool. The default (2e, 5o) window is left out: there a two-point scan
  takes 25-33 s per pass, with about 10% spread between runs, and SPSA
  needs 298 of its 300 iterations at 5.0 Bohr.

The reference and vqe passes include a probe, a two-point H2 `hf,vqe,fci`
scan that takes well under a second. It makes every traced layer do some
work on every workload, so that no per-layer time reads a constant zero.

`--seed` orders the jobs of a pass. The SPSA seed that the CLI receives is
a separate benchmark argument (default 0, as in the CLI): across SPSA seeds
a LiH job takes anywhere from 4.4 s to 9.3 s, which would swamp any bound.
"""

import json
import random
from typing import Dict, List, Tuple

PROBE = ("probe", ["--molecule", "h2", "--method", "hf,vqe,fci",
                   "--scan", "1.2,1.6,2"])

WORKLOADS: Dict[str, List[Tuple[str, List[str]]]] = {
    "reference": [(m, ["--molecule", m, "--method", "hf,fci"])
                  for m in ("h2", "lih", "h2o", "nh3", "ch4", "co2")]
                 + [PROBE],
    "vqe": [(m, ["--molecule", m, "--method", "hf,vqe"])
            for m in ("lih", "nh3")] + [PROBE],
    "scan": [("lih-scan", ["--molecule", "lih", "--method", "hf,vqe,fci",
                           "--active-space", "2,4", "--scan", "2.0,5.0,7"])],
    # H2 through all three job kinds; used by selfcheck.py only.
    "selfcheck": [("h2", ["--molecule", "h2", "--method", "hf,fci"]),
                  ("h2-vqe", ["--molecule", "h2", "--method", "hf,vqe"]),
                  PROBE],
}

# HF and FCI energies (Hartree) computed by this repository's first
# benchmarked commit, keyed by molecule, or molecule@r_bohr for scan points.
# H2 and the H2O HF energy are the values the test suite pins.
PINNED: Dict[str, Dict[str, float]] = {
    "H2": {"hf": -1.1169989968520082, "fci": -1.1373060359051401},
    "LiH": {"hf": -7.862026973277844, "fci": -7.882176004920568},
    "H2O": {"hf": -74.9629282714757, "fci": -75.0123255243906},
    "NH3": {"hf": -55.45399652884778, "fci": -55.46377581098422},
    "CH4": {"hf": -39.726810112419486, "fci": -39.76875373561735},
    "CO2": {"hf": -185.0652201647274, "fci": -185.0961537618902},
    "H2@1.2": {"hf": -1.1103338824934266, "fci": -1.1266988215279714},
    "H2@1.6": {"hf": -1.103140970810633, "fci": -1.1288156440268164},
    # LiH scan points, in the scan's (2e, 4o) window
    "LiH@2.0": {"hf": -7.793554234827685, "fci": -7.795792802084235},
    "LiH@2.5": {"hf": -7.854526366513615, "fci": -7.856473470078587},
    "LiH@3.0": {"hf": -7.862246324082692, "fci": -7.864065724820085},
    "LiH@3.5": {"hf": -7.8455653607220155, "fci": -7.847418052710554},
    "LiH@4.0": {"hf": -7.817840443964032, "fci": -7.820009215093637},
    "LiH@4.5": {"hf": -7.785715598114849, "fci": -7.788832507658968},
    "LiH@5.0": {"hf": -7.752725337404682, "fci": -7.758459782468132},
}

PIN_TOLERANCE = 1e-6     # Ha; pinned HF and FCI energies
ORDER_TOLERANCE = 1e-8   # Ha; slack on e_fci <= e_vqe <= e_hf


def pass_jobs(workload: str, seed: int, spsa_seed: int
              ) -> List[Tuple[str, List[str]]]:
    """The jobs of one pass, in the order the seed gives them."""
    jobs = [(name, argv + ["--output", "json", "--seed", str(spsa_seed)])
            for name, argv in WORKLOADS[workload]]
    random.Random(seed).shuffle(jobs)
    return jobs


def energies(stdout: str) -> Dict[str, Dict[str, float]]:
    """Method energies of one job's JSON output, keyed like PINNED."""
    doc = json.loads(stdout)
    if "points" in doc:
        return {f"{doc['molecule']}@{point['r_bohr']!r}": point["methods"]
                for point in doc["points"]}
    return {doc["molecule"]: {method: row["energy_hartree"]
                              for method, row in doc["methods"].items()}}


def check(found: Dict[str, Dict[str, float]]) -> List[str]:
    """Gate one job's energies; returns the problems found (none if right).

    HF and FCI must match their pins, and e_fci <= e_vqe <= e_hf must hold,
    with the pinned FCI energy standing in where the job ran no FCI.
    """
    problems = []
    for key, methods in found.items():
        pins = PINNED.get(key)
        if pins is None:
            problems.append(f"{key}: no pinned energies")
            continue
        for method in ("hf", "fci"):
            if method in methods and \
                    abs(methods[method] - pins[method]) > PIN_TOLERANCE:
                problems.append(f"{key}: {method} {methods[method]!r} is not "
                                f"the pinned {pins[method]!r}")
        if "vqe" in methods:
            e_vqe = methods["vqe"]
            e_fci = methods.get("fci", pins["fci"])
            e_hf = methods.get("hf", pins["hf"])
            if not e_fci - ORDER_TOLERANCE <= e_vqe <= e_hf + ORDER_TOLERANCE:
                problems.append(f"{key}: e_fci <= e_vqe <= e_hf fails "
                                f"({e_fci!r}, {e_vqe!r}, {e_hf!r})")
    return problems


def vqe_gaps_mha(found: Dict[str, Dict[str, float]]) -> List[float]:
    """E_vqe - E_fci in mHa for every geometry that ran VQE."""
    return [1000.0 * (methods["vqe"] - methods.get("fci", PINNED[key]["fci"]))
            for key, methods in found.items() if "vqe" in methods]
