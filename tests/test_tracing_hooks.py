"""The benchmark tracer's hooks still find the names they patch.

`perfbench/tracing.py` times each layer by replacing module attributes
(for example `oracle.pauli_to_sparse` and `Circuit.run`) with wrappers. A
renamed or deleted attribute would only show up when the benchmark runs,
so this installs the tracer in a fresh interpreter, runs one small CLI
job through the patched names and derives the per-layer metrics. The
counts the tracer reads off each layer's result are pinned per shipped
molecule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, "perfbench")
import tracing
from qelectra import cli
tracer = tracing.Tracer()
tracing.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["--molecule", "h2", "--method", "hf,vqe,fci"])
metrics = tracing.layer_metrics(tracer.spans)
print(json.dumps({"rc": rc, "names": sorted({s["name"] for s in tracer.spans}),
                  "metrics": sorted(metrics)}))
"""


def test_tracer_installs_and_sees_every_layer():
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["rc"] == 0
    for name in ("main", "execute", "compute_integrals", "run_rhf",
                 "build_hamiltonian", "map_fermion", "build_uccsd",
                 "ansatz_circuit", "run_vqe", "Circuit.run",
                 "exact_ground_energy", "lowest_eigenvalues",
                 "pauli_to_sparse"):
        assert name in report["names"]
    assert "oracle.dim" in report["metrics"]


COUNTS_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, "perfbench")
import tracing
from qelectra import cli
tracer = tracing.Tracer()
tracing.install(tracer)
keys = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for job, key in enumerate(keys):
        tracer.job = job
        assert cli.main(["--molecule", key, "--method", "hf,fci"]) == 0
counts = {key: {} for key in keys}
for span in tracer.spans:
    counts[keys[span["job"]]].update(
        {f"{span['name']}.{name}": value
         for name, value in span["counts"].items()})
metrics = tracing.layer_metrics(tracer.spans)
print(json.dumps({"counts": counts,
                  "metrics": {name: metrics[name] for name in (
                      "fermion.terms", "pauli.terms", "pauli.xmasks",
                      "oracle.dim", "oracle.nnz")}}))
"""

# fermion terms, Pauli terms, X-masks, block dimension and stored entries
# of each shipped molecule's default window under the CLI's default
# (parity) mapping
PINNED_COUNTS = {
    "h2": (29, 15, 2, 4, 8),
    "lih": (641, 276, 35, 25, 197),
    "h2o": (1333, 551, 80, 225, 5885),
    "nh3": (1301, 540, 79, 25, 437),
    "ch4": (4441, 1699, 274, 400, 44320),
    "co2": (541, 228, 33, 25, 169),
}


def test_tracer_counts_of_every_shipped_molecule():
    # the counts the benchmark's tracer reads off the Hamiltonian, the
    # qubit Hamiltonian and the block, through the names it reads
    # (`len(r.terms)`, `len(r)`, `r.items()`, `r.shape`, `r.nnz`)
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-c", COUNTS_SCRIPT,
                           *PINNED_COUNTS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    for key, want in PINNED_COUNTS.items():
        counts = report["counts"][key]
        assert (counts["build_hamiltonian.terms"], counts["map_fermion.terms"],
                counts["map_fermion.xmasks"], counts["pauli_to_sparse.dim"],
                counts["pauli_to_sparse.nnz"]) == want, key
    assert report["metrics"] == dict(zip(
        ("fermion.terms", "pauli.terms", "pauli.xmasks", "oracle.dim",
         "oracle.nnz"), map(sum, zip(*PINNED_COUNTS.values()))))
