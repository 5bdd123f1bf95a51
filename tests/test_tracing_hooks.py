"""The benchmark tracer's hooks still find the names they patch.

`perfbench/tracing.py` times each layer by replacing module attributes
(for example `oracle.pauli_to_sparse` and `Circuit.run`) with wrappers. A
renamed or deleted attribute would only show up when the benchmark runs,
so this installs the tracer in a fresh interpreter, runs one small CLI
job through the patched names and derives the per-layer metrics.
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
