"""The qelectra benchmark: run one workload, check its answers, print metrics.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it runs the program in `src/` from
source. Each pass of the workload runs in a fresh worker process
(worker.py), as a CLI user pays the interpreter, the imports and the cold
mapping caches on every invocation. With `--trace 0` the run repeats passes
while another fits in `--seconds` (at least one) and reports end-to-end
metrics. With `--trace 1` it runs one untraced and one traced pass and
reports per-layer metrics, the tracing overhead and the per-molecule table.

Every run gates its answers: pinned HF and FCI energies,
e_fci <= e_vqe <= e_hf, and byte-identical CLI stdout between passes (the
traced pass included). A wrong answer prints `"correct": false`, no metrics,
and exits 1. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Spans, metrics and the run environment are also written to
`.perfbench/<workload>-seed<seed>-trace<0|1>.json` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5     # set-up-only worker starts per untraced run
RUN_LIMIT_S = 170.0   # every worker must have finished by then



class BenchmarkError(RuntimeError):
    """The run could not produce a result."""


def spawn(args, started: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run worker.py once and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("QELECTRA_THREADS", None)   # the CLI's default worker count
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchmarkError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--spsa-seed", str(args.spsa_seed), "--trace", str(int(trace)),
               "--spawned-at", repr(time.monotonic())]
    if setup_only:
        command.append("--setup-only")
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"run exceeded {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    package = Path(result["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise BenchmarkError(f"qelectra was imported from {package}, "
                             f"not from {SRC}")
    return result


def gate(passes) -> tuple:
    """Check every job of every pass.

    Returns (problems, attempted, failed, gaps in mHa). A job fails when
    it exits non-zero or raises; its printed energies are still gated.
    """
    problems, gaps = [], []
    attempted = failed = 0
    first_stdout = {}
    for number, result in enumerate(passes):
        for job in result["jobs"]:
            attempted += 1
            if job["rc"] != 0:
                failed += 1
                reason = job["error"] or f"exit code {job['rc']}"
                print(f"job {job['name']} (pass {number}) failed: "
                      f"{reason}", file=sys.stderr)
            if job["stdout"]:
                found = jobs.energies(job["stdout"])
                wrong = jobs.check(found)
                problems += [f"{job['name']}: {p}" for p in wrong]
                if not wrong:
                    gaps += jobs.vqe_gaps_mha(found)
            earlier = first_stdout.setdefault(job["name"], job["stdout"])
            if job["stdout"] != earlier:
                problems.append(f"{job['name']}: stdout of pass {number} "
                                "differs from the first pass")
    return problems, attempted, failed, gaps


def environment(args, passes) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    # only the checkout's own repository, not one it happens to sit in
    commit = lines[1] if len(lines) == 2 and \
        Path(lines[0]).resolve() == ROOT else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": passes[0]["blas_threads"],
        "git_commit": commit or "none (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "workload": args.workload,
        "seed": args.seed,
        "spsa_seed": args.spsa_seed,
    }


def run(args) -> int:
    if not (SRC / "qelectra" / "__init__.py").is_file():
        raise BenchmarkError(f"no qelectra sources under {SRC}")
    started = time.monotonic()
    if args.trace:
        setups = []
        passes = [spawn(args, started), spawn(args, started, trace=True)]
    else:
        setups = [spawn(args, started, setup_only=True)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        deadline = time.monotonic() + args.seconds
        passes = [spawn(args, started)]
        while time.monotonic() + passes[-1]["wall_s"] <= deadline:
            passes.append(spawn(args, started))

    problems, attempted, failed, gaps = gate(passes)
    env = environment(args, passes)
    for key, value in env.items():
        print(f"env {key} = {value}")
    print(f"jobs attempted = {attempted}, failed = {failed}, "
          f"failed_frac = {failed / attempted:g}")
    if problems:
        for problem in problems:
            print(f"gate: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        untraced, traced = passes
        values = tracing.layer_metrics(traced["spans"])
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        print(tracing.molecule_table(traced["spans"]))
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(
                setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
            "vqe_gap_mha": max(gaps),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"passes = {len(passes)}, pass wall_s = "
          f"{[round(p['wall_s'], 3) for p in passes]}, set-ups = "
          f"{[round(s, 3) for s in setups + [p['setup_s'] for p in passes]]}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env, "metrics": metrics,
              "passes": [{"wall_s": p["wall_s"], "setup_s": p["setup_s"],
                          "peak_rss_mb": p["peak_rss_mb"],
                          "jobs": [{k: j[k] for k in ("name", "rc", "start",
                                                      "end")}
                                   for j in p["jobs"]]} for p in passes],
              "spans": passes[-1]["spans"]}
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                      f"-trace{int(args.trace)}.json")
    path.write_text(json.dumps(record))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the jobs of a pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure passes while another fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spsa-seed", type=int, default=0,
                        help="the CLI's --seed for every job (default 0)")
    args = parser.parse_args()
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
