"""Fast check of the benchmark harness itself (about ten seconds).

    python3 perfbench/selfcheck.py

Runs H2 through all three job kinds (single point, VQE, scan) untraced and
traced, checks that every metric BENCHMARK.json names is printed with its
unit, and checks that the gate rejects a perturbed energy, a broken
variational ordering and stdout that differs between passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import jobs
import run

PINS = jobs.PINNED["H2"]


def last_json(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "selfcheck",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py --trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def h2_stdout(**energies) -> str:
    return json.dumps({"molecule": "H2", "methods": {
        method: {"energy_hartree": value}
        for method, value in energies.items()}})


def fake_pass(stdout: str) -> dict:
    return {"jobs": [{"name": "h2", "rc": 0, "error": None,
                      "stdout": stdout}]}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = last_json(trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if not result["correct"] or result["failed"] or \
                result["attempted"] < 1:
            failures.append(f"trace {trace}: run not clean: {result}")
        if got != want:
            failures.append(f"trace {trace}: metrics {got} are not {want}")

    good = h2_stdout(hf=PINS["hf"], vqe=PINS["fci"] + 1e-4, fci=PINS["fci"])
    cases = {
        "pinned energies": (fake_pass(good), False),
        "perturbed hf energy": (
            fake_pass(h2_stdout(hf=PINS["hf"] + 1e-4, fci=PINS["fci"])), True),
        "vqe below fci": (
            fake_pass(h2_stdout(hf=PINS["hf"], vqe=PINS["fci"] - 1e-4,
                                fci=PINS["fci"])), True),
    }
    for label, (one_pass, rejected) in cases.items():
        problems = run.gate([one_pass])[0]
        if bool(problems) != rejected:
            failures.append(f"gate on {label}: problems {problems}")
    other = h2_stdout(hf=PINS["hf"], vqe=PINS["fci"] + 2e-4, fci=PINS["fci"])
    if not run.gate([fake_pass(good), fake_pass(other)])[0]:
        failures.append("gate accepted stdout that differs between passes")

    for failure in failures:
        print(f"selfcheck: {failure}", file=sys.stderr)
    print("selfcheck failed" if failures else "selfcheck ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
