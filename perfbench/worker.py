"""One pass of a workload in a fresh interpreter, as a CLI user pays it.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`. It
imports qelectra and loads the workload's geometries (the set-up), then
runs each job through `qelectra.cli.main` with stdout captured, and prints
one JSON object on its own stdout. With `--setup-only` it stops after the
set-up. With `--trace 1` it records spans around the calls into each layer.

    python3 perfbench/worker.py --workload vqe --seed 0 --spsa-seed 0 \
        --trace 0 --spawned-at <time.monotonic() of the parent>
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import jobs
import tracing


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines()
            if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spsa-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import qelectra
    from qelectra import cli
    from qelectra.pipeline import load_molecule_argument
    pass_jobs = jobs.pass_jobs(args.workload, args.seed, args.spsa_seed)
    for _, argv in pass_jobs:
        load_molecule_argument(argv[argv.index("--molecule") + 1])
    setup_s = time.monotonic() - args.spawned_at

    out = {"setup_s": setup_s, "package": qelectra.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    for index, (name, argv) in enumerate(pass_jobs):
        if tracer is not None:
            tracer.job = index
        buffer = io.StringIO()
        row = {"name": name, "argv": argv, "rc": None, "error": None}
        row["start"] = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                row["rc"] = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors exit this way
            row["rc"] = exc.code
        except Exception:
            row["error"] = traceback.format_exc()
        row["end"] = time.perf_counter()
        row["stdout"] = buffer.getvalue()
        results.append(row)

    out.update({
        "jobs": results,
        "wall_s": results[-1]["end"] - results[0]["start"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "blas_threads": blas_threads(),
        "spans": tracer.spans if tracer is not None else [],
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
