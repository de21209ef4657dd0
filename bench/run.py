"""frailtykit benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload {simulate_fit,surface,recover}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  The workload runs in its own process
(``worker.py``) with BLAS and OpenMP pinned to one thread and
``FRAILTYKIT_THREADS`` unset.  With ``--trace 0`` the set-up is also
repeated in separate set-up-only processes, and ``setup_s`` is the median
over them and the measured run.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``).  A traced run also writes its folded span
tree to ``bench/out/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("simulate_fit", "surface", "recover")
SETUP_ONLY_RUNS = 6
DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def worker_env():
    env = dict(os.environ)
    env.pop("FRAILTYKIT_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update(PINNED_ENV)
    return env


def run_worker(argv, deadline):
    """Start worker.py, wait for it, return (start time, its JSON result)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return started, json.loads(lines[-1])


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    units = declared_metrics(args.trace)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.smoke:
        base.append("--smoke")
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                started, res = run_worker(base + ["--setup-only"], deadline)
                setup.append(res["ready"] - started)
        extra = ["--trace", str(args.trace)]
        if args.trace:
            extra += ["--trace-out", str(
                OUT / f"trace-{args.workload}-seed{args.seed}.json")]
        started, res = run_worker(base + extra, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"bench: {args.workload} seed {args.seed}: {res['rounds']} rounds",
          file=sys.stderr)
    values = dict(res["metrics"])
    if not args.trace:
        setup.append(res["ready"] - started)
        values["setup_s"] = statistics.median(setup)
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} do not match "
            f"BENCHMARK.json")
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="small sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    try:
        result = measure(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
