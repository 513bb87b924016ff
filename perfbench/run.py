"""Run the tubal benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-power --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run starts ``worker.py`` in a fresh interpreter with one BLAS thread
(OPENBLAS/OMP/MKL_NUM_THREADS=1, set before numpy loads) and tubal imported
from this checkout's ``src/``. Set-up time is measured from before each
interpreter starts until its workload is built and warmed up, over several
processes, and reported as their median. The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``, named and united as in BENCHMARK.json. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-power", "paper-schur", "kernels")

#: Processes whose set-up is timed per run (the measuring one included).
SETUP_SAMPLES = 5

#: A run, set-up included, is killed after this long.
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _start_worker(args, workload, setup_only, deadline):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tensor-seed", str(args.tensor_seed),
        "--solver-seed", str(args.solver_seed),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"{workload}: worker ran past the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    result = [json.loads(line[len("RESULT "):]) for line in lines if line.startswith("RESULT ")]
    if len(ready) != 1 or len(result) != (0 if setup_only else 1):
        raise RunFailed(f"{workload}: unexpected worker output:\n{out}")
    return ready[0] - started, (result[0] if result else None)


def run_workload(args, workload, spec):
    """One run of one workload; returns the result object to print."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [_start_worker(args, workload, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    main_setup, result = _start_worker(args, workload, False, deadline)
    setup.append(main_setup)

    metrics = dict(result["metrics"])
    kind = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise RunFailed(f"{workload}: metrics disagree with BENCHMARK.json; missing {missing}, extra {extra}")

    print(f"{workload}: env {json.dumps(result['env'])}")
    print(f"{workload}: {result['passes']} passes, {result['attempted']} checked, {result['failed']} failed")
    for m in spec[kind]:
        print(f"{workload}: {m['name']:<48} {metrics[m['name']]:>16.6g} {m['unit']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0, help="workload seed (kernel tensors, table order)")
    ap.add_argument("--seconds", type=int, default=None, help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tensor-seed", type=int, default=66, help="seed of the paper's Gaussian tensors")
    ap.add_argument("--solver-seed", type=int, default=0, help="seed of the solvers' starting slices")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(args, w, spec) for w in chosen}
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    final = results[args.workload] if args.workload != "all" else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
