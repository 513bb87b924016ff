"""One benchmark workload in a process of its own; ``run.py`` starts it.

The process imports tubal from the checkout's ``src/``, builds the
workload's inputs, makes one warm-up call and prints ``READY <t>`` with the
system-wide monotonic clock, so the parent can time set-up from before the
interpreter started. With ``--setup-only`` it stops there. Otherwise it runs
passes for ``--seconds`` seconds and prints ``RESULT <json>``.

Untraced (``--trace 0``), every pass is plain. Traced (``--trace 1``),
untraced and traced passes alternate, at least two of each: the traced ones
give the per-layer metrics, the ratio of the two gives the tracing
overhead, and the outputs of all of them must agree bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy
import tubal

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tensor-seed", type=int, required=True)
    ap.add_argument("--solver-seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _build(args, out_dir):
    src = (ROOT / "src").resolve()
    if not Path(tubal.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tubal was imported from {tubal.__file__}, not from {src}")
    if args.workload in workloads.PAPER_TABLES:
        return workloads.PaperWorkload(
            args.workload, args.seed, args.tensor_seed, args.solver_seed, out_dir
        )
    if args.workload == "kernels":
        return workloads.KernelsWorkload(args.seed, out_dir)
    raise SystemExit(f"unknown workload {args.workload!r}")


def _run_pass(wl, section=contextlib.nullcontext):
    gc.collect()
    return wl.run_pass(section)


def _untraced(wl, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(wl))
        typical = median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def _traced(wl, seconds):
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(_run_pass(wl))
        traced.append(_run_pass(wl, lambda: tracer))
        layers.append(tracing.layer_metrics(tracer, wl.io_bytes))
        pair = time.perf_counter() - t0
        if len(traced) >= 2 and time.perf_counter() - start + pair > seconds:
            tracer.dump(ROOT / ".bench_out" / f"{wl.name}-spans.npz")
            return plain, traced, layers


def _end_to_end(passes):
    return {
        "pass_s": median(p.wall_s for p in passes),
        "solve_s": median(p.solve_s for p in passes),
        "iters": passes[0].iters,
        "us_per_iter": median(p.solve_s / p.iters * 1e6 for p in passes),
        "ok_frac": 1.0 - sum(p.failed for p in passes) / sum(p.attempted for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(wl, plain, traced, layers):
    problems = []
    names = list(layers[0])
    m = {}
    for name in names:
        values = [lm[name] for lm in layers]
        if tracing.is_count(name) and any(v != values[0] for v in values):
            problems.append(f"count {name} differs between traced passes: {values}")
        m[name] = median(values)
    m["trace.overhead"] = median(p.wall_s for p in traced) / median(p.wall_s for p in plain) - 1
    if isinstance(wl, workloads.PaperWorkload):
        m["experiments.write_s"] = median(
            p.wall_s - p.solve_s - lm["experiments.verify_s"] for p, lm in zip(traced, layers)
        )
        m.update(dict.fromkeys(workloads.op_metric_names(), 0.0))
    else:
        m["experiments.write_s"] = 0.0
        m.update(wl.op_metrics({k: median(p.entry_s[k] for p in plain) for k in plain[0].entry_s}))
    return m, problems


def main(argv=None):
    args = _parse_args(argv)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        wl = _build(args, out_dir)
        wl.warm_up()
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0

        problems = []
        if args.trace:
            plain, traced, layers = _traced(wl, args.seconds)
            passes = plain + traced
            metrics, problems = _per_layer(wl, plain, traced, layers)
        else:
            passes = _untraced(wl, args.seconds)
            metrics = _end_to_end(passes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for p in passes:
        problems += p.wrong
    if any(p.outcome != passes[0].outcome for p in passes):
        problems.append("outputs differ between passes")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "passes": len(passes),
        "metrics": metrics,
        "env": _environment(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
