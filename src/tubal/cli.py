"""Command line interface.

Subcommands: ``gen`` builds a benchmark tensor and writes it to disk,
``run`` executes either a whole benchmark table or a single solver on one
tensor, ``spectrum`` dumps the eigentubes of a tensor, and ``convert``
translates between the binary and JSON tensor formats.

Exit codes: 0 on success, 2 when a solver failed to converge (results are
still written), 1 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import TubalError, UnknownFormat
from .experiments import (
    DEFAULT_GAUSS_SEED,
    METHODS,
    TABLES,
    TENSOR_KINDS,
    TestTensorSpec,
    _report_doc,
    _shift_tube,
    _tube_to_lists,
    _write_csv,
    _write_trace,
    default_config,
    make_tensor,
    run_method,
    run_table,
)
from .factorizations import spectrum_of
from .tensorio import read_tensor, write_file, write_tensor


def _parse_shift(text, n):
    """Comma separated re,im pairs; entries fill the tube front to back."""
    parts = [float(x) for x in text.split(",")]
    if len(parts) % 2 != 0:
        raise ValueError("--shift needs re,im pairs")
    pairs = [complex(parts[i], parts[i + 1]) for i in range(0, len(parts), 2)]
    if len(pairs) > n:
        raise ValueError(f"--shift has {len(pairs)} entries but the tensor has n={n}")
    return _shift_tube(pairs, n)


def _load_tensor(text, seed, dims=None):
    if text in TENSOR_KINDS:
        return make_tensor(TestTensorSpec(text, dims=dims, seed=seed))
    return read_tensor(text)


def _parse_dims(text):
    dims = tuple(int(x) for x in text.split(","))
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError("--dims needs three positive integers l,p,n")
    return dims


def _build_parser():
    top = argparse.ArgumentParser(prog="tubal", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build a benchmark tensor and write it")
    gen.add_argument("--tensor", required=True, choices=TENSOR_KINDS)
    gen.add_argument("--dims", help="l,p,n (kinds with fixed sizes reject this)")
    gen.add_argument("--seed", type=int, default=DEFAULT_GAUSS_SEED)
    gen.add_argument("--out", required=True, help="output .t3b or .json path")

    run = sub.add_parser("run", help="run a benchmark table or a single solver")
    run.add_argument("--table", help=f"one of {', '.join(TABLES)} or a method alias")
    run.add_argument("--tensor", help="builtin kind or tensor file")
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--tol", type=float)
    run.add_argument("--iter-max", type=int)
    run.add_argument("--q", type=int, default=1, help="products per subspace step")
    run.add_argument("--num", type=int, default=4, help="eigenpairs to compute")
    run.add_argument("--shift", help="tube entries as re,im[,re,im...]")
    run.add_argument("--seed", type=int, default=DEFAULT_GAUSS_SEED)
    run.add_argument("--solver-seed", type=int, default=0)
    run.add_argument("--complex-shift", action="store_true")
    run.add_argument("--out", default="out", help="output directory")

    spec = sub.add_parser("spectrum", help="write the eigentubes of a tensor")
    spec.add_argument("--tensor", required=True)
    spec.add_argument("--seed", type=int, default=DEFAULT_GAUSS_SEED)
    spec.add_argument("--out", required=True, help="output .csv or .json path")

    conv = sub.add_parser("convert", help="convert between .t3b and .json")
    conv.add_argument("--tensor", required=True, help="input tensor file")
    conv.add_argument("--out", required=True, help="output tensor file")
    return top


def _cmd_gen(args):
    dims = _parse_dims(args.dims) if args.dims else None
    t = make_tensor(TestTensorSpec(args.tensor, dims=dims, seed=args.seed))
    write_tensor(t, args.out)
    print(f"wrote {args.tensor} tensor {t.shape} to {args.out}")
    return 0


def _summary(rep):
    def sci(x):
        return "n/a" if x is None else f"{x:.3e}"

    state = "ok" if rep.converged else "no convergence"
    return f"error={sci(rep.error)} res={sci(rep.res_norm)} iter={rep.iterations} [{state}]"


def _cmd_run(args):
    if args.table:
        reports = run_table(
            args.table, args.out, seed=args.seed, solver_seed=args.solver_seed
        )
        for r in reports:
            print(f"{r.tensor:10s} {r.method:7s} {_summary(r)}")
        return 0 if all(r.converged for r in reports) else 2
    if not args.tensor or not args.method:
        raise ValueError("single runs need both --tensor and --method")
    a = _load_tensor(args.tensor, args.seed)
    # --tol and --iter-max are passed only when given: SolverConfig holds
    # their one copy of the defaults
    given = {"tol": args.tol, "iter_max": args.iter_max}
    overrides = {
        "rng_seed": args.solver_seed,
        "power_index": args.q,
        "complex_shift": args.complex_shift,
        **{key: value for key, value in given.items() if value is not None},
    }
    shift = _parse_shift(args.shift, a.n) if args.shift else None
    name = args.tensor if args.tensor in TENSOR_KINDS else Path(args.tensor).stem
    rep = run_method(
        a, name, args.method, default_config(args.method, **overrides), args.num, shift
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_file(out / f"{name}_{args.method}.json", json.dumps(_report_doc(rep), indent=1))
    _write_trace(out / f"{name}_{args.method}.trace.csv", rep)
    print(f"{rep.tensor} {rep.method}: {_summary(rep)}")
    return 0 if rep.converged else 2


def _cmd_spectrum(args):
    a = _load_tensor(args.tensor, args.seed)
    spec = spectrum_of(a)
    out = Path(args.out)
    if out.suffix == ".json":
        doc = {
            "dims": list(a.shape),
            "eigentubes": [_tube_to_lists(t) for t in spec.eigentubes],
            "norms": [t.norm() for t in spec.eigentubes],
        }
        write_file(out, json.dumps(doc, indent=1))
    elif out.suffix == ".csv":
        rows = [
            [j + 1, e + 1, f"{z.real:.16e}", f"{z.imag:.16e}"]
            for j, t in enumerate(spec.eigentubes)
            for e, z in enumerate(t.spatial_values)
        ]
        _write_csv(out, ["eigentube", "entry", "re", "im"], rows)
    else:
        raise UnknownFormat("spectrum output must be .csv or .json")
    print(f"wrote {len(spec.eigentubes)} eigentubes to {out}")
    return 0


def _cmd_convert(args):
    t = read_tensor(args.tensor)
    write_tensor(t, args.out)
    print(f"converted {args.tensor} -> {args.out}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "spectrum": _cmd_spectrum,
        "convert": _cmd_convert,
    }
    try:
        return handlers[args.command](args)
    except (TubalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
