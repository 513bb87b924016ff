"""The benchmark's workloads: two runs of the paper's tables and a fixed mix
of direct calls into the layer functions.

Each workload builds its inputs once, makes one untimed warm-up call, and
then runs passes. A pass returns a :class:`PassResult`: its wall time, the
time spent in the solvers (or, for ``kernels``, inside the library calls),
the iteration count, how many checked operations it attempted and how many
failed the acceptance gate, and an exact fingerprint of every output, so that
passes (traced or not) can be compared bit for bit.

Library functions are looked up on their modules at call time, so a
:class:`tracing.Tracer` installed around a pass sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from tubal import errors, experiments, factorizations, tensorio, tensors, tubes

#: Beyond this relative error an output is wrong, not merely inaccurate; it
#: makes the run report ``correct: false``.
SANITY_BOUND = 1e-8


@dataclass
class PassResult:
    wall_s: float
    solve_s: float
    iters: int
    attempted: int
    failed: int
    wrong: list  # descriptions of outputs beyond SANITY_BOUND or that raised unexpectedly
    outcome: tuple  # exact fingerprint of every output
    entry_s: dict = field(default_factory=dict)  # kernels: seconds per call-mix entry


# ---------------------------------------------------------------------------
# paper tables

PAPER_TABLES = {
    "paper-power": ("t2", "t3", "t5"),
    "paper-schur": ("ts1", "t10"),
}

#: Tensors each table builds, and its row count (rows all fail when the
#: table raises before returning).
TABLE_KINDS = {
    "t2": ("tridiag", "stochastic", "complex"),
    "t3": ("tridiag", "complex"),
    "t5": ("tridiag", "realeig"),
    "ts1": ("tridiag", "complex"),
    "t10": ("tridiag", "stochastic"),
}
TABLE_ROWS = {"t2": 3, "t3": 2, "t5": 12, "ts1": 4, "t10": 2}

#: The acceptance bound on error and residual, per table, as fixed in
#: tests/test_acceptance.py. It applies to every row of the table.
TABLE_BOUND = {"t2": 1e-12, "t3": 1e-12, "t5": 1e-10, "ts1": 1e-12, "t10": 1e-12}


def _row_fails(table, rep):
    bound = TABLE_BOUND[table]
    return not (
        rep.converged
        and rep.error is not None
        and rep.res_norm is not None
        and rep.error <= bound
        and rep.res_norm <= bound
    )


def _row_key(table, rep):
    return (table, rep.tensor, rep.method, json.dumps(rep.extra, sort_keys=True))


class PaperWorkload:
    """``run_table`` for each of the workload's tables, into a scratch dir.

    The tensors and solver starts come from ``tensor_seed`` and
    ``solver_seed`` (the paper's defaults are 66 and 0). ``seed`` only
    orders the tables within a pass, so every seed does the same work.
    """

    io_bytes = 0

    def __init__(self, name, seed, tensor_seed, solver_seed, out_dir):
        self.name = name
        self.tables = list(PAPER_TABLES[name])
        random.Random(seed).shuffle(self.tables)
        self.tensor_seed = tensor_seed
        self.solver_seed = solver_seed
        self.out_dir = Path(out_dir)
        kinds = sorted({k for t in self.tables for k in TABLE_KINDS[t]})
        self.tensors = [
            experiments.make_tensor(experiments.TestTensorSpec(k, seed=tensor_seed))
            for k in kinds
        ]

    def warm_up(self):
        for a in self.tensors:
            factorizations.spectrum_of(a)

    def run_pass(self, section=contextlib.nullcontext):
        results = {}
        with section():
            start = time.perf_counter()
            for table in self.tables:
                try:
                    results[table] = experiments.run_table(
                        table,
                        self.out_dir / table,
                        seed=self.tensor_seed,
                        solver_seed=self.solver_seed,
                    )
                except (errors.TubalError, np.linalg.LinAlgError) as exc:
                    results[table] = exc
            wall = time.perf_counter() - start

        solve = 0.0
        iters = attempted = failed = 0
        wrong, outcome = [], []
        for table in sorted(results):
            reports = results[table]
            if isinstance(reports, Exception):
                attempted += TABLE_ROWS[table]
                failed += TABLE_ROWS[table]
                outcome.append((table, type(reports).__name__, str(reports)))
                continue
            for rep in reports:
                attempted += 1
                failed += _row_fails(table, rep)
                solve += rep.wall_time
                iters += rep.iterations
                for value in (rep.error, rep.res_norm):
                    if value is None or not value <= SANITY_BOUND:
                        wrong.append(f"{_row_key(table, rep)}: error {rep.error} residual {rep.res_norm}")
                        break
                outcome.append(
                    _row_key(table, rep)
                    + (rep.iterations, rep.converged, float(rep.error).hex(), float(rep.res_norm).hex())
                )
        return PassResult(wall, solve, iters, attempted, failed, wrong, tuple(outcome))


# ---------------------------------------------------------------------------
# direct kernel calls

PAPER_SIZE = (10, 10, 10)
WIDE_SIZE = (32, 32, 64)

#: Calls of each entry per pass, by (size, kind): each size takes about half
#: of a pass, split about evenly between real and complex tensors.
KERNEL_REPS = {
    ("paper", "real"): 120,
    ("paper", "complex"): 135,
    ("wide", "real"): 5,
    ("wide", "complex"): 4,
}

#: Kernels whose operation counts are computed (at the wide size).
OP_KERNELS = (
    "t_product",
    "t_qr",
    "t_lu",
    "t_hess",
    "t_svd",
    "t_inverse",
    "spectrum_of",
    "real_t_schur",
)

OP_METRICS = ("computed_mflop", "computed_mb", "gflop_per_s")

CHECK_BOUND = 1e-10


def op_metric_names():
    return [f"ops.{k}.{s}" for k in OP_KERNELS for s in OP_METRICS]


def _rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def conv_product(a, b):
    """t-product by its definition, C_k = sum_j A_j B_(k-j mod n), with no
    transform; the block-circulant oracle is refused at the wide size."""
    l, p, n = a.shape
    m = b.shape[1]
    a_row = np.moveaxis(a, 2, 1).reshape(l, n * p)  # [A_0 | A_1 | ... ]
    b_faces = np.moveaxis(b, 2, 0)  # (n, p, m)
    out = np.empty((l, m, n), dtype=np.complex128)
    for k in range(n):
        out[:, :, k] = a_row @ b_faces[(k - np.arange(n)) % n].reshape(n * p, m)
    return out


def _tube_tensor(t):
    return t.spatial_values.reshape(1, 1, -1)


def _by_tube(a_data, t):
    """Tensor times tube by the definition: every tube of A convolved with t."""
    l, p, n = a_data.shape
    return conv_product(a_data.reshape(l * p, 1, n), _tube_tensor(t)).reshape(l, p, n)


def _eye(p, n):
    return tensors.identity(p, n).data


def _t(*factors):
    """Data of the t-product of a chain of tensors."""
    out = factors[0]
    for f in factors[1:]:
        out = tensors.t_product(out, f)
    return out.data


@dataclass
class Entry:
    """One call of the mix, repeated ``reps`` times per pass."""

    name: str
    call: object
    check: object  # output -> relative error
    reps: int
    op: tuple = None  # (kernel, shapes, real) when operation counts apply
    io_bytes: int = 0


def _kernel_entries(size_name, shape, real, rng, io_path):
    l, p, n = shape
    kind = "real" if real else "complex"
    reps = KERNEL_REPS[(size_name, kind)]
    wide = size_name == "wide"

    def draw(*dims):
        if real:
            return rng.standard_normal(dims)
        return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)

    a = tensors.Tensor3(draw(p, p, n))
    b = tensors.Tensor3(draw(p, p, n))
    x = tensors.Tensor3(draw(p, 1, n))
    tall = tensors.Tensor3(draw(p, max(1, p // 4), n))
    t = tubes.Tube(draw(n))
    u = tubes.Tube(draw(n))
    raw = draw(p, p, n)
    eye = _eye(p, n)

    def product_check(lhs, rhs):
        if wide:
            return lambda out: _rel(out.data, conv_product(lhs.data, rhs.data))
        return lambda out: _rel(out.data, tensors.t_product_reference(lhs, rhs).data)

    def qr_check(src):
        return lambda r: _rel(_t(r.q, r.r), src.data)

    def normalize_check(out):
        xs, scale = out
        unit = np.zeros(n)
        unit[0] = 1.0
        inner = tensors.slice_inner(xs, xs).spatial_values
        return max(_rel(_by_tube(xs.data, scale), x.data), _rel(inner, unit))

    def spectrum_check(spec):
        faces = a.fourier_faces()
        return _rel(spec.face_values.sum(axis=1), np.trace(faces, axis1=1, axis2=2))

    def schur_check(out):
        q, r = out
        return _rel(_t(q, a, tensors.conj_transpose(q)), r.data)

    def op(kernel, *shapes):
        return (kernel, shapes, real) if wide else None

    sq = (p, p, n)
    entries = [
        Entry("t_product.square", lambda: tensors.t_product(a, b), product_check(a, b), reps,
              op("t_product", sq, sq)),
        Entry("t_product.slice", lambda: tensors.t_product(a, x), product_check(a, x), reps,
              op("t_product", sq, x.shape)),
        Entry("tensor_tube_mul", lambda: tensors.tensor_tube_mul(a, t),
              lambda out: _rel(out.data, _by_tube(a.data, t)), reps),
        Entry("tensor_tube_div", lambda: tensors.tensor_tube_div(a, t),
              lambda out: _rel(_by_tube(out.data, t), a.data), reps),
        Entry("slice_normalize", lambda: tensors.slice_normalize(x), normalize_check, reps),
        Entry("t_qr.complete", lambda: factorizations.t_qr(a), qr_check(a), reps, op("t_qr", sq)),
        Entry("t_qr.reduced", lambda: factorizations.t_qr(tall, mode="reduced"), qr_check(tall), reps,
              op("t_qr", tall.shape)),
        Entry("t_lu", lambda: factorizations.t_lu(a),
              lambda r: _rel(_t(r.p, a), _t(r.l, r.u)), reps, op("t_lu", sq)),
        Entry("t_hess", lambda: factorizations.t_hess(a),
              lambda r: _rel(_t(r.w, r.h, tensors.conj_transpose(r.w)), a.data), reps,
              op("t_hess", sq)),
        Entry("t_svd", lambda: factorizations.t_svd(a),
              lambda r: _rel(_t(r.u, r.s, tensors.conj_transpose(r.v)), a.data), reps,
              op("t_svd", sq)),
        Entry("t_inverse", lambda: factorizations.t_inverse(a),
              lambda inv: _rel(_t(a, inv), eye), reps, op("t_inverse", sq)),
        Entry("spectrum_of", lambda: factorizations.spectrum_of(a), spectrum_check, reps,
              op("spectrum_of", sq)),
        Entry("Tensor3", lambda: tensors.Tensor3(raw),
              lambda out: 0.0 if np.array_equal(out.data, raw) else math.inf, reps),
        Entry("tube_mul", lambda: tubes.tube_mul(t, u),
              lambda out: _rel(out.spatial_values, _by_tube(_tube_tensor(t), u).ravel()), reps),
        Entry("tube_div", lambda: tubes.tube_div(t, u),
              lambda out: _rel(_by_tube(_tube_tensor(out), u).ravel(), t.spatial_values), reps),
    ]
    if real:
        entries.append(Entry("real_t_schur", lambda: factorizations.real_t_schur(a), schur_check,
                             reps, op("real_t_schur", sq)))
    if wide:
        def roundtrip():
            tensorio.write_tensor(a, io_path)
            return tensorio.read_tensor(io_path)

        def exact(back):
            same = back.is_real == a.is_real and np.array_equal(back.data, a.data)
            return 0.0 if same else math.inf

        entries.append(Entry("t3b_roundtrip", roundtrip, exact, reps,
                             io_bytes=2 * (16 + 25 + 16 * a.data.size)))
    for e in entries:
        e.name = f"{size_name}.{kind}.{e.name}"
    return entries


def _digest(obj, h):
    """Feed every array inside a library result into a hash."""
    if isinstance(obj, tensors.Tensor3):
        h.update(b"T" + bytes([obj.is_real]))
        _digest(obj.data, h)
    elif isinstance(obj, tubes.Tube):
        _digest(obj.values, h)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _digest(item, h)
    elif is_dataclass(obj):
        for f in fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, factorizations.EigentubeSpectrum):
        _digest([obj.eigentubes, obj.face_values], h)
    else:
        h.update(repr(obj).encode())


class KernelsWorkload:
    """A fixed mix of direct calls at the paper size and a wide size, on
    real and complex tensors drawn from ``seed``. Each call of the mix gets
    one check, outside the timed region."""

    name = "kernels"

    def __init__(self, seed, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.entries = []
        for size_name, shape in (("paper", PAPER_SIZE), ("wide", WIDE_SIZE)):
            for real in (True, False):
                io_path = out_dir / f"{size_name}-{'real' if real else 'complex'}.t3b"
                self.entries += _kernel_entries(size_name, shape, real, rng, io_path)
        self.io_bytes = sum(e.io_bytes * e.reps for e in self.entries)

    def warm_up(self):
        for e in self.entries:
            e.call()

    def run_pass(self, section=contextlib.nullcontext):
        outputs, entry_s = {}, {}
        with section():
            start = time.perf_counter()
            for e in self.entries:
                t0 = time.perf_counter()
                for _ in range(e.reps):
                    out = e.call()
                entry_s[e.name] = time.perf_counter() - t0
                outputs[e.name] = out
            wall = time.perf_counter() - start

        failed, wrong, outcome = 0, [], []
        for e in self.entries:
            err = e.check(outputs[e.name])
            if not err <= CHECK_BOUND:
                failed += 1
            if not err <= SANITY_BOUND:
                wrong.append(f"{e.name}: relative error {err}")
            h = hashlib.blake2b(digest_size=16)
            _digest(outputs[e.name], h)
            outcome.append((e.name, h.hexdigest()))
        return PassResult(
            wall,
            sum(entry_s.values()),
            sum(e.reps for e in self.entries),
            len(self.entries),
            failed,
            wrong,
            tuple(outcome),
            entry_s,
        )

    def op_metrics(self, entry_s):
        """Computed operation counts of the wide-size calls, per kernel, and
        the rate they imply over the measured (untraced) call times."""
        m = {}
        for kernel in OP_KERNELS:
            flop = byte = secs = 0.0
            calls = 0
            for e in self.entries:
                if e.op is None or e.op[0] != kernel:
                    continue
                f, b = op_counts(*e.op)
                flop += f * e.reps
                byte += b * e.reps
                calls += e.reps
                secs += entry_s[e.name]
            values = (flop / calls / 1e6, byte / calls / 1e6, flop / secs / 1e9)
            m.update({f"ops.{kernel}.{s}": v for s, v in zip(OP_METRICS, values)})
        return m


# ---------------------------------------------------------------------------
# computed operation counts

#: Real flops of one dense routine on an m x m face, from the standard
#: LAPACK counts (Golub and Van Loan); complex faces cost four times as much.
_FACE_FLOPS = {
    "t_lu": lambda m: 2 * m**3 / 3,  # getrf
    "t_hess": lambda m: 14 * m**3 / 3,  # gehrd + orghr
    "t_svd": lambda m: 21 * m**3,  # Golub-Kahan-Reinsch with U and V
    "t_inverse": lambda m: 8 * m**3 / 3 + 2 * m**3,  # singular values + getrf/getri
    "spectrum_of": lambda m: 10 * m**3,  # eigenvalues only
    "real_t_schur": lambda m: 25 * m**3,  # Schur form and vectors
}

#: Spatial entries the factorization writes, for an l x p x n input.
_OUTPUT_ENTRIES = {
    "t_qr": lambda l, p: l * min(l, p) + min(l, p) * p,
    "t_lu": lambda l, p: 3 * p * p,
    "t_hess": lambda l, p: 2 * p * p,
    "t_svd": lambda l, p: 3 * p * p,
    "t_inverse": lambda l, p: p * p,
    "spectrum_of": lambda l, p: p,
    "real_t_schur": lambda l, p: 2 * p * p,
}


def _fft_flops(n, count, half):
    """Transforms of ``count`` tubes of length n (half-spectrum: ``half``)."""
    return count * (2.5 if half else 5.0) * n * math.log2(n)


def op_counts(kernel, shapes, real):
    """Computed (flops, bytes moved) of one call, from array sizes alone.

    Flops: the transforms (5 n log2 n per complex tube, half that for the
    real half-spectrum transforms) plus the dense routine on each Fourier
    face it factors. Bytes: each stage (forward transform, facewise
    routine, inverse transform) reads its inputs and writes its outputs
    once, at 16 bytes per entry; Tensor3 copies, the conjugate mirror and
    cache reuse inside LAPACK are not counted.
    """
    n = shapes[0][2]
    faces = n // 2 + 1 if real else n  # faces the routine touches
    if kernel == "t_product":
        (l, p, _), (_, m, _) = shapes
        inputs, outputs = l * p + p * m, l * m
        flops = _fft_flops(n, inputs + outputs, real) + faces * 8 * l * p * m
        moved = inputs * (n + 2 * faces) + outputs * (2 * faces + n)
        return flops, 16 * moved
    ((l, p, _),) = shapes
    if kernel == "t_qr":
        k = min(l, p)
        per_face = 2 * (2 * l * k**2 - 2 * k**3 / 3)  # geqrf + orgqr, Q with k columns
        face_flops = 4 * per_face * faces
    elif kernel == "real_t_schur":
        real_faces = 1 + (n % 2 == 0)  # faces 0 and n/2 take the real Schur form
        faces = real_faces + (n - 1) // 2
        face_flops = (real_faces + 4 * ((n - 1) // 2)) * _FACE_FLOPS[kernel](p)
    else:
        face_flops = 4 * _FACE_FLOPS[kernel](p) * faces
    outputs = _OUTPUT_ENTRIES[kernel](l, p)
    flops = _fft_flops(n, l * p + outputs, False) + face_flops
    moved = 2 * l * p * n + (l * p + outputs) * faces + 2 * outputs * n
    return flops, 16 * moved
