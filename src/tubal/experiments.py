"""Benchmark tensors, accuracy metrics, and table runners for the CLI.

Four built-in tensors cover the interesting regimes: a tridiagonal
tensor with geometrically scaled faces, a small column-stochastic tensor
with fixed entries, a complex Gaussian tensor, and a similarity-built
real tensor with real eigentubes.

``run_method`` runs one solver and scores its result; ``run_table`` runs
the rows of one of the :data:`TABLE_SPECS` and writes a CSV table, per-run
convergence traces, and a JSON manifest with full-precision values.
"""

from __future__ import annotations

import csv
import json
import time
from itertools import zip_longest
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import NoConvergence, UnknownKind
from .factorizations import facewise_sort_tubes, spectrum_of
from .solvers import (
    SchurResult,
    SolverConfig,
    deflated_power_sweep,
    t_inverse_power,
    t_power,
    t_qr_shifted,
    t_subspace_iteration,
)
from .tensors import Tensor3, concat_lateral, f_diagonal, t_product
from .tubes import Tube

# ---------------------------------------------------------------------------
# test tensors

STOCHASTIC_FACES = np.array(
    [
        [
            [0.2091, 0.2834, 0.2194, 0.1830],
            [0.3371, 0.3997, 0.3219, 0.3377],
            [0.3265, 0.0560, 0.3119, 0.2961],
            [0.1273, 0.2608, 0.1468, 0.1832],
        ],
        [
            [0.1952, 0.2695, 0.2055, 0.1690],
            [0.3336, 0.3962, 0.3184, 0.3342],
            [0.2954, 0.0249, 0.2808, 0.2650],
            [0.1758, 0.3094, 0.1953, 0.2318],
        ],
        [
            [0.3145, 0.3887, 0.3248, 0.2883],
            [0.0603, 0.1230, 0.0451, 0.0609],
            [0.3960, 0.1255, 0.3814, 0.3656],
            [0.2293, 0.3628, 0.2487, 0.2852],
        ],
        [
            [0.1686, 0.2429, 0.1789, 0.1425],
            [0.3553, 0.4180, 0.3402, 0.3559],
            [0.3189, 0.0484, 0.3043, 0.2885],
            [0.1571, 0.2907, 0.1766, 0.2131],
        ],
    ]
)

#: Default seed for the Gaussian tensors. Chosen so the facewise
#: eigenvalue gaps are generic rather than pathologically small, letting
#: power-type iterations converge within the standard cap. Other seeds
#: stay valid inputs, just with different iteration counts.
DEFAULT_GAUSS_SEED = 66

TENSOR_KINDS = ("tridiag", "stochastic", "complex", "realeig")


@dataclass(frozen=True)
class TestTensorSpec:
    """Recipe for a benchmark tensor: kind, dimensions, and seed."""

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    dims: tuple | None = None
    seed: int = DEFAULT_GAUSS_SEED


def make_tensor(spec):
    """Build a benchmark tensor from its spec.

    ``tridiag``: faces 10^(i-1) * tridiag(-1, 2, -1), default 10x10x3.
    ``stochastic``: the fixed 4x4x4 column-stochastic tensor.
    ``complex``: standard complex Gaussian entries, default 10x10x10.
    ``realeig``: X * D * X^{-1} with a random well conditioned real X and a
    real f-diagonal D whose eigentubes have constant facewise magnitude and
    geometrically decreasing norms, so all eigentubes are real and simple.
    """
    if isinstance(spec, str):
        spec = TestTensorSpec(spec)
    kind = spec.kind.lower()
    if kind == "tridiag":
        l, p, n = spec.dims or (10, 10, 3)
        if l != p:
            raise ValueError("tridiag tensor must be square")
        t = 2 * np.eye(p) - np.eye(p, k=1) - np.eye(p, k=-1)
        data = np.zeros((p, p, n))
        for i in range(n):
            data[:, :, i] = (10.0**i) * t
        return Tensor3(data)
    if kind == "stochastic":
        if spec.dims is not None and tuple(spec.dims) != (4, 4, 4):
            raise ValueError("the stochastic tensor is fixed at 4x4x4")
        return Tensor3(np.moveaxis(STOCHASTIC_FACES, 0, 2))
    if kind == "complex":
        l, p, n = spec.dims or (10, 10, 10)
        rng = np.random.default_rng(spec.seed)
        return Tensor3(
            rng.standard_normal((l, p, n)) + 1j * rng.standard_normal((l, p, n))
        )
    if kind == "realeig":
        l, p, n = spec.dims or (10, 10, 10)
        if l != p:
            raise ValueError("realeig tensor must be square")
        return _realeig_tensor(p, n, spec.seed)
    raise UnknownKind(f"unknown tensor kind {spec.kind!r}")


def _realeig_tensor(p, n, seed, base=4.0, ratio=0.55):
    from .factorizations import t_inverse
    from .tensors import f_diagonal as fd, identity

    rng = np.random.default_rng(seed)
    x = Tensor3(identity(p, n).data + 0.3 * rng.standard_normal((p, p, n)) / np.sqrt(p))
    tubes = []
    for j in range(p):
        theta = rng.uniform(-np.pi, np.pi, n)
        theta[0] = 0.0
        for f in range(1, n // 2 + 1):
            theta[(n - f) % n] = -theta[f]
        if n % 2 == 0:
            theta[n // 2] = 0.0
        vals = base * ratio**j * np.exp(1j * theta)
        tubes.append(Tube(np.fft.ifft(vals).real))
    a = t_product(t_product(x, fd(tubes)), t_inverse(x))
    return Tensor3(a.data.real)


# ---------------------------------------------------------------------------
# metrics


def spectral_error(a, tubes):
    """Frobenius distance between the f-diagonal of the computed eigentubes
    and the f-diagonal of the reference spectrum, after facewise magnitude
    alignment of the computed tubes."""
    computed = facewise_sort_tubes(list(tubes))
    exact = spectrum_of(a).eigentubes[: len(computed)]
    return (f_diagonal(computed) - f_diagonal(exact)).frob_norm()


def block_residual(a, slices, tubes):
    """|| A * U - U * D ||_F for eigenslice columns U and eigentube
    diagonal D."""
    u = concat_lateral(list(slices))
    d = f_diagonal(list(tubes))
    return (t_product(a, u) - t_product(u, d)).frob_norm()


def schur_residual(a, u, r):
    """|| A * U - U * R ||_F for a computed Schur-type pair."""
    return (t_product(a, u) - t_product(u, r)).frob_norm()


# ---------------------------------------------------------------------------
# single runs


@dataclass
class ExperimentReport:
    """One benchmark row plus everything needed to recompute its metrics."""

    tensor: str
    method: str
    error: float | None
    res_norm: float | None
    iterations: int
    converged: bool
    wall_time: float
    extra: dict = field(default_factory=dict)
    stop_reasons: list = field(default_factory=list)
    config: dict = field(default_factory=dict, repr=False)
    eigentubes: list = field(default_factory=list, repr=False)
    residual_trace: list = field(default_factory=list, repr=False)
    error_trace: list = field(default_factory=list, repr=False)
    eigenslices: object = field(default=None, repr=False)
    schur_u: object = field(default=None, repr=False)
    schur_r: object = field(default=None, repr=False)


def _tube_to_lists(t):
    v = t.spatial_values
    return [[float(z.real), float(z.imag)] for z in v]


#: Every method a run can name, with the run parameters its report echoes
#: in ``extra``.
_METHOD_EXTRAS = {
    "t-pm": (), "t-sipm": ("shift",), "de": ("num",), "dle": ("num",), "ds": ("num",),
    "t-si": ("q", "num"), "t-qrhs": (),
}
METHODS = tuple(_METHOD_EXTRAS)
DEFLATION_METHODS = ("de", "dle", "ds")


def default_config(method, **overrides):
    """The :class:`SolverConfig` of a ``method`` run, with ``overrides``
    replacing any field: the shifted QR iteration gets ten times the
    iteration cap of the other methods."""
    return SolverConfig(**{"iter_max": 30000 if method == "t-qrhs" else 3000, **overrides})


def _solve(a, method, cfg, num, shift):
    # the solvers are looked up by name on every call, so wrappers that
    # replace them in this module take effect
    if method == "t-pm":
        return t_power(a, cfg=cfg)
    if method == "t-sipm":
        return t_inverse_power(a, shift, cfg=cfg)
    if method in DEFLATION_METHODS:
        return deflated_power_sweep(a, num, cfg=cfg)
    if method == "t-si":
        return t_subspace_iteration(a, num=num, cfg=cfg)
    return t_qr_shifted(a, cfg=cfg)


def run_method(a, tensor_name, method, cfg=None, num=4, shift=None):
    """Run one solver on ``a`` and score its result.

    ``method`` is one of :data:`METHODS`; the deflation methods run the
    sweep with their own variant. ``num`` is the eigenpair count of the
    deflation and subspace methods, and ``shift`` the tube that ``t-sipm``
    needs. Only the solver call is timed, and a capped run is scored on
    its partial result: spectral error (for ``t-sipm`` the distance to the
    eigentube closest to the shift) and :func:`block_residual` for
    eigenpairs, :func:`schur_residual` for Schur pairs. A power run in
    which no step recovered an eigentube scores None.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "t-sipm" and shift is None:
        raise ValueError("t-sipm needs a shift")
    cfg = cfg or default_config(method)
    if method in DEFLATION_METHODS:
        cfg = replace(cfg, deflation_variant=method.upper())
    start = time.perf_counter()
    try:
        result = _solve(a, method, cfg, num, shift)
    except NoConvergence as exc:
        result = exc.result
    wall = time.perf_counter() - start
    params = {"q": cfg.power_index, "num": num}
    if shift is not None:
        params["shift"] = _tube_to_lists(shift)
    pairs = result if isinstance(result, list) else [result]
    rep = ExperimentReport(
        tensor=tensor_name,
        method=method,
        error=None,
        res_norm=None,
        iterations=sum(p.iterations for p in pairs),
        converged=all(p.converged for p in pairs),
        wall_time=wall,
        extra={key: params[key] for key in _METHOD_EXTRAS[method]},
        stop_reasons=[p.stop_reason for p in pairs],
        residual_trace=list(pairs[-1].residual_trace),
        config=asdict(cfg),
    )
    if isinstance(result, SchurResult):
        tubes = result.diag_tubes()
        rep.res_norm = schur_residual(a, result.u, result.r)
        rep.error_trace = list(result.error_trace)
        rep.schur_u, rep.schur_r = result.u, result.r
    else:
        tubes = [p.eigentube for p in pairs]
        slices = [p.eigenslice for p in pairs]
        rep.eigenslices = concat_lateral(slices)
        if any(t is None for t in tubes):
            return rep
        rep.res_norm = block_residual(a, slices, tubes)
    if method == "t-sipm":
        # the targeted eigentube is the one closest to the shift, facewise
        rep.error = (tubes[0] - _closest_eigentube(a, shift)).norm()
    else:
        rep.error = spectral_error(a, tubes)
    rep.eigentubes = [_tube_to_lists(t) for t in tubes]
    return rep


def _closest_eigentube(a, sigma):
    faces = spectrum_of(a).face_values
    near = np.argmin(np.abs(faces - sigma.fourier_values[:, None]), axis=1)
    return Tube(np.fft.ifft(faces[np.arange(a.n), near]))


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class TableRow:
    """One run of a table; ``shift`` is the first entry of the shift tube."""

    kind: str
    method: str
    overrides: dict = field(default_factory=dict)
    num: int = 4
    shift: complex | None = None


@dataclass(frozen=True)
class TableSpec:
    """A benchmark table: its alias, its rows in order, and its CSV layout.

    Each report is one CSV line of ``columns``, with the ``blank`` ones left
    empty; with ``wide``, the reports that share the ``wide`` columns make
    one line instead, which repeats ``columns`` for each of them under
    headers prefixed by its method.
    """

    alias: str
    rows: tuple
    columns: tuple
    wide: tuple = ()
    blank: tuple = ()


_POWER_COLUMNS = ("tensor", "method", "res_norm", "error", "iter", "cpu_time")

TABLE_SPECS = {
    "t2": TableSpec(
        "power",
        tuple(TableRow(k, "t-pm") for k in ("tridiag", "stochastic", "complex")),
        _POWER_COLUMNS,
    ),
    # this table's layout has no timing column worth filling in; the
    # measured value still lands in the manifest
    "t3": TableSpec(
        "inverse",
        (TableRow("tridiag", "t-sipm", shift=1e-5), TableRow("complex", "t-sipm", shift=1e-3)),
        _POWER_COLUMNS,
        blank=("cpu_time",),
    ),
    "t5": TableSpec(
        "deflation",
        tuple(
            TableRow(k, method, num=num)
            for k, nums in (("tridiag", (3, 5)), ("realeig", (4, 6)))
            for num in nums
            for method in DEFLATION_METHODS
        ),
        ("error", "res_norm", "time"),
        wide=("tensor", "num"),
    ),
    "ts1": TableSpec(
        "subspace",
        tuple(
            TableRow(k, "t-si", {"power_index": q})
            for k in ("tridiag", "complex")
            for q in (1, 4)
        ),
        ("tensor", "q", "error", "res_norm", "iter", "cpu_time"),
    ),
    "t10": TableSpec(
        "qr",
        (
            TableRow("tridiag", "t-qrhs"),
            TableRow("stochastic", "t-qrhs", {"complex_shift": True}),
        ),
        ("tensor", "method", "error", "res_norm", "cpu_time", "iter"),
    ),
}
TABLES = tuple(TABLE_SPECS)

_CELLS = {
    "tensor": lambda r: r.tensor,
    "method": lambda r: r.method,
    "q": lambda r: r.extra["q"],
    "num": lambda r: r.extra["num"],
    "error": lambda r: _sci(r.error),
    "res_norm": lambda r: _sci(r.res_norm),
    "iter": lambda r: r.iterations,
    "cpu_time": lambda r: f"{r.wall_time:.3f}",
    "time": lambda r: f"{r.wall_time:.3f}",
}


def _first_entry_shift(value, n):
    v = np.zeros(n, dtype=np.complex128)
    v[0] = value
    return Tube(v)


def run_table(table, out_dir, seed=DEFAULT_GAUSS_SEED, solver_seed=0):
    """Run one benchmark suite and write its CSV, traces, and manifest.

    ``table`` is a name of :data:`TABLES` or its alias. Returns the list of
    :class:`ExperimentReport` rows.
    """
    key = table.lower()
    name = next((t for t, spec in TABLE_SPECS.items() if key in (t, spec.alias)), None)
    if name is None:
        raise ValueError(f"unknown table {key!r}; choose from {TABLES}")
    spec = TABLE_SPECS[name]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tensors = {}
    reports = []
    for row in spec.rows:
        if row.kind not in tensors:
            tensors[row.kind] = make_tensor(TestTensorSpec(row.kind, seed=seed))
        a = tensors[row.kind]
        shift = None if row.shift is None else _first_entry_shift(row.shift, a.n)
        cfg = default_config(row.method, rng_seed=solver_seed, **row.overrides)
        reports.append(run_method(a, row.kind, row.method, cfg, num=row.num, shift=shift))

    _write_csv(out / f"{name}.csv", *_csv_layout(spec, reports))
    for rep in reports:
        _write_trace(out, name, rep)
    manifest = {
        "table": name,
        "tensor_seed": seed,
        "solver_seed": solver_seed,
        "rows": [_report_doc(r) for r in reports],
    }
    (out / f"{name}_manifest.json").write_text(json.dumps(manifest, indent=1))
    return reports


def _csv_layout(spec, reports):
    """Header and lines of a table's CSV, as :class:`TableSpec` lays out."""

    def cells(rep, columns):
        return ["" if c in spec.blank else _CELLS[c](rep) for c in columns]

    if not spec.wide:
        return list(spec.columns), [cells(r, spec.columns) for r in reports]
    lines = {}
    for rep in reports:
        lines.setdefault(tuple(cells(rep, spec.wide)), []).append(rep)
    first = next(iter(lines.values()))
    header = list(spec.wide) + [f"{r.method}_{c}" for r in first for c in spec.columns]
    rows = [
        list(lead) + [cell for r in group for cell in cells(r, spec.columns)]
        for lead, group in lines.items()
    ]
    return header, rows


def _sci(x):
    return "" if x is None else f"{x:.3e}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _trace_tag(rep):
    tag = f"{rep.tensor}_{rep.method}"
    if "q" in rep.extra:
        tag += f"_q{rep.extra['q']}"
    if "num" in rep.extra:
        tag += f"_k{rep.extra['num']}"
    return tag


def _write_trace(out_dir, table, rep):
    residuals = [f"{x:.16e}" for x in rep.residual_trace]
    errors = [f"{x:.16e}" for x in rep.error_trace]
    pairs = zip_longest(residuals, errors, fillvalue="")
    rows = [[i, res, err] for i, (res, err) in enumerate(pairs, 1)]
    path = Path(out_dir) / f"{table}_{_trace_tag(rep)}.trace.csv"
    _write_csv(path, ["iteration", "residual", "error"], rows)


def _report_doc(rep):
    """The JSON fields of a report: all but its tensors."""
    tensors = ("eigenslices", "schur_u", "schur_r")
    return {k: v for k, v in vars(rep).items() if k not in tensors}
