"""Span tracing of tubal's layers, applied from outside the library.

:class:`Tracer` replaces each public function of the layer modules, in every
``tubal`` module namespace that holds it, with a wrapper that records a span
(name, start, end, parent). It also wraps the numpy/scipy routines the
layers call and counts ``Tensor3`` constructions. Nothing in ``src/``
changes: the wrappers are installed for one traced pass and removed after
it. Spans stay in memory; :func:`layer_metrics` reduces them to the
per-layer metrics once the pass is over, and :meth:`Tracer.dump` writes
them out.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np
import scipy.linalg

from tubal import (
    errors,
    experiments,
    factorizations,
    solvers,
    tensorio,
    tensors,
    tubes,
)

LAYER_MODULES = (tubes, tensors, factorizations, solvers, experiments, tensorio)

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
NUMPY_LINALG_FUNCS = ("qr", "svd", "eig", "eigvals", "eigvalsh", "inv", "det")
SCIPY_LINALG_FUNCS = ("lu", "lu_factor", "lu_solve", "hessenberg", "schur")

SOLVERS = (
    "t_power",
    "t_inverse_power",
    "deflated_power_sweep",
    "t_subspace_iteration",
    "t_qr_shifted",
)
TENSOR_FUNCS = (
    "t_product.real",
    "t_product.complex",
    "tensor_tube_mul",
    "tensor_tube_div",
    "slice_normalize",
    "slice_inner",
    "conj_transpose",
    "f_tril",
)
FACTORIZATIONS = (
    "t_qr",
    "t_lu",
    "t_hess",
    "t_svd",
    "t_inverse",
    "spectrum_of",
    "real_t_schur",
)
VERIFY_FUNCS = ("spectral_error", "block_residual", "schur_residual")

_NO_PARENT = -1


def _iterations(result):
    """Outer iterations reported by a solver's return value."""
    if isinstance(result, list):  # deflated_power_sweep: one pair per stage
        return sum(pair.iterations for pair in result)
    return result.iterations


class Tracer:
    """Records spans around tubal's layer functions while installed."""

    def __init__(self):
        self._originals = []  # (owner, attribute, original)
        self.clear()

    def clear(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.tensor3 = array("q")  # Tensor3 constructions made directly in each span
        self.tensor3_outside = 0
        self.iters = {}  # solver span index -> iterations
        self.capped = set()  # solver span indices that ended in NoConvergence
        self._stack = []

    # -- span recording ----------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.tensor3.append(0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _product_span(self, fn):
        def traced(a, b):
            kind = "real" if a.is_real and b.is_real else "complex"
            i = self._open(f"tensors.t_product.{kind}")
            try:
                return fn(a, b)
            finally:
                self._close(i)

        return traced

    def _solver_span(self, name, fn):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
                self.iters[i] = _iterations(result)
                return result
            except errors.NoConvergence as exc:
                if exc.result is not None:
                    self.iters[i] = _iterations(exc.result)
                self.capped.add(i)
                raise
            finally:
                self._close(i)

        return traced

    def _count_tensor3(self, init):
        def traced(obj, *args, **kwargs):
            if self._stack:
                self.tensor3[self._stack[-1]] += 1
            else:
                self.tensor3_outside += 1
            init(obj, *args, **kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function in place; undo with :meth:`uninstall`."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "tubal"]
        for module in LAYER_MODULES:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if name == "t_product":
                    wrapper = self._product_span(fn)
                elif layer == "solvers" and name in SOLVERS:
                    wrapper = self._solver_span(f"solvers.{name}", fn)
                else:
                    wrapper = self._span(f"{layer}.{name}", fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patch(ns, name, wrapper)
        for name in FFT_FUNCS:
            self._patch(np.fft, name, self._span(f"fft.{name}", getattr(np.fft, name)))
        for name in NUMPY_LINALG_FUNCS:
            self._patch(np.linalg, name, self._span(f"linalg.{name}", getattr(np.linalg, name)))
        for name in SCIPY_LINALG_FUNCS:
            self._patch(
                scipy.linalg, name, self._span(f"linalg.{name}", getattr(scipy.linalg, name))
            )
        self._patch(tensors.Tensor3, "__init__", self._count_tensor3(tensors.Tensor3.__init__))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.clear()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write the spans of the last traced pass as a compressed .npz."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        np.savez_compressed(
            path,
            span_names=np.array(table),
            name=np.array([index[name] for name in self.names], dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(tr, io_bytes=0):
    """Per-layer counts and times of one traced pass.

    ``io_bytes`` is the file traffic of the pass's tensorio calls, from
    which the achieved tensorio bandwidth follows.

    Self time is a span's duration minus the time its child spans cover.
    Solver ratios count every fft, linalg and Tensor3 event below the solver
    span, nested solvers included.
    """
    names, parents = tr.names, tr.parents
    count = len(names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(count)]
    child = [0.0] * count
    sub_fft = [1 if _layer(n) == "fft" else 0 for n in names]
    sub_linalg = [1 if _layer(n) == "linalg" else 0 for n in names]
    sub_leaf_s = [dur[i] if sub_fft[i] or sub_linalg[i] else 0.0 for i in range(count)]
    sub_t3 = list(tr.tensor3)
    # children open after their parents, so a reverse sweep sees every child first
    for i in range(count - 1, -1, -1):
        p = parents[i]
        if p != _NO_PARENT:
            child[p] += dur[i]
            sub_fft[p] += sub_fft[i]
            sub_linalg[p] += sub_linalg[i]
            sub_leaf_s[p] += sub_leaf_s[i]
            sub_t3[p] += sub_t3[i]

    calls, total_s, self_s = {}, {}, {}
    solver = {s: {"iters": 0, "s": 0.0, "fft": 0, "linalg": 0, "t3": 0, "leaf_s": 0.0} for s in SOLVERS}
    fact_linalg = dict.fromkeys(FACTORIZATIONS, 0)
    top_iters = capped_iters = 0
    in_solver = [False] * count
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + dur[i]
        layer = _layer(name)
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
        p = parents[i]
        in_solver[i] = p != _NO_PARENT and (in_solver[p] or _layer(names[p]) == "solvers")
        short = name.split(".", 1)[1]
        if layer == "solvers" and short in solver:
            agg = solver[short]
            agg["iters"] += tr.iters.get(i, 0)
            agg["s"] += dur[i]
            agg["fft"] += sub_fft[i]
            agg["linalg"] += sub_linalg[i]
            agg["t3"] += sub_t3[i]
            agg["leaf_s"] += sub_leaf_s[i]
            if not in_solver[i]:
                top_iters += tr.iters.get(i, 0)
                if i in tr.capped:
                    capped_iters += tr.iters.get(i, 0)
        elif layer == "factorizations" and short in fact_linalg:
            fact_linalg[short] += sub_linalg[i]

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {}
    for layer in ("fft", "linalg"):
        m[f"{layer}.calls"] = sum(c for n, c in calls.items() if _layer(n) == layer)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["tubes.tube_mul.calls"] = calls.get("tubes.tube_mul", 0)
    m["tubes.tube_div.calls"] = calls.get("tubes.tube_div", 0)
    m["tubes.self_s"] = self_s.get("tubes", 0.0)
    for fn in TENSOR_FUNCS:
        name = f"tensors.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.us_per_call"] = per(total_s.get(name, 0.0), calls.get(name, 0), 1e6)
    m["tensors.Tensor3.calls"] = sum(tr.tensor3) + tr.tensor3_outside
    m["tensors.self_s"] = self_s.get("tensors", 0.0)
    for fn in FACTORIZATIONS:
        name = f"factorizations.{fn}"
        n_calls = calls.get(name, 0)
        m[f"{name}.calls"] = n_calls
        m[f"{name}.us_per_call"] = per(total_s.get(name, 0.0), n_calls, 1e6)
        m[f"{name}.linalg_per_call"] = per(fact_linalg[fn], n_calls)
    m["factorizations.self_s"] = self_s.get("factorizations", 0.0)
    for fn, agg in solver.items():
        name, it = f"solvers.{fn}", agg["iters"]
        m[f"{name}.iters"] = it
        m[f"{name}.us_per_iter"] = per(agg["s"], it, 1e6)
        m[f"{name}.fft_per_iter"] = per(agg["fft"], it)
        m[f"{name}.linalg_per_iter"] = per(agg["linalg"], it)
        m[f"{name}.tensor3_per_iter"] = per(agg["t3"], it)
        m[f"{name}.py_share"] = per(agg["s"] - agg["leaf_s"], agg["s"])
    m["solvers.capped_iter_frac"] = per(capped_iters, top_iters)
    m["experiments.verify_s"] = sum(total_s.get(f"experiments.{fn}", 0.0) for fn in VERIFY_FUNCS)
    io_s = 0.0
    for fn in ("write_tensor", "read_tensor"):
        name = f"tensorio.{fn}"
        io_s += total_s.get(name, 0.0)
        m[f"{name}.us_per_call"] = per(total_s.get(name, 0.0), calls.get(name, 0), 1e6)
    m["tensorio.mb_per_s"] = per(io_bytes, io_s, 1e-6)
    return m


def is_count(name):
    """Whether a per-layer metric is a count that must repeat exactly."""
    return name.endswith((".calls", ".iters", "_per_iter", "_per_call", "capped_iter_frac")) and not (
        name.endswith(("us_per_call", "us_per_iter"))
    )
