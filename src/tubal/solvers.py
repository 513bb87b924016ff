"""Iterative eigenpair solvers: power iteration, shifted inverse iteration,
deflation sweeps, subspace iteration, and the shifted QR algorithm, all
formulated over the t-product.

Every solver works on immutable tensors, accumulates an iteration-ordered
telemetry trace, and stops by the stabilization tests described with each
routine. Iteration caps raise :class:`NoConvergence` carrying the partial
result, so harnesses can still report it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .errors import (
    BadPairing,
    DimensionMismatch,
    DivisionFailure,
    NearSingularTube,
    NoConvergence,
    ShiftCollision,
    SingularShift,
    ZeroSlice,
)
from .factorizations import _first_small_pivot, eigenslice_for, facewise_qr, t_hess
from .tensors import (
    Tensor3,
    _check_square,
    concat_lateral,
    conj_transpose,
    parseval_norms,
    parseval_weights,
    slice_inner,
    slice_normalize,
    t_product,
    tensor_tube_mul,
)
from .tubes import Tube, _check_divisor, conjugate_even, tube_conj_t, tube_div, tube_mul, unit_tube

#: Fresh random start slices a power-type iteration takes after a
#: near-singular scaling tube before it raises :class:`DivisionFailure`.
RESTARTS = 3

#: Shifted QR sweeps without a deflation before the shift turns complex,
#: and again before a complex-shift run is abandoned.
STAGNATION_LIMIT = 500

#: Power-family steps taken between two scorings (see :func:`_power_loop`).
_SCORE_CHUNK = 16


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    ``tol`` drives the stabilization tests, ``iter_max`` caps the outer
    iterations (the shifted QR runs are usually given a larger cap),
    ``power_index`` is the number of tensor products per subspace
    iteration step, ``deflation_variant`` picks the pairing slice of
    the deflation sweep: the computed eigenslice (DE), the left eigenslice
    (DLE), or the orthonormalized Schur slice (DS), ``rng_seed`` seeds the
    random start slices, and ``complex_shift`` starts the shifted QR
    iteration with its complex shift.
    """

    tol: float = 1e-15
    iter_max: int = 3000
    power_index: int = 1
    deflation_variant: str = "DE"
    rng_seed: int = 0
    complex_shift: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.iter_max < 1:
            raise ValueError("iter_max must be at least 1")
        if self.power_index < 1:
            raise ValueError("power_index must be at least 1")
        if self.deflation_variant.upper() not in ("DE", "DLE", "DS"):
            raise ValueError(f"unknown deflation variant {self.deflation_variant!r}")


class _StallDetector:
    """Declares convergence when the stabilization metric stops improving.

    Iterations whose eigenvalue gap is small reach a floating point noise
    floor near eps / gap, well above any tight tolerance, so an iteration
    that fails to improve its best metric by ten percent for a whole window
    while already at a tiny level is treated as converged to the attainable
    fixed point.
    """

    def __init__(self, window=200, ceiling=1e-8):
        self.window = window
        self.ceiling = ceiling
        self.best = np.inf
        self.stalled = 0

    def converged(self, metric):
        if metric < 0.9 * self.best:
            self.best = metric
            self.stalled = 0
            return False
        self.stalled += 1
        return self.stalled >= self.window and self.best <= self.ceiling


@dataclass
class EigenPair:
    """One computed eigenpair with convergence telemetry. ``stop_reason``
    says why the iteration stopped: ``"tol"`` (the stabilization test),
    ``"stall"`` (the stall detector) or ``"cap"`` (``iter_max``)."""

    eigentube: Tube
    eigenslice: Tensor3
    residual_norm: float
    iterations: int
    converged: bool
    stop_reason: str
    residual_trace: list = field(default_factory=list, repr=False)


@dataclass
class SchurResult:
    """Partial or full Schur-type output: f-unitary slices U and the
    compressed tensor R = U^H * A * U. ``stop_reason`` is as for
    :class:`EigenPair`."""

    u: Tensor3
    r: Tensor3
    iterations: int
    converged: bool
    stop_reason: str
    error_trace: list = field(default_factory=list, repr=False)
    residual_trace: list = field(default_factory=list, repr=False)

    def diag_tubes(self):
        return [Tube(self.r.data[j, j, :]) for j in range(self.r.p)]


def random_slice_set(l, m, n, real, rng):
    """Standard normal initial slices; complex entries get independent
    normal real and imaginary parts."""
    if real:
        return Tensor3(rng.standard_normal((l, m, n)))
    return Tensor3(
        rng.standard_normal((l, m, n)) + 1j * rng.standard_normal((l, m, n))
    )


def t_max(x):
    """The tube of largest Frobenius norm among the tubes of a lateral
    slice; ties take the smallest row index."""
    if x.p != 1:
        raise DimensionMismatch("columns", x.p, 1)
    norms = np.linalg.norm(x.data[:, 0, :], axis=1)
    if norms.max() == 0.0:
        raise ZeroSlice("every tube of the slice is zero")
    return Tube(x.data[int(np.argmax(norms)), 0, :])


# ---------------------------------------------------------------------------
# power iteration and shifted inverse iteration


def _fourier_stack(t, half):
    """Fourier faces of ``t`` as a contiguous (faces, l, p) stack; with
    ``half`` (real tensors) only the leading n // 2 + 1 faces."""
    if half:
        return np.ascontiguousarray(np.moveaxis(np.fft.rfft(t.data.real, axis=2), 2, 0))
    return np.ascontiguousarray(t.fourier_faces())


def _spatial_from_stack(stack, n, half):
    """Inverse of :func:`_fourier_stack`."""
    if half:
        return Tensor3(np.fft.irfft(np.moveaxis(stack, 0, 2), n=n, axis=2))
    return Tensor3(np.fft.ifft(np.moveaxis(stack, 0, 2), axis=2), real=False)


def _shifted_solver(stack):
    """LU factor each face of a (faces, p, p) stack once; return the solve
    of face f against face f of a (faces, p, 1) stack.

    The faces go to LAPACK ``getrf`` and ``getrs`` one at a time: at the
    paper's sizes a call per face costs far less than scipy's batched
    ``lu_factor`` / ``lu_solve``, which loop over the faces in Python. A
    face whose smallest pivot falls below ``LU_PIVOT_RTOL`` relative to its
    norm raises :class:`SingularShift` naming the first such face.
    """
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (stack,))
    factors = [getrf(face)[:2] for face in stack]
    pivmags = np.array([np.abs(np.diagonal(lu)).min() for lu, _ in factors])
    f = _first_small_pivot(stack, pivmags)
    if f is not None:
        raise SingularShift(f"face {f}: shifted tensor pivot {pivmags[f]:.3e}")
    return lambda vh: np.stack([getrs(lu, piv, b)[0] for (lu, piv), b in zip(factors, vh)])


def _power_loop(a, v0, sigma, cfg, rng):
    """The iteration shared by :func:`t_power` (``sigma`` None) and
    :func:`t_inverse_power`, with the stopping and restart rules described
    for :func:`t_power`.

    Each step maps the slice v to w = A * v, or with a shift to the
    solution of (A - sigma * I) * w = v, divides w by its anchored row tube
    alpha, and takes alpha, or e / alpha + sigma, as the eigentube
    estimate. A, v, w and alpha stay Fourier face stacks, the leading
    n // 2 + 1 faces when A, sigma and the start slice are real: the row
    norms and every stopping metric come from the stacks by Parseval, the
    tube division is facewise, and only the returned pair is transformed
    back. Random start and restart slices are real when A and sigma are.

    No step reads the stopping metrics, so up to ``_SCORE_CHUNK`` steps fill
    slots 1, 2, ... of v, alpha and A * v stacks (slot 0: the start slice or
    the last scored step), then one batched Parseval reduction scores them
    all and the stop tests are replayed in step order. Pending steps are
    scored before a restart, a raise or the cap: the results, traces and
    random draws are those of scoring each step as it is taken.
    """
    _check_square(a)
    cfg = cfg or SolverConfig()
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    if sigma is not None and sigma.n != a.n:
        raise DimensionMismatch("tubes", sigma.n, a.n)
    real = a.is_real and (sigma is None or sigma.is_real)
    v = v0 if v0 is not None else random_slice_set(a.p, 1, a.n, real, rng)
    if v.p != 1 or v.l != a.p or v.n != a.n:
        raise DimensionMismatch("shape", v.shape, (a.p, 1, a.n))
    n, p = a.n, a.p
    half = real and v.is_real
    ahat = _fourier_stack(a, half)
    if sigma is not None:
        sig = _fourier_stack(Tensor3(sigma.spatial_values[None, None, :]), half)
        solve = _shifted_solver(ahat - sig * np.eye(p))
    weights = parseval_weights(n, len(ahat))
    starts = [0, 2 * p, 4 * p, 4 * p + 2, 4 * p + 4]  # resid, dv, da, alpha, v in floats
    vs = np.empty((_SCORE_CHUNK + 1, len(ahat), p, 1), complex)
    avs = np.empty_like(vs)
    alphas = np.zeros(vs.shape[:2], complex)
    lams = alphas if sigma is None else np.zeros_like(alphas)
    vs[0] = _fourier_stack(v, half)
    np.matmul(ahat, vs[0], out=avs[0])
    k = m = restarts = 0
    fresh = True  # slot 1 follows a start or restart slice: only its resid counts
    anchor = lam = None
    trace = []
    resid = np.inf
    stall = _StallDetector()

    def result(j, reason):
        tube = None if lam is None else Tube(np.fft.irfft(lam, n) if half else np.fft.ifft(lam))
        v = _spatial_from_stack(vs[j], n, half)
        return EigenPair(tube, v, resid, k - m + j, reason != "cap", reason, trace)

    def score():
        """Replay the stop tests of pending steps 1..m in order: the result
        of the step that stops, else None with step m moved to slot 0."""
        nonlocal m, fresh, lam, resid
        if not m:
            return None
        lo, hi = slice(0, m), slice(1, m + 1)
        al = alphas[:, :, None, None]
        x = np.concatenate([avs[hi] - vs[hi] * lams[hi, :, None, None], vs[hi] - vs[lo],
                            al[hi] - al[lo], al[hi], vs[hi]], axis=2)
        x = x.reshape(m, len(ahat), -1).view(np.float64)
        norms = np.sqrt(np.add.reduceat(weights @ (x * x), starts, axis=1))
        for j, (resid, dv, da, anorm, vnorm) in enumerate(norms.tolist(), 1):
            trace.append(resid)
            if j == 1 and fresh:
                continue
            anorm = max(1.0, anorm)
            reason = "tol" if dv <= cfg.tol and da <= cfg.tol * anorm else None
            if reason or stall.converged(max(dv / max(1.0, vnorm), da / anorm)):
                lam = lams[j]
                return result(j, reason or "stall")
        vs[0], avs[0], alphas[0], lams[0] = vs[m], avs[m], alphas[m], lams[m]
        lam, m, fresh = lams[0], 0, False
        return None

    while True:
        if m == _SCORE_CHUNK or k == cfg.iter_max:
            if stop := score():
                return stop
            if k == cfg.iter_max:
                raise NoConvergence(k, resid, result=result(0, "cap"))
        w = avs[m] if sigma is None else solve(vs[m])
        rows = np.sqrt(weights @ (w.real**2 + w.imag**2)[:, :, 0])
        top = rows.max()
        # the anchor row is kept while its norm stays above a tenth of the
        # largest: rows of the limiting eigenslice can trade the argmax back
        # and forth (tube norms are not multiplicative), and a bare argmax
        # would then never let the iterates settle although their span
        # converges; a row whose component genuinely dies out is abandoned
        if anchor is None or rows[anchor] < 0.1 * top:
            anchor = int(np.argmax(rows))
        alpha = w[:, anchor, 0]
        try:
            _check_divisor(np.abs(alpha))
        except NearSingularTube as exc:
            if stop := score():
                return stop
            # a zero slice (every row norm 0, even by underflow) fails the gate
            if top == 0.0:
                raise ZeroSlice("every tube of the slice is zero") from None
            if restarts >= RESTARTS:
                raise DivisionFailure(
                    f"scaling tube stayed near singular after {restarts} restarts"
                ) from exc
            restarts += 1
            k += 1
            fresh, anchor = True, None
            vs[0] = _fourier_stack(random_slice_set(p, 1, n, real, rng), half)
            np.matmul(ahat, vs[0], out=avs[0])
            continue
        k, m = k + 1, m + 1
        np.divide(w, alpha[:, None, None], out=vs[m])
        alphas[m] = alpha
        if sigma is not None:
            lams[m] = 1.0 / alpha + sig[:, 0, 0]
        np.matmul(ahat, vs[m], out=avs[m])


def t_power(a, v0=None, cfg=None, rng=None):
    """Power iteration for the eigenpair with the largest-norm eigentube.

    Each step applies the tensor and rescales by the largest-norm row tube,
    which pins that row to the unit tube; iteration stops once consecutive
    slices move by at most ``cfg.tol`` and consecutive scaling tubes by at
    most ``cfg.tol`` relative to their magnitude (stop reason ``"tol"``),
    or once the stall detector reports that the iteration sits at its
    floating point noise floor (``"stall"``). A near-singular scaling tube
    triggers a restart with a fresh random slice, up to ``RESTARTS`` times.
    A step is one batched matrix product on the Fourier faces; its stopping
    norms are taken with those of up to ``_SCORE_CHUNK`` - 1 other steps.
    """
    return _power_loop(a, v0, None, cfg, rng)


def t_inverse_power(a, sigma, v0=None, cfg=None, rng=None):
    """Shifted inverse iteration for the eigentube closest to ``sigma``.

    The Fourier faces of the shifted tensor are LU factored once (see
    :func:`_shifted_solver`); each step solves for the next slice and
    rescales by its largest-norm tube alpha, which converges to the inverse
    of (lambda - sigma), so the eigentube is recovered as e / alpha + sigma.
    It stops and restarts like :func:`t_power`.
    """
    return _power_loop(a, v0, sigma, cfg, rng)


# ---------------------------------------------------------------------------
# deflation


def deflate(a, shift, u1, v, pairing_tol=1e-8, spectrum=None):
    """Rank-one deflation A - shift * U1 * V^H.

    ``v`` must pair with the eigenslice as V^H * U1 = e (checked at
    ``pairing_tol``, else :class:`BadPairing`). The deflated tensor keeps
    every eigentube except the one paired with ``u1``, which moves by
    ``-shift``. When the remaining ``spectrum`` tubes are supplied, a
    facewise collision of the moved eigentube with any of them raises
    :class:`ShiftCollision`.
    """
    _check_square(a)
    pairing = slice_inner(v, u1)
    dev = (pairing - unit_tube(a.n)).norm()
    if dev > pairing_tol:
        raise BadPairing(f"V^H * U1 deviates from e by {dev:.3e}")
    if spectrum is not None:
        lam1 = spectrum[0]
        moved = lam1 - shift
        for i, lam in enumerate(spectrum):
            gap = np.abs(lam.fourier_values - moved.fourier_values)
            scale = max(1.0, float(np.abs(lam.fourier_values).max()))
            if i > 0 and gap.min() <= 1e-12 * scale:
                raise ShiftCollision(
                    f"eigentube {i} meets the moved eigentube on a face"
                )
    outer = t_product(u1, conj_transpose(v))
    return a - tensor_tube_mul(outer, shift)


def _orthonormalize_against(z, basis):
    # two Gram-Schmidt passes keep the slices f-orthonormal to roundoff
    for _ in range(2):
        for q in basis:
            z = z - tensor_tube_mul(q, slice_inner(q, z))
    x, _ = slice_normalize(z)
    return x


def deflated_power_sweep(a, num, cfg=None):
    """Leading ``num`` eigenpairs by repeated power iteration plus
    deflation.

    After each converged stage the tensor is deflated by the full eigentube
    so the next-largest one dominates. The pairing slice follows
    ``cfg.deflation_variant``: the eigenslice itself (DE), the left
    eigenslice computed by a power iteration on the conjugate transpose
    (DLE), or the Schur slice obtained by orthonormalizing against the
    previous ones (DS). Reported eigenslices are mapped back to eigenslices
    of the original tensor: DE and DLE results are corrected stage by stage
    through the deflation relation; DS takes its eigentubes from the
    diagonal of the compression R = Q^H * A * Q over the accumulated Schur
    basis Q and each eigenslice from :func:`eigenslice_for` on the original
    tensor, which raises as described there. A stage that hits the
    iteration cap raises :class:`NoConvergence` whose result lists the
    completed stages, mapped back as on success, then the partial pair of
    the capped power iteration; when the left iteration of a DLE stage hits
    the cap, that stage's converged right pair is mapped back in its place,
    marked not converged with stop reason "cap".
    """
    _check_square(a)
    cfg = cfg or SolverConfig()
    if num < 1 or num > a.p:
        raise ValueError(f"num must be in 1..{a.p}, got {num}")
    variant = cfg.deflation_variant.upper()
    rng = np.random.default_rng(cfg.rng_seed)
    e = unit_tube(a.n)

    a_cur = a
    lambdas = []
    zs = []  # the slice used in each rank-one update
    vs = []  # the pairing slice of each update
    qs = []  # DS: accumulated Schur slices
    stages = []  # the power pair of each completed stage

    def mapped_back():
        count = len(stages)
        if variant == "DS":
            qtens = concat_lateral(qs)
            r = t_product(t_product(conj_transpose(qtens), a), qtens)
            tubes = [Tube(r.data[j, j, :]) for j in range(count)]
            slices = [eigenslice_for(a, lam) for lam in tubes]
        else:
            tubes = lambdas
            slices = []
            for m in range(count):
                y = zs[m]
                for j in range(m - 1, -1, -1):
                    try:
                        gamma = tube_div(
                            tube_mul(lambdas[j], slice_inner(vs[j], y)),
                            lambdas[m] - lambdas[j],
                        )
                    except NearSingularTube as exc:
                        raise ShiftCollision(
                            f"eigentubes {m} and {j} coincide on a face"
                        ) from exc
                    y = y + tensor_tube_mul(zs[j], gamma)
                ynorm, _ = slice_normalize(y)
                slices.append(ynorm)
        pairs = []
        for lam, x, st in zip(tubes, slices, stages):
            resid = (t_product(a, x) - tensor_tube_mul(x, lam)).frob_norm()
            pairs.append(replace(st, eigentube=lam, eigenslice=x, residual_norm=resid))
        return pairs

    for stage in range(1, num + 1):
        pair = None
        try:
            pair = t_power(a_cur, cfg=cfg, rng=rng)
            if variant == "DLE":
                left = t_power(conj_transpose(a_cur), cfg=cfg, rng=rng)
        except NoConvergence as exc:
            partial = [exc.result]
            if pair is not None:
                # the left iteration hit the cap: the stage's converged
                # right pair is the eigenpair estimate, mapped back as such
                zs.append(slice_normalize(pair.eigenslice)[0])
                lambdas.append(pair.eigentube)
                stages.append(replace(pair, converged=False, stop_reason="cap"))
                partial = []
            done = mapped_back() if stages else []
            raise NoConvergence(
                sum(p.iterations for p in done) + exc.iterations,
                exc.last_residual,
                result=done + partial,
                detail=f"stage {stage} of {num} hit the cap",
            ) from exc
        lam = pair.eigentube
        z, _ = slice_normalize(pair.eigenslice)
        if variant == "DS":
            q = _orthonormalize_against(z, qs) if qs else z
            a_cur = deflate(a_cur, lam, q, q)
            qs.append(q)
        else:
            if variant == "DE":
                v = z
            else:
                w, _ = slice_normalize(left.eigenslice)
                pairing = slice_inner(w, z)
                try:
                    v = tensor_tube_mul(w, tube_conj_t(tube_div(e, pairing)))
                except NearSingularTube as exc:
                    raise BadPairing(
                        "left and right eigenslices are numerically orthogonal"
                    ) from exc
            a_cur = deflate(a_cur, lam, z, v)
            zs.append(z)
            vs.append(v)
        lambdas.append(lam)
        stages.append(pair)
    return mapped_back()


# ---------------------------------------------------------------------------
# subspace iteration


def t_subspace_iteration(a, num=None, x0=None, cfg=None, rng=None):
    """Orthogonal subspace iteration for the ``num`` largest eigentubes.

    Each step applies the tensor ``cfg.power_index`` times, re-orthonormal-
    izes with an economy facewise QR, and compresses R = X^H * A * X.
    Iteration stops once the f-lower-triangular part of R (diagonal
    included) moves by at most ``cfg.tol`` between steps, relative to the
    magnitude of R.

    The iterate X, the product Y = A * X and R stay Fourier face stacks for
    the whole run, the leading n // 2 + 1 faces when A and X0 are real: a
    step is one batched QR and a few batched matrix products, Y serves as
    the next step's first power application, every norm is taken from the
    stacks by Parseval, and only the returned tensors are transformed back.
    """
    _check_square(a)
    cfg = cfg or SolverConfig()
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    if x0 is None:
        if num is None:
            raise ValueError("pass either num or x0")
        x0 = random_slice_set(a.p, num, a.n, a.is_real, rng)
    if x0.n != a.n:
        raise DimensionMismatch("tubes", a.n, x0.n)
    if x0.l != a.p:
        raise DimensionMismatch("inner", a.p, x0.l)
    n = a.n
    half = a.is_real and x0.is_real
    ahat = _fourier_stack(a, half)
    weights = parseval_weights(n, len(ahat))
    y = ahat @ _fourier_stack(x0, half)
    q = r = r_prev = None
    err_trace = []
    resid_trace = []
    err = np.inf
    stall = _StallDetector()

    def result(reason):
        u = _spatial_from_stack(q, n, half)
        rr = _spatial_from_stack(r, n, half)
        return SchurResult(u, rr, k, reason != "cap", reason, err_trace, resid_trace)

    k = 0
    while k < cfg.iter_max:
        k += 1
        for _ in range(cfg.power_index - 1):
            y = ahat @ y
        q = facewise_qr(y, mode="reduced")[0]
        y = ahat @ q
        r = np.conj(np.swapaxes(q, 1, 2)) @ y
        blocks = [y - q @ r]
        if r_prev is not None:
            blocks += [r, np.tril(r - r_prev)]
        resid, *change = parseval_norms(weights, *blocks)
        resid_trace.append(resid)
        if change:
            rnorm, err = change
            scale = max(1.0, rnorm)
            err_trace.append(err)
            if err <= cfg.tol * scale:
                return result("tol")
            if stall.converged(err / scale):
                return result("stall")
        r_prev = r
    raise NoConvergence(k, err, result=result("cap"))


# ---------------------------------------------------------------------------
# QR algorithms


@dataclass
class QrIterate:
    """One step of the basic QR iteration, kept when history is requested."""

    q: Tensor3
    r: Tensor3
    iterate: Tensor3
    q_acc: Tensor3
    r_acc: Tensor3


def t_qr_unshifted(a, cfg=None, keep_history=False):
    """Basic QR iteration: factor, remultiply in reverse order, repeat.

    Slow but transparent; every iterate is f-unitarily similar to the
    input, and the accumulated factors give a t-QR factorization of A^k.
    The iterate and the accumulated factors stay Fourier face stacks (the
    leading n // 2 + 1 faces for real input): a step is one
    :func:`facewise_qr` call and three batched products, and the spatial
    :class:`QrIterate` history is built only with ``keep_history``. Stops
    when the strictly f-lower-triangular mass, by Parseval, falls below
    ``cfg.tol * max(1, ||A||_F)``.
    """
    _check_square(a)
    cfg = cfg or SolverConfig()
    n, half = a.n, a.is_real
    a_k = _fourier_stack(a, half)
    weights = parseval_weights(n, len(a_k))
    q_acc = r_acc = np.broadcast_to(np.eye(a.p), a_k.shape)
    history = []
    err_trace = []
    scale = max(1.0, a.frob_norm())
    err = np.inf

    def spatial(stack):
        return _spatial_from_stack(stack, n, half)

    def result(reason):
        res = SchurResult(spatial(q_acc), spatial(a_k), k, reason == "tol", reason, err_trace, [])
        res.history = history
        return res

    k = 0
    while k < cfg.iter_max:
        k += 1
        q, r = facewise_qr(a_k, "complete")
        a_k = r @ q
        q_acc = q_acc @ q
        r_acc = r @ r_acc
        if keep_history:
            history.append(QrIterate(*map(spatial, (q, r, a_k, q_acc, r_acc))))
        (err,) = parseval_norms(weights, np.tril(a_k, -1))
        err_trace.append(err)
        if err <= cfg.tol * scale:
            return result("tol")
    raise NoConvergence(k, err, result=result("cap"))


# widest complex dtype available for the final compression of a polished
# Schur pair; x86 long double where present, otherwise plain double
_WIDE = np.complex256 if hasattr(np, "complex256") else np.complex128


def _polish_schur_face(m, u, t, sweeps=4):
    """Iterative refinement of a computed Schur pair of one Fourier face.

    The QR iteration accumulates a backward error of roughly
    sqrt(iterations) * eps * ||M||, which for large-norm faces sits well
    above the representation floor. Each sweep recompresses against the
    original face, solves the triangular Sylvester equation for a strictly
    lower correction of the basis, and re-orthonormalizes by QR. The final
    compression runs in extended precision so the returned diagonal carries
    only representation-level error. The refined pair is kept only when it
    actually lowers the residual.
    """
    p = m.shape[0]
    scale = np.linalg.norm(m)

    def residual(uu, tt):
        return np.linalg.norm(m @ uu - uu @ tt)

    best_u, best_t = u, t
    best_res = residual(u, t)
    for _ in range(sweeps):
        h = u.conj().T @ m @ u
        tt = np.triu(h)
        x = np.zeros_like(h)
        ok = True
        for j in range(p):
            for i in range(p - 1, j, -1):
                den = tt[j, j] - tt[i, i]
                if abs(den) < 1e-6 * max(1.0, scale):
                    ok = False
                    continue
                num = h[i, j] + tt[i, i:] @ x[i:, j] - x[i, : i + 1] @ tt[: i + 1, j]
                x[i, j] = num / den
        if not ok and not np.any(x):
            break
        # QR keeps every leading column span of the corrected basis, so the
        # full Newton step takes effect (a polar factor would halve it)
        u = facewise_qr((u @ (np.eye(p) + x))[None], "complete")[0][0]
        mh = m.astype(_WIDE)
        uh = u.astype(_WIDE)
        t = np.triu((uh.conj().T @ mh @ uh).astype(np.complex128))
        res = residual(u, t)
        if res < best_res:
            best_u, best_t, best_res = u, t, res
        else:
            break
    return best_u, best_t


def t_qr_shifted(a, cfg=None):
    """Shifted QR iteration on the f-Hessenberg form.

    The tensor is reduced to f-upper-Hessenberg form by :func:`t_hess`,
    and its Fourier face stack is iterated. Each sweep shifts every face by
    the trailing diagonal entry sigma of the active leading block
    (multiplied by 1 + i in complex-shift mode), factors the shifted blocks
    of all faces with one :func:`facewise_qr` call, and sets the block to
    R Q + sigma I, carrying Q^H into the coupling rows to its right and Q
    into the accumulated unitary stack. The trailing row deflates once the
    subdiagonal tube at the active corner drops below
    ``1e-14 * ||A||_F``; restricting the step to the active block keeps
    converged subdiagonals from regrowing. If the active corner makes no
    progress for ``STAGNATION_LIMIT`` sweeps the shift switches to the
    complex variant once, then the run is abandoned with stop reason
    ``"stall"`` and ``converged`` False.
    On success the computed pair is polished facewise against the original
    tensor (see :func:`_polish_schur_face`).
    """
    _check_square(a)
    cfg = cfg or SolverConfig()
    p, n = a.p, a.n
    eps = 1e-14 * a.frob_norm()
    hess = t_hess(a)
    hs = hess.h.fourier_faces().copy()
    us = hess.w.fourier_faces().copy()
    a_faces = a.fourier_faces()
    complex_mode = cfg.complex_shift
    r = p
    stagnant = 0
    err_trace = []
    k = 0
    sqrt_n = np.sqrt(n)

    def finish(reason, iterations):
        if reason == "tol":
            for f in range(n):
                us[f], hs[f] = _polish_schur_face(a_faces[f], us[f], hs[f])
        snap = a.is_real and not complex_mode
        return SchurResult(
            Tensor3.from_fourier_faces(us, real=snap and conjugate_even(us)),
            Tensor3.from_fourier_faces(hs, real=snap and conjugate_even(hs)),
            iterations,
            reason == "tol",
            reason,
            err_trace,
            [],
        )

    if p == 1:
        return finish("tol", 0)
    while k < cfg.iter_max:
        k += 1
        sigma = hs[:, r - 1, r - 1] * (1.0 + 1.0j if complex_mode else 1.0)
        shift = sigma[:, None, None] * np.eye(r)
        q, rr = facewise_qr(hs[:, :r, :r] - shift, "complete")
        hs[:, :r, :r] = rr @ q + shift
        hs[:, :r, r:] = np.conj(np.swapaxes(q, 1, 2)) @ hs[:, :r, r:]
        us[:, :, :r] = us[:, :, :r] @ q
        sub = float(np.linalg.norm(hs[:, r - 1, r - 2])) / sqrt_n
        err_trace.append(sub)
        if sub <= eps:
            hs[:, r - 1, r - 2] = 0.0
            r -= 1
            stagnant = 0
            if r == 1:
                return finish("tol", k)
        else:
            stagnant += 1
            if stagnant >= STAGNATION_LIMIT:
                if not complex_mode:
                    complex_mode = True
                    stagnant = 0
                else:
                    raise NoConvergence(
                        k,
                        sub,
                        result=finish("stall", k),
                        detail=f"stalled with {r} rows still active",
                    )
    raise NoConvergence(
        k,
        err_trace[-1] if err_trace else None,
        result=finish("cap", k),
        detail=f"{r} rows still active",
    )
