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
    SingularFace,
    SingularShift,
    ZeroSlice,
)
from .factorizations import (_QR_ERRSTATE, _eigenslices, _facewise_inverse, _mirror,
                             facewise_qr, qr_r_raw, qr_reduced, t_hess)
from .tensors import (
    Tensor3,
    _check_finite,
    _check_square,
    _face_squares,
    _face_stack,
    _from_face_stack,
    _parseval_norms,
    conj_transpose,
    parseval_norms,
    parseval_weights,
    slice_inner,
    slice_normalize,
    t_product,
    tensor_tube_mul,
)
from .tubes import (
    Tube, _check_divisor, _divisor_ok, tube_conj_t, tube_div, unit_tube,
)

#: Fresh random start slices a power-type iteration takes after a
#: near-singular scaling tube before it raises :class:`DivisionFailure`.
RESTARTS = 3

#: Shifted QR sweeps without a deflation before the shift turns complex,
#: and again before a complex-shift run is abandoned.
STAGNATION_LIMIT = 500

#: The stall stop of the power family: a run whose stall metric has not
#: fallen below 0.9 times its best for STALL_WINDOW steps, with that best at
#: most STALL_CEILING, is taken as converged to its floating point noise
#: floor. Iterations whose eigenvalue gap is small sit on a floor near
#: eps / gap, well above any tight tolerance.
STALL_WINDOW = 200
STALL_CEILING = 1e-8

#: Subspace iteration hands its iterate to the Schur polish at the first
#: step whose backward error eta = ||A * Q - Q * triu(R)||_F / (||A||_F
#: ||Q||_F) is at most HANDOFF_TOL: eta still falls geometrically there,
#: well above the roundoff floor, and one refinement reaches that floor.
HANDOFF_TOL = 1e-10

#: A Fourier face of subspace iteration locks at the first step whose own
#: share of eta's numerator, sqrt(w_f (||Y_f - Q_f R_f||^2 +
#: ||tril(R_f, -1)||^2)), is at most LOCK_TOL ||A||_F ||Q||_F: it keeps that
#: step's iterate and later steps skip it. With every face locked, eta is at
#: most sqrt(faces) * LOCK_TOL, below HANDOFF_TOL up to a million faces.
LOCK_TOL = HANDOFF_TOL / 1000

#: Steps taken between two scorings (see :func:`_iterate`). Subspace chunks
#: past 16 make malloc hand their scoring temporaries back to the OS.
_POWER_CHUNK = 64
_SUBSPACE_CHUNK = 16


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    ``tol`` drives the stabilization tests of the power family and of the
    unshifted QR iteration (subspace iteration hands off at the module's
    ``HANDOFF_TOL`` instead), ``iter_max`` caps the outer
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
    :class:`EigenPair`, with ``"tol"`` the hand-off for subspace
    iteration."""

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
# the chunked iteration driver


def _iterate(cfg, slots, take, result):
    """The iteration of the power family (:func:`_power_loop`) and of
    :func:`t_subspace_iteration`: apply the operator, renormalize, and stop
    once the iterates stabilize.

    Each round asks ``take(m)`` for m = ``len(slots[0]) - 1`` steps, the
    chunk length the solver sized its stacks for (fewer before the cap).
    The solver takes them speculatively into slots 1..m of its ``slots``
    stacks, slot 0 holding the last scored step or a start slice, and
    returns a row (residual, tol test passed, stall metric) for each step
    it keeps, from one batched Parseval reduction, together with
    ``recover``: None when it kept every step, else the repair of the first
    dropped one. The rows are replayed in step order: every residual joins
    the trace, and the first step to pass the tol test, or the stall test
    (``STALL_WINDOW``, ``STALL_CEILING``), stops the run with
    ``result(j, iterations, reason, trace)`` for slot j. The first step
    after a start has nothing to compare with, so only its residual counts,
    unless its row has no stall metric (None: subspace iteration's backward
    error test, which compares no steps and never stalls). Otherwise the
    last kept step moves to slot 0, and ``recover()`` runs:
    it returns False when the step is retaken (the power family's anchor
    move, which counts no step) and True when it put a fresh start slice in
    slot 0 (a restart, which counts one). With every step kept, reaching
    ``cfg.iter_max`` steps raises :class:`NoConvergence` with the last
    residual and the cap result of slot 0. Steps are always scored before a
    restart, a raise or the cap, so the results, traces and random draws
    are those of checking and scoring each step as it is taken.
    """
    k, fresh, trace, chunk = 0, True, [], len(slots[0]) - 1
    best, stalled = np.inf, 0
    while True:
        rows, recover = take(min(chunk, cfg.iter_max - k))
        for j, (resid, ok, metric) in enumerate(rows, 1):
            trace.append(resid)
            if j == 1 and fresh and metric is not None:
                continue
            if ok:
                return result(j, k + j, "tol", trace)
            if metric is None:
                continue
            if metric < 0.9 * best:
                best, stalled = metric, 0
                continue
            stalled += 1
            if stalled >= STALL_WINDOW and best <= STALL_CEILING:
                return result(j, k + j, "stall", trace)
        if rows:
            k, fresh = k + len(rows), False
            for s in slots:
                s[0] = s[len(rows)]
        if recover is None:
            if k == cfg.iter_max:
                last = trace[-1] if trace else None
                raise NoConvergence(k, last, result=result(0, k, "cap", trace))
        elif recover():
            k, fresh = k + 1, True


# ---------------------------------------------------------------------------
# power iteration and shifted inverse iteration


def _power_loop(a, v0, sigma, cfg, rng):
    """The iteration shared by :func:`t_power` (``sigma`` None) and
    :func:`t_inverse_power`, with the stopping and restart rules described
    for :func:`t_power`, run by :func:`_iterate`.

    Each step maps the slice v to w = B * v, where B is A, or with a shift
    the inverse of A - sigma * I, divides w by its anchored row tube alpha,
    and takes alpha, or e / alpha + sigma, as the eigentube estimate. B, v,
    w and alpha stay Fourier face stacks, the leading n // 2 + 1 faces when
    A, sigma and the start slice are real, and B is inverted facewise once
    per solve: the row norms and every stopping metric come from the stacks
    by Parseval, the tube division is facewise, and only the returned pair
    is transformed back. Random start and restart slices are real when A
    and sigma are.

    A step divides by the anchor row, through each slot's divisor view
    (rebuilt when the anchor moves), and multiplies into the v and w stacks
    (w slot j + 1: B * v of step j). Once per ``_POWER_CHUNK`` steps one
    batched check of their row norms and divisor gates drops the first step
    whose anchor row fell below a tenth of the largest, or whose alpha fails
    the gate, and every later step; its recovery moves the anchor, restarts
    or raises. Kept steps' rows are array operations on their batched norms.
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
    ahat = op = _face_stack(a, half)
    if sigma is not None:
        sig = np.fft.rfft(sigma.spatial_values.real) if half else sigma.fourier_values
        try:
            op = _facewise_inverse(ahat - sig[:, None, None] * np.eye(p))
        except SingularFace as exc:
            raise SingularShift(f"face {exc.face_index}: shifted tensor is singular") from exc
    weights = parseval_weights(n, len(ahat))
    # step j divides the w in slot j, B * v of step j - 1
    ws = np.empty((_POWER_CHUNK + 2, len(ahat), p, 1), complex)
    vs = np.empty_like(ws[1:])
    alphas = np.zeros(vs.shape[:2], complex)
    lams = alphas if sigma is None else np.zeros_like(alphas)
    wl, vl = list(ws), list(vs)  # slot views: slicing costs as much as a step
    restarts, anchor, divisors = 0, None, None

    def row_norms(w):
        return np.sqrt(weights @ (w.real**2 + w.imag**2)[..., 0])

    def move(row):  # anchor the steps at row, with each slot's divisor view
        nonlocal anchor, divisors
        anchor, divisors = row, [w[:, row : row + 1] for w in wl]

    def start(v):
        """Put v in slot 0 and anchor at the largest row of its w."""
        vs[0] = _face_stack(v, half)
        np.matmul(op, vs[0], out=ws[1])
        move(int(np.argmax(row_norms(ws[1]))))

    def result(j, iterations, reason, trace):
        lam = lams[j] if trace else None  # no eigentube before a step is scored
        tube = None if lam is None else Tube(np.fft.irfft(lam, n) if half else np.fft.ifft(lam))
        v = Tensor3(_from_face_stack(vs[j], n, half), real=half)
        resid = trace[-1] if trace else np.inf
        return EigenPair(tube, v, resid, iterations, reason != "cap", reason, trace)

    def take(m):
        # a step after a failing one divides by zero or NaN; it is dropped
        with np.errstate(all="ignore"):
            for j in range(1, m + 1):
                np.divide(wl[j], divisors[j], out=vl[j])
                np.matmul(op, vl[j], out=wl[j + 1])
            taken = ws[1 : m + 1]
            rows = row_norms(taken)
            top = np.maximum.reduce(rows, -1)
            tubes = taken[:, :, anchor, 0]
            mags = np.abs(tubes)
            # the anchor row is kept while its norm stays above a tenth of
            # the largest: rows of the limiting eigenslice can trade the
            # argmax back and forth (tube norms are not multiplicative), and
            # a bare argmax would then never let the iterates settle although
            # their span converges; a row whose component genuinely dies out
            # is abandoned
            moved = rows[:, anchor] < 0.1 * top
            failed = np.flatnonzero(moved | ~_divisor_ok(mags))
        s = int(failed[0]) if len(failed) else m
        scored = []
        if s:
            lo, hi = slice(0, s), slice(1, s + 1)
            alphas[hi] = tubes[:s]
            if sigma is not None:
                lams[hi] = 1.0 / alphas[hi] + sig
            al = alphas[:, :, None, None]
            avs = ws[2 : s + 2] if sigma is None else ahat @ vs[hi]
            resid, dv, da, anorm, vnorm = _parseval_norms(
                weights, avs - vs[hi] * lams[hi, :, None, None], vs[hi] - vs[lo],
                al[hi] - al[lo], al[hi], vs[hi]).T
            # Python's max(1.0, x) and max(x, y), NaN included, and its silent inf / inf
            anorm = np.where(anorm > 1.0, anorm, 1.0)
            ok = (dv <= cfg.tol) & (da <= cfg.tol * anorm)
            with np.errstate(invalid="ignore", divide="ignore"):
                dv, da = dv / np.where(vnorm > 1.0, vnorm, 1.0), da / anorm
            scored = list(zip(resid.tolist(), ok.tolist(), np.where(da > dv, da, dv).tolist()))

        def recover():
            nonlocal restarts
            if moved[s]:
                move(int(np.argmax(rows[s])))
                return False
            try:
                _check_divisor(mags)  # raises for step s, the first to fail the gate
            except NearSingularTube as exc:
                # a zero slice (every row norm 0, even by underflow) fails the gate
                if top[s] == 0.0:
                    raise ZeroSlice("every tube of the slice is zero") from None
                if restarts >= RESTARTS:
                    raise DivisionFailure(
                        f"scaling tube stayed near singular after {restarts} restarts"
                    ) from exc
            restarts += 1
            start(random_slice_set(p, 1, n, real, rng))
            return True

        return scored, recover if len(failed) else None

    start(v)
    return _iterate(cfg, (vs, ws[1:], alphas, lams), take, result)


def t_power(a, v0=None, cfg=None, rng=None):
    """Power iteration for the eigenpair with the largest-norm eigentube.

    Each step applies the tensor and rescales by the tube of the anchor row
    (the largest-norm row at a start, kept while above a tenth of the
    largest), which pins that row to the unit tube; iteration stops once
    consecutive slices move by at most ``cfg.tol`` and consecutive scaling
    tubes by at most ``cfg.tol`` relative to their magnitude (stop reason
    ``"tol"``), or once the stall detector reports that the iteration sits
    at its floating point noise floor (``"stall"``). A near-singular
    scaling tube triggers a restart with a fresh random slice, up to
    ``RESTARTS`` times. Steps run in the chunks of :func:`_iterate`, and
    :func:`_power_loop` checks their anchor and gate once per chunk.
    """
    return _power_loop(a, v0, None, cfg, rng)


def t_inverse_power(a, sigma, v0=None, cfg=None, rng=None):
    """Shifted inverse iteration for the eigentube closest to ``sigma``.

    This is power iteration on B = (A - sigma * I)^{-1}, whose Fourier
    faces are inverted once per solve; each step applies B to the slice and
    rescales by its anchored tube alpha, which converges to the inverse of
    (lambda - sigma), so the eigentube is recovered as e / alpha + sigma.
    It stops and restarts like :func:`t_power`, with residuals against A.
    A face of A - sigma * I whose smallest singular value is at most 1e-13
    times its largest (at least 1) raises :class:`SingularShift` naming
    the first such face.
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
    previous ones (DS). Deflation keeps the other eigentubes, so every
    variant reports each stage's own eigentube with an eigenslice of the
    original tensor. All stages are mapped back at the end by one call of
    the kernel behind :func:`eigenslice_for`, which raises
    :class:`NotAnEigentube` or :class:`DefectiveFace` as described there.
    Eigentubes that meet on a Fourier face get that face's eigenslice
    entries from the same null space, so the stacked U = [x_1 x_2 ...] can
    be singular on that face although every pair's own residual is small;
    a caller that inverts or orthogonalizes U must check its faces.
    A stage that hits the iteration cap raises :class:`NoConvergence`
    whose result lists the completed stages, mapped back as on success,
    then the capped power iteration's partial pair, or, when a DLE stage's
    left iteration hit the cap, that stage's right pair mapped back and
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
    qs = []  # DS: accumulated Schur slices
    stages = []  # the power pair of each completed stage

    def mapped_back():
        xs = _eigenslices(a, [st.eigentube for st in stages])
        return [
            replace(st, eigenslice=x,
                    residual_norm=(t_product(a, x) - tensor_tube_mul(x, st.eigentube)).frob_norm())
            for st, x in zip(stages, xs)
        ]

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
                stages.append(replace(pair, converged=False, stop_reason="cap"))
                partial = []
            done = mapped_back()
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
        stages.append(pair)
    return mapped_back()


# ---------------------------------------------------------------------------
# subspace iteration


def t_subspace_iteration(a, num=None, x0=None, cfg=None, rng=None):
    """Orthogonal subspace iteration for the ``num`` largest eigentubes.

    Each step applies the tensor ``cfg.power_index`` times, re-orthonormal-
    izes with an economy facewise QR, and compresses R = X^H * A * X. The
    iteration hands off at the first step whose backward error
    eta = ||A * X - X * triu(R)||_F / (||A||_F ||X||_F) is at most
    ``HANDOFF_TOL`` (stop reason ``"tol"``); ``error_trace`` holds eta and
    ``residual_trace`` ||A * X - X * R||_F at every step. At the hand-off
    the iterate is refined once (Demmel, Computing 38, 1987): X is
    completed to an f-unitary basis, the trailing block of its compression
    is brought to Schur form facewise, :func:`_polish_schur` polishes the
    whole pair, and the leading ``num`` columns are returned with their
    f-upper-triangular R. ``converged`` is True exactly when the polished
    pair's eta is at most eps * sqrt(p * n). A capped run returns its raw
    X and R, its locked faces (below) as of their lock step, at a share of
    eta near ``LOCK_TOL`` rather than at the roundoff floor. ``x0``, or
    ``num`` random slices, holds 1 to p slices; given both, ``num`` must be
    the width of ``x0``. A NaN or infinite entry in A or ``x0`` raises
    :class:`NonFiniteInput` before the first step.

    Each Fourier face is its own matrix subspace iteration, and faces
    converge at their own rates. A face locks at the first step whose own
    share of eta's numerator, sqrt(w_f (||Y_f - X_f R_f||^2 +
    ||tril(R_f, -1)||^2)) with Parseval weight w_f, is at most
    ``LOCK_TOL`` ||A||_F ||X||_F (``LOCK_TOL`` = ``HANDOFF_TOL`` / 1000):
    it keeps that step's X, Y and R, and later steps and scorings skip it.
    Eta at every later step sums every face's latest share, the locked
    faces' frozen ones included, so it stays the backward error of the pair
    the run would return, and the hand-off and the certificate keep their
    meaning.

    The iterate X, the product Y = A * X and R stay Fourier face stacks for
    the whole run, the leading n // 2 + 1 faces when A and X0 are real; only
    the returned tensors are transformed back, in the original face order.
    A step is the power products and LAPACK's raw QR (``geqrf``, then
    ``ungqr``) on the active faces, whose Q lands straight in the step's
    slot of X; its Y is the next step's first product. Q keeps LAPACK's
    phases: eta does not change when the columns of X are scaled by unit
    phases. The active faces are a prefix of every stack: the QR buffers,
    the slot lists and two buffers for the power products are bound to it
    at the start and again when faces lock, so a step allocates nothing. No
    step reads R or eta, so :func:`_iterate` runs the steps in chunks under
    one ``np.errstate``, and batched products give each chunk's R
    (X^H * Y) and every active face's two squared norms. Y - X * R is
    orthogonal to X, so the square of eta's numerator is ||Y - X * R||^2 +
    ||tril(R, -1)||^2, each summed over the faces in their original order.
    The lock is decided per step: a face that locks within a chunk has the
    chunk's later steps overwritten with its lock-step iterate and share,
    and the faces that locked move behind the active ones when the next
    chunk starts, so the results do not depend on the chunk length.
    """
    _check_square(a)
    cfg = cfg or SolverConfig()
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    if x0 is None:
        if num is None:
            raise ValueError("pass either num or x0")
        if num < 1 or num > a.p:
            raise ValueError(f"num must be in 1..{a.p}, got {num}")
        x0 = random_slice_set(a.p, num, a.n, a.is_real, rng)
    if x0.n != a.n:
        raise DimensionMismatch("tubes", a.n, x0.n)
    if x0.l != a.p:
        raise DimensionMismatch("inner", a.p, x0.l)
    if x0.p > a.p:
        raise ValueError(f"x0 must have at most {a.p} columns, got {x0.p}")
    if num is not None and num != x0.p:
        raise ValueError(f"num is {num} but x0 has {x0.p} columns")
    _check_finite(a, x0)
    n, p, cols = a.n, a.p, x0.p
    half = a.is_real and x0.is_real
    ahat = _face_stack(a, half)
    nf = len(ahat)
    weights = parseval_weights(n, nf)
    # eta's denominator: ||X||_F is sqrt(cols); a zero A keeps the residual absolute
    scale = parseval_norms(weights, ahat)[0] * np.sqrt(cols) or 1.0
    qs = np.empty((_SUBSPACE_CHUNK + 1, nf, p, cols), complex)
    ys = np.empty_like(qs)
    rs = np.empty((_SUBSPACE_CHUNK + 1, nf, cols, cols), complex)
    # each face's ||Y - Q * R||^2 and ||tril(R, -1)||^2, in the original face order
    sq = np.zeros((_SUBSPACE_CHUNK + 1, nf, 2))
    y = np.empty_like(qs[0])  # the QR input, which LAPACK overwrites
    spare = np.empty_like(y)  # a product into its own input copies it first
    tau = np.empty((nf, cols), complex)
    order = np.arange(nf)  # the original face at each position of the stacks
    np.matmul(ahat, _face_stack(x0, half), out=ys[0])
    etas = []

    def bind(live):
        """The step's views of the ``live`` active faces, a prefix of every
        stack: a step allocates nothing."""
        pair = (y[:live], spare[:live])
        outs = [pair[i % 2] for i in range(cfg.power_index - 2, -1, -1)]  # the last into y
        faces = order[:live]
        return (ahat[faces], weights[faces], [q[:live] for q in qs], [x[:live] for x in ys],
                pair[0], tau[:live], outs)

    views, pending = bind(nf), None

    def relock(locked):
        """Move the faces that locked in the last chunk behind the active
        ones. The last chunk left every face's latest iterate in slot 0;
        a locked face holds it in every slot."""
        nonlocal order, views
        idx = np.concatenate([np.argsort(locked, kind="stable"), np.arange(len(locked), nf)])
        for st in (qs, ys, rs):
            st[:] = st[0, idx]
        sq[:] = sq[0]
        order = order[idx]
        views = bind(len(locked) - np.count_nonzero(locked))

    def polish(q):
        u = facewise_qr(q, "complete")[0]
        if cols < p:
            h = np.conj(np.swapaxes(u, 1, 2)) @ ahat @ u
            z = np.array([sla.schur(f, output="complex")[1] for f in h[:, cols:, cols:]])
            u[:, :, cols:] = u[:, :, cols:] @ z
        t = np.triu(np.conj(np.swapaxes(u, 1, 2)) @ ahat @ u)
        u, t = _polish_schur(ahat, u, t)
        return u[:, :, :cols], t[:, :cols, :cols]

    def result(j, iterations, reason, trace):
        back = np.argsort(order)
        u, r = polish(qs[j, back]) if reason == "tol" else (qs[j, back], rs[j, back])
        converged = reason == "tol" and _schur_certified(ahat, u, r, weights, n)
        u, r = (Tensor3(_from_face_stack(x, n, half), real=half) for x in (u, r))
        return SchurResult(u, r, iterations, converged, reason, etas[:iterations], trace)

    def take(m):
        nonlocal pending
        if pending is not None:
            relock(pending)
        al, wl, ql, yl, yq, tq, outs = views
        live = len(al)
        with np.errstate(**_QR_ERRSTATE):
            for j in range(1, m + 1):
                x = yl[j - 1]
                for o in outs:
                    x = np.matmul(al, x, out=o)
                if x is not yq:
                    np.copyto(yq, x)
                qr_r_raw(yq, out=tq)
                qr_reduced(yq, tq, out=ql[j])
                np.matmul(al, ql[j], out=yl[j])
        hi = slice(1, m + 1)
        q, yy, r = qs[hi, :live], ys[hi, :live], rs[hi, :live]
        np.matmul(np.conj(np.swapaxes(q, 2, 3)), yy, out=r)
        new = _face_squares(yy - q @ r, np.tril(r, -1))
        hit = np.sqrt(wl * new.sum(-1)) <= LOCK_TOL * scale
        locked = hit.any(0)
        for f in np.flatnonzero(locked):
            s = int(hit[:, f].argmax())  # the chunk row of face f's lock step
            for st in (q, yy, r, new):  # the steps taken past it are undone
                st[s + 1 :, f] = st[s, f]
        sq[hi, order[:live]] = new
        resid, low = np.sqrt(weights @ sq[hi]).T
        eta = np.hypot(resid, low) / scale
        etas.extend(eta.tolist())
        pending = locked if locked.any() else None
        return list(zip(resid.tolist(), (eta <= HANDOFF_TOL).tolist(), [None] * m)), None

    return _iterate(cfg, (qs, ys, rs, sq), take, result)


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
    :func:`facewise_qr` call and two batched products; the accumulated R
    and the spatial :class:`QrIterate` history are built only with
    ``keep_history``. Stops when the strictly f-lower-triangular mass, by
    Parseval, falls below ``cfg.tol * max(1, ||A||_F)``. A NaN or infinite
    entry in A raises :class:`NonFiniteInput`.
    """
    _check_square(a)
    _check_finite(a)
    cfg = cfg or SolverConfig()
    n, half = a.n, a.is_real
    a_k = _face_stack(a, half)
    weights = parseval_weights(n, len(a_k))
    q_acc = r_acc = np.broadcast_to(np.eye(a.p), a_k.shape)
    history = []
    err_trace = []
    scale = max(1.0, a.frob_norm())
    err = np.inf

    def spatial(stack):
        return Tensor3(_from_face_stack(stack, n, half), real=half)

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
        if keep_history:
            r_acc = r @ r_acc
            history.append(QrIterate(*map(spatial, (q, r, a_k, q_acc, r_acc))))
        (err,) = parseval_norms(weights, np.tril(a_k, -1))
        err_trace.append(err)
        if err <= cfg.tol * scale:
            return result("tol")
    raise NoConvergence(k, err, result=result("cap"))


# widest complex dtype available for the final compression of a polished
# Schur pair; x86 long double where present, otherwise plain double
_WIDE = np.complex256 if hasattr(np, "complex256") else np.complex128


def _polish_schur(m, u, t):
    """Iterative refinement of the computed Schur pairs of (faces, p, p)
    stacks.

    The QR iteration accumulates a backward error of roughly
    sqrt(iterations) * eps * ||M||, which for large-norm faces sits well
    above the representation floor. Each of up to four sweeps recompresses
    against the original faces, solves the triangular Sylvester equation
    for a strictly lower correction X of the basis, one batched step per
    subdiagonal (an entry depends only on those further below; a gap under
    the gate leaves it zero), and re-orthonormalizes by QR. The compression
    runs in extended precision so the diagonal carries only representation-
    level error. Each face keeps its pair of lowest residual; sweeps stop
    once no face's residual falls below half its previous best, and at
    once when none improves.
    """
    p = m.shape[-1]
    gate = 1e-6 * np.maximum(1.0, np.linalg.norm(m, axis=(1, 2)))[:, None]
    mh = m.astype(_WIDE)

    def residual(uu, tt):
        return np.linalg.norm(m @ uu - uu @ tt, axis=(1, 2))

    best = residual(u, t)
    for _ in range(4):
        h = np.conj(np.swapaxes(u, 1, 2)) @ m @ u
        tt = np.triu(h)
        x = np.zeros_like(h)
        for d in range(p - 1, 0, -1):
            i = np.arange(d, p)
            den = tt[:, i - d, i - d] - tt[:, i, i]
            num = (h + tt @ x - x @ tt)[:, i, i - d]
            x[:, i, i - d] = np.divide(num, den, out=np.zeros_like(num), where=np.abs(den) >= gate)
        # QR keeps every leading column span of the corrected basis, so the
        # full Newton step takes effect (a polar factor would halve it)
        u_new = facewise_qr(u @ (np.eye(p) + x), "complete")[0]
        uh = u_new.astype(_WIDE)
        t_new = np.triu((np.conj(np.swapaxes(uh, 1, 2)) @ mh @ uh).astype(np.complex128))
        res = residual(u_new, t_new)
        better = res < best
        if not better.any():
            break
        halved = (res < 0.5 * best).any()
        best = np.minimum(best, res)
        keep = better[:, None, None]
        u, t = np.where(keep, u_new, u), np.where(keep, t_new, t)
        if not halved:  # past the first sweep, gains are at the roundoff floor
            break
    return u, t


def _schur_certified(m, u, t, weights, n):
    """Whether the Schur pair (U, T) of A passes both Schur solvers'
    certificate, eta = ||A * U - U * T||_F / (||A||_F ||U||_F) <= eps *
    sqrt(p * n), by Parseval with ``weights`` on the face stacks m, u, t."""
    p, cols = u.shape[1:]
    # ||U||_F is sqrt(cols) for f-orthonormal U; a zero A keeps eta absolute
    scale = parseval_norms(weights, m)[0] * np.sqrt(cols) or 1.0
    (resid,) = parseval_norms(weights, m @ u - u @ t)
    return bool(resid / scale <= np.finfo(float).eps * np.sqrt(p * n))


def t_qr_shifted(a, cfg=None):
    """Shifted QR iteration on the f-Hessenberg form.

    The tensor is reduced to f-upper-Hessenberg form by :func:`t_hess`,
    and its Fourier face stack is iterated: for a real tensor in real-shift
    mode the leading n // 2 + 1 faces, whose conjugates are the rest, and
    otherwise all n. Each sweep shifts every face by the trailing diagonal
    entry sigma of the active leading block (multiplied by 1 + i in
    complex-shift mode), factors the shifted blocks of all faces with one
    :func:`facewise_qr` call, and sets the block to R Q + sigma I, carrying
    Q^H into the coupling rows to its right and Q into the accumulated
    unitary stack. The trailing row deflates once the subdiagonal tube at
    the active corner, measured by Parseval, drops below
    ``1e-14 * ||A||_F``; restricting the step to the active block keeps
    converged subdiagonals from regrowing. If the active corner makes no
    progress for ``STAGNATION_LIMIT`` sweeps the shift switches to the
    complex variant once, which is not conjugate-symmetric, so the stacks
    are mirrored to all n faces; then the run is abandoned with stop reason
    ``"stall"`` and ``converged`` False.
    Once every row has deflated (stop reason ``"tol"``) the pair of every
    face is polished against the original tensor by one batched refinement
    (:func:`_polish_schur`); ``converged`` means it passes the certificate.
    The result is real exactly when the run stayed on the leading faces.
    A NaN or infinite entry in A raises :class:`NonFiniteInput`.
    """
    _check_square(a)
    _check_finite(a)
    cfg = cfg or SolverConfig()
    p, n = a.p, a.n
    eps = 1e-14 * a.frob_norm()
    half = a.is_real and not cfg.complex_shift
    hess = t_hess(a)
    hs, us, a_faces = (_face_stack(t, half) for t in (hess.h, hess.w, a))
    w = parseval_weights(n, len(hs))
    complex_mode = cfg.complex_shift
    r = p
    stagnant = 0
    err_trace = []
    k = 0

    def finish(reason, iterations):
        u, t = _polish_schur(a_faces, us, hs) if reason == "tol" else (us, hs)
        converged = reason == "tol" and _schur_certified(a_faces, u, t, w, n)
        u, t = (Tensor3(_from_face_stack(x, n, half), real=half) for x in (u, t))
        return SchurResult(u, t, iterations, converged, reason, err_trace, [])

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
        c = hs[:, r - 1, r - 2]
        sub = float(np.sqrt(w @ (c.real * c.real + c.imag * c.imag)))
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
                    complex_mode, half, stagnant = True, False, 0
                    hs, us, a_faces = (_mirror(x, n) for x in (hs, us, a_faces))
                    w = parseval_weights(n, n)
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
