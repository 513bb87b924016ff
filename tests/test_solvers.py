import hashlib
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from conftest import f_hermitian_tensor, random_tensor, tridiag_tensor
from tubal import (
    BadPairing,
    DimensionMismatch,
    DivisionFailure,
    NearSingularTube,
    NoConvergence,
    NonFiniteInput,
    SingularShift,
    SolverConfig,
    Tensor3,
    Tube,
    ZeroSlice,
    canonical_slice,
    concat_lateral,
    conj_transpose,
    deflate,
    deflated_power_sweep,
    eigenslice_for,
    f_diagonal,
    f_tril,
    facewise_qr,
    fourier_norm,
    identity,
    slice_inner,
    spectrum_of,
    t_inverse,
    t_inverse_power,
    t_max,
    t_power,
    t_product,
    t_qr_shifted,
    t_qr_unshifted,
    t_subspace_iteration,
    tensor_tube_div,
    tensor_tube_mul,
    tube_div,
    unit_tube,
    zeros,
)
from tubal import factorizations, solvers
from tubal.experiments import make_tensor
from tubal.tensors import _face_stack, _from_face_stack, parseval_norms, parseval_weights


def spectral_distance(tubes, exact):
    return np.sqrt(sum((x - y).norm() ** 2 for x, y in zip(tubes, exact)))


def well_separated_f_diagonal(rng, p, n, base=3.0, ratio=0.5):
    """f-diagonal tensor whose eigentubes have constant facewise magnitude
    and geometrically decreasing norms; the spectrum is unambiguous."""
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
    return f_diagonal(tubes), tubes


# ---------------------------------------------------------------------------
# t_max


def test_t_max_canonical():
    assert t_max(canonical_slice(3, 0, 4)) == unit_tube(4)


def test_t_max_tie_takes_first():
    data = np.zeros((3, 1, 2))
    data[0, 0, :] = [1.0, 0.0]
    data[1, 0, :] = [5.0, 0.0]
    data[2, 0, :] = [0.0, 5.0]
    got = t_max(Tensor3(data))
    assert_allclose(got.spatial_values, [5.0, 0.0])


def test_t_max_matches_linear_scan(rng):
    x = random_tensor(rng, 6, 1, 4)
    norms = [np.linalg.norm(x.data[i, 0, :]) for i in range(6)]
    assert_allclose(
        t_max(x).spatial_values, x.data[int(np.argmax(norms)), 0, :]
    )


def test_t_max_zero_slice():
    with pytest.raises(ZeroSlice):
        t_max(zeros(3, 1, 2))


# ---------------------------------------------------------------------------
# power iteration


def test_power_identity_converges_immediately():
    pair = t_power(identity(3, 4), v0=canonical_slice(3, 0, 4))
    assert pair.converged and pair.iterations <= 3 and pair.stop_reason == "tol"
    assert (pair.eigentube - unit_tube(4)).norm() <= 1e-14
    assert pair.residual_norm <= 1e-14


def test_power_f_diagonal_recovers_largest(rng):
    a, tubes = well_separated_f_diagonal(rng, 4, 3)
    pair = t_power(a, cfg=SolverConfig(rng_seed=3))
    assert pair.converged
    exact = spectrum_of(a).eigentubes[0]
    assert (pair.eigentube - exact).norm() <= 1e-12
    assert pair.residual_norm <= 1e-12


def test_power_scaled_tridiag():
    a = tridiag_tensor()
    pair = t_power(a, cfg=SolverConfig(rng_seed=0))
    assert pair.converged and pair.iterations <= 3000
    exact = spectrum_of(a).eigentubes[0]
    assert (pair.eigentube - exact).norm() <= 1e-12
    assert pair.residual_norm <= 1e-12
    assert len(pair.residual_trace) == pair.iterations


def test_power_facewise_equivalence(rng):
    # the converged eigentube faces match the per-face dominant eigenvalues
    a, _ = well_separated_f_diagonal(rng, 4, 3)
    pair = t_power(a, cfg=SolverConfig(rng_seed=5))
    lam = pair.eigentube.fourier_values
    for f, face in enumerate(a.fourier_faces()):
        ev = np.linalg.eigvals(face)
        top = ev[np.argmax(np.abs(ev))]
        assert abs(lam[f] - top) <= 1e-8 * max(1.0, abs(top))


def test_power_scale_equivariance(rng):
    a, _ = well_separated_f_diagonal(rng, 3, 2)
    p1 = t_power(a, cfg=SolverConfig(rng_seed=2))
    p2 = t_power(2.5 * a, cfg=SolverConfig(rng_seed=2))
    assert (p2.eigentube - 2.5 * p1.eigentube).norm() <= 1e-10
    # eigenslice spans agree: projectors onto the slices coincide facewise
    for f in range(2):
        u1 = np.fft.fft(p1.eigenslice.data[:, 0, :], axis=1)[:, f]
        u2 = np.fft.fft(p2.eigenslice.data[:, 0, :], axis=1)[:, f]
        u1 = u1 / np.linalg.norm(u1)
        u2 = u2 / np.linalg.norm(u2)
        proj_gap = np.linalg.norm(np.outer(u1, u1.conj()) - np.outer(u2, u2.conj()))
        assert proj_gap <= 1e-8


def test_power_shift_covariance(rng):
    a, _ = well_separated_f_diagonal(rng, 3, 2)
    sigma = Tube([0.5, 0.1])
    shifted = a + tensor_tube_mul(identity(3, 2), sigma)
    lam_a = spectrum_of(a).eigentubes
    lam_s = spectrum_of(shifted).eigentubes
    from tubal import facewise_sort_tubes

    want = facewise_sort_tubes([t + sigma for t in lam_a])
    for x, y in zip(facewise_sort_tubes(lam_s), want):
        assert (x - y).norm() <= 1e-8


def test_power_no_convergence_carries_partial():
    a = tridiag_tensor()
    with pytest.raises(NoConvergence) as info:
        t_power(a, cfg=SolverConfig(rng_seed=0, iter_max=5))
    partial = info.value.result
    assert partial is not None and not partial.converged
    assert partial.iterations == 5 and partial.stop_reason == "cap"


def test_power_rejects_bad_slice_shape(rng):
    a = tridiag_tensor()
    with pytest.raises(DimensionMismatch):
        t_power(a, v0=random_tensor(rng, 3, 1, 3))


# ---------------------------------------------------------------------------
# shifted inverse iteration


def test_inverse_power_identity_with_shift():
    cfg = SolverConfig(rng_seed=1)
    pair = t_inverse_power(identity(3, 2), 0.5 * unit_tube(2), cfg=cfg)
    assert pair.converged
    assert (pair.eigentube - unit_tube(2)).norm() <= 1e-10


def test_inverse_power_targets_nearest(rng):
    a, tubes = well_separated_f_diagonal(rng, 4, 3)
    exact = spectrum_of(a).eigentubes
    target = exact[2]
    # offset through the unit tube so every Fourier face moves off the spectrum
    sigma = target + 0.05 * unit_tube(3)
    pair = t_inverse_power(a, sigma, cfg=SolverConfig(rng_seed=4))
    assert pair.converged
    assert (pair.eigentube - target).norm() <= 1e-10


def test_inverse_power_smallest_of_tridiag():
    a = tridiag_tensor()
    sigma = Tube([1e-5, 0.0, 0.0])
    pair = t_inverse_power(a, sigma, cfg=SolverConfig(rng_seed=0))
    assert pair.converged and pair.iterations <= 200
    exact = spectrum_of(a).eigentubes[-1]
    assert (pair.eigentube - exact).norm() <= 1e-12
    assert pair.residual_norm <= 1e-12


def _restart_cases():
    """Power and inverse power on the n = 2 tridiag tensor, started from a
    slice of [1, 1] tubes: its Fourier face 1 is zero, so the first scaling
    tube is singular. Each case gives the solver call and the eigentube it
    should reach."""
    a = tridiag_tensor(n=2)
    v0 = Tensor3(np.ones((10, 1, 2)))
    sigma = Tube([1e-5, 0.0])
    exact = spectrum_of(a).eigentubes
    return [
        (lambda cfg: t_power(a, v0=v0, cfg=cfg), exact[0]),
        (lambda cfg: t_inverse_power(a, sigma, v0=v0, cfg=cfg), exact[-1]),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["power", "inverse_power"])
def test_power_family_restarts_on_singular_scaling_tube(case, monkeypatch):
    solve, exact = _restart_cases()[case]
    pair = solve(SolverConfig(rng_seed=0))
    assert pair.converged
    # the restarted step records no residual
    assert len(pair.residual_trace) == pair.iterations - 1
    assert (pair.eigentube - exact).norm() <= 1e-12
    assert pair.residual_norm <= 1e-12
    monkeypatch.setattr(solvers, "RESTARTS", 0)
    with pytest.raises(DivisionFailure) as info:
        solve(SolverConfig(rng_seed=0))
    assert isinstance(info.value.__cause__, NearSingularTube)


def _pair_bits(pair):
    tube = None if pair.eigentube is None else pair.eigentube.spatial_values.tobytes()
    return (
        pair.iterations, pair.stop_reason, np.array(pair.residual_trace).tobytes(),
        np.float64(pair.residual_norm).tobytes(), tube, pair.eigenslice.data.tobytes(),
    )


def _run_bits(solve):
    """Everything a power-family run reports, capped, failed or not, as
    exact bits."""
    try:
        return None, _pair_bits(solve())
    except NoConvergence as exc:
        return exc.iterations, _pair_bits(exc.result)
    except (ZeroSlice, DivisionFailure) as exc:
        return type(exc).__name__, str(exc), str(exc.__cause__)


def _from_faces(*faces):
    """Real tensor whose Fourier faces are ``faces``; they must be those of
    a real tensor (all real here, and equal when more than 2)."""
    return Tensor3(np.fft.ifft(np.stack(faces, axis=2), axis=2).real)


def _chunk_caps(chunk):
    """Iteration caps at, next to and across the boundaries of chunks of
    ``chunk`` steps, and the default cap."""
    return (1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 3000)


def _chunk_case(kind, method):
    """The solver call of one chunking case, taking a config, and the caps
    it is run at besides the common ones."""
    if kind == "restart":
        return _restart_cases()[0 if method == "power" else 1][0], ()
    v0, extra = None, ()
    if kind == "anchor_move":
        # every face diag(5, 4, 3, 2); the start's row 0 is a thousandth of
        # the others, so power iteration anchors row 1 until step 42, inside
        # a chunk, then row 0
        a = _from_faces(*[np.diag([5.0, 4.0, 3.0, 2.0])] * 3)
        v0 = Tensor3(np.array([1e-3, 1.0, 1.0, 1.0])[:, None, None] * np.eye(1, 3)[None])
        extra = (41, 42, 43)
    elif kind == "nilpotent":
        # every face the 4 x 4 shift: w = 0 at step 4, a ZeroSlice (power)
        a = _from_faces(np.eye(4, k=1))
        extra = (3, 4, 5)
    elif kind == "late_restart":
        # face 1 is the 4 x 4 shift: alpha vanishes there while face 0 does
        # not, so power iteration restarts at steps 3, 7 and 10
        a = _from_faces(np.diag([4.0, 3.0, 2.0, 1.0]), np.eye(4, k=1))
        extra = (3, 4, 7, 10, 11)
    else:
        a = make_tensor(kind)
    sigma = None if method == "power" else Tube(np.eye(1, a.n)[0] * 1e-3)

    def solve(cfg):
        if sigma is None:
            return t_power(a, v0=v0, cfg=cfg)
        return t_inverse_power(a, sigma, v0=v0, cfg=cfg)

    return solve, extra


@pytest.mark.parametrize("method", ["power", "inverse_power"])
@pytest.mark.parametrize(
    "kind",
    ["tridiag", "stochastic", "complex", "realeig", "restart", "anchor_move", "nilpotent",
     "late_restart"],
)
def test_chunked_scoring_matches_per_step_scoring(kind, method, monkeypatch):
    # steps are taken speculatively and checked per chunk; with one step per
    # chunk each is checked as it is taken. Caps at, next to and across the
    # power family's chunk boundaries, around the step where a case's anchor
    # moves or its gate fails, and the default cap; "restart" is the n = 2
    # tridiag tensor whose start slice restarts the run, so its random draw
    # must come at the same step
    solve, extra = _chunk_case(kind, method)
    caps = _chunk_caps(solvers._POWER_CHUNK) + extra
    chunked = [_run_bits(lambda: solve(SolverConfig(iter_max=c))) for c in caps]
    monkeypatch.setattr(solvers, "_POWER_CHUNK", 1)
    assert [_run_bits(lambda: solve(SolverConfig(iter_max=c))) for c in caps] == chunked
    if method == "power" and kind == "nilpotent":
        capped = dict(zip(caps, chunked))
        assert capped[3][0] == 3 and capped[4][0] == capped[3000][0] == "ZeroSlice"
    if method == "power" and kind == "late_restart":
        assert chunked[caps.index(3000)][0] == "DivisionFailure"


def test_speculative_anchor_move_lands_on_the_dominant_row():
    # the anchor row of the returned slice is the unit tube: row 0, though
    # the start's largest row is row 1
    solve, _ = _chunk_case("anchor_move", "power")
    pair = solve(SolverConfig())
    assert pair.converged
    unit_row_0 = np.zeros((4, 3))
    unit_row_0[0, 0] = 1.0
    assert_allclose(pair.eigenslice.data[:, 0, :], unit_row_0, atol=1e-12)
    assert_allclose(pair.eigentube.spatial_values, [5.0, 0.0, 0.0], atol=1e-12)


def test_late_restart_counts_as_a_step():
    # the restart replaces step 3, whose alpha failed the gate: a run capped
    # there scores steps 1 and 2 and returns the fresh restart slice
    solve, _ = _chunk_case("late_restart", "power")
    with pytest.raises(NoConvergence) as info:
        solve(SolverConfig(iter_max=3))
    assert info.value.iterations == 3
    assert len(info.value.result.residual_trace) == 2


def test_chunked_scoring_matches_on_realeig_dle_sweep(monkeypatch):
    # the t5 realeig DLE k=6 row: one of its left iterations moves the
    # anchor inside a chunk, so a rollback error shows in its last bits
    a = make_tensor("realeig")
    cfg = SolverConfig(deflation_variant="DLE")
    chunked = [_pair_bits(p) for p in deflated_power_sweep(a, 6, cfg=cfg)]
    monkeypatch.setattr(solvers, "_POWER_CHUNK", 1)
    assert [_pair_bits(p) for p in deflated_power_sweep(a, 6, cfg=cfg)] == chunked


@pytest.mark.parametrize(
    "scale, last, warned",
    [
        (1e154, "0x1.14c626d9206a6p+501", {"multiply", "reduceat", "square"}),
        (1e300, "inf", {"multiply", "square"}),
    ],
)
def test_power_scoring_on_overflowing_norms(scale, last, warned):
    # scaled by 1e154 the squared norms of alpha overflow, by 1e300 every
    # squared norm but the normalized slice's. The residuals, and the
    # overflow warnings with no "invalid value" among them, are those of
    # scoring each step with Python floats
    a = make_tensor("tridiag") * scale
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NoConvergence) as info:
            t_power(a, cfg=SolverConfig(iter_max=200))
    trace = np.array(info.value.result.residual_trace)
    assert float(info.value.last_residual).hex() == last and len(trace) == 200
    if scale == 1e154:
        digest = "8908079374fb502aaf02b6c24432af5b13260ce3d4989728d0bf39f3effe771e"
        assert hashlib.sha256(trace.tobytes()).hexdigest() == digest
    else:
        assert np.isposinf(trace).all()
    messages = {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}
    assert messages == {f"overflow encountered in {op}" for op in warned}


def test_power_stall_metric_passes_over_nan_terms():
    # scaled by 1e300, the alpha term of the stall metric is inf / inf; as
    # with Python's max(), the slice term alone decides and the run stops
    # on the stall detector, where a NaN metric would run to the cap
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pair = t_power(make_tensor("stochastic") * 1e300)
    assert (pair.iterations, pair.stop_reason) == (2263, "stall")


def test_chunk_constants_size_the_solvers_chunks(monkeypatch):
    # the chunk tests patch these constants: each must be the chunk length
    # that its solver hands to _iterate
    seen = []
    iterate = solvers._iterate

    def spy(cfg, slots, take, result):
        seen.append(len(slots[0]) - 1)
        return iterate(cfg, slots, take, result)

    monkeypatch.setattr(solvers, "_iterate", spy)
    monkeypatch.setattr(solvers, "_POWER_CHUNK", 3)
    monkeypatch.setattr(solvers, "_SUBSPACE_CHUNK", 5)
    a = make_tensor("tridiag")
    t_power(a)
    t_inverse_power(a, Tube(np.eye(1, a.n)[0]))
    t_subspace_iteration(a, num=2)
    assert seen == [3, 3, 5]


def _schur_bits(solve):
    """Everything a subspace run reports, capped or not, as exact bits."""
    try:
        res, capped = solve(), None
    except NoConvergence as exc:
        res, capped = exc.result, exc.iterations
    return (
        capped, res.iterations, res.stop_reason, res.converged, res.u.data.tobytes(),
        res.r.data.tobytes(), np.array(res.error_trace).tobytes(),
        np.array(res.residual_trace).tobytes(),
    )


@pytest.mark.parametrize("power_index", [1, 4])
@pytest.mark.parametrize("kind, tol", [("tridiag", 1e-15), ("complex", 1e-15), ("tridiag", 1e-300)])
def test_subspace_chunked_scoring_matches_per_step_scoring(kind, tol, power_index, monkeypatch):
    # caps at, next to and across subspace iteration's chunk boundaries, and
    # the default cap, where every run hands off; cfg.tol does not drive the
    # hand-off, so at tol 1e-300 the tridiag runs hand off as well
    a = make_tensor(kind)
    caps = _chunk_caps(solvers._SUBSPACE_CHUNK)

    def bits(cap):
        cfg = SolverConfig(tol=tol, iter_max=cap, power_index=power_index)
        return _schur_bits(lambda: t_subspace_iteration(a, num=4, cfg=cfg))

    chunked = [bits(c) for c in caps]
    assert chunked[-1][2:4] == ("tol", True)
    monkeypatch.setattr(solvers, "_SUBSPACE_CHUNK", 1)
    assert [bits(c) for c in caps] == chunked


# A plain per-step subspace loop on public routines: the power products, Q
# of np.linalg.qr (LAPACK's phases, as in the solver), Y = A * Q,
# R = Q^H * Y, the backward error eta of one step at a time and, at the
# hand-off, the refinement. Kept as the reference for the chunked loop,
# whose steps write Q straight into their slots.


def _reference_polish(ahat, q):
    k = q.shape[2]
    u = facewise_qr(q, "complete")[0]
    if k < u.shape[1]:
        h = np.conj(np.swapaxes(u, 1, 2)) @ ahat @ u
        z = np.array([sla.schur(f, output="complex")[1] for f in h[:, k:, k:]])
        u[:, :, k:] = u[:, :, k:] @ z
    t = np.triu(np.conj(np.swapaxes(u, 1, 2)) @ ahat @ u)
    u, t = solvers._polish_schur(ahat, u, t)
    return u[:, :, :k], t[:, :k, :k]


def _reference_subspace_bits(a, x0, cfg):
    half = a.is_real and x0.is_real
    ahat = _face_stack(a, half)
    weights = parseval_weights(a.n, len(ahat))
    scale = parseval_norms(weights, ahat)[0] * np.sqrt(x0.p) or 1.0
    y = ahat @ _face_stack(x0, half)
    trace, etas, reason = [], [], "cap"
    for k in range(1, cfg.iter_max + 1):
        for _ in range(cfg.power_index - 1):
            y = ahat @ y
        q = np.linalg.qr(y)[0]
        y = ahat @ q
        r = np.conj(np.swapaxes(q, 1, 2)) @ y
        resid, low = parseval_norms(weights, y - q @ r, np.tril(r, -1))
        trace.append(resid)
        etas.append(np.hypot(resid, low) / scale)
        if etas[-1] <= solvers.HANDOFF_TOL:
            reason = "tol"
            break
    converged = False
    if reason == "tol":
        q, r = _reference_polish(ahat, q)
        eta = parseval_norms(weights, ahat @ q - q @ r)[0] / scale
        converged = eta <= np.finfo(float).eps * np.sqrt(a.p * a.n)
    u, rr = (Tensor3(_from_face_stack(x, a.n, half), real=half) for x in (q, r))
    return (
        k if reason == "cap" else None, k, reason, converged, u.data.tobytes(),
        rr.data.tobytes(), np.array(etas).tobytes(), np.array(trace).tobytes(),
    )


@pytest.mark.parametrize(
    "kind, num, power_index, given, tol",
    [
        ("tridiag", 4, 1, False, 1e-15),
        ("tridiag", 4, 1, False, 1e-300),
        ("tridiag", 1, 2, True, 1e-15),
        ("complex", 4, 1, False, 1e-15),
        ("complex", 1, 4, False, 1e-15),
        ("complex", 10, 2, True, 1e-15),
        ("complex", 3, 3, True, 1e-15),
        ("tridiag", 2, 3, False, 1e-300),
        ("odd_real", 2, 3, True, 1e-15),
        ("odd_real", 5, 4, False, 1e-15),
        ("odd_real", 1, 1, True, 1e-15),
        ("odd_complex", 4, 2, True, 1e-15),
    ],
)
def test_subspace_matches_per_step_reference(kind, num, power_index, given, tol):
    # caps at, next to and across the chunk boundaries of 16 steps, and the
    # default cap, where the runs hand off or (complex num 10, odd_real
    # num 2 and 5) hit the cap; cfg.tol (1e-300 on two cases) must not move
    # them; odd_* are random 5 x 5 x 5 tensors (p = 5)
    rng = np.random.default_rng(5)
    if kind.startswith("odd"):
        a = random_tensor(rng, 5, 5, 5, real=kind == "odd_real")
    else:
        a = make_tensor(kind)
    x0 = random_tensor(rng, a.p, num, a.n, real=a.is_real) if given else None
    # the solver draws its start from the default rng_seed 0
    start = x0 or solvers.random_slice_set(a.p, num, a.n, a.is_real, np.random.default_rng(0))
    for cap in (1, 2, 15, 16, 17, 33, 3000):
        cfg = SolverConfig(tol=tol, iter_max=cap, power_index=power_index)
        got = _schur_bits(lambda: t_subspace_iteration(a, num=num, x0=x0, cfg=cfg))
        assert got == _reference_subspace_bits(a, start, cfg), cap


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["a", "x0"])
def test_subspace_non_finite_input_raises_at_once(real, bad, where):
    # the stop tests never pass on NaN iterates, so a non-finite A or x0
    # would run every step to the cap; it is refused before the first step,
    # without a warning
    rng = np.random.default_rng(0)
    a = random_tensor(rng, 6, 6, 4, real=real)
    x0 = random_tensor(rng, 6, 2, 4, real=real)
    data = (a if where == "a" else x0).data.copy()
    data[2, 1, 1] = bad
    if where == "a":  # with the solver's own random start
        a, x0 = Tensor3(data, real=real), None
    else:
        x0 = Tensor3(data, real=real)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput):
            t_subspace_iteration(a, num=2, x0=x0, cfg=SolverConfig(iter_max=40))


def test_power_nan_tensor_raises_division_failure():
    # every scaling tube of a NaN tensor is NaN: the divisor gate refuses it
    # on each restart instead of iterating NaNs to the cap
    data = tridiag_tensor(p=4).data.copy()
    data[1, 1, 0] = np.nan
    with pytest.raises(DivisionFailure) as info:
        t_power(Tensor3(data), cfg=SolverConfig(rng_seed=0))
    assert np.isnan(info.value.__cause__.magnitude)


# The spatial power loop the solvers ran before they kept their iterates as
# Fourier face stacks: a t-product (or a facewise solve) per step, the anchor
# row from spatial row norms, a tube division, and spatial norms throughout.
# Kept as the reference for the Fourier-resident loop.


def _reference_power_loop(a, v0, sigma, iter_max, rng):
    real = a.is_real and (sigma is None or sigma.is_real)
    v = v0 if v0 is not None else solvers.random_slice_set(a.p, 1, a.n, real, rng)
    if sigma is not None:
        shifted = a - tensor_tube_mul(identity(a.p, a.n), sigma)
        faces = shifted.fourier_faces()
    trace = []
    anchor = prev_alpha = lam = None
    for _ in range(iter_max):
        if sigma is None:
            w = t_product(a, v)
        else:
            vh = np.fft.fft(v.data[:, 0, :], axis=1)
            cols = np.stack([np.linalg.solve(m, b) for m, b in zip(faces, vh.T)])
            data = np.fft.ifft(cols.T, axis=1)
            w = Tensor3((data.real if shifted.is_real and v.is_real else data)[:, None, :])
        norms = np.linalg.norm(w.data[:, 0, :], axis=1)
        if anchor is None or norms[anchor] < 0.1 * norms.max():
            anchor = int(np.argmax(norms))
        alpha = Tube(w.data[anchor, 0, :])
        try:
            v_new = tensor_tube_div(w, alpha)
        except NearSingularTube:
            v = solvers.random_slice_set(a.p, 1, a.n, real, rng)
            anchor = prev_alpha = None
            continue
        lam = alpha if sigma is None else tube_div(unit_tube(a.n), alpha) + sigma
        trace.append((t_product(a, v_new) - tensor_tube_mul(v_new, lam)).frob_norm())
        v, prev_alpha = v_new, alpha
    return lam, v, trace


def _run_capped(solve, cfg):
    try:
        return solve(cfg)
    except NoConvergence as exc:
        return exc.result


def _power_family_case(rng, n, start, method):
    real = start != "complex"
    a = random_tensor(rng, 4, 4, n, real=real)
    sigma = None
    if method == "inverse_power":
        sigma = Tube(np.eye(1, n)[0] * (0.3 if real else 0.3 + 0.2j))
    v0 = None
    if start == "complex_flagged":
        v0 = Tensor3(rng.standard_normal((4, 1, n)), real=False)
    elif start == "singular":
        v0 = Tensor3(np.ones((4, 1, n)))
    return a, sigma, v0


@pytest.mark.parametrize("method", ["power", "inverse_power"])
@pytest.mark.parametrize("start", ["real", "complex", "complex_flagged"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_power_family_matches_spatial_reference(rng, n, start, method):
    a, sigma, v0 = _power_family_case(rng, n, start, method)
    cfg = SolverConfig(rng_seed=7, iter_max=10)
    if sigma is None:
        pair = _run_capped(lambda c: t_power(a, v0=v0, cfg=c), cfg)
    else:
        pair = _run_capped(lambda c: t_inverse_power(a, sigma, v0=v0, cfg=c), cfg)
    lam, v, trace = _reference_power_loop(a, v0, sigma, 10, np.random.default_rng(7))
    assert pair.iterations == 10 and pair.stop_reason == "cap"
    assert_allclose(pair.residual_trace, trace, rtol=1e-8)
    scale = lam.norm()
    assert_allclose(pair.eigentube.spatial_values, lam.spatial_values, rtol=1e-8, atol=1e-8 * scale)
    assert_allclose(pair.eigenslice.data, v.data, rtol=1e-8, atol=1e-8)
    # real operator and real start: the half spectrum gives real results
    if start == "real":
        assert pair.eigenslice.is_real and pair.eigentube.is_real


@pytest.mark.parametrize("method", ["power", "inverse_power"])
@pytest.mark.parametrize("n", [3, 4, 7])
def test_power_family_restart_on_half_spectrum(rng, n, method):
    # a start slice of constant tubes has zero Fourier faces 1 .. n - 1, so
    # the first scaling tube is singular and the run restarts
    a, sigma, v0 = _power_family_case(rng, n, "singular", method)
    cfg = SolverConfig(rng_seed=3, iter_max=10)
    if sigma is None:
        pair = _run_capped(lambda c: t_power(a, v0=v0, cfg=c), cfg)
    else:
        pair = _run_capped(lambda c: t_inverse_power(a, sigma, v0=v0, cfg=c), cfg)
    lam, v, trace = _reference_power_loop(a, v0, sigma, 10, np.random.default_rng(3))
    assert len(pair.residual_trace) == len(trace) == 9
    assert_allclose(pair.residual_trace, trace, rtol=1e-8)
    assert_allclose(pair.eigentube.spatial_values, lam.spatial_values, rtol=1e-8, atol=1e-8 * lam.norm())
    assert pair.eigenslice.is_real


def test_power_anchor_row_by_spatial_norm():
    # row 1 has the larger spatial norm (sqrt(1.37) against 1) but the
    # smaller sum over the leading Fourier faces, so the anchor needs the
    # conjugate faces counted twice; the identity tensor keeps the slice
    data = np.zeros((4, 1, 4))
    data[0, 0] = [1.0, 0.0, 0.0, 0.0]
    data[1, 0] = [0.3, 0.8, 0.0, -0.8]
    with pytest.raises(NoConvergence) as info:
        t_power(identity(4, 4), v0=Tensor3(data), cfg=SolverConfig(iter_max=1))
    assert_allclose(info.value.result.eigentube.spatial_values, data[1, 0], atol=1e-15)


@pytest.mark.parametrize("real", [True, False], ids=["half", "full"])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_singular_shift_names_first_bad_face(rng, n, real):
    # shift a real f-diagonal tensor onto its leading eigentube on faces 1
    # and n - 1 only, so those two faces of A - sigma * I are singular; a
    # complex shift makes the run invert every face
    a, tubes = well_separated_f_diagonal(rng, 3, n)
    offset = np.full(n, 0.05) if real else np.full(n, 0.05 + 0.05j)
    offset[[1, n - 1]] = 0.0
    vals = np.fft.ifft(tubes[0].fourier_values + offset)
    sigma = Tube(vals.real if real else vals)
    faces = a.fourier_faces() - sigma.fourier_values[:, None, None] * np.eye(3)
    # the solver's gate: sigma_min at most 1e-13 times sigma_max (at least 1)
    s = np.linalg.svd(faces, compute_uv=False)
    first = int(np.argmax(s[:, -1] <= 1e-13 * np.maximum(1.0, s[:, 0])))
    assert first == 1
    with pytest.raises(SingularShift, match=f"^face {first}:"):
        t_inverse_power(a, sigma, cfg=SolverConfig(rng_seed=0))


def test_inverse_power_singular_shift(rng):
    a, tubes = well_separated_f_diagonal(rng, 3, 2)
    with pytest.raises(SingularShift):
        t_inverse_power(a, tubes[0], cfg=SolverConfig(rng_seed=0))


# ---------------------------------------------------------------------------
# deflation


def test_deflate_moves_largest_to_zero(rng):
    a = f_hermitian_tensor(rng, 4, 3)
    spec = spectrum_of(a)
    lam1 = spec.eigentubes[0]
    u1 = eigenslice_for(a, lam1)
    deflated = deflate(a, lam1, u1, u1)
    new = spectrum_of(deflated).eigentubes
    # the moved eigentube is zero, the rest survive
    assert min(t.norm() for t in new) <= 1e-8 * max(1.0, lam1.norm())
    for lam in spec.eigentubes[1:]:
        assert min((lam - t).norm() for t in new) <= 1e-8 * max(1.0, lam.norm())


def test_deflate_n1_is_classical_wielandt(rng):
    m = rng.standard_normal((4, 4))
    m = (m + m.T) / 2
    a = Tensor3(m[:, :, None])
    spec = spectrum_of(a)
    lam1 = spec.eigentubes[0]
    u1 = eigenslice_for(a, lam1)
    deflated = deflate(a, lam1, u1, u1)
    # classical Wielandt deflation computed directly with numpy
    w, v = np.linalg.eigh(m)
    i = int(np.argmax(np.abs(w)))
    x = v[:, i : i + 1]
    b = m - w[i] * (x @ x.T)
    assert_allclose(deflated.face(0).real, b, atol=1e-8)


def test_deflate_spectrum_law_random_diagonalizable(rng):
    d, tubes = well_separated_f_diagonal(rng, 4, 3)
    x = Tensor3(identity(4, 3).data + 0.2 * rng.standard_normal((4, 4, 3)))
    from tubal import t_inverse

    a = t_product(t_product(x, d), t_inverse(x))
    spec = spectrum_of(a)
    lam1 = spec.eigentubes[0]
    u1 = eigenslice_for(a, lam1)
    sigma = Tube([0.7, 0.1, -0.2])
    # pair with the scaled eigenslice itself
    pairing = slice_inner(u1, u1)
    from tubal import tube_conj_t, tube_div

    v = tensor_tube_mul(u1, tube_conj_t(tube_div(unit_tube(3), pairing)))
    deflated = deflate(a, sigma, u1, v)
    new = spectrum_of(deflated).eigentubes
    moved = lam1 - sigma
    assert min((moved - t).norm() for t in new) <= 1e-8 * max(1.0, moved.norm())
    for lam in spec.eigentubes[1:]:
        assert min((lam - t).norm() for t in new) <= 1e-8 * max(1.0, lam.norm())


def test_deflate_shift_collision(rng):
    a = f_hermitian_tensor(rng, 3, 2)
    spec = spectrum_of(a).eigentubes
    u1 = eigenslice_for(a, spec[0])
    # a shift equal to the gap between the first two eigentubes moves the
    # first one exactly onto the second
    from tubal import ShiftCollision

    with pytest.raises(ShiftCollision):
        deflate(a, spec[0] - spec[1], u1, u1, spectrum=spec)


def test_deflate_bad_pairing(rng):
    a = f_hermitian_tensor(rng, 3, 2)
    lam1 = spectrum_of(a).eigentubes[0]
    u1 = eigenslice_for(a, lam1)
    with pytest.raises(BadPairing):
        deflate(a, lam1, u1, 3.0 * u1)


def test_sweep_k1_matches_power(rng):
    a = tridiag_tensor()
    pair = t_power(a, cfg=SolverConfig(rng_seed=0))
    sweep = deflated_power_sweep(a, 1, cfg=SolverConfig(rng_seed=0))
    assert len(sweep) == 1
    assert (sweep[0].eigentube - pair.eigentube).norm() <= 1e-10


@pytest.mark.parametrize("variant", ["DE", "DLE", "DS"])
def test_sweep_full_spectrum_f_hermitian(rng, variant):
    a = f_hermitian_tensor(rng, 4, 2)
    exact = spectrum_of(a).eigentubes
    cfg = SolverConfig(rng_seed=1, deflation_variant=variant)
    pairs = deflated_power_sweep(a, 4, cfg=cfg)
    got = [p.eigentube for p in pairs]
    assert spectral_distance(got, exact) <= 1e-8 * max(1.0, a.frob_norm())
    u = concat_lateral([p.eigenslice for p in pairs])
    d = f_diagonal(got)
    res = (t_product(a, u) - t_product(u, d)).frob_norm()
    assert res <= 1e-8 * max(1.0, a.frob_norm())


@pytest.mark.parametrize("variant", ["DE", "DLE", "DS"])
def test_sweep_eigentubes_meeting_on_a_face(variant):
    # Fourier faces diag(3, 2, 1) and diag(2, 2, 1) in one orthogonal basis:
    # the first two eigentubes meet on face 1, whose eigenslice entries then
    # come from a two-dimensional null space
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    faces = np.stack([q @ np.diag(d) @ q.T for d in ([3.0, 2.0, 1.0], [2.0, 2.0, 1.0])])
    a = Tensor3(np.fft.ifft(faces, axis=0).real.transpose(1, 2, 0))
    pairs = deflated_power_sweep(a, 3, cfg=SolverConfig(rng_seed=0, deflation_variant=variant))
    want = [[3.0, 2.0], [2.0, 2.0], [1.0, 1.0]]
    for p, lam in zip(pairs, want):
        assert_allclose(p.eigentube.fourier_values, lam, atol=1e-12)
        res = (t_product(a, p.eigenslice) - tensor_tube_mul(p.eigenslice, p.eigentube)).frob_norm()
        assert res <= 1e-12
        assert p.residual_norm == res


@pytest.mark.parametrize("variant", ["DE", "DS"])
def test_capped_sweep_lists_every_stage(variant):
    a = make_tensor("realeig")
    full = deflated_power_sweep(a, 6, cfg=SolverConfig(deflation_variant=variant))
    stage_iters = [p.iterations for p in full]
    cap = max(stage_iters) - 1
    capped = stage_iters.index(max(stage_iters))
    with pytest.raises(NoConvergence) as info:
        deflated_power_sweep(a, 6, cfg=SolverConfig(deflation_variant=variant, iter_max=cap))
    pairs = info.value.result
    # the completed stages, mapped back as on success, then the capped one
    assert len(pairs) == capped + 1
    assert [p.iterations for p in pairs] == stage_iters[:capped] + [cap]
    assert info.value.iterations == sum(stage_iters[:capped]) + cap
    assert [p.stop_reason for p in pairs] == [p.stop_reason for p in full[:capped]] + ["cap"]
    # a completed stage's pair depends on its own eigentube and A alone
    for got, want in zip(pairs[:capped], full):
        assert got.eigentube == want.eigentube
        assert np.array_equal(got.eigenslice.data, want.eigenslice.data)
    assert not pairs[-1].converged


def test_capped_left_iteration_keeps_right_pair(monkeypatch):
    a = make_tensor("realeig")
    steps = []
    power = solvers.t_power

    def counted(*args, **kwargs):
        pair = power(*args, **kwargs)
        steps.append(pair.iterations)
        return pair

    monkeypatch.setattr(solvers, "t_power", counted)
    full = deflated_power_sweep(a, 3, cfg=SolverConfig(deflation_variant="DLE"))
    right1, left1, right2, left2 = steps[:4]
    # cap only the left iteration of the second stage
    cap = left2 - 1
    assert max(right1, left1, right2) <= cap
    with pytest.raises(NoConvergence) as info:
        deflated_power_sweep(a, 3, cfg=SolverConfig(deflation_variant="DLE", iter_max=cap))
    pairs = info.value.result
    assert len(pairs) == 2
    assert info.value.iterations == right1 + right2 + cap
    for got, want in zip(pairs, full):
        # stage m's eigenslice comes from its own eigentube and A alone
        assert got.eigentube == want.eigentube
        assert np.array_equal(got.eigenslice.data, want.eigenslice.data)
        assert got.residual_norm == want.residual_norm
    assert pairs[0].converged and pairs[0].stop_reason == full[0].stop_reason
    assert not pairs[1].converged and pairs[1].stop_reason == "cap"
    assert pairs[1].iterations == right2


@pytest.mark.parametrize("variant", ["DE", "DLE", "DS"])
def test_sweep_capped_in_first_stage(variant):
    with pytest.raises(NoConvergence) as info:
        deflated_power_sweep(
            make_tensor("realeig"), 3, cfg=SolverConfig(deflation_variant=variant, iter_max=5)
        )
    # no stage completed: the result is the capped power iteration's pair
    (pair,) = info.value.result
    assert not pair.converged and pair.stop_reason == "cap"
    assert pair.iterations == info.value.iterations == 5


@pytest.mark.parametrize("cap", [3000, 5, None], ids=["done", "first-stage", "later-stage"])
@pytest.mark.parametrize("variant", ["DE", "DLE", "DS"])
def test_sweep_maps_every_stage_back_in_one_call(monkeypatch, variant, cap):
    a = make_tensor("realeig")
    if cap is None:  # capped inside the last stage
        full = deflated_power_sweep(a, 3, cfg=SolverConfig(deflation_variant=variant))
        cap = max(p.iterations for p in full[:2]) + 1
        assert cap <= full[2].iterations
    calls = []
    kernel = solvers._eigenslices

    def counted(a, lams):
        calls.append(len(lams))
        return kernel(a, lams)

    monkeypatch.setattr(solvers, "_eigenslices", counted)
    try:
        deflated_power_sweep(a, 3, cfg=SolverConfig(deflation_variant=variant, iter_max=cap))
    except NoConvergence:
        pass
    assert len(calls) == 1


def test_sweep_rejects_bad_count():
    with pytest.raises(ValueError):
        deflated_power_sweep(tridiag_tensor(), 11)


# ---------------------------------------------------------------------------
# subspace iteration


def test_subspace_full_matches_spectrum(rng):
    a, _ = well_separated_f_diagonal(rng, 4, 3)
    x = Tensor3(identity(4, 3).data + 0.2 * rng.standard_normal((4, 4, 3)))
    from tubal import t_inverse

    a = t_product(t_product(x, a), t_inverse(x))
    res = t_subspace_iteration(a, num=4, cfg=SolverConfig(rng_seed=0))
    assert res.converged
    exact = spectrum_of(a).eigentubes
    assert spectral_distance(res.diag_tubes(), exact) <= 1e-8 * max(
        1.0, a.frob_norm()
    )


def test_subspace_power_index_speeds_up():
    a = tridiag_tensor()
    r1 = t_subspace_iteration(a, num=4, cfg=SolverConfig(rng_seed=0, power_index=1))
    r4 = t_subspace_iteration(a, num=4, cfg=SolverConfig(rng_seed=0, power_index=4))
    assert r1.converged and r4.converged
    assert r4.iterations < r1.iterations
    exact = spectrum_of(a).eigentubes[:4]
    for res in (r1, r4):
        assert spectral_distance(res.diag_tubes(), exact) <= 1e-12
        assert t_product(conj_transpose(res.u), res.u).allclose(
            identity(4, 3), atol=1e-10
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("real", [True, False])
def test_fourier_norm_is_parseval(rng, n, real):
    a = random_tensor(rng, 3, 2, n, real=real)
    stack = a.fourier_faces()
    if real:
        stack = stack[: n // 2 + 1]
    assert_allclose(fourier_norm(stack, n), a.frob_norm(), rtol=1e-13)


def test_subspace_real_and_complex_start_agree(rng):
    a = tridiag_tensor()
    x0 = random_tensor(rng, 10, 4, 3, real=True)
    x0c = Tensor3(x0.data, real=False)
    cfg = SolverConfig(rng_seed=0)
    half = t_subspace_iteration(a, x0=x0, cfg=cfg)
    full = t_subspace_iteration(a, x0=x0c, cfg=cfg)
    assert half.converged and full.converged
    assert half.u.is_real and half.r.is_real
    # the flag follows the inputs, not whether the imaginary parts cancel
    assert not full.u.is_real and not full.r.is_real
    for x, y in zip(half.diag_tubes(), full.diag_tubes()):
        assert (x - y).norm() <= 1e-10


def test_power_real_and_complex_start_agree(rng):
    a = tridiag_tensor()
    v0 = random_tensor(rng, 10, 1, 3, real=True)
    half = t_power(a, v0=v0)
    full = t_power(a, v0=Tensor3(v0.data, real=False))
    assert half.converged and full.converged
    assert half.eigenslice.is_real and not full.eigenslice.is_real
    assert (half.eigentube - full.eigentube).norm() <= 1e-10


@pytest.mark.parametrize("solver", ["power", "inverse_power", "subspace"])
def test_cap_reports_the_last_residual(solver):
    # the message's "last residual" is the last entry of the residual
    # trace, not the subspace iteration's last change of tril(R)
    a = make_tensor("tridiag")
    cfg = SolverConfig(iter_max=20)
    solve = {
        "power": lambda: t_power(a, cfg=cfg),
        "inverse_power": lambda: t_inverse_power(a, Tube(np.eye(1, a.n)[0] * 1e-3), cfg=cfg),
        "subspace": lambda: t_subspace_iteration(a, num=4, cfg=cfg),
    }[solver]
    with pytest.raises(NoConvergence) as info:
        solve()
    assert info.value.iterations == 20
    assert info.value.last_residual == info.value.result.residual_trace[-1]


def _schur_eta(a, res):
    """The backward error of a Schur result from spatial products:
    ||A * U - U * triu(R)||_F / (||A||_F ||U||_F)."""
    upper = res.r - f_tril(res.r, strict=True)
    resid = (t_product(a, res.u) - t_product(res.u, upper)).frob_norm()
    return resid / (a.frob_norm() * res.u.frob_norm())


def _certificate(a):
    return np.finfo(float).eps * np.sqrt(a.p * a.n)


def test_subspace_counts_do_not_need_the_phase_fix(monkeypatch):
    # eta does not change when the columns of Q are scaled by unit phases,
    # so normalizing R's diagonal real nonnegative at every step, as
    # facewise_qr does, must leave the ts1 rows' counts as they are
    raw_q, fixed = solvers.qr_reduced, []

    def phased_q(a, tau, out):
        raw_q(a, tau, out=out)
        d = np.diagonal(a, axis1=1, axis2=2)  # R's diagonal, left in a by geqrf
        mag = np.abs(d)
        phase = np.divide(d, mag, out=np.ones_like(d), where=mag >= np.finfo(float).tiny)
        fixed.append(bool((np.abs(phase - 1) > 0.5).any()))
        out *= phase[:, None, :]
        return out

    def counts():
        rows = []
        for kind in ("tridiag", "complex"):
            for q in (1, 4):
                res = t_subspace_iteration(make_tensor(kind), num=4, cfg=SolverConfig(power_index=q))
                rows.append((res.iterations, res.stop_reason, res.converged))
        return rows

    plain = counts()
    monkeypatch.setattr(solvers, "qr_reduced", phased_q)
    assert counts() == plain
    assert any(fixed)
    assert all(row[1:] == ("tol", True) for row in plain)


def test_subspace_converged_is_the_certificate(monkeypatch):
    # converged means the polished pair's eta is at most eps * sqrt(p * n);
    # without the refinement the handed-off pair (eta near HANDOFF_TOL)
    # misses it, and the run stops as before but reports not converged
    a = make_tensor("complex")
    cfg = SolverConfig(power_index=4)
    res = t_subspace_iteration(a, num=4, cfg=cfg)
    assert (res.stop_reason, res.converged) == ("tol", True)
    assert _schur_eta(a, res) <= _certificate(a)
    assert res.error_trace[-1] <= solvers.HANDOFF_TOL < min(res.error_trace[:-1])
    assert not f_tril(res.r, strict=True).data.any()
    monkeypatch.setattr(solvers, "_polish_schur", lambda m, u, t: (u, t))
    raw = t_subspace_iteration(a, num=4, cfg=cfg)
    assert (raw.iterations, raw.stop_reason, raw.converged) == (res.iterations, "tol", False)
    assert _schur_eta(a, raw) > _certificate(a)


def test_subspace_cap_returns_the_raw_pair(monkeypatch):
    # a capped run is not refined: it returns its last iterate X and
    # R = X^H * A * X, strictly lower part included, with its last residual
    a = make_tensor("complex")
    monkeypatch.setattr(solvers, "_polish_schur", None)  # never called
    with pytest.raises(NoConvergence) as info:
        t_subspace_iteration(a, num=4, cfg=SolverConfig(iter_max=40))
    res = info.value.result
    assert (res.iterations, res.stop_reason, res.converged) == (40, "cap", False)
    assert info.value.last_residual == res.residual_trace[-1]
    compressed = t_product(conj_transpose(res.u), t_product(a, res.u))
    assert (compressed - res.r).frob_norm() <= 1e-12 * a.frob_norm()
    assert f_tril(res.r, strict=True).frob_norm() > 1e-3
    assert_allclose(_schur_eta(a, res), res.error_trace[-1], rtol=1e-8)


def test_subspace_real_input_gives_a_real_result():
    # realeig is real with real eigentubes; the run stays on the leading
    # faces, and the polished pair comes back exactly real
    a = make_tensor("realeig")
    res = t_subspace_iteration(a, num=4)
    assert res.converged and res.u.is_real and res.r.is_real
    assert not res.u.data.imag.any() and not res.r.data.imag.any()
    assert _schur_eta(a, res) <= _certificate(a)
    exact = spectrum_of(a).eigentubes[:4]
    assert spectral_distance(res.diag_tubes(), exact) <= 1e-12 * a.frob_norm()


def test_subspace_full_width_has_no_trailing_block(rng, monkeypatch):
    # num = p: X is already square, so no trailing block is brought to
    # Schur form, and the polish refines the whole basis
    a, _ = well_separated_f_diagonal(rng, 4, 3)
    x = Tensor3(identity(4, 3).data + 0.2 * rng.standard_normal((4, 4, 3)))
    a = t_product(t_product(x, a), t_inverse(x))
    schur = []
    monkeypatch.setattr(sla, "schur", lambda *args, **kw: schur.append(1))
    res = t_subspace_iteration(a, num=4)
    assert not schur
    assert (res.stop_reason, res.converged) == ("tol", True)
    assert res.u.shape == (4, 4, 3) and res.r.shape == (4, 4, 3)
    assert _schur_eta(a, res) <= _certificate(a)


@pytest.mark.parametrize("iter_max", [1, 2])
@pytest.mark.parametrize("real", [True, False])
def test_subspace_partial_result_is_spatial(rng, iter_max, real):
    a = random_tensor(rng, 5, 5, 4, real=real)
    with pytest.raises(NoConvergence) as info:
        t_subspace_iteration(a, num=3, cfg=SolverConfig(rng_seed=0, iter_max=iter_max))
    res = info.value.result
    assert res.iterations == iter_max and not res.converged
    assert res.u.shape == (5, 3, 4) and res.r.shape == (3, 3, 4)
    assert res.u.is_real == res.r.is_real == real
    assert len(res.residual_trace) == len(res.error_trace) == iter_max
    assert_allclose(
        (t_product(a, res.u) - t_product(res.u, res.r)).frob_norm(),
        res.residual_trace[-1],
        rtol=1e-8,
    )
    assert_allclose(_schur_eta(a, res), res.error_trace[-1], rtol=1e-8)


def test_subspace_start_shape_checked():
    with pytest.raises(DimensionMismatch):
        t_subspace_iteration(tridiag_tensor(), x0=zeros(9, 2, 3))
    with pytest.raises(DimensionMismatch):
        t_subspace_iteration(tridiag_tensor(), x0=zeros(10, 2, 4))


@pytest.mark.parametrize("num", [0, 11])
def test_subspace_rejects_bad_count(num):
    with pytest.raises(ValueError, match="num must be in 1..10"):
        t_subspace_iteration(tridiag_tensor(), num=num)


def test_subspace_rejects_wide_start():
    # a tensor has at least one column, so only too many can be passed
    with pytest.raises(ValueError, match="x0 must have at most 10 columns"):
        t_subspace_iteration(tridiag_tensor(), x0=zeros(10, 11, 3))


@pytest.mark.parametrize("num", [2, 11])
def test_subspace_num_must_match_start(num, rng):
    x0 = Tensor3(rng.standard_normal((10, 4, 3)))
    with pytest.raises(ValueError, match=f"num is {num} but x0 has 4 columns"):
        t_subspace_iteration(tridiag_tensor(), num=num, x0=x0)
    assert t_subspace_iteration(tridiag_tensor(), num=4, x0=x0).u.shape == (10, 4, 3)


def test_subspace_requires_size():
    with pytest.raises(ValueError):
        t_subspace_iteration(tridiag_tensor())


# ---------------------------------------------------------------------------
# QR algorithms


def test_qr_unshifted_identity_fixed_point():
    res = t_qr_unshifted(identity(3, 2), cfg=SolverConfig(iter_max=10, tol=1e-12))
    assert res.converged and res.iterations == 1
    assert res.r.allclose(identity(3, 2), atol=1e-12)


def test_qr_unshifted_n1_matches_matrix_iteration(rng):
    m = rng.standard_normal((3, 3))
    m = m @ m.T + 3 * np.eye(3)  # symmetric positive definite, fast to converge
    a = Tensor3(m[:, :, None])
    try:
        res = t_qr_unshifted(a, cfg=SolverConfig(iter_max=4, tol=1e-30))
    except NoConvergence as exc:
        res = exc.result
    # literal matrix QR iteration trajectory as the oracle, with the same
    # nonnegative-diagonal normalization
    cur = m.copy()
    for _ in range(4):
        q, r = np.linalg.qr(cur)
        d = np.sign(np.diag(r))
        q, r = q * d, d[:, None] * r
        cur = r @ q
    assert_allclose(res.r.face(0).real, cur, atol=1e-10)


def test_qr_unshifted_similarity_and_power_factorization(rng):
    a = random_tensor(rng, 3, 3, 2)
    try:
        res = t_qr_unshifted(a, cfg=SolverConfig(iter_max=5, tol=1e-30), keep_history=True)
    except NoConvergence as exc:
        res = exc.result
    exact = spectrum_of(a).eigentubes
    from tubal import facewise_sort_tubes

    for k, step in enumerate(res.history, start=1):
        # similarity: every iterate keeps the spectrum
        lam = facewise_sort_tubes(spectrum_of(step.iterate).eigentubes)
        assert spectral_distance(lam, exact) <= 1e-8 * max(1.0, a.frob_norm())
        # accumulated factors give a t-QR factorization of A^k
        recon = t_product(step.q_acc, step.r_acc)
        assert (recon - a**k).frob_norm() <= 1e-8 * max(1.0, (a**k).frob_norm())
        sim = t_product(
            t_product(conj_transpose(step.q_acc), a), step.q_acc
        )
        assert (sim - step.iterate).frob_norm() <= 1e-10 * max(1.0, a.frob_norm())


def test_qr_unshifted_f_hermitian_offdiag_decays(rng):
    a = f_hermitian_tensor(rng, 3, 2)
    try:
        res = t_qr_unshifted(a, cfg=SolverConfig(iter_max=400, tol=1e-10))
    except NoConvergence as exc:
        res = exc.result
    assert res.error_trace[-1] <= 1e-6 * a.frob_norm()


def test_qr_shifted_identity_immediate():
    res = t_qr_shifted(identity(3, 2), cfg=SolverConfig(iter_max=100))
    assert res.converged
    for t in res.diag_tubes():
        assert (t - unit_tube(2)).norm() <= 1e-10


def test_qr_shifted_f_hermitian(rng):
    a = f_hermitian_tensor(rng, 5, 3)
    res = t_qr_shifted(a, cfg=SolverConfig(iter_max=30000))
    assert res.converged
    from tubal import facewise_sort_tubes

    got = facewise_sort_tubes(res.diag_tubes())
    exact = spectrum_of(a).eigentubes
    assert spectral_distance(got, exact) <= 1e-10 * max(1.0, a.frob_norm())
    res_norm = (t_product(a, res.u) - t_product(res.u, res.r)).frob_norm()
    assert res_norm <= 1e-10 * max(1.0, a.frob_norm())


def test_qr_shifted_real_input_real_output():
    a = tridiag_tensor()
    res = t_qr_shifted(a, cfg=SolverConfig(iter_max=30000))
    assert res.converged
    assert res.u.is_real and res.r.is_real


def _rotation_tensor(n=2):
    """A real tensor whose first face has a complex conjugate eigenvalue
    pair, which a real shift cannot separate."""
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    data = np.zeros((2, 2, n))
    data[:, :, 0] = 2 * rot
    data[:, :, 1] = 0.3 * np.eye(2)
    return Tensor3(data)


def test_qr_shifted_complex_shift_mode(rng):
    a = _rotation_tensor()
    res = t_qr_shifted(a, cfg=SolverConfig(iter_max=5000, complex_shift=True))
    assert res.converged
    from tubal import facewise_sort_tubes

    got = facewise_sort_tubes(res.diag_tubes())
    exact = spectrum_of(a).eigentubes
    assert spectral_distance(got, exact) <= 1e-10 * max(1.0, a.frob_norm())


def test_qr_shifted_switches_to_complex_shift():
    # started with the real shift, the run stalls on the conjugate pair and
    # converges only after the automatic switch to the complex shift
    a = _rotation_tensor()
    res = t_qr_shifted(a, cfg=SolverConfig(iter_max=5000, complex_shift=False))
    assert res.converged and res.stop_reason == "tol"
    assert res.iterations > solvers.STAGNATION_LIMIT
    from tubal import facewise_sort_tubes

    got = facewise_sort_tubes(res.diag_tubes())
    exact = spectrum_of(a).eigentubes
    assert spectral_distance(got, exact) <= 1e-10 * max(1.0, a.frob_norm())


def _spy_qr_faces(monkeypatch):
    """The face count of every stack :func:`facewise_qr` factors in
    :mod:`solvers`."""
    faces = []

    def spy(stack, mode):
        faces.append(len(stack))
        return factorizations.facewise_qr(stack, mode)

    monkeypatch.setattr(solvers, "facewise_qr", spy)
    return faces


def test_qr_shifted_real_shift_iterates_leading_faces(monkeypatch):
    # faces f and n - f of a real tensor are conjugates, and so stay under
    # a real shift: only the leading n // 2 + 1 are iterated
    faces = _spy_qr_faces(monkeypatch)
    res = t_qr_shifted(make_tensor("tridiag"))
    assert res.iterations == 54 and set(faces) == {2}


def test_qr_shifted_complex_switch_mirrors_to_all_faces(monkeypatch):
    # the complex shift breaks the conjugate symmetry, so the run goes on
    # all n faces after the switch and returns a complex result
    faces = _spy_qr_faces(monkeypatch)
    res = t_qr_shifted(_rotation_tensor(3), cfg=SolverConfig(iter_max=5000))
    assert res.converged and res.iterations == 540
    # the sweeps, then the polish
    switch = solvers.STAGNATION_LIMIT
    assert faces == [2] * switch + [3] * (len(faces) - switch)
    assert not res.u.is_real and not res.r.is_real


@pytest.mark.parametrize("kind", ["tridiag", "f_hermitian", "random"])
def test_qr_shifted_half_spectrum_matches_full(monkeypatch, kind):
    # the random tensor's real face 0 has a complex eigenvalue pair, so that
    # run switches to the complex shift and returns a complex result
    rng = np.random.default_rng(5)
    if kind == "tridiag":
        a = make_tensor("tridiag")
    elif kind == "f_hermitian":
        a = f_hermitian_tensor(rng, 6, 5)
    else:
        a = Tensor3(rng.standard_normal((6, 6, 5)))
    faces = _spy_qr_faces(monkeypatch)
    half = t_qr_shifted(a)
    switched = a.n in faces
    full = t_qr_shifted(Tensor3(a.data, real=False))
    assert switched == (kind == "random")
    assert half.u.is_real == half.r.is_real == (not switched)
    assert (half.iterations, half.stop_reason) == (full.iterations, full.stop_reason)
    tol = 1e-13 * a.frob_norm()
    assert (half.u - full.u).frob_norm() <= tol
    assert (half.r - full.r).frob_norm() <= tol


@pytest.mark.parametrize("n", [1, 4, 5])
def test_qr_shifted_random_complex(rng, n):
    a = random_tensor(rng, 6, 6, n)
    res = t_qr_shifted(a, cfg=SolverConfig(iter_max=30000))
    assert res.converged
    scale = a.frob_norm()
    assert (t_product(a, res.u) - t_product(res.u, res.r)).frob_norm() <= 1e-12 * scale
    assert f_tril(res.r, strict=True).frob_norm() == 0.0
    from tubal import facewise_sort_tubes

    got = facewise_sort_tubes(res.diag_tubes())
    exact = spectrum_of(a).eigentubes
    assert spectral_distance(got, exact) <= 1e-12 * scale


def test_qr_shifted_random_real_past_a_subnormal_diagonal():
    # face 1's last active R diagonal underflows to a subnormal (about
    # 2e-315), whose phase must not be taken: the division overflows and
    # turns the run NaN
    a = Tensor3(np.random.default_rng(0).standard_normal((4, 4, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = t_qr_shifted(a)
    assert res.converged and res.stop_reason == "tol"
    resid = (t_product(a, res.u) - t_product(res.u, res.r)).frob_norm()
    assert resid <= 1e-12 * a.frob_norm()


def test_qr_shifted_stall_raises_with_partial_result():
    # tridiag(-1, 2, -1) has a spectrum symmetric about its trailing
    # diagonal entry 2, the first Rayleigh shift, and exact arithmetic keeps
    # it there; neither shift mode breaks the tie
    m = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    a = Tensor3(m[:, :, None])
    with pytest.raises(NoConvergence) as info:
        t_qr_shifted(a, cfg=SolverConfig(iter_max=30000))
    res = info.value.result
    assert res.stop_reason == "stall" and not res.converged
    assert res.iterations == 2 * solvers.STAGNATION_LIMIT
    resid = (t_product(a, res.u) - t_product(res.u, res.r)).frob_norm()
    assert resid <= 1e-12 * a.frob_norm()


def test_qr_shifted_converged_is_the_certificate(monkeypatch):
    # converged means the polished pair's eta is at most eps * sqrt(p * n);
    # without the refinement both t10 rows deflate at the same sweep, stop
    # at "tol" as before, and miss the certificate
    for polished in (True, False):
        if not polished:
            monkeypatch.setattr(solvers, "_polish_schur", lambda m, u, t: (u, t))
        for name, cshift, sweeps in (("tridiag", False, 54), ("stochastic", True, 108)):
            a = make_tensor(name)
            res = t_qr_shifted(a, cfg=SolverConfig(iter_max=30000, complex_shift=cshift))
            assert (res.iterations, res.stop_reason, res.converged) == (sweeps, "tol", polished)
            assert (_schur_eta(a, res) <= _certificate(a)) == polished


def _residuals(m, u, t):
    return np.linalg.norm(m @ u - u @ t, axis=(1, 2))


def test_polish_schur_batched_faces(rng):
    # Schur pairs of slightly perturbed faces, polished against the exact
    # faces: generic complex faces of norm 1 to 1e3, an identity face whose
    # every diagonal gap is below the gate, a face whose pair is exact, and
    # a face whose gap just passes the gate, where a sweep overshoots
    p = 6
    faces = []
    for scale in (1.0, 10.0, 100.0, 1000.0):
        g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        faces.append(scale * g / np.linalg.norm(g))
    faces.append(np.eye(p, dtype=complex))
    u, t = [], []
    for face in faces:
        noise = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        tf, uf = sla.schur(face + 1e-9 * np.linalg.norm(face) * noise, output="complex")
        t.append(tf)
        u.append(uf)
    exact = np.triu(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    close = np.diag([1.0, 1.0 + 2e-5, 3.0, 4.0, 5.0, 6.0]).astype(complex)
    close[0, 1], close[1, 0] = 1.0, 1e-4
    faces += [exact, close]
    u += [np.eye(p), np.eye(p)]
    t += [exact, np.triu(close)]
    m, u, t = np.stack(faces), np.stack(u), np.stack(t)
    before = _residuals(m, u, t)
    pu, pt = solvers._polish_schur(m, u, t)
    after = _residuals(m, pu, pt)
    assert np.all(after <= before)
    assert np.all(after[:4] <= 1e-14 * np.linalg.norm(m[:4], axis=(1, 2)))
    assert after[5] == 0.0
    assert np.all(np.tril(pt, -1) == 0)
    unitary = np.conj(np.swapaxes(pu, 1, 2)) @ pu - np.eye(p)
    assert np.all(np.linalg.norm(unitary, axis=(1, 2)) <= 1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(iter_max=0)
    with pytest.raises(ValueError):
        SolverConfig(power_index=0)
    with pytest.raises(ValueError):
        SolverConfig(deflation_variant="XX")


# ---------------------------------------------------------------------------
# the square-shape gate

_SQUARE_ONLY = {
    "t_lu": factorizations.t_lu,
    "t_hess": factorizations.t_hess,
    "t_det": factorizations.t_det,
    "char_poly_eval": lambda a: factorizations.char_poly_eval(a, unit_tube(a.n)),
    "spectrum_of": spectrum_of,
    "eigenslice_for": lambda a: eigenslice_for(a, unit_tube(a.n)),
    "real_t_schur": factorizations.real_t_schur,
    "t_inverse": factorizations.t_inverse,
    "Tensor3.__pow__": lambda a: a**2,
    "t_power": t_power,
    "t_inverse_power": lambda a: t_inverse_power(a, unit_tube(a.n)),
    "deflate": lambda a: deflate(
        a, unit_tube(a.n), canonical_slice(a.l, 0, a.n), canonical_slice(a.l, 0, a.n)
    ),
    "deflated_power_sweep": lambda a: deflated_power_sweep(a, 1),
    "t_subspace_iteration": lambda a: t_subspace_iteration(a, num=1),
    "t_qr_unshifted": t_qr_unshifted,
    "t_qr_shifted": t_qr_shifted,
}


@pytest.mark.parametrize("call", list(_SQUARE_ONLY.values()), ids=list(_SQUARE_ONLY))
def test_square_only_entry_points_reject_rectangular(rng, call):
    a = random_tensor(rng, 3, 2, 4, real=True)
    with pytest.raises(DimensionMismatch) as info:
        call(a)
    assert (info.value.axis, info.value.left, info.value.right) == ("rows", 3, 2)
