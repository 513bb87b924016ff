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
    fourier_norm,
    identity,
    slice_inner,
    spectrum_of,
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


def _run_bits(solve):
    """Everything a power-family run reports, capped or not, as exact bits."""
    try:
        pair, capped = solve(), None
    except NoConvergence as exc:
        pair, capped = exc.result, exc.iterations
    tube = None if pair.eigentube is None else pair.eigentube.spatial_values.tobytes()
    return (
        capped, pair.iterations, pair.stop_reason, np.array(pair.residual_trace).tobytes(),
        np.float64(pair.residual_norm).tobytes(), tube, pair.eigenslice.data.tobytes(),
    )


@pytest.mark.parametrize("method", ["power", "inverse_power"])
@pytest.mark.parametrize("kind", ["tridiag", "stochastic", "complex", "realeig", "restart"])
def test_chunked_scoring_matches_per_step_scoring(kind, method, monkeypatch):
    # caps at, next to and across the chunk boundaries of 16 steps, and the
    # default cap; "restart" is the n = 2 tridiag tensor whose start slice
    # restarts the run, so its random draw must come at the same step
    if kind == "restart":
        solve = _restart_cases()[0 if method == "power" else 1][0]
    else:
        a = make_tensor(kind)
        sigma = None if method == "power" else Tube(np.eye(1, a.n)[0] * 1e-3)

        def solve(cfg):
            return t_power(a, cfg=cfg) if sigma is None else t_inverse_power(a, sigma, cfg=cfg)

    caps = (1, 15, 16, 17, 33, 3000)
    chunked = [_run_bits(lambda: solve(SolverConfig(iter_max=c))) for c in caps]
    monkeypatch.setattr(solvers, "_SCORE_CHUNK", 1)
    assert [_run_bits(lambda: solve(SolverConfig(iter_max=c))) for c in caps] == chunked


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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("real", [True, False], ids=["half", "full"])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_singular_shift_names_first_bad_face(rng, n, real):
    # shift a real f-diagonal tensor onto its leading eigentube on faces 1
    # and n - 1 only, so those two faces of A - sigma * I are singular; a
    # complex shift makes the run factor every face
    a, tubes = well_separated_f_diagonal(rng, 3, n)
    offset = np.full(n, 0.05) if real else np.full(n, 0.05 + 0.05j)
    offset[[1, n - 1]] = 0.0
    vals = np.fft.ifft(tubes[0].fourier_values + offset)
    sigma = Tube(vals.real if real else vals)
    faces = a.fourier_faces() - sigma.fourier_values[:, None, None] * np.eye(3)
    pivots = np.array([np.abs(np.diag(sla.lu_factor(m)[0])).min() for m in faces])
    gates = factorizations.LU_PIVOT_RTOL * np.maximum(1.0, np.linalg.norm(faces, axis=(1, 2)))
    first = int(np.argmax(pivots <= gates))
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
    if variant == "DE":
        # DE maps stage m back with stages 0 .. m - 1 only
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
        # stage m is mapped back with stages 0 .. m - 1 only
        assert got.eigentube == want.eigentube
        assert np.array_equal(got.eigenslice.data, want.eigenslice.data)
        assert got.residual_norm == want.residual_norm
    assert pairs[0].converged and pairs[0].stop_reason == full[0].stop_reason
    assert not pairs[1].converged and pairs[1].stop_reason == "cap"
    assert pairs[1].iterations == right2


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
    assert len(res.residual_trace) == iter_max
    assert len(res.error_trace) == iter_max - 1
    assert_allclose(
        (t_product(a, res.u) - t_product(res.u, res.r)).frob_norm(),
        res.residual_trace[-1],
        rtol=1e-8,
    )


def test_subspace_start_shape_checked():
    with pytest.raises(DimensionMismatch):
        t_subspace_iteration(tridiag_tensor(), x0=zeros(9, 2, 3))
    with pytest.raises(DimensionMismatch):
        t_subspace_iteration(tridiag_tensor(), x0=zeros(10, 2, 4))


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


def _rotation_tensor():
    """A real tensor whose first face has a complex conjugate eigenvalue
    pair, which a real shift cannot separate."""
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    data = np.zeros((2, 2, 2))
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
