"""Acceptance suite.

One test per acceptance criterion, each printing a PASS or FAIL line with
the measured quantities (run with ``pytest tests/test_acceptance.py -v -s``
to see every line). Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np

from conftest import f_hermitian_tensor, match_multisets, random_tensor
from tubal import (
    NoConvergence,
    SolverConfig,
    Tube,
    bcirc,
    conj_transpose,
    conjugate_even,
    deflate,
    deflated_power_sweep,
    eigenslice_for,
    f_tril,
    facewise_sort_tubes,
    spectrum_of,
    t_det,
    t_power,
    t_product,
    t_product_reference,
    t_qr_shifted,
    t_qr_unshifted,
    t_subspace_iteration,
    tensor_tube_mul,
    tube_conj_t,
    tube_div,
    tube_mul,
    tube_norm,
    tube_pow,
)
from tubal.experiments import (
    TestTensorSpec,
    block_residual,
    make_tensor,
    run_method,
    schur_residual,
    spectral_error,
)


def _criterion(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_oracle_equivalence_t_product():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        l, q, p = rng.integers(1, 5, size=3)
        n = int(rng.integers(1, 6))
        real = trial % 2 == 0
        a = random_tensor(rng, int(l), int(q), n, real=real)
        b = random_tensor(rng, int(q), int(p), n, real=real)
        got = t_product(a, b)
        want = t_product_reference(a, b)
        worst = max(worst, (got - want).frob_norm() / max(1.0, want.frob_norm()))
    elapsed = time.perf_counter() - start
    _criterion(
        "oracle equivalence (100 random t-products vs block-circulant path)",
        worst <= 1e-10 and elapsed < 5.0,
        f"max rel err {worst:.3e}, {elapsed:.2f}s",
    )


def test_spectral_oracle_bcirc():
    rng = np.random.default_rng(77)
    worst_ok = True
    for _ in range(50):
        a = random_tensor(rng, 3, 3, 3)
        ev_bc = np.linalg.eigvals(bcirc(a))
        stitched = spectrum_of(a).face_values.ravel()
        tol = 1e-8 * max(1.0, float(np.abs(ev_bc).max()))
        match_multisets(ev_bc, stitched, tol)
    _criterion(
        "spectral oracle (bcirc eigenvalues equal facewise union, 50 trials)",
        worst_ok,
        "all multisets matched at 1e-8",
    )


def test_table2_power_method():
    details = []
    ok = True
    for name in ("tridiag", "stochastic", "complex"):
        a = make_tensor(TestTensorSpec(name))
        try:
            pair = t_power(a, cfg=SolverConfig(rng_seed=0))
        except NoConvergence as exc:
            pair = exc.result
        err = spectral_error(a, [pair.eigentube])
        res = block_residual(a, [pair.eigenslice], [pair.eigentube])
        good = pair.converged and pair.iterations <= 3000 and res <= 1e-12 and err <= 1e-12
        ok = ok and good
        details.append(f"{name}: iter={pair.iterations} res={res:.2e} err={err:.2e}")
    _criterion("table 2 (power method on the three benchmark tensors)", ok, "; ".join(details))


def test_table3_inverse_power():
    details = []
    ok = True
    # the error is the distance to the eigentube closest to the shift
    for name, shift, iter_max in (("tridiag", 1e-5, 200), ("complex", 1e-3, 3000)):
        a = make_tensor(TestTensorSpec(name))
        sigma = Tube(np.r_[shift, np.zeros(a.n - 1)])
        rep = run_method(a, name, "t-sipm", shift=sigma)
        good = (
            rep.converged
            and rep.iterations <= iter_max
            and rep.res_norm <= 1e-12
            and rep.error <= 1e-12
        )
        ok = ok and good
        details.append(f"{name}: iter={rep.iterations} res={rep.res_norm:.2e} err={rep.error:.2e}")
    _criterion(
        "table 3 (shifted inverse power, shift at the first entry: 1e-5 tridiag, 1e-3 complex)",
        ok,
        "; ".join(details),
    )


def test_table5_deflation_variants():
    cases = [("tridiag", 3), ("tridiag", 5), ("realeig", 4), ("realeig", 6)]
    ok = True
    details = []
    for name, num in cases:
        a = make_tensor(TestTensorSpec(name))
        for variant in ("DE", "DLE", "DS"):
            pairs = deflated_power_sweep(
                a, num, cfg=SolverConfig(rng_seed=0, deflation_variant=variant)
            )
            err = spectral_error(a, [p.eigentube for p in pairs])
            res = block_residual(
                a, [p.eigenslice for p in pairs], [p.eigentube for p in pairs]
            )
            good = all(p.converged for p in pairs) and err <= 1e-10 and res <= 1e-10
            ok = ok and good
            details.append(f"{name}/{variant}: err={err:.2e} res={res:.2e}")
    _criterion("table 5 (deflation sweeps DE, DLE, DS)", ok, "; ".join(details))


def test_table_s1_subspace_iteration():
    ok = True
    details = []
    for name in ("tridiag", "complex"):
        a = make_tensor(TestTensorSpec(name))
        iters = {}
        for q in (1, 4):
            try:
                res = t_subspace_iteration(
                    a, num=4, cfg=SolverConfig(rng_seed=0, power_index=q)
                )
            except NoConvergence as exc:
                res = exc.result
            err = spectral_error(a, res.diag_tubes())
            rn = schur_residual(a, res.u, res.r)
            iters[q] = res.iterations
            ok = ok and res.converged and err <= 1e-12 and rn <= 1e-12
            details.append(f"{name} q={q}: iter={res.iterations} err={err:.2e} res={rn:.2e}")
        ok = ok and iters[4] < iters[1]
    _criterion(
        "table s1 (subspace iteration, power index 1 vs 4)", ok, "; ".join(details)
    )


def test_table10_shifted_qr():
    ok = True
    details = []
    for name, cshift in (("tridiag", False), ("stochastic", True)):
        a = make_tensor(TestTensorSpec(name))
        try:
            res = t_qr_shifted(
                a, cfg=SolverConfig(rng_seed=0, iter_max=30000, complex_shift=cshift)
            )
        except NoConvergence as exc:
            res = exc.result
        err = spectral_error(a, res.diag_tubes())
        rn = schur_residual(a, res.u, res.r)
        good = (
            res.converged
            and res.iterations <= 30000
            and err <= 1e-12
            and rn <= 1e-12
        )
        ok = ok and good
        details.append(f"{name}: iter={res.iterations} err={err:.2e} res={rn:.2e}")
    _criterion("table 10 (shifted QR with Hessenberg reduction)", ok, "; ".join(details))


def test_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(31337)

    # ring axioms at 1e-12
    for n in (1, 2, 3, 8):
        for _ in range(10):
            a = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            b = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            c = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            scale = max(1.0, tube_norm(a) * tube_norm(b) * tube_norm(c))
            assert tube_norm(tube_mul(tube_mul(a, b), c) - tube_mul(a, tube_mul(b, c))) <= 1e-12 * scale
            assert tube_norm(tube_mul(a, b) - tube_mul(b, a)) <= 1e-12 * scale
            assert tube_norm(tube_mul(a, b + c) - (tube_mul(a, b) + tube_mul(a, c))) <= 1e-12 * scale

    # real closure through products, transposes, and factorizations
    ar = random_tensor(rng, 3, 3, 4, real=True)
    br = random_tensor(rng, 3, 2, 4, real=True)
    assert t_product(ar, br).is_real
    assert conj_transpose(ar).is_real
    from tubal import t_lu, t_qr, t_svd

    assert t_qr(ar).q.is_real and t_qr(ar).r.is_real
    assert t_svd(ar).u.is_real
    assert t_lu(ar).l.is_real

    # conjugate-even preservation: products of real tubes keep the symmetry
    for _ in range(10):
        x = Tube(rng.standard_normal(6))
        y = Tube(rng.standard_normal(6) + 2.0 * (np.arange(6) == 0))
        assert conjugate_even(tube_mul(x, y).fourier_values)
        assert conjugate_even(tube_div(x, y).fourier_values)

    # determinant laws
    a = random_tensor(rng, 3, 3, 2)
    b = random_tensor(rng, 3, 3, 2)
    alpha = Tube(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    d_ab = t_det(t_product(a, b))
    assert (d_ab - t_det(t_product(b, a))).norm() <= 1e-10 * max(1.0, d_ab.norm())
    assert (t_det(conj_transpose(a)) - tube_conj_t(t_det(a))).norm() <= 1e-10 * max(
        1.0, t_det(a).norm()
    )
    lhs = t_det(tensor_tube_mul(a, alpha))
    rhs = tube_mul(tube_pow(alpha, 3), t_det(a))
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())

    # f-Hermitian implies real eigentubes
    h = f_hermitian_tensor(rng, 4, 3)
    for lam in spectrum_of(h).eigentubes:
        assert np.abs(lam.spatial_values.imag).max() <= 1e-10

    # deflation spectrum law
    lam1 = spectrum_of(h).eigentubes[0]
    u1 = eigenslice_for(h, lam1)
    sigma = Tube([0.4, -0.1, 0.2])
    deflated = deflate(h, sigma, u1, u1)
    new = spectrum_of(deflated).eigentubes
    moved = lam1 - sigma
    assert min((moved - t).norm() for t in new) <= 1e-8 * max(1.0, moved.norm())
    for lam in spectrum_of(h).eigentubes[1:]:
        assert min((lam - t).norm() for t in new) <= 1e-8 * max(1.0, lam.norm())

    # unshifted QR: similarity invariance and the accumulated factorization
    # of tensor powers for the first five steps; A^k = U * R_acc with R_acc
    # f-upper triangular, so U^H * A^k has no strictly f-lower part
    g = random_tensor(rng, 3, 3, 2)
    exact = spectrum_of(g).eigentubes
    for k in range(1, 6):
        try:
            res = t_qr_unshifted(g, cfg=SolverConfig(iter_max=k, tol=1e-30))
        except NoConvergence as exc:
            res = exc.result
        lam = facewise_sort_tubes(spectrum_of(res.r).eigentubes)
        drift = np.sqrt(sum((x - y).norm() ** 2 for x, y in zip(lam, exact)))
        assert drift <= 1e-8 * max(1.0, g.frob_norm())
        uh = conj_transpose(res.u)
        assert (uh * g * res.u - res.r).frob_norm() <= 1e-10 * max(1.0, g.frob_norm())
        power = g**k
        lower = f_tril(uh * power, strict=True)
        assert lower.frob_norm() <= 1e-8 * max(1.0, power.frob_norm())

    elapsed = time.perf_counter() - start
    _criterion("property suite", elapsed < 60.0, f"{elapsed:.2f}s (budget 60s)")
