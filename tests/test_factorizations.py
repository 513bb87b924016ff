import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

import tubal
from conftest import (
    f_hermitian_tensor,
    match_multisets,
    random_tensor,
    tridiag_tensor,
)
from tubal import (
    DefectiveFace,
    DimensionMismatch,
    NotAnEigentube,
    SingularFace,
    Tensor3,
    Tube,
    bcirc,
    char_poly_eval,
    conj_transpose,
    eigenslice_for,
    f_diagonal,
    facewise_qr,
    facewise_sort_tubes,
    identity,
    in_range,
    real_t_schur,
    spectrum_of,
    t_det,
    t_hess,
    t_inverse,
    t_lu,
    t_null_basis,
    t_product,
    t_qr,
    t_svd,
    tensor_tube_mul,
    tube_conj_t,
    tube_pow,
    unit_tube,
    zeros,
)
from tubal.experiments import STOCHASTIC_FACES, TestTensorSpec, make_tensor
from tubal.factorizations import _eigenslices, _maybe_real_tubes, _sort_face_eigs
from tubal.tensors import _face_stack, _from_face_stack
from tubal.tubes import conjugate_even


# ---------------------------------------------------------------------------
# t-QR


def test_qr_identity():
    eye = identity(3, 4)
    res = t_qr(eye)
    assert res.q.allclose(eye) and res.r.allclose(eye)


def test_qr_n1_is_matrix_qr(rng):
    a = random_tensor(rng, 4, 4, 1)
    res = t_qr(a)
    assert t_product(res.q, res.r).allclose(a, rtol=1e-10)
    assert np.abs(np.tril(res.r.face(0), -1)).max() <= 1e-12


def test_qr_real_rectangular(rng):
    a = random_tensor(rng, 5, 3, 4, real=True)
    res = t_qr(a)
    assert res.q.is_real and res.r.is_real
    assert t_product(res.q, res.r).allclose(a, rtol=1e-10)
    assert t_product(conj_transpose(res.q), res.q).allclose(identity(5, 4), atol=1e-10)
    for face in res.r.fourier_faces():
        assert np.abs(np.tril(face, -1)).max() <= 1e-12 * max(1.0, np.abs(face).max())


def test_qr_reduced(rng):
    a = random_tensor(rng, 5, 2, 3)
    res = t_qr(a, mode="reduced")
    assert res.q.shape == (5, 2, 3)
    assert t_product(res.q, res.r).allclose(a, rtol=1e-10)


def _per_face(a, face_fn):
    """Reference facewise kernel: ``face_fn`` on each face of the library's
    Fourier stack (all n faces, or the leading n // 2 + 1 for a real
    tensor), the remaining faces mirrored one by one as conjugates. Returns
    one (n, ...) array per output of ``face_fn``."""
    n = a.n
    out = [face_fn(face) for face in _face_stack(a, a.is_real)]
    for f in range(len(out), n):
        out.append(tuple(np.conj(x) for x in out[n - f]))
    return [np.array(col) for col in zip(*out)]


def _spatial(stack, real):
    """The tensor whose n Fourier faces are ``stack``, transformed back by
    the library's inverse from the faces it factors."""
    n = len(stack)
    return Tensor3(_from_face_stack(stack[: n // 2 + 1] if real else stack, n, real))


def _qr_face(m, mode):
    """np.linalg.qr of one face with the diagonal of R made real
    nonnegative."""
    qf, rf = np.linalg.qr(m, mode=mode)
    k = min(qf.shape[1], m.shape[1])
    d = np.diag(rf)[:k].copy()
    phase = np.ones(qf.shape[1], dtype=np.complex128)
    nz = np.abs(d) > 0
    phase[:k][nz] = d[nz] / np.abs(d[nz])
    return qf * phase, np.conj(phase)[:, None] * rf


def _qr_reference(a, mode):
    """Per-face t-QR through :func:`_per_face`."""
    qs, rs = _per_face(a, lambda m: _qr_face(m, mode))
    return _spatial(qs, a.is_real), _spatial(rs, a.is_real)


@pytest.mark.parametrize("mode", ["complete", "reduced"])
@pytest.mark.parametrize("shape", [(3, 5, 4), (5, 3, 7), (4, 4, 1), (6, 2, 1)])
@pytest.mark.parametrize("real", [True, False])
def test_qr_matches_per_face_loop_bitwise(rng, mode, shape, real):
    a = random_tensor(rng, *shape, real=real)
    res = t_qr(a, mode=mode)
    q_ref, r_ref = _qr_reference(a, mode)
    for got, want in ((res.q, q_ref), (res.r, r_ref)):
        assert got.shape == want.shape and got.is_real == want.is_real == real
        assert np.array_equal(got.data, want.data)


def _numpy_qr_normalized(stack, mode):
    """np.linalg.qr of a whole stack, then the documented normalization:
    column j of Q times, and row j of R times the conjugate of, the phase
    d / |d| of R's diagonal entry d, or 1 where d is zero or Q has no such
    entry."""
    q, r = np.linalg.qr(stack, mode=mode)
    d = np.diagonal(r, axis1=1, axis2=2)
    phase = np.ones((q.shape[0], q.shape[2]), dtype=np.complex128)
    nz = np.abs(d) > 0
    phase[:, : d.shape[1]][nz] = d[nz] / np.abs(d[nz])
    return q * phase[:, None, :], np.conj(phase)[:, :, None] * r


_QR_SHAPES = [(1, 3, 5), (4, 3, 5), (1, 4, 4), (6, 4, 4), (1, 6, 3), (5, 6, 3)]


@pytest.mark.parametrize("mode", ["complete", "reduced"])
@pytest.mark.parametrize("shape", _QR_SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("zero_column", [False, True])
def test_facewise_qr_matches_numpy_qr_bitwise(rng, mode, shape, dtype, zero_column):
    # facewise_qr calls the LAPACK gufuncs behind np.linalg.qr directly; a
    # numpy whose QR differs from them, even in the last bit, fails here
    stack = rng.standard_normal(shape).astype(dtype)
    if dtype is np.complex128:
        stack += 1j * rng.standard_normal(shape)
    if zero_column:
        stack[-1, :, 0] = 0.0
    before = stack.copy()
    q, r = facewise_qr(stack, mode)
    q_ref, r_ref = _numpy_qr_normalized(stack, mode)
    assert np.array_equal(stack, before)
    for got, want in ((q, q_ref), (r, r_ref)):
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if zero_column:
        # a zero diagonal entry of R keeps numpy's column: its phase is 1
        assert r[-1, 0, 0] == 0.0
        assert np.array_equal(q[-1, :, 0], np.linalg.qr(stack[-1], mode=mode)[0][:, 0])


@pytest.mark.parametrize("mode", ["complete", "reduced"])
@pytest.mark.parametrize("shape", _QR_SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_facewise_qr_keeps_phase_one_on_a_subnormal_diagonal(rng, mode, shape, dtype):
    # R's first diagonal entry on the last face is this subnormal: d / |d|
    # would be -1, but below the smallest normal float the phase stays 1
    stack = rng.standard_normal(shape).astype(dtype)
    if dtype is np.complex128:
        stack += 1j * rng.standard_normal(shape)
    stack[-1, :, 0] = 0.0
    stack[-1, 0, 0] = -1e-310
    q, r = facewise_qr(stack, mode)
    assert r[-1, 0, 0] == -1e-310
    assert np.array_equal(q[-1, :, 0], np.linalg.qr(stack[-1], mode=mode)[0][:, 0])


def test_facewise_qr_rejects_unknown_mode(rng):
    with pytest.raises(ValueError, match="unknown QR mode"):
        facewise_qr(rng.standard_normal((2, 3, 3)), "r")


def _tube_from_fourier(vals):
    """Tube with the given Fourier entries, real when conjugate-even."""
    spat = np.fft.ifft(vals)
    return Tube(spat.real if conjugate_even(vals, tol=1e-13) else spat)


def _assert_same(got, want):
    if isinstance(got, Tensor3):
        assert got.is_real == want.is_real
        got, want = got.data, want.data
    elif isinstance(got, Tube):
        got, want = got.spatial_values, want.spatial_values
    assert np.array_equal(got, want)


def _face_eigvals_reference(m):
    """Eigenvalues of one face: eigvalsh when it is Hermitian within 1e-13
    of its norm (at least 1), eigvals otherwise."""
    scale = float(np.linalg.norm(m))
    if np.allclose(m, m.conj().T, rtol=0.0, atol=1e-13 * max(1.0, scale)):
        return np.linalg.eigvalsh(m).astype(np.complex128)
    return np.linalg.eigvals(m)


def _sort_face_eigs_reference(vals):
    """The tie order of one face spelled out with Python's stable sort:
    blocks of magnitudes each within the window of the one before, by
    descending real part, then sub-blocks of real parts likewise, by
    descending imaginary part."""
    vals = np.asarray(vals, dtype=np.complex128)
    win = 1e-12 * max(1.0, float(np.abs(vals).max()))

    def blocks(items, key):
        items = sorted(items, key=lambda z: -key(z))
        out, cur = [], [items[0]]
        for z in items[1:]:
            if key(cur[-1]) - key(z) <= win:
                cur.append(z)
            else:
                out.append(cur)
                cur = [z]
        out.append(cur)
        return out

    result = []
    for mag_block in blocks(list(vals), abs):
        for re_block in blocks(mag_block, lambda z: z.real):
            result.extend(sorted(re_block, key=lambda z: -z.imag))
    return np.array(result)


def _lu_face(m):
    pm, lf, uf = sla.lu(m)
    return pm.T, lf, uf, np.argmax(pm.T, axis=1)


def _svd_face(m):
    uf, sf, vhf = np.linalg.svd(m)
    ss = np.zeros(m.shape, dtype=np.complex128)
    k = sf.size
    ss[:k, :k] = np.diag(sf)
    return uf, ss, vhf.conj().T


def _square_reference(a):
    """Every square factorization of ``a`` through :func:`_per_face`, as
    (name, computed, reference) triples."""
    def spatial(stack):
        return _spatial(stack, a.is_real)

    lu = t_lu(a)
    ps, ls, us, perm = _per_face(a, _lu_face)
    hs = t_hess(a)
    ws, hh = _per_face(a, lambda m: sla.hessenberg(m, calc_q=True)[::-1])
    (dets,) = _per_face(a, lambda m: (np.linalg.det(m),))
    (invs,) = _per_face(a, lambda m: (np.linalg.inv(m),))
    spec = spectrum_of(a)
    (raw,) = _per_face(a, lambda m: (_face_eigvals_reference(m),))
    face_values = np.stack([_sort_face_eigs_reference(v) for v in raw])
    return [
        ("lu.p", lu.p, spatial(ps)),
        ("lu.l", lu.l, spatial(ls)),
        ("lu.u", lu.u, spatial(us)),
        ("lu.perm", np.array(lu.perm), perm),
        ("hess.w", hs.w, spatial(ws)),
        ("hess.h", hs.h, spatial(hh)),
        ("det", t_det(a), _tube_from_fourier(dets)),
        ("inverse", t_inverse(a), spatial(invs)),
        ("spectrum.face_values", spec.face_values, face_values),
    ] + [
        (f"spectrum.eigentube{j}", got, _tube_from_fourier(face_values[:, j]))
        for j, got in enumerate(spec.eigentubes)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("real", [True, False])
def test_square_factorizations_match_per_face_loop_bitwise(rng, n, real):
    a = random_tensor(rng, 4, 4, n, real=real)
    # Fourier face 0 (the sum of the frontal faces) made Hermitian: the
    # spectrum takes both eigensolver branches
    total = a.data.sum(axis=2)
    mixed = a.data.copy()
    mixed[:, :, 0] -= (total - total.conj().T) / 2
    for b in (a, Tensor3(mixed), f_hermitian_tensor(rng, 4, n, real=real), identity(4, n)):
        for name, got, want in _square_reference(b):
            try:
                _assert_same(got, want)
            except AssertionError:
                pytest.fail(f"{name} differs from the per-face loop")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5)])
def test_svd_matches_per_face_loop_bitwise(rng, n, real, shape):
    a = random_tensor(rng, *shape, n, real=real)
    res = t_svd(a)
    us, ss, vs = _per_face(a, _svd_face)
    for got, want in zip((res.u, res.s, res.v), (us, ss, vs)):
        _assert_same(got, _spatial(want, real))
    tubes = [_tube_from_fourier(ss[:, i, i]) for i in range(min(shape))]
    assert len(res.singular_tubes) == len(tubes)
    for got, want in zip(res.singular_tubes, tubes):
        _assert_same(got, want)
    assert np.array_equal(res.singular_values, [t.norm() for t in tubes])


@pytest.mark.parametrize("real", [True, False])
def test_singular_face_names_the_first_bad_face(rng, real):
    # n = 5: the real tensor's face 3 mirrors face 2, so face 2 is its first
    # bad leading face; the complex tensor has faces 3 and 4 singular
    n = 5
    faces = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    if real:
        faces[0] = faces[0].real
        for f in range(1, n):
            faces[f] = np.conj(faces[n - f]) if f > n // 2 else faces[f]
        bad = [2, 3]
    else:
        bad = [3, 4]
    for f in bad:
        faces[f][:, 0] = 0.0
    a = Tensor3.from_fourier_faces(faces, real=real)
    assert a.is_real == real
    for fn in (t_lu, t_inverse):
        with pytest.raises(SingularFace) as info:
            fn(a)
        assert info.value.face_index == bad[0]


# ---------------------------------------------------------------------------
# t-LU


def test_lu_identity():
    eye = identity(3, 2)
    res = t_lu(eye)
    assert res.p.allclose(eye) and res.l.allclose(eye) and res.u.allclose(eye)


def test_lu_n1(rng):
    a = random_tensor(rng, 4, 4, 1)
    res = t_lu(a)
    assert t_product(res.p, a).allclose(t_product(res.l, res.u), rtol=1e-10)


def test_lu_scaled_tridiag():
    a = tridiag_tensor()
    res = t_lu(a)
    lhs = t_product(res.p, a)
    rhs = t_product(res.l, res.u)
    assert (lhs - rhs).frob_norm() <= 1e-10 * a.frob_norm()
    assert res.l.is_real and res.u.is_real
    # unit lower diagonal facewise
    for face in res.l.fourier_faces():
        assert_allclose(np.diag(face), np.ones(10), atol=1e-12)
    # stored permutation vectors materialize the same tensor
    for f, perm in enumerate(res.perm):
        pm = np.zeros((10, 10))
        pm[np.arange(10), perm] = 1.0
        assert_allclose(res.p.fourier_faces()[f].real, pm, atol=1e-10)


def test_lu_singular_face():
    with pytest.raises(SingularFace):
        t_lu(zeros(3, 3, 2))


# ---------------------------------------------------------------------------
# t-Hessenberg


def test_hess_identity():
    eye = identity(4, 3)
    res = t_hess(eye)
    assert res.h.allclose(eye)


def test_hess_2x2_trivial(rng):
    a = random_tensor(rng, 2, 2, 3)
    res = t_hess(a)
    assert t_product(t_product(conj_transpose(res.w), a), res.w).allclose(
        res.h, rtol=1e-10
    )


def test_hess_preserves_spectrum(rng):
    a = random_tensor(rng, 6, 6, 3)
    res = t_hess(a)
    sim = t_product(t_product(conj_transpose(res.w), a), res.w)
    assert (sim - res.h).frob_norm() <= 1e-10 * a.frob_norm()
    for face in res.h.fourier_faces():
        assert np.abs(np.tril(face, -2)).max() <= 1e-12 * max(1.0, np.abs(face).max())
    lam_a = spectrum_of(a).eigentubes
    lam_h = spectrum_of(res.h).eigentubes
    for x, y in zip(lam_a, lam_h):
        assert (x - y).norm() <= 1e-10 * max(1.0, x.norm())


# ---------------------------------------------------------------------------
# t-SVD


def test_svd_identity():
    eye = identity(3, 4)
    res = t_svd(eye)
    assert res.s.allclose(eye, atol=1e-12)
    assert_allclose(res.singular_values, np.ones(3), atol=1e-12)


def test_svd_f_diagonal_input(rng):
    tubes = [Tube(rng.standard_normal(4)) for _ in range(3)]
    d = f_diagonal(tubes)
    res = t_svd(d)
    # singular tubes match the diagonal tubes up to facewise phase; compare
    # absolute Fourier entries after sorting each face
    got = np.sort(np.abs(np.stack([t.fourier_values for t in res.singular_tubes])), axis=0)
    want = np.sort(np.abs(np.stack([t.fourier_values for t in tubes])), axis=0)
    assert_allclose(got, want, atol=1e-10)


def test_svd_reconstruction_and_parseval(rng):
    a = random_tensor(rng, 4, 3, 2)
    res = t_svd(a)
    recon = t_product(t_product(res.u, res.s), conj_transpose(res.v))
    assert (recon - a).frob_norm() <= 1e-10 * a.frob_norm()
    assert t_product(conj_transpose(res.u), res.u).allclose(identity(4, 2), atol=1e-10)
    assert t_product(conj_transpose(res.v), res.v).allclose(identity(3, 2), atol=1e-10)
    assert all(np.diff(res.singular_values) <= 1e-12)
    # energy identity, cross-checked against the singular values of bcirc
    assert_allclose(
        a.frob_norm() ** 2, sum(t.norm() ** 2 for t in res.singular_tubes), rtol=1e-10
    )
    sv_bc = np.linalg.svd(bcirc(a), compute_uv=False)
    assert_allclose(
        np.sum(sv_bc**2) / 2.0, a.frob_norm() ** 2 * 1.0, rtol=1e-10
    )


def test_svd_eigen_link(rng):
    # squared singular tubes are eigentubes of A^H * A
    a = random_tensor(rng, 4, 3, 3)
    res = t_svd(a)
    gram = t_product(conj_transpose(a), a)
    lam = spectrum_of(gram).eigentubes
    for i, s in enumerate(res.singular_tubes[:3]):
        sq = tube_pow(s, 2)
        assert (sq - lam[i]).norm() <= 1e-8 * max(1.0, lam[i].norm())


# ---------------------------------------------------------------------------
# determinant and characteristic polynomial


def test_det_identity_and_scalar():
    assert t_det(identity(3, 4)) == unit_tube(4)
    t = Tube([2.0, 1.0, 0.0])
    a = Tensor3(t.spatial_values.reshape(1, 1, 3))
    assert (t_det(a) - t).norm() <= 1e-14


def test_det_product_laws(rng):
    a = random_tensor(rng, 3, 3, 2)
    b = random_tensor(rng, 3, 3, 2)
    d1 = t_det(t_product(a, b))
    d2 = t_det(t_product(b, a))
    scale = max(1.0, d1.norm())
    assert (d1 - d2).norm() <= 1e-10 * scale
    dh = t_det(conj_transpose(a))
    assert (dh - tube_conj_t(t_det(a))).norm() <= 1e-10 * max(1.0, dh.norm())
    alpha = Tube(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    lhs = t_det(tensor_tube_mul(a, alpha))
    from tubal import tube_mul

    rhs = tube_mul(tube_pow(alpha, 3), t_det(a))
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


def test_char_poly_vanishes_on_eigentubes(rng):
    a = random_tensor(rng, 3, 3, 2)
    spec = spectrum_of(a)
    for lam in spec.eigentubes:
        val = char_poly_eval(a, lam)
        assert val.norm() <= 1e-8 * max(1.0, a.frob_norm())
    assert char_poly_eval(identity(3, 2), unit_tube(2)).norm() <= 1e-12


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_identity():
    spec = spectrum_of(identity(3, 4))
    for lam in spec.eigentubes:
        assert (lam - unit_tube(4)).norm() <= 1e-12


def test_spectrum_scaled_tridiag_matches_facewise_oracle():
    # dense eigensolver oracle per Fourier face: c_k * mu_j
    from conftest import dft_oracle

    a = tridiag_tensor()
    spec = spectrum_of(a)
    c = dft_oracle([1.0, 10.0, 100.0])
    t = 2 * np.eye(10) - np.eye(10, k=1) - np.eye(10, k=-1)
    mu = np.linalg.eigvalsh(t)
    for k in range(3):
        want = sorted(np.abs(c[k] * mu), reverse=True)
        assert_allclose(np.abs(spec.face_values[k]), want, rtol=1e-10)
    # norms are nonincreasing
    norms = [lam.norm() for lam in spec.eigentubes]
    assert all(np.diff(norms) <= 1e-12)
    # the tensor is real with consistently ordered faces: real eigentubes
    assert all(lam.is_real for lam in spec.eigentubes)


def test_spectrum_stochastic_perron():
    a = make_tensor(TestTensorSpec("stochastic"))
    spec = spectrum_of(a)
    # first Fourier face is the sum of the frontal faces, whose column sums
    # are all (approximately) 4, hence the dominant eigenvalue is about 4
    face_sum = STOCHASTIC_FACES.sum(axis=0)
    assert_allclose(face_sum.sum(axis=0), 4.0, atol=2e-3)
    assert abs(spec.eigentubes[0].fourier_values[0] - 4.0) <= 1e-3


def test_spectrum_ordering_tie_break():
    # two eigenvalues of equal magnitude: descending real, then imaginary
    face = np.diag([1.0 + 1.0j, 1.0 - 1.0j, -2.0])
    vals = np.linalg.eigvals(face)
    from tubal.factorizations import _sort_face_eigs

    got = _sort_face_eigs(vals)
    assert got[0] == -2.0
    assert got[1] == 1.0 + 1.0j and got[2] == 1.0 - 1.0j


def _tied_rows(rng, faces, p):
    """(faces, p) eigenvalue rows built to meet every branch of the tie
    rule: conjugate pairs, magnitudes and imaginary parts one or two ulps
    apart, equal real parts, exact duplicates, opposite real parts, ties
    within the window and zeros."""
    scale = rng.choice([1e-3, 1.0, 1e3], size=(faces, 1))
    vals = scale * (rng.standard_normal((faces, p)) + 1j * rng.standard_normal((faces, p)))
    for f in range(faces):
        for i in range(1, p):
            z = vals[f, rng.integers(i)]
            vals[f, i] = [
                np.conj(z),
                complex(np.nextafter(z.real, np.inf), z.imag),
                complex(z.real, np.nextafter(np.nextafter(z.imag, np.inf), np.inf)),
                complex(z.real, scale[f, 0] * rng.standard_normal()),
                0.0,
                z,
                -np.conj(z),
                z * (1 + 3e-13),
                vals[f, i],
            ][rng.integers(9)]
    return vals


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 10])
@pytest.mark.parametrize("faces", [1, 7])
def test_sort_face_eigs_matches_scalar_sort(rng, faces, p):
    for _ in range(40):
        vals = _tied_rows(rng, faces, p)
        got = _sort_face_eigs(vals)
        want = np.stack([_sort_face_eigs_reference(row) for row in vals])
        assert got.tobytes() == want.tobytes()


def test_sort_face_eigs_window_is_inclusive():
    # a magnitude drop of exactly the window still ties, so the larger real
    # part goes first; a drop just over it does not
    win = 1e-12
    assert _sort_face_eigs([-win, 0.0]).tolist() == [0.0, -win]
    wider = np.nextafter(win, 1.0)
    assert _sort_face_eigs([-wider, 0.0]).tolist() == [-wider, 0.0]


def test_maybe_real_tubes_matches_per_column_loop(rng):
    n = 6
    even = np.fft.fft(rng.standard_normal((n, 3)), axis=0)
    odd = np.fft.fft(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)), axis=0)
    bump = np.zeros(n, dtype=complex)
    bump[2] = 1.0
    cols = np.column_stack(
        [
            even,
            odd,
            even[:, 0] + 1e-15j * bump,  # nearly conjugate-even: snapped
            even[:, 0] + 1e-11j * bump,  # off by more than 1e-13: kept complex
            1e6 * even[:, 1] + 1e-8j * bump,  # within 1e-13 of its own scale
            even[:, 2] + 1e-8j * bump,  # not within 1e-13 of its own scale
            np.where(bump == 1.0, np.nan, even[:, 0]),
        ]
    )
    got = _maybe_real_tubes(cols)
    want = [_tube_from_fourier(col) for col in cols.T]
    assert [t.spatial_values.tobytes() for t in got] == [t.spatial_values.tobytes() for t in want]
    assert [t.is_real for t in got] == [True] * 3 + [False] * 2 + [True, False, True, False, False]


def test_bcirc_spectral_oracle(rng):
    for _ in range(5):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        a = random_tensor(rng, p, p, n)
        ev_bc = np.linalg.eigvals(bcirc(a))
        stitched = np.concatenate(
            [spectrum_of(a).face_values[f] for f in range(n)]
        )
        match_multisets(ev_bc, stitched, tol=1e-8 * max(1.0, np.abs(ev_bc).max()))


def test_multiplicity_metadata():
    # identity tensor: every eigentube is e with full multiplicity
    spec = spectrum_of(identity(3, 2))
    assert spec.algebraic_f_multiplicity(0) == 3
    assert spec.geometric_f_multiplicity(0) == 3
    assert spec.index_of(0) == 1
    # a Jordan block has algebraic 2, geometric 1, index 2 at every face
    j = np.array([[2.0, 1.0], [0.0, 2.0]])
    a = Tensor3(np.stack([j, j], axis=2))
    spec = spectrum_of(a)
    assert spec.algebraic_f_multiplicity(0) == 2
    assert spec.geometric_f_multiplicity(0) == 1
    assert spec.index_of(0) == 2


def test_multiplicity_takes_minimum_over_faces():
    # eigentubes (2, 0) and (1, 1) have Fourier entries (2, 2) and (2, 0):
    # they coincide on face 0 only
    spec = spectrum_of(f_diagonal([Tube([2.0, 0.0]), Tube([1.0, 1.0])]))
    assert spec.algebraic_f_multiplicity(0) == 1
    assert spec.geometric_f_multiplicity(0) == 1
    assert spec.index_of(0) == 1


def test_multiplicity_counts_mirrored_faces():
    # a real tensor whose face 1 holds the conjugate pair (l, l, conj l):
    # sorted by imaginary part, eigentube 0 takes l on face 1 and on face
    # 2 = conj(face 1) alike, where l has one eigenvector, not two
    lam = 1 + 1j
    faces = [np.eye(3), np.diag([lam, lam, np.conj(lam)]), np.diag([np.conj(lam)] * 2 + [lam])]
    a = Tensor3.from_fourier_faces(np.array(faces), real=True)
    spec = spectrum_of(a)
    assert a.is_real
    assert_allclose(spec.face_values[:, 0], [1, lam, lam], atol=1e-12)
    assert spec.algebraic_f_multiplicity(0) == spec.geometric_f_multiplicity(0) == 1


def test_facewise_sort_tubes_realigns(rng):
    a = random_tensor(rng, 4, 4, 3)
    spec = spectrum_of(a)
    shuffled = list(reversed(spec.eigentubes))
    sorted_back = facewise_sort_tubes(shuffled)
    for x, y in zip(sorted_back, spec.eigentubes):
        assert (x - y).norm() <= 1e-12 * max(1.0, y.norm())


# ---------------------------------------------------------------------------
# eigenslices


def test_eigenslice_identity():
    u = eigenslice_for(identity(3, 2), unit_tube(2))
    resid = t_product(identity(3, 2), u) - tensor_tube_mul(u, unit_tube(2))
    assert resid.frob_norm() <= 1e-12


def test_eigenslice_n1_is_eigenvector(rng):
    a = random_tensor(rng, 4, 4, 1)
    lam = spectrum_of(a).eigentubes[0]
    u = eigenslice_for(a, lam)
    resid = t_product(a, u) - tensor_tube_mul(u, lam)
    assert resid.frob_norm() <= 1e-8 * a.frob_norm()


def test_eigenslice_scaled_tridiag():
    a = tridiag_tensor()
    lam = spectrum_of(a).eigentubes[0]
    u = eigenslice_for(a, lam)
    resid = t_product(a, u) - tensor_tube_mul(u, lam)
    assert resid.frob_norm() <= 1e-10 * a.frob_norm()
    assert u.is_real


def test_eigenslice_rejects_non_eigentube(rng):
    a = random_tensor(rng, 3, 3, 2)
    bogus = Tube(1e6 * np.ones(2))
    with pytest.raises(NotAnEigentube):
        eigenslice_for(a, bogus)


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_eigenslice_rejects_non_finite_tube(entry):
    # a NaN distance to the face spectrum is far, and no NaN or inf reaches
    # the SVD: the "far" gate names face 0 (no RuntimeWarning either)
    a = make_tensor(TestTensorSpec("tridiag", dims=(4, 4, 4)))
    with pytest.raises(NotAnEigentube) as info:
        eigenslice_for(a, Tube([entry, 0.0, 0.0, 0.0]))
    assert info.value.face_index == 0


@pytest.mark.parametrize("lam", [Tube([6.0]), Tube([6.0, 0.0])], ids=["length1", "length2"])
def test_eigenslice_rejects_tube_of_another_length(lam):
    data = np.zeros((2, 2, 3))
    data[:, :, 0] = np.diag([6.0, 3.0])
    with pytest.raises(DimensionMismatch) as info:
        eigenslice_for(Tensor3(data), lam)
    assert (info.value.axis, info.value.left, info.value.right) == ("tubes", 3, lam.n)


def test_eigenslice_complex_eigentube_of_real_tensor(rng):
    # face 0 of a real tensor is real, so a complex pair of its eigenvalues
    # makes complex eigentubes, whose eigenslices need all n faces
    a = random_tensor(rng, 4, 4, 5, real=True)
    lams = [lam for lam in spectrum_of(a).eigentubes if not lam.is_real]
    assert lams
    for lam in lams:
        u = eigenslice_for(a, lam)
        assert not u.is_real
        resid = t_product(a, u) - tensor_tube_mul(u, lam)
        assert resid.frob_norm() <= 1e-8 * a.frob_norm()


@pytest.mark.parametrize("real", [True, False])
def test_eigenslices_batch_matches_single_tube(rng, real):
    a = tridiag_tensor(p=4, n=4) if real else random_tensor(rng, 4, 4, 4)
    lams = spectrum_of(a).eigentubes
    xs = _eigenslices(a, lams)
    assert len(xs) == len(lams)
    for lam, x in zip(lams, xs):
        assert x.data.tobytes() == eigenslice_for(a, lam).data.tobytes()
        # real A and real tubes: stitched from the leading faces, so exactly real
        assert (x.data.imag == 0).all() if real else not x.is_real
    assert _eigenslices(a, []) == []


def test_eigenslice_defective_face():
    j = np.array([[2.0, 1.0], [0.0, 2.0]])
    a = Tensor3(np.stack([j, j], axis=2))
    lam = spectrum_of(a).eigentubes[0]
    # near a Jordan block, a perturbed eigenvalue leaves the shifted face
    # with its smallest singular value around delta squared, which with
    # delta 1e-3 sits far above the recovery tolerance
    with pytest.raises(DefectiveFace):
        eigenslice_for(a, Tube(lam.spatial_values + 1e-3), gate=1e-2, defect_tol=1e-8)


def test_left_eigenslice_law(rng):
    a = random_tensor(rng, 4, 4, 3)
    lam = spectrum_of(a).eigentubes[0]
    lam_h = tube_conj_t(lam)
    spec_h = spectrum_of(conj_transpose(a))
    assert min((lam_h - mu).norm() for mu in spec_h.eigentubes) <= 1e-8 * max(
        1.0, lam.norm()
    )
    v = eigenslice_for(conj_transpose(a), lam_h)
    resid = t_product(conj_transpose(a), v) - tensor_tube_mul(v, lam_h)
    assert resid.frob_norm() <= 1e-8 * a.frob_norm()


def test_f_hermitian_real_eigentubes(rng):
    a = f_hermitian_tensor(rng, 4, 3)
    for lam in spectrum_of(a).eigentubes:
        assert np.abs(lam.spatial_values.imag).max() <= 1e-10


# ---------------------------------------------------------------------------
# real t-Schur


def test_real_schur_symmetric_is_diagonal(rng):
    # real f-Hermitian input: Fourier faces are Hermitian, so the Schur form
    # is diagonal facewise
    g = random_tensor(rng, 4, 4, 3, real=True)
    a = Tensor3((g.data + conj_transpose(g).data) / 2)
    q, r = real_t_schur(a)
    for face in r.fourier_faces():
        off = face - np.diag(np.diag(face))
        assert np.abs(off).max() <= 1e-8 * max(1.0, np.abs(face).max())


def test_real_schur_n1(rng):
    a = random_tensor(rng, 4, 4, 1, real=True)
    q, r = real_t_schur(a)
    assert (t_product(t_product(q, a), conj_transpose(q)) - r).frob_norm() <= 1e-10 * a.frob_norm()
    # quasi-triangular: strictly below the first subdiagonal vanishes
    assert np.abs(np.tril(r.face(0), -2)).max() <= 1e-10


def test_real_schur_reconstruction(rng):
    a = random_tensor(rng, 4, 4, 3, real=True)
    q, r = real_t_schur(a)
    assert q.is_real and r.is_real
    assert t_product(q, conj_transpose(q)).allclose(identity(4, 3), atol=1e-10)
    resid = t_product(t_product(q, a), conj_transpose(q)) - r
    assert resid.frob_norm() <= 1e-10 * a.frob_norm()
    for face in r.fourier_faces():
        assert np.abs(np.tril(face, -2)).max() <= 1e-10 * max(1.0, np.abs(face).max())


def test_real_schur_rejects_complex(rng):
    with pytest.raises(ValueError):
        real_t_schur(random_tensor(rng, 3, 3, 2))


# ---------------------------------------------------------------------------
# null space, range, inverse


def test_null_basis_invertible_is_empty(rng):
    a = random_tensor(rng, 3, 3, 2)
    assert t_null_basis(a) == []


def test_null_basis_zero_tensor():
    basis = t_null_basis(zeros(2, 2, 3))
    assert len(basis) == 2


def test_null_basis_shared_null_column(rng):
    # kill the last column of every Fourier face
    a = random_tensor(rng, 4, 4, 3)
    faces = a.fourier_faces().copy()
    faces[:, :, 3] = 0.0
    a = Tensor3.from_fourier_faces(faces)
    basis = t_null_basis(a)
    assert len(basis) >= 1
    for x in basis:
        assert t_product(a, x).frob_norm() <= 1e-8 * a.frob_norm()


@pytest.mark.parametrize("n", [3, 4])
def test_null_basis_real_tensor_is_exactly_real(rng, n):
    # a zero last column in every spatial face is one in every Fourier face
    data = rng.standard_normal((4, 4, n))
    data[:, 3, :] = 0.0
    a = Tensor3(data)
    basis = t_null_basis(a)
    assert len(basis) == 1
    for x in basis:
        assert (x.data.imag == 0).all()
        assert t_product(a, x).frob_norm() <= 1e-12 * a.frob_norm()


def test_in_range_real(rng):
    a = random_tensor(rng, 4, 2, 4, real=True)
    assert in_range(a, t_product(a, random_tensor(rng, 2, 1, 4, real=True)))
    assert not in_range(a, random_tensor(rng, 4, 1, 4, real=True))


def test_in_range(rng):
    a = random_tensor(rng, 4, 2, 3)
    x = random_tensor(rng, 2, 1, 3)
    y = t_product(a, x)
    assert in_range(a, y)
    # a generic slice is not in the range of a rank deficient map
    z = random_tensor(rng, 4, 1, 3)
    assert not in_range(a, z)


def test_in_range_rank_deficient_square(rng):
    # every face has rank 2 of 3: the range is a plane, not all of C^3
    b = random_tensor(rng, 3, 2, 4)
    a = Tensor3(np.concatenate([b.data, b.data.sum(axis=1, keepdims=True)], axis=1))
    assert in_range(a, t_product(a, random_tensor(rng, 3, 1, 4)))
    assert not in_range(a, random_tensor(rng, 3, 1, 4))


_NON_FINITE_CHILD = textwrap.dedent("""
    import os, sys
    import numpy as np
    from tubal import (NonFiniteInput, Tensor3, char_poly_eval, in_range, read_tensor,
                       real_t_schur, spectrum_of, t_det, t_hess, t_inverse, t_lu, t_null_basis,
                       t_qr, t_qr_shifted, t_qr_unshifted, t_svd, unit_tube, write_tensor)

    def read_back(t, suffix):
        path = os.path.join(sys.argv[1], "a" + suffix)
        write_tensor(t, path)
        return read_tensor(path)

    missed = []
    rng = np.random.default_rng(0)
    for real in (True, False):
        for bad in (np.nan, np.inf):
            for where in ("a", "y"):
                a = rng.standard_normal((3, 3, 4)) + (0 if real else 1j)
                y = rng.standard_normal((3, 1, 4)) + (0 if real else 1j)
                (a if where == "a" else y)[0, 0, 1] = bad
                a, y = Tensor3(a), Tensor3(y)
                calls = {"in_range": lambda: in_range(a, y)}
                if where == "a":
                    calls.update(t_svd=lambda: t_svd(a), t_null_basis=lambda: t_null_basis(a),
                                 t_inverse=lambda: t_inverse(a), t_lu=lambda: t_lu(a),
                                 t_hess=lambda: t_hess(a), t_qr_shifted=lambda: t_qr_shifted(a),
                                 spectrum_of=lambda: spectrum_of(a), t_qr=lambda: t_qr(a),
                                 t_qr_unshifted=lambda: t_qr_unshifted(a), t_det=lambda: t_det(a),
                                 char_poly_eval=lambda: char_poly_eval(a, unit_tube(4)),
                                 read_t3b=lambda: read_back(a, ".t3b"),
                                 read_json=lambda: read_back(a, ".json"))
                    if real:
                        calls["real_t_schur"] = lambda: real_t_schur(a)
                for name, call in calls.items():
                    try:
                        call()
                        got = "a result"
                    except NonFiniteInput:
                        continue
                    except Exception as exc:
                        got = type(exc).__name__
                    missed.append((name, real, bad, where, got))
    print(missed)
    raise SystemExit(1 if missed else 0)
""")


def test_non_finite_input_raises_instead_of_hanging(tmp_path):
    # LAPACK's SVD does not return on a face holding an inf, so the cases
    # run in a child process with a time limit: a missing gate fails the
    # test instead of hanging the suite. The child writes its tensor files
    # into tmp_path
    src = os.path.dirname(os.path.dirname(tubal.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _NON_FINITE_CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_inverse(rng):
    a = random_tensor(rng, 4, 4, 3, real=True)
    inv = t_inverse(a)
    assert inv.is_real
    assert t_product(a, inv).allclose(identity(4, 3), atol=1e-10)
    with pytest.raises(SingularFace):
        t_inverse(zeros(2, 2, 2))
