import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import dft_oracle, match_multisets, random_tensor
from tubal import (
    DimensionMismatch,
    NearSingularTube,
    Tensor3,
    Tube,
    bcirc,
    canonical_slice,
    conj_transpose,
    f_diagonal,
    f_tril,
    fft3,
    fold,
    identity,
    ifft3,
    inner_product,
    slice_inner,
    slice_norm,
    slice_normalize,
    t_product,
    t_product_reference,
    tensor_tube_div,
    tensor_tube_mul,
    tube_conj_t,
    tube_div,
    unfold,
    unit_tube,
)
from tubal.tensors import _face_stack, _from_face_stack


def test_constructor_validates_reality():
    with pytest.raises(ValueError):
        Tensor3(np.ones((2, 2, 2)) * 1j, real=True)
    t = Tensor3(np.ones((2, 2, 2)))
    assert t.is_real


def test_fft3_identity_tensor():
    eye = identity(3, 4)
    faces = fft3(eye)
    for k in range(4):
        assert_allclose(faces.face(k), np.eye(3), atol=1e-14)


def test_fft3_n1_is_identity_map():
    rng = np.random.default_rng(0)
    a = random_tensor(rng, 3, 2, 1)
    assert fft3(a).allclose(a)


def test_fft3_scaled_tridiag_faces():
    # faces delta_i * T have Fourier face k equal to c_k * T, where c is the
    # 3-point DFT of (1, 10, 100); computed by the explicit DFT oracle
    from conftest import tridiag_tensor

    a = tridiag_tensor(10, 3)
    c = dft_oracle([1.0, 10.0, 100.0])
    assert_allclose(c[0], 111.0)
    t = 2 * np.eye(10) - np.eye(10, k=1) - np.eye(10, k=-1)
    faces = a.fourier_faces()
    for k in range(3):
        assert_allclose(faces[k], c[k] * t, atol=1e-10)


def test_ifft3_inverts_fft3(rng):
    a = random_tensor(rng, 3, 4, 5)
    assert ifft3(fft3(a)).allclose(a, rtol=1e-12)


def test_frob_norm_fft_identity(rng):
    a = random_tensor(rng, 4, 3, 6)
    assert_allclose(a.frob_norm(), fft3(a).frob_norm() / np.sqrt(6), rtol=1e-12)


def test_unfold_fold_roundtrip(rng):
    a = random_tensor(rng, 3, 2, 4)
    assert fold(unfold(a), 3, 4).allclose(a, rtol=0, atol=0)


def test_bcirc_n1_is_single_face():
    rng = np.random.default_rng(1)
    a = random_tensor(rng, 3, 2, 1)
    assert_allclose(bcirc(a), a.face(0))


def test_bcirc_of_tube_is_circulant():
    a = Tensor3(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3))
    expect = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=float)
    assert_allclose(bcirc(a), expect)


def test_bcirc_eigenvalues_union_of_faces(rng):
    a = random_tensor(rng, 2, 2, 2)
    ev_bc = np.linalg.eigvals(bcirc(a))
    ev_faces = np.concatenate([np.linalg.eigvals(f) for f in a.fourier_faces()])
    match_multisets(ev_bc, ev_faces, tol=1e-8 * max(1.0, np.abs(ev_bc).max()))


def test_bcirc_block_diagonalization(rng):
    # (F/sqrt(n) x I) bcirc (F^H/sqrt(n) x I) equals bdiag of the Fourier faces
    a = random_tensor(rng, 3, 2, 4)
    n, l, p = 4, 3, 2
    u = np.array([[np.exp(-2j * np.pi * j * k / n) for j in range(n)] for k in range(n)])
    u /= np.sqrt(n)
    lhs = np.kron(u, np.eye(l)) @ bcirc(a) @ np.kron(u.conj().T, np.eye(p))
    faces = a.fourier_faces()
    bd = np.zeros((l * n, p * n), dtype=complex)
    for i in range(n):
        bd[i * l : (i + 1) * l, i * p : (i + 1) * p] = faces[i]
    assert np.linalg.norm(lhs - bd) <= 1e-10 * np.linalg.norm(bd)


def test_bcirc_size_guard():
    with pytest.raises(ValueError):
        bcirc(Tensor3(np.zeros((101, 101, 10))))


def test_t_product_identity(rng):
    a = random_tensor(rng, 3, 2, 4, real=True)
    assert t_product(a, identity(2, 4)).allclose(a)
    assert t_product(identity(3, 4), a).allclose(a)


def test_t_product_n1_is_matrix_product(rng):
    a = random_tensor(rng, 3, 2, 1)
    b = random_tensor(rng, 2, 5, 1)
    assert_allclose(t_product(a, b).face(0), a.face(0) @ b.face(0), atol=1e-12)


def test_t_product_matches_reference(rng):
    for _ in range(10):
        dims = rng.integers(1, 5, size=4)
        l, q, p = int(dims[0]), int(dims[1]), int(dims[2])
        n = int(rng.integers(1, 6))
        for real in (True, False):
            a = random_tensor(rng, l, q, n, real=real)
            b = random_tensor(rng, q, p, n, real=real)
            got = t_product(a, b)
            want = t_product_reference(a, b)
            err = (got - want).frob_norm() / max(1.0, want.frob_norm())
            assert err <= 1e-10


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("real", [True, False])
def test_face_stack_pair(rng, n, real):
    a = random_tensor(rng, 3, 2, n, real=real)
    full = a.fourier_faces()
    for half in (True, False) if real else (False,):
        stack = _face_stack(a, half)
        faces = n // 2 + 1 if half else n
        assert stack.shape == (faces, 3, 2) and stack.flags.c_contiguous
        want = full[:faces]
        assert np.abs(stack - want).max() <= 1e-14 * np.abs(want).max()
        back = _from_face_stack(stack, n, half)
        assert back.shape == a.shape
        if half:
            assert back.dtype == np.float64
        assert np.abs(back - a.data).max() <= 1e-14 * np.abs(a.data).max()


@pytest.mark.parametrize("n", [6, 7])
def test_real_half_spectrum_ops_match_bcirc(rng, n):
    # above n = 5 the real-input transform and the leading faces of the full
    # one differ in their last bits: check each half-spectrum route against
    # the block-circulant definition
    a = random_tensor(rng, 4, 3, n, real=True)
    b = random_tensor(rng, 3, 5, n, real=True)
    sq = random_tensor(rng, 3, 3, n, real=True)
    tube = Tube(rng.standard_normal(n))
    cases = [
        (t_product(a, b), t_product_reference(a, b)),
        (tensor_tube_mul(a, tube), t_product_reference(a, f_diagonal([tube] * a.p))),
        (sq**3, t_product_reference(t_product_reference(sq, sq), sq)),
    ]
    for got, want in cases:
        assert got.is_real and not np.any(got.data.imag)
        assert (got - want).frob_norm() <= 1e-13 * max(1.0, want.frob_norm())
    for strict in (False, True):
        # a mask that is the same on every Fourier face masks every frontal
        # face alike, i.e. every block of bcirc(A)
        got = f_tril(a, strict=strict)
        mask = np.tril(np.ones((a.l, a.p)), k=-1 if strict else 0)
        assert got.is_real
        assert_allclose(got.data, a.data * mask[:, :, None], rtol=0, atol=1e-14)


def test_t_product_real_closure(rng):
    a = random_tensor(rng, 3, 3, 5, real=True)
    b = random_tensor(rng, 3, 2, 5, real=True)
    c = t_product(a, b)
    assert c.is_real
    assert not np.any(c.data.imag)


def test_t_product_associativity(rng):
    for _ in range(5):
        a = random_tensor(rng, 3, 2, 3)
        b = random_tensor(rng, 2, 4, 3)
        c = random_tensor(rng, 4, 2, 3)
        left = t_product(t_product(a, b), c)
        right = t_product(a, t_product(b, c))
        assert (left - right).frob_norm() <= 1e-10 * max(1.0, left.frob_norm())


def test_t_product_dimension_errors(rng):
    a = random_tensor(rng, 3, 2, 4)
    with pytest.raises(DimensionMismatch) as info:
        t_product(a, random_tensor(rng, 3, 2, 4))
    assert info.value.axis == "inner"
    with pytest.raises(DimensionMismatch) as info:
        t_product(a, random_tensor(rng, 2, 2, 5))
    assert info.value.axis == "tubes"


def test_inner_product_transport(rng):
    a = random_tensor(rng, 3, 2, 5)
    b = random_tensor(rng, 3, 2, 5)
    lhs = inner_product(a, b)
    rhs = inner_product(fft3(a), fft3(b)) / 5
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_conj_transpose():
    eye = identity(3, 4)
    assert conj_transpose(eye).allclose(eye)
    rng = np.random.default_rng(8)
    a = random_tensor(rng, 3, 3, 4)
    b = random_tensor(rng, 3, 3, 4)
    lhs = conj_transpose(t_product(a, b))
    rhs = t_product(conj_transpose(b), conj_transpose(a))
    assert (lhs - rhs).frob_norm() <= 1e-10 * max(1.0, lhs.frob_norm())
    assert conj_transpose(conj_transpose(a)).allclose(a, rtol=0, atol=0)
    # facewise: Fourier faces of A^H are conjugate transposes of those of A
    fa = a.fourier_faces()
    fah = conj_transpose(a).fourier_faces()
    for k in range(4):
        assert_allclose(fah[k], fa[k].conj().T, atol=1e-12)


def test_conj_transpose_n1(rng):
    a = random_tensor(rng, 3, 2, 1)
    assert_allclose(conj_transpose(a).face(0), a.face(0).conj().T)


def test_tensor_tube_mul_identity_tube(rng):
    a = random_tensor(rng, 3, 2, 4, real=True)
    assert tensor_tube_mul(a, unit_tube(4)).allclose(a)


def test_tensor_tube_mul_commutes(rng):
    a = random_tensor(rng, 3, 2, 4)
    b = Tube(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert (a * b).allclose(b * a, rtol=0, atol=0)


def test_identity_times_tube_is_f_diagonal(rng):
    b = Tube(rng.standard_normal(5))
    t = tensor_tube_mul(identity(3, 5), b)
    for i in range(3):
        assert_allclose(t.data[i, i, :], b.spatial_values, atol=1e-14)
    off = t.data.copy()
    for i in range(3):
        off[i, i, :] = 0
    assert np.abs(off).max() <= 1e-14


def test_tensor_tube_div_roundtrip(rng):
    a = random_tensor(rng, 3, 2, 4, real=True)
    b = Tube(rng.standard_normal(4) + 2.0 * (np.arange(4) == 0))
    back = tensor_tube_div(tensor_tube_mul(a, b), b)
    assert (back - a).frob_norm() <= 1e-10 * a.frob_norm()
    assert back.is_real


def test_tensor_tube_div_gate(rng):
    a = random_tensor(rng, 2, 2, 3)
    with pytest.raises(NearSingularTube):
        tensor_tube_div(a, Tube([0.0, 0.0, 0.0]))


def test_tensor_tube_div_nan_gate(rng):
    a = random_tensor(rng, 2, 2, 3)
    with pytest.raises(NearSingularTube) as info:
        tensor_tube_div(a, Tube([np.nan, 1.0, 1.0]))
    assert info.value.face_index == 0 and np.isnan(info.value.magnitude)


def test_slice_inner_canonical():
    e1 = canonical_slice(3, 0, 4)
    e2 = canonical_slice(3, 1, 4)
    assert slice_inner(e1, e1) == unit_tube(4)
    assert np.abs(slice_inner(e1, e2).values).max() == 0.0


def test_slice_inner_conjugate_symmetry(rng):
    x = random_tensor(rng, 4, 1, 3)
    y = random_tensor(rng, 4, 1, 3)
    lhs = tube_conj_t(slice_inner(x, y))
    rhs = slice_inner(y, x)
    assert np.linalg.norm(lhs.values - rhs.values) <= 1e-10


def test_bilinear_form_laws(rng):
    x = random_tensor(rng, 4, 1, 3)
    y = random_tensor(rng, 4, 1, 3)
    z = random_tensor(rng, 4, 1, 3)
    a = Tube(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    add = slice_inner(x, y + z) - (slice_inner(x, y) + slice_inner(x, z))
    assert np.linalg.norm(add.values) <= 1e-10
    from tubal import tube_mul

    right = slice_inner(x, tensor_tube_mul(y, a)) - tube_mul(a, slice_inner(x, y))
    assert np.linalg.norm(right.values) <= 1e-10
    left = slice_inner(tensor_tube_mul(x, a), y) - tube_mul(
        tube_conj_t(a), slice_inner(x, y)
    )
    assert np.linalg.norm(left.values) <= 1e-10


def test_slice_normalize(rng):
    y = random_tensor(rng, 5, 1, 4)
    x, a = slice_normalize(y)
    assert abs(slice_norm(x) - 1.0) <= 1e-10
    assert (slice_inner(x, x) - unit_tube(4)).norm() <= 1e-10
    assert tensor_tube_mul(x, a).allclose(y, rtol=1e-10)
    # a real slice normalizes to a real slice and a real scaling tube
    yr = random_tensor(rng, 5, 1, 4, real=True)
    xr, ar = slice_normalize(yr)
    assert xr.is_real and ar.is_real


def test_slice_normalize_degenerate():
    y = Tensor3(np.zeros((3, 1, 4)))
    with pytest.raises(NearSingularTube):
        slice_normalize(y)


def _two_face_slice(small):
    """A real 2 x 1 x 2 slice whose Fourier faces have magnitudes 1 and
    ``small``, a power of two, so both faces are exact."""
    return Tensor3(np.array([[[(1 + small) / 2, (1 - small) / 2]], [[0.0, 0.0]]]))


def test_slice_normalize_gates_the_divisor():
    # <Y, Y> has Fourier entries 1 and 2**-54 (about 5.6e-17), but the
    # divisor applied is its square root, 1 and 2**-27 (about 7.5e-9), which
    # tube_div accepts as well
    y = _two_face_slice(2.0**-27)
    x, a = slice_normalize(y)
    assert_allclose(a.fourier_values, [1.0, 2.0**-27], rtol=1e-15)
    assert_allclose(tube_div(a, a).values, unit_tube(2).values, atol=1e-12)
    assert (slice_inner(x, x) - unit_tube(2)).norm() <= 1e-10
    assert tensor_tube_mul(x, a).allclose(y, rtol=1e-10, atol=1e-20)
    # the gate still fails a divisor entry below it, and reports that entry
    with pytest.raises(NearSingularTube) as info:
        slice_normalize(_two_face_slice(2.0**-47))
    assert info.value.face_index == 1 and info.value.magnitude == 2.0**-47


def test_slice_normalize_nan_gate(rng):
    data = random_tensor(rng, 3, 1, 4).data.copy()
    data[1, 0, 2] = np.nan
    with pytest.raises(NearSingularTube) as info:
        slice_normalize(Tensor3(data))
    assert info.value.face_index == 0 and np.isnan(info.value.magnitude)


def test_f_diagonal_builder(rng):
    tubes = [Tube(rng.standard_normal(3)) for _ in range(2)]
    d = f_diagonal(tubes)
    faces = d.fourier_faces()
    for k in range(3):
        off = faces[k] - np.diag(np.diag(faces[k]))
        assert np.abs(off).max() <= 1e-14


def test_tensor_power(rng):
    a = random_tensor(rng, 3, 3, 2)
    assert (a**0).allclose(identity(3, 2))
    assert (a**1).allclose(a, rtol=1e-12)
    assert (a**3).allclose(t_product(t_product(a, a), a), rtol=1e-10)
