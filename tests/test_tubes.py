import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import circ_conv_oracle, dft_oracle
from tubal import (
    DimensionMismatch,
    NearSingularTube,
    Tube,
    conjugate_even,
    tube_conj_t,
    tube_div,
    tube_mul,
    tube_norm,
    tube_pow,
    unit_tube,
)
from tubal.tubes import _check_divisor, _divisor_ok


def test_fft_unit_tube_is_all_ones():
    assert_allclose(unit_tube(3).fourier_values, np.ones(3))


def test_fft_two_point_by_hand():
    # F_2 = [[1, 1], [1, -1]]
    assert_allclose(Tube([0, 1]).fourier_values, [1, -1])
    assert_allclose(Tube([2, 3]).fourier_values, [5, -1])


def test_fft_matches_explicit_dft_oracle(rng):
    for n in (1, 2, 3, 8, 13):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(Tube(v).fourier_values, dft_oracle(v), atol=1e-12)


def test_fft_roundtrip():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 16):
        t = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        back = np.fft.ifft(t.fourier_values)
        err = np.linalg.norm(back - t.values) / np.linalg.norm(t.values)
        assert err <= 1e-12
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        again = Tube(np.fft.ifft(f)).fourier_values
        err = np.linalg.norm(again - f) / np.linalg.norm(f)
        assert err <= 1e-12


def test_mul_identity():
    rng = np.random.default_rng(3)
    b = Tube(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    assert_allclose(tube_mul(unit_tube(5), b).values, b.values, atol=1e-14)


def test_mul_frozen_examples():
    # values computed with the circular convolution oracle
    assert_allclose(tube_mul(Tube([0, 1]), Tube([2, 3])).values, [3, 2], atol=1e-14)
    assert_allclose(
        tube_mul(Tube([1, 1, 1]), Tube([1, 1, 1])).values, [3, 3, 3], atol=1e-14
    )


def test_mul_matches_convolution_oracle(rng):
    for n in range(1, 17):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(
            tube_mul(Tube(a), Tube(b)).values, circ_conv_oracle(a, b), atol=1e-12
        )


def test_mul_length_mismatch():
    with pytest.raises(DimensionMismatch):
        tube_mul(Tube([1, 2]), Tube([1, 2, 3]))


def test_div_by_identity():
    a = Tube([1.5, -2.0, 0.25])
    assert_allclose(tube_div(a, unit_tube(3)).values, a.values, atol=1e-14)


def test_div_inverts_mul():
    # inverse of the frozen product example
    assert_allclose(tube_div(Tube([3, 2]), Tube([2, 3])).values, [0, 1], atol=1e-14)
    rng = np.random.default_rng(5)
    for n in (2, 4, 7):
        a = Tube(rng.standard_normal(n))
        b = Tube(rng.standard_normal(n) + 3.0 * (np.arange(n) == 0))
        q = tube_div(a, b)
        back = tube_mul(q, b)
        assert np.linalg.norm(back.values - a.values) <= 1e-10 * tube_norm(a)


def test_div_zero_tube_rejected():
    with pytest.raises(NearSingularTube) as info:
        tube_div(Tube([1, 2]), Tube([0, 0]))
    assert info.value.face_index in (0, 1)


def test_div_nan_tube_rejected():
    # a NaN spatial entry makes every Fourier entry NaN; the gate must not
    # let it through as a quotient of NaNs
    with pytest.raises(NearSingularTube) as info:
        tube_div(Tube([1, 2, 3]), Tube([np.nan, 1, 1]))
    assert info.value.face_index == 0 and np.isnan(info.value.magnitude)


def test_divisor_gate_names_first_nan_face():
    with pytest.raises(NearSingularTube) as info:
        _check_divisor(np.array([3.0, 1.0, np.nan, 0.0, np.nan]))
    assert info.value.face_index == 2


def test_divisor_gate_on_a_batch():
    # one flag per divisor along the last axis, each as the single-divisor
    # gate min > 1e-13 * max(1, max) decides it, boundary values included;
    # the error names the first failing divisor's smallest entry
    mags = np.array([[3.0, 1.0, 2.0], [3.0, 1e-14, 2.0], [np.nan, 1.0, 1.0],
                     [2e-13, 0.5, 0.5], [2e-13, 4.0, 1.0], [1e-13, 0.5, 1.0],
                     [2e-13, 2.0, 1.0], [0.0, 0.0, 0.0]])
    want = [m.min() > 1e-13 * max(1.0, m.max()) for m in mags]
    assert _divisor_ok(mags).tolist() == want == [True] + [False] * 2 + [True] + [False] * 4
    assert _divisor_ok(mags[:, None]).shape == (8, 1)
    with pytest.raises(NearSingularTube) as info:
        _check_divisor(mags)
    assert info.value.face_index == 1 and info.value.magnitude == 1e-14
    assert info.value.gate == 1e-13 * 3.0
    _check_divisor(mags[[0, 3]])


def test_norms():
    assert tube_norm(unit_tube(4)) == 1.0
    assert tube_norm(Tube([3, 4])) == 5.0
    prod = tube_mul(Tube([0, 1]), Tube([2, 3]))
    assert_allclose(tube_norm(prod), np.sqrt(13.0))


def test_parseval():
    rng = np.random.default_rng(11)
    for n in (1, 3, 8):
        t = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = tube_norm(t) ** 2
        rhs = np.sum(np.abs(t.fourier_values) ** 2) / n
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_conjugate_even_checks():
    assert conjugate_even(Tube([1, 2, 3]).fourier_values)
    assert not conjugate_even([1, 1j])
    # complex input breaks the symmetry; checked against the explicit DFT
    f = dft_oracle([1 + 1j, 0, 0])
    assert not conjugate_even(f)


def test_conjugate_even_stack_and_nan():
    rng = np.random.default_rng(12)
    for n in (1, 4, 5):
        stack = np.fft.fft(rng.standard_normal((n, 3, 2)), axis=0)
        assert conjugate_even(stack)
        bent = stack.copy()
        bent[n // 2] += 1e-6j
        assert not conjugate_even(bent)
        bent[n // 2] = complex(np.nan, np.nan)
        assert not conjugate_even(bent)
    assert not conjugate_even([1, np.nan, 1])
    assert not conjugate_even([np.nan, 1, 1])
    assert not conjugate_even([np.inf, 1, 1])


def test_real_tubes_stay_real_through_mul_div():
    rng = np.random.default_rng(2)
    a = Tube(rng.standard_normal(6))
    b = Tube(rng.standard_normal(6) + 2.0 * (np.arange(6) == 0))
    assert tube_mul(a, b).is_real
    assert tube_div(a, b).is_real


def test_ring_axioms():
    rng = np.random.default_rng(99)
    for n in (1, 2, 3, 8):
        for _ in range(20):
            a = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            b = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            c = Tube(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            scale = max(1.0, tube_norm(a) * tube_norm(b) * tube_norm(c))
            assoc = tube_mul(tube_mul(a, b), c) - tube_mul(a, tube_mul(b, c))
            assert tube_norm(assoc) <= 1e-12 * scale
            comm = tube_mul(a, b) - tube_mul(b, a)
            assert tube_norm(comm) <= 1e-12 * scale
            dist = tube_mul(a, b + c) - (tube_mul(a, b) + tube_mul(a, c))
            assert tube_norm(dist) <= 1e-12 * scale


def test_n_equals_one_degenerates_to_scalars():
    a = Tube([2.0 + 1.0j])
    b = Tube([-0.5 + 0.25j])
    assert tube_mul(a, b).values[0] == (2.0 + 1.0j) * (-0.5 + 0.25j)
    # complex division rounds differently across implementations; demand ulp level
    want = (2.0 + 1.0j) / (-0.5 + 0.25j)
    assert abs(tube_div(a, b).values[0] - want) <= 1e-15 * abs(want)
    assert a.fourier_values[0] == a.values[0]


def test_conj_transpose_tube():
    t = Tube([1 + 1j, 2, 3 - 1j, 4])
    th = tube_conj_t(t)
    assert_allclose(th.values, np.conj([1 + 1j, 4, 3 - 1j, 2]))
    # Fourier image of the conjugate transpose is the entrywise conjugate
    assert_allclose(th.fourier_values, np.conj(t.fourier_values), atol=1e-12)


def test_tube_powers():
    rng = np.random.default_rng(4)
    t = Tube(rng.standard_normal(4) + 2.0 * (np.arange(4) == 0))
    cube = tube_mul(tube_mul(t, t), t)
    assert np.linalg.norm(tube_pow(t, 3).values - cube.values) <= 1e-12 * tube_norm(cube)
    assert tube_pow(t, 0) == unit_tube(4)
    inv = tube_pow(t, -1)
    assert tube_norm(tube_mul(inv, t) - unit_tube(4)) <= 1e-12


def test_equality_uses_spatial_values():
    t = Tube([1.0, 2.0, 3.0])
    assert t == Tube([1.0, 2.0, 3.0])
    assert t != Tube([1.0, 2.0, 4.0])
