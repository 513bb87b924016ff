"""Tube arithmetic, the scalar ring of t-product tensor algebra.

A tube is an ordered fiber of n complex numbers. Under entrywise addition
and circular convolution the tubes of a fixed length form a commutative
ring whose identity is the unit tube (1, 0, ..., 0). Products and
quotients are evaluated entrywise in the Fourier domain. The forward DFT
is unnormalized and the inverse carries the 1/n factor, i.e. the numpy
``fft``/``ifft`` convention; every other module inherits this choice.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NearSingularTube

#: Relative floor below which a Fourier entry of a divisor is treated as zero.
SINGULARITY_EPS = 1e-13


class Tube:
    """Immutable length-n fiber of spatial entries.

    Arithmetic is defined between tubes of equal length; the Fourier
    entries are computed on demand and cached.
    """

    __slots__ = ("_values", "_fourier")

    def __init__(self, values):
        arr = np.array(values, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"tube values must be 1-d, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("a tube needs at least one entry")
        arr.setflags(write=False)
        self._values = arr
        self._fourier = None

    @property
    def values(self):
        """The spatial entries."""
        return self._values

    spatial_values = values

    @property
    def n(self):
        return self._values.size

    @property
    def is_real(self):
        """True when the spatial entries carry no imaginary part."""
        return not np.any(self._values.imag)

    @property
    def fourier_values(self):
        if self._fourier is None:
            f = np.fft.fft(self._values)
            f.setflags(write=False)
            self._fourier = f
        return self._fourier

    def norm(self):
        return tube_norm(self)

    def _compat(self, other):
        if self.n != other.n:
            raise DimensionMismatch("tubes", self.n, other.n)

    def __add__(self, other):
        if not isinstance(other, Tube):
            return NotImplemented
        self._compat(other)
        return Tube(self._values + other._values)

    def __sub__(self, other):
        if not isinstance(other, Tube):
            return NotImplemented
        self._compat(other)
        return Tube(self._values - other._values)

    def __neg__(self):
        return Tube(-self._values)

    def __mul__(self, other):
        if isinstance(other, Tube):
            return tube_mul(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return Tube(self._values * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tube):
            return tube_div(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return Tube(self._values / other)
        return NotImplemented

    def __pow__(self, k):
        return tube_pow(self, k)

    def __eq__(self, other):
        if not isinstance(other, Tube):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    __hash__ = None

    def __repr__(self):
        return f"Tube({np.array2string(self._values, precision=4)})"


def unit_tube(n):
    """The multiplicative identity: one in the first entry, zeros after."""
    v = np.zeros(n, dtype=np.complex128)
    v[0] = 1.0
    return Tube(v)


def tube_mul(a, b):
    """Tube product: circular convolution, evaluated entrywise in Fourier.

    Commutative, with the unit tube as identity. Real operands produce a
    real result through the half-spectrum transform.
    """
    a._compat(b)
    if a.is_real and b.is_real:
        vals = np.fft.irfft(
            np.fft.rfft(a.values.real) * np.fft.rfft(b.values.real), n=a.n
        )
        return Tube(vals)
    return Tube(np.fft.ifft(a.fourier_values * b.fourier_values))


def _divisor_ok(mags):
    """Whether a divisor passes the gate: every Fourier magnitude along the
    last axis of ``mags`` above ``SINGULARITY_EPS * max(1, the largest)``,
    a NaN magnitude failing. One flag per divisor of a (..., n) batch."""
    lo = np.minimum.reduce(mags, -1)
    # eps * max(1, top) == max(eps, eps * top): rounding is monotone
    return (lo > SINGULARITY_EPS) & (lo > SINGULARITY_EPS * np.maximum.reduce(mags, -1))


def _check_divisor(mags):
    """Raise :class:`NearSingularTube` for the first divisor in ``mags``,
    one divisor or a (..., n) batch, that fails :func:`_divisor_ok`; it
    names that divisor's smallest entry, or its first NaN entry."""
    ok = _divisor_ok(mags)
    if ok.ndim:
        i = ok.ravel().argmin()
        ok, mags = ok.flat[i], mags.reshape(-1, mags.shape[-1])[i]
    if not ok:
        worst = int(np.argmin(mags))
        gate = SINGULARITY_EPS * max(1.0, float(np.maximum.reduce(mags)))
        raise NearSingularTube(worst, float(mags[worst]), gate)


def tube_div(a, b):
    """Tube quotient: entrywise division in the Fourier domain.

    Raises :class:`NearSingularTube` when any Fourier entry of ``b`` falls
    below ``SINGULARITY_EPS * max(1, max |b_hat|)``.
    """
    a._compat(b)
    bf = b.fourier_values
    _check_divisor(np.abs(bf))
    vals = np.fft.ifft(a.fourier_values / bf)
    if a.is_real and b.is_real:
        vals = vals.real
    return Tube(vals)


def tube_pow(t, k):
    """Integer power under the tube product; negative powers invert first."""
    if not isinstance(k, (int, np.integer)):
        raise TypeError("tube powers must be integers")
    if k == 0:
        return unit_tube(t.n)
    base = t if k > 0 else tube_div(unit_tube(t.n), t)
    vals = np.fft.ifft(base.fourier_values ** abs(k))
    if base.is_real:
        vals = vals.real
    return Tube(vals)


def tube_norm(t):
    """Frobenius norm of the spatial entries."""
    return float(np.linalg.norm(t.spatial_values))


def tube_conj_t(t):
    """Conjugate transpose of a tube: conjugate, then reverse entries 2..n."""
    v = t.spatial_values
    out = np.conj(np.concatenate([v[:1], v[:0:-1]]))
    return Tube(out)


def conjugate_even(values, tol=1e-10, columns=False):
    """Whether Fourier values indexed along axis 0 (a tube, or a stack of
    Fourier faces) have the symmetry of a real signal's DFT.

    Entry 0 must be real and entry j the conjugate of entry n - j, within
    ``tol`` scaled by the largest entry magnitude (at least 1). Non-finite
    entries (NaN, inf) fail the test. ``columns=True`` tests each column of
    an (n, k) array on its own, scaled by that column's largest entry, and
    returns one flag per column.
    """
    v = np.asarray(values)
    axis = 0 if columns else None
    bound = tol * np.maximum(1.0, np.abs(v).max(axis=axis))
    with np.errstate(invalid="ignore"):  # inf - inf; non-finite fails anyway
        even = (
            np.isfinite(v).all(axis=axis)
            & (np.abs(v[:1].imag) <= bound).all(axis=axis)
            & (np.abs(v[1:].conj() - v[:0:-1]) <= bound).all(axis=axis)
        )
    return even if columns else bool(even)
