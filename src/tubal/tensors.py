"""Dense third-order tensors and the FFT-based t-product.

A :class:`Tensor3` holds an l x p x n complex array indexed (row, column,
tube entry). Frontal faces are the l x p matrices at fixed third index;
their images under the mode-3 DFT are the "Fourier faces" on which every
facewise algorithm operates, stacked by :func:`_face_stack` and mapped back
by :func:`_from_face_stack`. The t-product of two tensors is the tensor
whose Fourier faces are the matrix products of the operands' Fourier
faces; it coincides with fold(bcirc(A) @ unfold(B)), and that
block-circulant route is kept here as a reference oracle since the
production path never materializes the circulant matrix.

Lateral slices (tensor columns, p == 1) and ordered sets of them are
represented as plain :class:`Tensor3` values of the appropriate shape.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .tubes import Tube, _check_divisor

#: bcirc materialization guard: (l*n) * (p*n) entries at most.
BCIRC_ENTRY_CAP = 10**6


class Tensor3:
    """Immutable l x p x n complex tensor with an advisory reality flag.

    ``real=None`` infers the flag from the data; ``real=True`` asserts that
    every entry has zero imaginary part and fails otherwise. Operations
    between two real tensors stay real through the half-spectrum transform.
    """

    __slots__ = ("_data", "_real")

    def __init__(self, data, real=None):
        arr = np.array(data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValueError(f"tensor data must be 3-d, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
        detected = not np.any(arr.imag)
        if real is None:
            real = detected
        elif real and not detected:
            raise ValueError("real=True but the data carries imaginary parts")
        arr.setflags(write=False)
        self._data = arr
        self._real = bool(real)

    @property
    def data(self):
        return self._data

    @property
    def shape(self):
        return self._data.shape

    @property
    def l(self):
        return self._data.shape[0]

    @property
    def p(self):
        return self._data.shape[1]

    @property
    def n(self):
        return self._data.shape[2]

    @property
    def is_real(self):
        return self._real

    def face(self, k):
        """The k-th frontal slice as an l x p matrix."""
        return np.array(self._data[:, :, k])

    def lateral(self, j):
        """The j-th tensor column as an l x 1 x n tensor."""
        return Tensor3(self._data[:, j : j + 1, :], real=self._real)

    def fourier_faces(self):
        """All n Fourier faces stacked as an (n, l, p) array."""
        return _face_stack(self, False)

    @classmethod
    def from_fourier_faces(cls, stack, real=False):
        """Inverse of :meth:`fourier_faces`; ``real=True`` drops the
        roundoff imaginary residue a conjugate-even stack leaves behind."""
        data = _from_face_stack(np.asarray(stack), len(stack), False)
        return cls(data.real if real else data)

    def frob_norm(self):
        return float(np.linalg.norm(self._data))

    def allclose(self, other, rtol=1e-10, atol=1e-12):
        return self.shape == other.shape and bool(
            np.allclose(self._data, other._data, rtol=rtol, atol=atol)
        )

    def __add__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch("shape", self.shape, other.shape)
        return Tensor3(self._data + other._data)

    def __sub__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch("shape", self.shape, other.shape)
        return Tensor3(self._data - other._data)

    def __neg__(self):
        return Tensor3(-self._data, real=self._real)

    def __mul__(self, other):
        if isinstance(other, Tensor3):
            return t_product(self, other)
        if isinstance(other, Tube):
            return tensor_tube_mul(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return Tensor3(self._data * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Tube):
            # a tensor commutes with a tube
            return tensor_tube_mul(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return Tensor3(self._data * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Tube):
            return tensor_tube_div(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return Tensor3(self._data / other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise TypeError("tensor powers must be nonnegative integers")
        _check_square(self)
        if k == 0:
            return identity(self.p, self.n)
        out = np.linalg.matrix_power(_face_stack(self, self._real), k)
        return Tensor3(_from_face_stack(out, self.n, self._real))

    def __repr__(self):
        tag = "real" if self._real else "complex"
        return f"Tensor3(shape={self.shape}, {tag})"


def _check_square(a):
    """Raise :class:`DimensionMismatch` (axis ``"rows"``) unless ``a`` has
    as many rows as columns."""
    if a.l != a.p:
        raise DimensionMismatch("rows", a.l, a.p)


def _check_finite(*tensors):
    """Raise :class:`NonFiniteInput` unless every entry of ``tensors`` is
    finite: a NaN or infinity hangs LAPACK's SVD or runs a solver to its cap."""
    if not all(np.isfinite(t.data).all() for t in tensors):
        raise NonFiniteInput("input tensors must be finite")


# ---------------------------------------------------------------------------
# constructors


def zeros(l, p, n):
    return Tensor3(np.zeros((l, p, n)))


def identity(p, n):
    """Identity tensor: first frontal face is I, the rest are zero."""
    data = np.zeros((p, p, n))
    data[:, :, 0] = np.eye(p)
    return Tensor3(data)


def canonical_slice(l, j, n):
    """Canonical tensor column: one at entry (j, 1, 1), zeros elsewhere."""
    data = np.zeros((l, 1, n))
    data[j, 0, 0] = 1.0
    return Tensor3(data)


def f_diagonal(tubes, l=None):
    """Tensor with the given tubes on the diagonal and zeros elsewhere.

    The result is f-diagonal, i.e. every Fourier face is a diagonal matrix.
    """
    p = len(tubes)
    n = tubes[0].n
    rows = l if l is not None else p
    data = np.zeros((rows, p, n), dtype=np.complex128)
    for i, t in enumerate(tubes):
        if t.n != n:
            raise DimensionMismatch("tubes", n, t.n)
        data[i, i, :] = t.spatial_values
    return Tensor3(data)


def concat_lateral(slices):
    """Stack lateral slices side by side into an l x m x n tensor."""
    if not slices:
        raise ValueError("need at least one slice")
    data = np.concatenate([s.data for s in slices], axis=1)
    return Tensor3(data)


# ---------------------------------------------------------------------------
# transforms and norms


def _face_stack(t, half):
    """Fourier faces of ``t`` as a contiguous (faces, l, p) stack: all n of
    them, or with ``half`` (a real tensor) the leading n // 2 + 1 by the
    real-input transform; the other faces are their conjugates."""
    fft, data = (np.fft.rfft, t.data.real) if half else (np.fft.fft, t.data)
    return np.ascontiguousarray(np.moveaxis(fft(data, axis=2), 2, 0))


def _from_face_stack(stack, n, half):
    """The spatial (l, p, n) array whose Fourier faces are ``stack``, an
    inverse of :func:`_face_stack`; with ``half`` exactly real."""
    data = stack.transpose(1, 2, 0)
    return np.fft.irfft(data, n=n, axis=2) if half else np.fft.ifft(data, axis=2)


def fft3(a):
    """DFT of every tube of the tensor (mode-3, unnormalized forward)."""
    return Tensor3(np.fft.fft(a.data, axis=2))


def ifft3(a):
    return Tensor3(np.fft.ifft(a.data, axis=2))


def parseval_weights(n, faces):
    """Weights w_f of the Fourier faces in Parseval's sum ||A||_F^2 =
    sum_f w_f ||A_hat_f||_F^2 for a tensor with n tube entries: 1 / n on
    each of all n faces; when only the leading ``faces`` = n // 2 + 1 of a
    real tensor are kept, faces 1 .. (n - 1) // 2 also stand for their
    conjugate partners and weigh 2 / n."""
    weights = np.full(faces, 1.0 / n)
    if faces != n:
        weights[1 : (n + 1) // 2] *= 2.0
    return weights


def parseval_norms(weights, *blocks):
    """Frobenius norms of the spatial tensors whose Fourier faces are the
    nonempty ``blocks``, from one weighted Parseval reduction.

    Each block is a (faces, rows, cols) stack or a (faces,) column, with one
    face per entry of ``weights`` (see :func:`parseval_weights`), or a batch
    of them shaped (..., faces, rows, cols); the blocks of one call share
    their leading batch dimensions. The blocks are laid side by side as
    (..., faces, k) complex columns, viewed as real and imaginary parts, and
    ``weights @ (x * x)`` sums every column over the faces at once; the
    columns of each block then add up to its squared norm. Returns the list
    of norms, or for a batch one such list per batch entry.
    """
    return _parseval_norms(weights, *blocks).tolist()


def _parseval_norms(weights, *blocks):
    """:func:`parseval_norms` as an array, shaped (..., blocks)."""
    shape = (*blocks[0].shape[:-3], len(weights), -1)
    cols = [b.reshape(shape) for b in blocks]
    # a lone block with F-ordered faces concatenates to an F-ordered copy
    x = np.concatenate(cols, axis=-1, dtype=np.complex128)
    x = np.ascontiguousarray(x).view(np.float64)
    starts = [0]
    for c in cols[:-1]:
        starts.append(starts[-1] + 2 * c.shape[-1])
    return np.sqrt(np.add.reduceat(weights @ (x * x), starts, axis=-1))


def fourier_norm(stack, n):
    """Frobenius norm of the spatial tensor with the given Fourier faces, by
    Parseval.

    ``stack`` is (faces, l, p) and holds either all n faces or, for a real
    tensor, the leading n // 2 + 1 of them (see :func:`parseval_weights`).
    """
    return parseval_norms(parseval_weights(n, len(stack)), stack)[0]


def inner_product(a, b):
    """Entrywise inner product sum(A * conj(B)) as a complex scalar."""
    if a.shape != b.shape:
        raise DimensionMismatch("shape", a.shape, b.shape)
    return complex(np.vdot(b.data, a.data))


# ---------------------------------------------------------------------------
# block-circulant reference machinery


def unfold(a):
    """Stack the frontal faces vertically into an (l*n) x p matrix."""
    return np.moveaxis(a.data, 2, 0).reshape(a.l * a.n, a.p)


def fold(mat, l, n):
    """Inverse of :func:`unfold`."""
    mat = np.asarray(mat)
    p = mat.shape[1]
    if mat.shape[0] != l * n:
        raise DimensionMismatch("rows", mat.shape[0], l * n)
    return Tensor3(np.moveaxis(mat.reshape(n, l, p), 0, 2))


def bcirc(a):
    """Materialize the block circulant matrix of the frontal faces.

    Block (i, j) is face (i - j) mod n. Kept for oracle and test use only;
    sizes beyond ``BCIRC_ENTRY_CAP`` entries are refused.
    """
    l, p, n = a.shape
    if (l * n) * (p * n) > BCIRC_ENTRY_CAP:
        raise ValueError(
            f"bcirc of shape {a.shape} would exceed {BCIRC_ENTRY_CAP} entries"
        )
    out = np.empty((l * n, p * n), dtype=np.complex128)
    for bi in range(n):
        for bj in range(n):
            out[bi * l : (bi + 1) * l, bj * p : (bj + 1) * p] = a.data[
                :, :, (bi - bj) % n
            ]
    return out


def t_product_reference(a, b):
    """Definition-path t-product fold(bcirc(A) @ unfold(B)).

    Quadratic in n; serves as the independent oracle for the FFT path.
    """
    _check_product_dims(a, b)
    out = fold(bcirc(a) @ unfold(b), a.l, a.n)
    if a.is_real and b.is_real:
        out = Tensor3(out.data.real)
    return out


# ---------------------------------------------------------------------------
# the t-product and friends


def _check_product_dims(a, b):
    if a.n != b.n:
        raise DimensionMismatch("tubes", a.n, b.n)
    if a.p != b.l:
        raise DimensionMismatch("inner", a.p, b.l)


def t_product(a, b):
    """t-product via facewise matrix products in the Fourier domain.

    When both operands are real only the first floor(n/2) + 1 Fourier faces
    are formed; the remaining faces follow by conjugate symmetry and the
    result is exactly real.
    """
    _check_product_dims(a, b)
    half = a.is_real and b.is_real
    fc = _face_stack(a, half) @ _face_stack(b, half)
    return Tensor3(_from_face_stack(fc, a.n, half))


def conj_transpose(a):
    """Conjugate transpose: transpose and conjugate each frontal face, then
    reverse the order of faces 2 through n."""
    d = np.conj(np.transpose(a.data, (1, 0, 2)))
    idx = np.concatenate([[0], np.arange(a.n - 1, 0, -1)])
    return Tensor3(d[:, :, idx], real=a.is_real)


def tensor_tube_mul(a, b):
    """Scale a tensor by a tube: Fourier face i is multiplied by b_hat[i].

    Commutes with the tensor, so ``a * b == b * a``.
    """
    if not isinstance(b, Tube):
        raise TypeError("expected a Tube")
    if a.n != b.n:
        raise DimensionMismatch("tubes", a.n, b.n)
    half = a.is_real and b.is_real
    bh = (np.fft.rfft(b.spatial_values.real) if half else b.fourier_values)[:, None, None]
    return Tensor3(_from_face_stack(_face_stack(a, half) * bh, a.n, half))


def tensor_tube_div(a, b):
    """Divide a tensor by a tube, entrywise across Fourier faces.

    Subject to the same singularity gate as the tube quotient.
    """
    if not isinstance(b, Tube):
        raise TypeError("expected a Tube")
    if a.n != b.n:
        raise DimensionMismatch("tubes", a.n, b.n)
    bf = b.fourier_values
    _check_divisor(np.abs(bf))
    fa = np.fft.fft(a.data, axis=2)
    data = np.fft.ifft(fa / bf, axis=2)
    if a.is_real and b.is_real:
        data = data.real
    return Tensor3(data)


# ---------------------------------------------------------------------------
# lateral slices


def _check_lateral(x):
    if x.p != 1:
        raise DimensionMismatch("columns", x.p, 1)


def slice_inner(x, y):
    """Bilinear form <X, Y> = X^H * Y of two lateral slices, a tube."""
    _check_lateral(x)
    _check_lateral(y)
    if x.l != y.l:
        raise DimensionMismatch("rows", x.l, y.l)
    if x.n != y.n:
        raise DimensionMismatch("tubes", x.n, y.n)
    fx = np.fft.fft(x.data[:, 0, :], axis=1)
    fy = np.fft.fft(y.data[:, 0, :], axis=1)
    vals = np.fft.ifft(np.sum(np.conj(fx) * fy, axis=0))
    if x.is_real and y.is_real:
        vals = vals.real
    return Tube(vals)


def slice_normalize(y):
    """Split a nonvanishing slice as Y = X * a with <X, X> equal to the
    unit tube, hence slice norm one.

    The scaling tube has the nonnegative Fourier entries sqrt of <Y, Y>.
    Raises :class:`NearSingularTube` when such an entry, the divisor, fails
    the gate of :func:`tube_div`.
    """
    _check_lateral(y)
    fy = np.fft.fft(y.data[:, 0, :], axis=1)
    a_hat = np.sqrt(np.sum(np.abs(fy) ** 2, axis=0))
    _check_divisor(a_hat)
    fx = fy / a_hat
    xdata = np.fft.ifft(fx, axis=1)
    avals = np.fft.ifft(a_hat)
    if y.is_real:
        xdata = xdata.real
        avals = avals.real
    x = Tensor3(xdata[:, None, :])
    return x, Tube(avals)


def slice_norm(y):
    """Slice norm ||<Y, Y>||_F / ||Y||_F."""
    _check_lateral(y)
    g = slice_inner(y, y)
    return g.norm() / y.frob_norm()


# ---------------------------------------------------------------------------
# triangular mask in the Fourier domain


def f_tril(a, strict=False):
    """Keep the lower triangular portion of every Fourier face.

    ``strict=True`` drops the diagonal as well.
    """
    mask = np.tril(np.ones((a.l, a.p)), k=-1 if strict else 0)
    return Tensor3(_from_face_stack(_face_stack(a, a.is_real) * mask, a.n, a.is_real))
