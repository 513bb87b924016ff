"""Tensor factorizations computed facewise in the Fourier domain.

Each factorization applies the corresponding dense matrix routine to every
face of the stack from :func:`~tubal.tensors._face_stack` and transforms
the factors back with :func:`~tubal.tensors._from_face_stack`. For real
tensors that stack holds only the leading n // 2 + 1 faces (``rfft``); the
rest are their conjugates, so the spatial factors come out exactly real,
and per-face values that become tubes are mirrored to all n faces.
Eigenslices of a real tensor for a complex eigentube take all n faces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from numpy.linalg._umath_linalg import qr_complete, qr_r_raw, qr_reduced

from .errors import (
    DefectiveFace,
    DimensionMismatch,
    NotAnEigentube,
    SingularFace,
)
from .tensors import (
    Tensor3, _check_finite, _check_square, _face_stack, _from_face_stack, identity,
    tensor_tube_mul,
)
from .tubes import Tube, conjugate_even

#: Relative window within which face eigenvalue magnitudes count as tied.
TIE_RTOL = 1e-12

#: Below this relative size a singular value counts as zero (null space gate).
NULL_RTOL = 1e-10

#: Facewise pivot gate for the LU factorization.
LU_PIVOT_RTOL = 1e-13


def _stitch(stack, a):
    """The spatial tensor whose Fourier faces are ``stack``, a
    :func:`_face_stack`-shaped result computed from ``a``."""
    return Tensor3(_from_face_stack(stack, a.n, a.is_real))


def _mirror(values, n):
    """All n entries (axis 0) of per-face values computed on leading faces:
    entry f >= half is the conjugate of entry n - f. A full set passes
    through."""
    half = len(values)
    if half == n:
        return values
    return np.concatenate([values, np.conj(values[n - half : 0 : -1])])


def _first_bad_face(bad):
    """Index of the first True entry of a per-face flag vector, or None."""
    return int(np.argmax(bad)) if bad.any() else None


def _lateral_slices(vecs, n, half):
    """The k lateral slices of a (k, faces, l) stack ``vecs``: slice j has
    Fourier face f ``vecs[j, f]``, rotated so its largest entry (the first
    of ties) is real positive, which makes the slices deterministic. With
    ``half`` (leading faces of a real tensor) they are exactly real."""
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=2)[:, :, None], axis=2)
    # hypot rounds like the scalar abs; numpy's vectorized complex abs can
    # differ from it in the last bit. It is never 0: the vectors are unit.
    mag = np.hypot(pivot.real, pivot.imag)
    data = _from_face_stack(np.moveaxis(vecs * (np.conj(pivot) / mag), 0, 2), n, half)
    return [Tensor3(data[:, j : j + 1]) for j in range(len(vecs))]


def _maybe_real_tubes(cols_hat):
    """Tubes whose Fourier entries are the columns of the (n, k) array
    ``cols_hat``, from one inverse transform; each is snapped to real when
    its column is conjugate-even within 1e-13 of its largest entry."""
    spat = np.fft.ifft(cols_hat, axis=0)
    even = conjugate_even(cols_hat, tol=1e-13, columns=True)
    return [Tube(col.real if e else col) for col, e in zip(spat.T, even)]


# ---------------------------------------------------------------------------
# t-QR


@dataclass
class TQrResult:
    """f-orthogonal Q and f-upper-triangular R with A = Q * R."""

    q: Tensor3
    r: Tensor3


def _qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


#: ``np.linalg.qr``'s error handling: a failed LAPACK call raises LinAlgError.
_QR_ERRSTATE = dict(call=_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore")
_TINY = np.finfo(float).tiny


@functools.cache
def _strictly_lower(rows, cols):
    return np.tri(rows, cols, -1, dtype=bool)


def facewise_qr(stack, mode):
    """QR of every face of an (faces, l, p) stack in one batched call.

    ``mode`` is ``"complete"`` or ``"reduced"`` as for
    :func:`numpy.linalg.qr`. Each face pair is normalized so the diagonal
    of R is real nonnegative, which makes it unique, gives conjugate faces
    conjugate factors, and keeps the iterates of methods built on this
    kernel bit-stable. Returns complex Q and R.

    LAPACK's QR (``geqrf``, then ``orgqr`` / ``ungqr``) runs through the
    gufuncs behind ``np.linalg.qr``, one call each for the whole stack, with
    that function's error handling but not its wrapper costs: float64 and
    complex128 stacks get its factors bit for bit. Single-precision stacks
    are factored in double precision and not rounded back. Subspace
    iteration calls the two gufuncs itself, without the phase fix, which its
    backward error test does not need.
    """
    if mode not in ("complete", "reduced"):
        raise ValueError(f"unknown QR mode {mode!r}")
    # a copy: geqrf overwrites its input with R and the reflectors
    a = np.array(stack, dtype=complex if np.iscomplexobj(stack) else float)
    faces, rows, cols = a.shape
    full = mode == "complete" and rows > cols
    k = rows if full else min(rows, cols)
    q = np.empty((faces, rows, k), complex)
    with np.errstate(**_QR_ERRSTATE):
        tau = qr_r_raw(a)
        (qr_complete if full else qr_reduced)(a, tau, out=q)
    # the phase d / |d| of R's diagonal entry d, kept in the input's dtype
    # until R is built; 1 where it would overflow and past R's diagonal
    d = a.diagonal(0, 1, 2)
    mag = np.abs(d)
    phase = np.ones((faces, k), a.dtype)
    np.divide(d, mag, out=phase[:, : d.shape[1]], where=mag >= _TINY)
    q *= phase[:, None, :]
    r = np.where(_strictly_lower(k, cols), 0, a[:, :k])
    return q, np.conj(phase.astype(complex, copy=False))[:, :, None] * r


def t_qr(a, mode="complete"):
    """QR factorization of every Fourier face.

    ``mode="complete"`` returns Q of shape l x l x n and R of shape
    l x p x n; ``mode="reduced"`` returns the economy factors. The faces
    are factored by :func:`facewise_qr`, so the diagonal of R is real
    nonnegative.
    """
    _check_finite(a)
    qs, rs = facewise_qr(_face_stack(a, a.is_real), mode)
    return TQrResult(_stitch(qs, a), _stitch(rs, a))


# ---------------------------------------------------------------------------
# t-LU with partial pivoting


@dataclass
class TLuResult:
    """Factors of P * A = L * U with facewise partial pivoting.

    ``perm`` holds one permutation index vector per Fourier face
    (row ``perm[f][i]`` of the face lands in position ``i``); ``p`` is the
    dense tensor whose Fourier faces are those permutation matrices.
    """

    p: Tensor3
    l: Tensor3
    u: Tensor3
    perm: list = field(repr=False)


def t_lu(a):
    """LU with partial pivoting on every Fourier face.

    Raises :class:`SingularFace` when a face pivot falls below
    ``LU_PIVOT_RTOL`` times the face norm.
    """
    _check_square(a)
    _check_finite(a)
    stack = _face_stack(a, a.is_real)
    pm, ls, us = sla.lu(stack)
    pivots = np.abs(np.diagonal(us, axis1=1, axis2=2)).min(axis=1)
    # a NaN pivot counts as small
    gates = LU_PIVOT_RTOL * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    f = _first_bad_face(~(pivots > gates))
    if f is not None:
        raise SingularFace(f, f"pivot {pivots[f]:.3e}")
    # scipy returns A = pm @ L @ U, so the permutation applied to A is pm^T
    ps = np.swapaxes(pm, 1, 2)
    perm = list(_mirror(np.argmax(pm, axis=1), a.n))
    return TLuResult(_stitch(ps, a), _stitch(ls, a), _stitch(us, a), perm)


# ---------------------------------------------------------------------------
# t-Hessenberg


@dataclass
class THessResult:
    """f-unitary W and f-upper-Hessenberg H with H = W^H * A * W."""

    w: Tensor3
    h: Tensor3


def t_hess(a):
    """Reduce every Fourier face to upper Hessenberg form by a unitary
    similarity."""
    _check_square(a)
    _check_finite(a)
    # one call per face: a batched hessenberg is slower than this loop
    hs, ws = zip(*(sla.hessenberg(m, calc_q=True) for m in _face_stack(a, a.is_real)))
    return THessResult(_stitch(np.array(ws), a), _stitch(np.array(hs), a))


# ---------------------------------------------------------------------------
# t-SVD


@dataclass
class TSvdResult:
    """Singular tube decomposition A = U * S * V^H.

    ``singular_tubes`` are the diagonal tubes of S; ``singular_values``
    their Frobenius norms, nonincreasing.
    """

    u: Tensor3
    s: Tensor3
    v: Tensor3
    singular_tubes: list
    singular_values: np.ndarray


def t_svd(a):
    _check_finite(a)
    stack = _face_stack(a, a.is_real)
    us, sv, vhs = np.linalg.svd(stack)
    k = sv.shape[1]
    ss = np.zeros(stack.shape, dtype=np.complex128)
    ss[:, range(k), range(k)] = sv
    tubes = _maybe_real_tubes(_mirror(sv, a.n))
    sigma = np.array([t.norm() for t in tubes])
    vs = np.conj(np.swapaxes(vhs, 1, 2))
    return TSvdResult(_stitch(us, a), _stitch(ss, a), _stitch(vs, a), tubes, sigma)


# ---------------------------------------------------------------------------
# determinant and characteristic polynomial


def t_det(a):
    """Determinant tube: Fourier entry i is det of Fourier face i."""
    _check_square(a)
    _check_finite(a)
    dets = _mirror(np.linalg.det(_face_stack(a, a.is_real)), a.n)
    return _maybe_real_tubes(dets[:, None])[0]


def char_poly_eval(a, x):
    """Evaluate tdet(A - I * x) at the tube x."""
    _check_square(a)
    return t_det(a - tensor_tube_mul(identity(a.p, a.n), x))


# ---------------------------------------------------------------------------
# spectrum


def _block_ids(key, win):
    """Block number of each entry along the last axis of a descending
    ``key``: a new block starts where the key drops by more than ``win``."""
    return np.cumsum(-np.diff(key, axis=-1, prepend=key[..., :1]) > win, axis=-1)


def _sort_face_eigs(vals):
    """Sort each row of ``vals`` (the eigenvalues of one face) by
    descending magnitude. Magnitudes each within ``TIE_RTOL`` (times the
    row's largest, at least 1) of the one before form a block, sorted by
    descending real part; real parts likewise tied form a sub-block, sorted
    by descending imaginary part. The sorts are stable, and the real-part
    window orders a conjugate pair the same however its magnitudes round.
    """
    vals = np.asarray(vals, dtype=np.complex128)
    win = TIE_RTOL * np.maximum(1.0, np.abs(vals).max(axis=-1, keepdims=True))

    # hypot rounds like the scalar abs; numpy's vectorized complex abs can
    # differ from it in the last bit
    mag = np.hypot(vals.real, vals.imag)
    order = np.argsort(-mag, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    block = _block_ids(np.take_along_axis(mag, order, axis=-1), win)
    vals = np.take_along_axis(vals, np.lexsort((-vals.real, block), axis=-1), axis=-1)
    # ids that grow where either the magnitude or the real-part block ends
    block = block + _block_ids(vals.real, win)
    return np.take_along_axis(vals, np.lexsort((-vals.imag, block), axis=-1), axis=-1)


def _face_eigvals(stack):
    """Eigenvalues of every face of a square (faces, p, p) stack: one
    batched ``eigvalsh`` call on the faces that are Hermitian within 1e-13
    of their norm (at least 1), one batched ``eigvals`` call on the rest."""
    atol = 1e-13 * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    herm = np.isclose(
        stack, np.conj(np.swapaxes(stack, 1, 2)), rtol=0.0, atol=atol[:, None, None]
    ).all(axis=(1, 2))
    vals = np.empty(stack.shape[:2], dtype=np.complex128)
    if herm.any():
        vals[herm] = np.linalg.eigvalsh(stack[herm])
    if not herm.all():
        vals[~herm] = np.linalg.eigvals(stack[~herm])
    return vals


def facewise_sort_tubes(tubes):
    """Re-stitch a list of tubes so each Fourier face is magnitude sorted.

    This is the alignment convention for comparing computed eigentubes with
    a reference spectrum.
    """
    mat = np.stack([t.fourier_values for t in tubes], axis=1)  # (n, k)
    return _maybe_real_tubes(_sort_face_eigs(mat))


class EigentubeSpectrum:
    """All p eigentubes of a square tensor, facewise magnitude sorted.

    ``face_values[f, j]`` is the j-th largest eigenvalue of Fourier face f;
    eigentube j is the inverse transform of column j. Multiplicity queries
    are evaluated facewise and take the minimum over faces.
    """

    def __init__(self, eigentubes, face_values, faces):
        self.eigentubes = eigentubes
        self.face_values = face_values
        self._faces = faces

    @property
    def p(self):
        return self.face_values.shape[1]

    def _shifted_faces(self, j):
        lam = self.face_values[:, j]
        return self._faces - lam[:, None, None] * np.eye(self.p)

    def algebraic_f_multiplicity(self, j, rtol=1e-8):
        vals = self.face_values
        scale = np.maximum(1.0, np.abs(vals).max(axis=1, keepdims=True))
        close = np.abs(vals - vals[:, j : j + 1]) <= rtol * scale
        return int(close.sum(axis=1).min())

    def geometric_f_multiplicity(self, j, rtol=1e-8):
        return int(_nullity(self._shifted_faces(j), rtol).min())

    def index_of(self, j, rtol=1e-8):
        """Smallest k at which the null space of (A - lambda * I)^k stops
        growing, taken facewise with the maximum over faces."""
        worst = 1
        for shifted in self._shifted_faces(j):
            prev, k, power = _nullity(shifted, rtol), 1, shifted
            while k < self.p:
                power = power @ shifted
                cur = _nullity(power, rtol)
                if cur == prev:
                    break
                prev, k = cur, k + 1
            worst = max(worst, k)
        return worst


def _nullity(m, rtol):
    """Number of singular values of m (each face of a stack) at most rtol
    times the largest (at least 1)."""
    s = np.linalg.svd(m, compute_uv=False)
    return (s <= rtol * np.maximum(1.0, s.max(axis=-1, keepdims=True))).sum(axis=-1)


def spectrum_of(a):
    """Eigentubes of a square tensor from the eigenvalues of its faces.

    A is transformed once (the leading faces for a real tensor, see
    :func:`~tubal.tensors._face_stack`). The faces that are Hermitian
    within 1e-13 of their norm go to one batched ``eigvalsh`` call, the
    rest to one batched ``eigvals`` call, and the eigenvalues are mirrored
    to all n faces. Each face is sorted by descending magnitude,
    ties within ``TIE_RTOL`` by descending real, then imaginary part (see
    :func:`_sort_face_eigs`). Eigentube j is the inverse transform of column j.
    """
    _check_square(a)
    _check_finite(a)
    faces = _face_stack(a, a.is_real)
    raw = _mirror(_face_eigvals(faces), a.n)
    face_values = _sort_face_eigs(raw)
    return EigentubeSpectrum(_maybe_real_tubes(face_values), face_values, _mirror(faces, a.n))


# ---------------------------------------------------------------------------
# eigenslices


def _eigenslices(a, lams, gate=1e-8, defect_tol=1e-8):
    """:func:`eigenslice_for` of each tube of ``lams``: one transform of A
    (its leading faces when A and every tube are real), one eigenvalue call
    for the gate and one batched SVD of every A_hat_f - lambda_hat_{k,f} I.
    Raises for the first failing face of the first failing tube."""
    if not lams:
        return []
    tubes = Tensor3([[lam.spatial_values for lam in lams]])
    if tubes.n != a.n:
        raise DimensionMismatch("tubes", a.n, tubes.n)
    half = a.is_real and tubes.is_real
    stack = _face_stack(a, half)
    lam_hat = _face_stack(tubes, half)[:, 0].T  # (tubes, faces)
    evals = _face_eigvals(stack)
    scale = np.maximum(1.0, np.abs(evals).max(axis=1))
    dist = np.abs(evals - lam_hat[:, :, None]).min(axis=2)
    far = ~(dist <= gate * scale)  # NaN is far; far pairs raise, shifted by 0 for LAPACK
    _, s, vh = np.linalg.svd(stack - np.where(far, 0, lam_hat)[..., None, None] * np.eye(a.p))
    smin = s[:, :, -1]
    defective = smin > defect_tol * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    i = _first_bad_face((far | defective).ravel())
    if i is not None:
        k, f = divmod(i, len(stack))
        if far[k, f]:
            raise NotAnEigentube(f, float(dist[k, f]))
        raise DefectiveFace(f, float(smin[k, f]))
    return _lateral_slices(np.conj(vh[:, :, -1]), a.n, half)


def eigenslice_for(a, lam, gate=1e-8, defect_tol=1e-8):
    """Eigenslice for a given eigentube, stitched from facewise eigenvectors.

    On each face the nearest eigenvalue must match lambda's Fourier entry
    within ``gate`` (relative to the face spectrum), else
    :class:`NotAnEigentube`; when the shifted face has no small singular
    value the eigenvector is not recoverable and :class:`DefectiveFace` is
    raised; a tube of another length, :class:`DimensionMismatch`. Every
    face holds a unit vector, so the result's bilinear self-product is the
    unit tube.
    """
    _check_square(a)
    return _eigenslices(a, [lam], gate, defect_tol)[0]


# ---------------------------------------------------------------------------
# real t-Schur


def real_t_schur(a):
    """Real Schur-type factorization Q * A * Q^H = R of a real tensor.

    Q is real f-orthogonal and every Fourier face of R is (quasi) upper
    triangular: the real faces get the real Schur form with possible 2 x 2
    diagonal bumps, the complex faces the complex Schur form.
    """
    if not a.is_real:
        raise ValueError("real_t_schur requires a real tensor")
    _check_square(a)
    _check_finite(a)

    def schur_face(f, m):
        if 2 * f % a.n == 0:  # faces 0 and n/2 are their own conjugates: real
            t, z = sla.schur(m.real, output="real")
            return z.T, t
        t, z = sla.schur(m, output="complex")
        return z.conj().T, t

    qs, rs = zip(*(schur_face(f, m) for f, m in enumerate(_face_stack(a, a.is_real))))
    return (
        _stitch(np.array(qs, dtype=np.complex128), a),
        _stitch(np.array(rs, dtype=np.complex128), a),
    )


# ---------------------------------------------------------------------------
# null space, range, inverse


def t_null_basis(a, rtol=NULL_RTOL):
    """Basis slices of the null space, one per shared facewise null
    direction; the count is the minimum facewise nullity.

    Returns a (possibly empty) list of lateral slices X with A * X almost
    zero.
    """
    _check_finite(a)
    _, s, vh = np.linalg.svd(_face_stack(a, a.is_real))
    smax = s.max(axis=1)
    gate = np.where(smax > 0, rtol * smax, np.inf)
    r = int((a.p - s.shape[1] + (s <= gate[:, None]).sum(axis=1)).min())
    vecs = np.conj(np.moveaxis(vh[:, ::-1][:, :r], 1, 0))
    return _lateral_slices(vecs, a.n, a.is_real)


def in_range(a, y, rtol=NULL_RTOL):
    """Whether the lateral slice y lies in the range of A, facewise."""
    if y.p != 1:
        raise DimensionMismatch("columns", y.p, 1)
    if a.l != y.l or a.n != y.n:
        raise DimensionMismatch("rows", (a.l, a.n), (y.l, y.n))
    _check_finite(a, y)
    half = a.is_real and y.is_real
    u, s, _ = np.linalg.svd(_face_stack(a, half), full_matrices=False)
    ys = _face_stack(y, half)  # (faces, l, 1)
    keep = s > rtol * s.max(axis=1, keepdims=True)  # the facewise range
    uh_y = keep[:, :, None] * (np.conj(np.swapaxes(u, 1, 2)) @ ys)
    resid = np.linalg.norm((ys - u @ uh_y)[:, :, 0], axis=1)
    ynorm = np.linalg.norm(ys[:, :, 0], axis=1)
    return not (resid > rtol * np.maximum(1.0, ynorm)).any()


def _facewise_inverse(stack, rtol=1e-13):
    """The inverse of every face of a square (faces, p, p) stack, in one
    batched call. Raises :class:`SingularFace` for the first face whose
    smallest singular value is at most ``rtol`` times its largest (at
    least 1)."""
    s = np.linalg.svd(stack, compute_uv=False)
    f = _first_bad_face(s[:, -1] <= rtol * np.maximum(1.0, s[:, 0]))
    if f is not None:
        raise SingularFace(f, f"sigma_min {s[f, -1]:.3e}")
    return np.linalg.inv(stack)


def t_inverse(a, rtol=1e-13):
    """Tensor inverse via facewise inversion; every Fourier face must be
    nonsingular."""
    _check_square(a)
    _check_finite(a)
    return _stitch(_facewise_inverse(_face_stack(a, a.is_real), rtol), a)
