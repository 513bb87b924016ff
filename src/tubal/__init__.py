"""Third-order tensor algebra under the t-product.

Tubes (the scalars), dense tensors with the FFT-based t-product,
facewise factorizations, iterative eigentube solvers, and a benchmark
CLI. See the README for an overview.
"""

from .errors import (
    BadPairing,
    DefectiveFace,
    DimensionMismatch,
    DivisionFailure,
    MalformedFile,
    NearSingularTube,
    NoConvergence,
    NonFiniteInput,
    NotAnEigentube,
    ShiftCollision,
    SingularFace,
    SingularShift,
    TubalError,
    UnknownFormat,
    UnknownKind,
    ZeroSlice,
)
from .factorizations import (
    EigentubeSpectrum,
    THessResult,
    TLuResult,
    TQrResult,
    TSvdResult,
    char_poly_eval,
    eigenslice_for,
    facewise_qr,
    facewise_sort_tubes,
    in_range,
    real_t_schur,
    spectrum_of,
    t_det,
    t_hess,
    t_inverse,
    t_lu,
    t_null_basis,
    t_qr,
    t_svd,
)
from .solvers import (
    EigenPair,
    SchurResult,
    SolverConfig,
    deflate,
    deflated_power_sweep,
    t_inverse_power,
    t_power,
    t_qr_shifted,
    t_qr_unshifted,
    t_subspace_iteration,
)
from .tensors import (
    Tensor3,
    bcirc,
    canonical_slice,
    concat_lateral,
    conj_transpose,
    f_diagonal,
    f_tril,
    fold,
    identity,
    slice_inner,
    slice_norm,
    slice_normalize,
    t_product,
    t_product_reference,
    tensor_tube_div,
    tensor_tube_mul,
    unfold,
    zeros,
)
from .tensorio import read_tensor, write_tensor
from .tubes import (
    Tube,
    conjugate_even,
    tube_conj_t,
    tube_div,
    tube_mul,
    tube_norm,
    tube_pow,
    unit_tube,
)

__version__ = "0.1.0"
