"""The public names of the package, pinned so that an API change shows in
the diff of this file."""

import types

import tubal

PUBLIC = [
    "BadPairing", "DefectiveFace", "DimensionMismatch", "DivisionFailure", "EigenPair",
    "EigentubeSpectrum", "MalformedFile", "NearSingularTube", "NoConvergence",
    "NonFiniteInput", "NotAnEigentube", "SchurResult", "ShiftCollision", "SingularFace",
    "SingularShift", "SolverConfig", "THessResult", "TLuResult", "TQrResult", "TSvdResult",
    "Tensor3", "TubalError", "Tube", "UnknownFormat", "UnknownKind", "ZeroSlice",
    "bcirc", "canonical_slice", "char_poly_eval", "concat_lateral", "conj_transpose",
    "conjugate_even", "deflate", "deflated_power_sweep", "eigenslice_for", "f_diagonal",
    "f_tril", "facewise_qr", "facewise_sort_tubes", "fold", "identity", "in_range",
    "read_tensor", "real_t_schur", "slice_inner", "slice_norm", "slice_normalize",
    "spectrum_of", "t_det", "t_hess", "t_inverse", "t_inverse_power", "t_lu",
    "t_null_basis", "t_power", "t_product", "t_product_reference", "t_qr", "t_qr_shifted",
    "t_qr_unshifted", "t_subspace_iteration", "t_svd", "tensor_tube_div", "tensor_tube_mul",
    "tube_conj_t", "tube_div", "tube_mul", "tube_norm", "tube_pow", "unfold", "unit_tube",
    "write_tensor", "zeros",
]


def test_public_names_are_pinned():
    # submodules appear as attributes once imported, so they are left out
    names = sorted(
        k for k, v in vars(tubal).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC
