"""Property tests of the fused Parseval norms against spatial Frobenius norms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from tubal.tensors import _parseval_norms, parseval_weights

# a block is a whole (faces, l, p) stack, or one strided (faces,) column
# taken out of one, as the power loop takes its anchored row
block_specs = st.tuples(
    st.integers(1, 4), st.integers(1, 3), st.booleans(), st.integers(0, 11)
)


def faces_of(data, half):
    """Fourier faces along axis 0, as non-contiguous views (the library's
    own stacks are contiguous)."""
    if half:
        return np.moveaxis(np.fft.rfft(data.real, axis=2), 2, 0)
    return np.moveaxis(np.fft.fft(data, axis=2), 2, 0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 9),
    half=st.booleans(),
    specs=st.lists(block_specs, min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval_norms_match_spatial_norms(n, half, specs, seed):
    rng = np.random.default_rng(seed)
    blocks, spatial = [], []
    for l, p, column, pick in specs:
        data = rng.standard_normal((l, p, n))
        if not half:
            data = data + 1j * rng.standard_normal((l, p, n))
        stack = faces_of(data, half)
        if column:
            row, col = pick % l, pick % p
            blocks.append(stack[:, row, col])
            spatial.append(data[row, col, :])
        else:
            blocks.append(stack)
            spatial.append(data)
    weights = parseval_weights(n, len(blocks[0]))
    norms = _parseval_norms(weights, *blocks)
    assert norms.shape == (len(blocks),)
    for got, data in zip(norms, spatial):
        assert_allclose(got, np.linalg.norm(data), rtol=1e-13)


@pytest.mark.parametrize("half", [True, False])
def test_parseval_norms_batch_rows_are_single_calls(half):
    # a leading batch axis gives one row of norms per entry, bit for bit
    # those of a call on that entry alone, as the chunked solvers need
    rng = np.random.default_rng(7)
    n, batch = 6, 5
    blocks = [np.stack([faces_of(rng.standard_normal((l, p, n)), half) for _ in range(batch)])
              for l, p in ((4, 3), (2, 2), (1, 1))]
    weights = parseval_weights(n, blocks[0].shape[1])
    rows = _parseval_norms(weights, *blocks)
    assert rows.shape == (batch, len(blocks))
    singles = [_parseval_norms(weights, *(b[i] for b in blocks)) for i in range(batch)]
    assert np.array_equal(rows, singles)
