"""Dense core: matmul against a triple-loop oracle, activation values."""

import math

import numpy as np
import pytest

from scap.tensor import (
    CAST_BLOCK_BYTES,
    DataError,
    ShapeError,
    as_matrix,
    as_vector,
    gelu,
    matmul,
    silu,
)


def _matmul_oracle(x, w):
    """Naive triple loop in float64."""
    n, k = x.shape
    _, m = w.shape
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += float(x[i, t]) * float(w[t, j])
            out[i, j] = acc
    return out


def test_matmul_identity_exact():
    a = as_matrix([[1, 2], [3, 4]])
    eye = as_matrix(np.eye(2))
    assert np.array_equal(matmul(a, eye), a)


def test_matmul_dot_product():
    out = matmul(as_matrix([[1, 2]]), as_matrix([[3], [4]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 11.0


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((5, 7)).astype(np.float32)
    w = rng.standard_normal((7, 3)).astype(np.float32)
    np.testing.assert_allclose(matmul(x, w), _matmul_oracle(x, w), atol=1e-6)


def test_matmul_casts_wide_weights_in_blocks():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((3, 100)).astype(np.float32)
    w = rng.standard_normal((100, 4096)).astype(np.float32)
    assert w.shape[0] > 2 * (CAST_BLOCK_BYTES // (8 * w.shape[1]))
    ref = x.astype(np.float64) @ w.astype(np.float64)
    # rounding to f32 allows half an ulp; the blocked summation order adds
    # only float64-level error on top
    np.testing.assert_allclose(matmul(x, w), ref, rtol=2e-7, atol=1e-12 * np.abs(ref).max())


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))


def test_silu_values():
    x = np.array([[0.0, 1.0, 30.0]], dtype=np.float32)
    out = silu(x)
    assert out[0, 0] == 0.0
    # scalar formula oracle: 1 * sigmoid(1)
    assert out[0, 1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-6)
    assert out[0, 1] == pytest.approx(0.7310586, abs=1e-6)
    assert out[0, 2] == pytest.approx(30.0, rel=1e-6)  # sigmoid saturates to 1


def test_gelu_values():
    x = np.array([[0.0, 1.0, -30.0]], dtype=np.float32)
    out = gelu(x)
    assert out[0, 0] == 0.0
    # high-precision oracle: 0.5 * 1 * (1 + erf(1/sqrt(2)))
    assert out[0, 1] == pytest.approx(0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), abs=1e-6)
    assert out[0, 1] == pytest.approx(0.8413447, abs=1e-6)
    assert abs(out[0, 2]) < 1e-7  # erf saturates to -1


@pytest.mark.parametrize("fn", [silu, gelu])
def test_activations_monotone_on_nonnegatives(fn):
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 20.0, size=2000).astype(np.float32))
    y = fn(x[None, :])[0]
    assert np.all(np.diff(y) >= 0)


def test_ops_are_pure():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6)).astype(np.float32)
    w = rng.standard_normal((6, 4)).astype(np.float32)
    assert np.array_equal(matmul(x, w), matmul(x, w))
    assert np.array_equal(silu(x), silu(x))
    assert np.array_equal(gelu(x), gelu(x))


def test_outputs_finite_for_finite_inputs():
    rng = np.random.default_rng(9)
    x = (100.0 * rng.standard_normal((16, 16))).astype(np.float32)
    w = (100.0 * rng.standard_normal((16, 16))).astype(np.float32)
    for out in (matmul(x, w), silu(x), gelu(x)):
        assert np.all(np.isfinite(out))


def test_validators_reject_bad_input():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_vector([[1.0], [2.0]])
    with pytest.raises(DataError):
        as_matrix([[np.nan, 0.0]])
    with pytest.raises(DataError):
        as_vector([np.inf])
