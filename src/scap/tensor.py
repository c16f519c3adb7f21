"""Minimal dense numeric core: float32 matrices, matmul, and FFN activations.

All tensors are plain numpy arrays in float32, row-major. Matmul accumulates
in float64 before rounding back to float32 so results are stable against
high-precision oracles. Every operation here is pure.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

FLOAT = np.float32

# float64 bytes of weight cast per GEMM; about 1 MiB was fastest measured
CAST_BLOCK_BYTES = 1 << 20


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


class DataError(ValueError):
    """Raised when tensor data is non-finite or malformed."""


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-D float32 array, validating finiteness."""
    a = np.ascontiguousarray(data, dtype=FLOAT)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DataError("matrix contains NaN or Inf")
    return a


def as_vector(data) -> np.ndarray:
    """Coerce ``data`` to a 1-D float32 array, validating finiteness."""
    a = np.ascontiguousarray(data, dtype=FLOAT)
    if a.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DataError("vector contains NaN or Inf")
    return a


def matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-major matrix product with float64 accumulation, float32 result."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"inner dimensions differ: {x.shape} @ {w.shape}")
    return matmul_rows(x.astype(np.float64), w).astype(FLOAT)


def matmul_rows(x64: np.ndarray, w: np.ndarray, rows=None) -> np.ndarray:
    """``x64 @ w[rows]`` (all rows when None) for float64 ``x64``, float32 ``w``.

    ``w`` is cast to float64 one block of ``CAST_BLOCK_BYTES`` at a time, never
    as a whole; when the rows fit one block this is one plain GEMM.
    """
    n = w.shape[0] if rows is None else rows.size
    step = max(1, CAST_BLOCK_BYTES // (8 * max(1, w.shape[1])))
    blocks = (slice(lo, lo + step) for lo in range(0, max(n, 1), step))
    parts = (
        x64[:, b] @ (w[b] if rows is None else w[rows[b]]).astype(np.float64)
        for b in blocks
    )
    out = next(parts)
    for part in parts:
        out += part
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    x = np.asarray(x, dtype=FLOAT)
    return (x * expit(x)).astype(FLOAT)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=FLOAT)
    return (0.5 * x * (1.0 + erf(x / np.sqrt(2.0, dtype=FLOAT)))).astype(FLOAT)
