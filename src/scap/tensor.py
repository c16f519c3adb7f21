"""Minimal dense numeric core: float32 matrices, matmul, and FFN activations.

All tensors are plain numpy arrays in float32, row-major. Every product
accumulates in float64 before rounding back to float32 so results are stable
against high-precision oracles. A one-row product (a decode token) runs the
compiled row kernel of ``rowgemv.c``, which reads only the weight rows it is
given; a product of more rows runs blocked BLAS GEMMs. Every operation here
is pure.
"""

from __future__ import annotations

import ctypes
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer
from scipy.special import erf, expit

FLOAT = np.float32

# float64 bytes of weight cast per GEMM; about 1 MiB was fastest measured
CAST_BLOCK_BYTES = 1 << 20

# builds the row kernel; "-o <library> <source>" is appended. Without
# -ffp-contract=off a fused multiply-add would change the kernel's rounding.
CC = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")
_ROW_GEMV_SRC = Path(__file__).with_name("rowgemv.c")
_row_gemv_lock = threading.Lock()
_row_gemv_lib = None


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


class DataError(ValueError):
    """Raised when tensor data is non-finite or malformed."""


class KernelError(RuntimeError):
    """Raised when the row kernel cannot be compiled or loaded."""


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

    Both paths accumulate in float64. One row of ``x64`` runs the compiled row
    kernel, which reads the selected rows of ``w`` in place, eight per pass,
    and equals a sequential loop over ``rows`` bit for bit. More rows run BLAS
    GEMMs with ``w`` cast to float64 one block of ``CAST_BLOCK_BYTES`` at a
    time, never as a whole; when the rows fit one block this is one GEMM.
    ``rows`` must be 1-D integers in ``[0, w.shape[0])``.
    """
    if w.ndim != 2 or w.dtype != FLOAT:
        raise ShapeError(f"expected a 2-D float32 weight, got {w.dtype} ndim={w.ndim}")
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise ShapeError(f"rows must be 1-D integers, got {rows.dtype} ndim={rows.ndim}")
        if rows.size and (rows.min() < 0 or rows.max() >= w.shape[0]):
            raise ShapeError(f"rows outside [0, {w.shape[0]})")
    n = w.shape[0] if rows is None else rows.size
    if x64.ndim != 2 or x64.shape[1] != n:
        raise ShapeError(f"x64 {x64.shape} does not match {n} weight rows")
    if x64.shape[0] == 1:
        return _row_product(x64[0], w, rows)
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


def _row_product(x: np.ndarray, w: np.ndarray, rows) -> np.ndarray:
    """One-row ``x @ w[rows]`` through the row kernel, as a (1, m) array."""
    rows = np.arange(w.shape[0]) if rows is None else rows
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w)
    out = np.empty((1, w.shape[1]))
    _row_gemv()(x, w, rows, rows.size, w.shape[1], out[0])
    return out


def _row_gemv():
    """``row_gemv`` of ``rowgemv.c``, compiled at its first use in a process
    into a private temporary directory and loaded from there."""
    global _row_gemv_lib
    with _row_gemv_lock:
        if _row_gemv_lib is None:
            with tempfile.TemporaryDirectory(prefix="scap-") as tmp:
                lib = str(Path(tmp) / "rowgemv.so")
                cmd = [*CC, "-o", lib, str(_ROW_GEMV_SRC)]
                try:
                    subprocess.run(cmd, check=True, capture_output=True, text=True)
                    # the mapping outlives the file, which goes with the directory
                    loaded = ctypes.CDLL(lib)
                except subprocess.CalledProcessError as exc:
                    raise KernelError(
                        f"row kernel build failed: {' '.join(cmd)}\n{exc.stderr}"
                    ) from exc
                except OSError as exc:
                    raise KernelError(
                        f"row kernel build or load failed: {' '.join(cmd)}: {exc}"
                    ) from exc
            f64 = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
            loaded.row_gemv.argtypes = [
                f64,
                ndpointer(FLOAT, ndim=2, flags="C_CONTIGUOUS"),
                ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),
                ctypes.c_int64,
                ctypes.c_int64,
                f64,
            ]
            loaded.row_gemv.restype = None
            _row_gemv_lib = loaded
    return _row_gemv_lib.row_gemv


def silu(x: np.ndarray) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    x = np.asarray(x, dtype=FLOAT)
    return (x * expit(x)).astype(FLOAT)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=FLOAT)
    return (0.5 * x * (1.0 + erf(x / np.sqrt(2.0, dtype=FLOAT)))).astype(FLOAT)
