"""Minimal dense numeric core: float32 matrices, matmul, and FFN activations.

All tensors are plain numpy arrays in float32, row-major. Every product
accumulates in float64 before rounding back to float32 so results are stable
against high-precision oracles. A one-row product (a decode token) runs the
compiled row kernel of ``rowgemv.c``, which reads only the weight rows it is
given. A large one-row product splits its output columns across the usable
cores and keeps the bits of one thread. A product of more rows runs blocked
BLAS GEMMs. Every operation here is pure.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer
from scipy.special import erf, expit

FLOAT = np.float32

# float64 bytes of weight cast per GEMM; about 1 MiB was fastest measured.
# Also the scratch size for drawing (model) and reading (io) weights.
CAST_BLOCK_BYTES = 1 << 20

# builds the row kernel; "-o <library> <source>" is appended. Without
# -ffp-contract=off a fused multiply-add would change the kernel's rounding.
CC = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")
_ROW_GEMV_SRC = Path(__file__).with_name("rowgemv.c")
_row_gemv_lock = threading.Lock()
_row_gemv_lib = None
# one-row products of fewer kept rows x columns than this run unsplit on the
# caller. Medians on 2 vCPUs, unsplit against a 2-way split: 32x96 31 against
# 130 us, 512x2048 390 against 400 us, 1024x2048 770 against 740 us,
# 1024x4096 1.72 against 1.12 ms; waking a pool thread costs about 0.1 ms.
SPLIT_MACS = 1 << 21
# column slices start at multiples of this: one 64-byte line of f32 weights
SLICE_COLS = 16
_row_pool = None  # runs all column slices but a caller's first


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
    and equals a sequential loop over ``rows`` bit for bit; from ``SPLIT_MACS``
    up, slices of its output columns run on the usable cores at once, with
    the same bits. More rows run BLAS GEMMs with ``w`` cast to float64 one
    block of ``CAST_BLOCK_BYTES`` at a time, never as a whole; when the rows
    fit one block this is one GEMM.
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


def max_workers(n_tasks: int) -> int:
    """Threads for ``n_tasks`` independent tasks, at least 1 and at most
    ``n_tasks``: the CPUs this process may run on, or ``SCAP_THREADS`` when
    that environment variable is set. It must be an integer >= 1."""
    cap = os.environ.get("SCAP_THREADS") or str(_cpus())
    if not cap.strip().isdecimal() or int(cap) < 1:
        raise ValueError(f"SCAP_THREADS must be an integer >= 1, got {cap!r}")
    return min(max(1, n_tasks), int(cap))


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _row_product(x: np.ndarray, w: np.ndarray, rows) -> np.ndarray:
    """One-row ``x @ w[rows]`` through the row kernel, as a (1, m) array.

    From ``SPLIT_MACS`` kept rows x columns up, the columns are cut at
    multiples of ``SLICE_COLS`` into one slice per worker; the caller runs the
    first and the row pool the others. Each slice equals the sequential loop
    bit for bit, so the cut never changes the result.
    """
    rows = np.arange(w.shape[0]) if rows is None else rows
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w)
    m = w.shape[1]
    out = np.empty((1, m))
    kernel, args = _row_gemv(), (x, w, rows, rows.size, m)
    groups = -(-m // SLICE_COLS)
    n = max_workers(groups) if rows.size * m >= SPLIT_MACS else 1
    cuts = [min(m, SLICE_COLS * (i * groups // n)) for i in range(n + 1)]
    slices = zip(cuts[1:-1], cuts[2:])
    futures = [_row_pool.submit(kernel, *args, lo, hi, out[0]) for lo, hi in slices]
    kernel(*args, 0, cuts[1], out[0])
    for f in futures:
        f.result()
    return out


def _row_gemv():
    """``row_gemv`` of ``rowgemv.c``, compiled at its first use in a process
    into a private temporary directory and loaded from there. The row pool
    of one thread per CPU but one is made at the same point; its threads only
    run the kernel and never submit to the pool, so a caller that is itself a
    pool thread cannot deadlock."""
    global _row_gemv_lib, _row_pool
    with _row_gemv_lock:
        _row_pool = _row_pool or ThreadPoolExecutor(max(1, _cpus() - 1), "scap-row")
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
                *[ctypes.c_int64] * 4,
                f64,
            ]
            loaded.row_gemv.restype = None
            _row_gemv_lib = loaded
    return _row_gemv_lib.row_gemv


def _after_fork_in_child():
    """A forked child has none of the parent's threads: drop the row pool,
    whose threads it would wait for forever, and a lock one of them held."""
    global _row_gemv_lock, _row_pool
    _row_gemv_lock, _row_pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def silu(x: np.ndarray) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    x = np.asarray(x, dtype=FLOAT)
    return (x * expit(x)).astype(FLOAT)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=FLOAT)
    return (0.5 * x * (1.0 + erf(x / np.sqrt(2.0, dtype=FLOAT)))).astype(FLOAT)
