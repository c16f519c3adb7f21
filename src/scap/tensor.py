"""Minimal dense numeric core: float32 matrices, matmul, and FFN activations.

All tensors are plain numpy arrays in float32, row-major. Every product
accumulates in float64 before rounding back to float32 so results are stable
against high-precision oracles. A one-row product (a decode token) runs the
compiled row kernel ``row_gemv`` of ``rowgemv.c``, which reads only the
weight rows it is given; a batch over at least ``ROW_GEMM_MIN`` weight
elements runs ``row_gemm``, which adds each output's rows in the same order,
so every batch row equals its one-row result bit for bit. A large product
splits its output columns across the usable cores and keeps the bits of one
thread, on a pool that the first row product makes. A batch over a smaller
weight runs one BLAS GEMM. In float32, ``activations.c`` computes SwiGLU's
epilogue ``swiglu``, ``silu(g) * u`` with ``silu(x) = x * (1 / (1 +
expf(-x)))``, from two float64 products in one vectorised loop that writes
out glibc's ``expf`` algorithm bit for bit; ``silu`` is that loop with u all
ones. It computes ``gelu`` as ``(0.5 * x) * (1 + erf(x / sqrt2))``. The same
source holds the pruner of ``kernels.sparse_fc``, the rmsnorm of ``model``
and the reservoir draw of ``calib.LayerStats``, so it is built with one
``cc``. Every operation is pure.
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

FLOAT = np.float32

# the scratch size for drawing (model) and reading (io) weights
CAST_BLOCK_BYTES = 1 << 20

# builds each compiled source; "-o <library> <source> -lm" is appended.
# Without -ffp-contract=off a fused multiply-add would change the kernels'
# rounding. Without -march=native row_gemm took 96 against 40 ms at
# 4096x11008, batch 32, and 15 against 8 ms at batch 2 (2 vCPUs).
CC = ("cc", "-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
# each source's functions and argument types; arrays pass as bare addresses.
# One source holds every loop a sweep runs, so a sweep builds with one cc.
_P, _N = ctypes.c_void_p, ctypes.c_int64
_KERNELS = {
    "rowgemv": {"row_gemv": (_P, _P, _P, *[_N] * 4, _P), "row_gemm": (_P, _P, _P, *[_N] * 5, _P)},
    "activations": {
        "swiglu_f64": (_P, _P, _N, _P),
        "gelu_f32": (_P, _N, _P),
        "prune_f32": (_P, _N, _N, ctypes.c_float, ctypes.c_float, _N, *[_P] * 4),
        "rmsnorm_f32": (_P, _N, _N, _P, ctypes.c_double, _P),
        "reservoir_draw": (_P, *[_N] * 3, *[_P] * 4),
    },
}
_libs, _lock = {}, threading.Lock()
# a batch over fewer weight rows x columns than this runs one BLAS GEMM, whose
# float64 cast is then under CAST_BLOCK_BYTES. Medians on 2 vCPUs at batch
# 2/8/32/256, row_gemm against BLAS: 128x256 20/28/61/450 against 13/17/47/370
# us, 256x512 33/66/210/1600 against 50/110/145/1100 us; from 256x1024 up
# row_gemm wins at every batch against the BLAS path it replaced (BENCH_11.json).
ROW_GEMM_MIN = 1 << 17
# products of fewer batch rows x kept rows x columns than this run unsplit on
# the caller. One-row medians on 2 vCPUs, unsplit against a 2-way split:
# 32x96 31 against 130 us, 512x2048 390 against 400 us, 1024x2048 770
# against 740 us, 1024x4096 1.72 against 1.12 ms; waking a pool thread costs
# about 0.1 ms.
SPLIT_MACS = 1 << 21
# column slices start at multiples of this: one 64-byte line of f32 weights
SLICE_COLS = 16
_row_pool = None  # runs all column slices but a caller's first


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


class DataError(ValueError):
    """Raised when tensor data is non-finite or malformed."""


class KernelError(RuntimeError):
    """Raised when a compiled source cannot be built or loaded."""


def matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-major matrix product with float64 accumulation, float32 result."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"inner dimensions differ: {x.shape} @ {w.shape}")
    return matmul_rows(x.astype(np.float64), w).astype(FLOAT)


def matmul_rows(x64: np.ndarray, w: np.ndarray, rows=None) -> np.ndarray:
    """``x64 @ w[rows]`` (all rows when None) for float64 ``x64``, float32 ``w``.

    Every path accumulates in float64. One row of ``x64``, or a batch whose
    ``w[rows]`` holds at least ``ROW_GEMM_MIN`` elements, runs a compiled row
    kernel, which reads the selected rows of ``w`` in place, eight per pass;
    each row of its output equals a sequential loop over ``rows`` for that row
    alone, bit for bit, whatever the batch. From ``SPLIT_MACS`` up, slices of
    the output columns run on the usable cores at once, with the same bits.
    A batch over a smaller ``w[rows]`` runs one BLAS GEMM on its float64 cast.
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
    if x64.shape[0] == 1 or n * w.shape[1] >= ROW_GEMM_MIN:
        return _row_product(x64, w, rows)
    return x64 @ (w if rows is None else w[rows]).astype(np.float64)


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _row_product(x64: np.ndarray, w: np.ndarray, rows) -> np.ndarray:
    """``x64 @ w[rows]`` through ``row_gemv`` for one row and ``row_gemm``
    for more.

    From ``SPLIT_MACS`` batch rows x kept rows x columns up, the columns are
    cut at multiples of ``SLICE_COLS`` into one slice per CPU this process
    may run on (``taskset`` caps them), or fewer when the columns run out;
    the caller runs the first and the row pool the others. Each slice equals
    the sequential loop bit for bit, so the cut never changes the result.

    The kernels take bare addresses, so each array is made C-contiguous with
    the kernel's dtype here and stays referenced until every slice is done.
    The first row product makes the row pool, of one thread per CPU but one;
    its threads never submit to it, so no caller can deadlock.
    """
    global _row_pool
    with _lock:
        _row_pool = _row_pool or ThreadPoolExecutor(max(1, _cpus() - 1), "scap-row")
    rows = np.arange(w.shape[0]) if rows is None else rows
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    x = np.ascontiguousarray(x64, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=FLOAT)
    batch, m = x.shape[0], w.shape[1]
    out = np.empty((batch, m))
    args = (x.ctypes.data, w.ctypes.data, rows.ctypes.data, rows.size, m)
    kernel = _kernel("rowgemv", "row_gemv" if batch == 1 else "row_gemm")
    args += () if batch == 1 else (batch,)  # row_gemm takes the batch size
    y = out.ctypes.data
    groups = -(-m // SLICE_COLS)
    n = min(max(1, groups), _cpus()) if batch * rows.size * m >= SPLIT_MACS else 1
    cuts = [min(m, SLICE_COLS * (i * groups // n)) for i in range(n + 1)]
    slices = zip(cuts[1:-1], cuts[2:])
    futures = [_row_pool.submit(kernel, *args, lo, hi, y) for lo, hi in slices]
    kernel(*args, 0, cuts[1], y)
    for f in futures:
        f.result()
    return out


def _kernel(source: str, name: str):
    """Function ``name`` of ``<source>.c`` (see ``_KERNELS``), built once per
    process under one lock into a private temporary directory and loaded from
    there."""
    with _lock:
        if source not in _libs:
            with tempfile.TemporaryDirectory(prefix="scap-") as tmp:
                lib = str(Path(tmp) / f"{source}.so")
                cmd = [*CC, "-o", lib, str(Path(__file__).with_name(f"{source}.c")), "-lm"]
                try:
                    subprocess.run(cmd, check=True, capture_output=True, text=True)
                    # the mapping outlives the file, which goes with the directory
                    loaded = ctypes.CDLL(lib)
                except (subprocess.CalledProcessError, OSError) as exc:
                    detail = getattr(exc, "stderr", None) or exc  # cc's stderr, or the OSError
                    raise KernelError(
                        f"{source} kernel build or load failed: {' '.join(cmd)}\n{detail}"
                    ) from exc
            for fn, argtypes in _KERNELS[source].items():
                kernel = getattr(loaded, fn)
                kernel.argtypes, kernel.restype = argtypes, None
            _libs[source] = loaded
    return getattr(_libs[source], name)


def _after_fork_in_child():
    """A forked child has none of the parent's threads: drop the row pool,
    whose threads it would wait for forever, and a lock one of them held."""
    global _lock, _row_pool
    _lock, _row_pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def swiglu(g, u) -> np.ndarray:
    """``silu(g) * u`` for two arrays of one shape, each element rounded to
    float32 and every operation in float32, in one compiled loop over their
    float64 values: SwiGLU's epilogue on its two products, as ``silu`` of
    the float32 gate times the float32 up projection. A float32 array of
    that shape comes out."""
    g, u = (np.asarray(a, dtype=np.float64, order="C") for a in (g, u))
    if g.shape != u.shape:
        raise ShapeError(f"gate {g.shape} and up {u.shape} differ in shape")
    z = np.empty(g.shape, FLOAT)
    _kernel("activations", "swiglu_f64")(g.ctypes.data, u.ctypes.data, g.size, z.ctypes.data)
    return z


def silu(x) -> np.ndarray:
    """Elementwise x * sigmoid(x) as ``x * (1 / (1 + expf(-x)))``, each
    operation rounded to float32: ``swiglu`` of x with u all ones, which
    keeps every bit. ``expf`` is glibc 2.36's algorithm written out in
    ``activations.c`` so that the loop vectorises; it equals that library's
    ``expf`` (its FMA build) on every float32 input, so silu keeps the bits
    of a loop over it, a NaN's sign aside. Any array-like goes in; a float32
    array of its shape comes out."""
    x = np.asarray(x, dtype=FLOAT)
    with np.errstate(invalid="ignore"):  # widening a signalling NaN flags it
        x64 = x.astype(np.float64)
    return swiglu(x64, np.ones(x.shape))


def gelu(x) -> np.ndarray:
    """Exact-erf GELU as ``(0.5 * x) * (1 + erf(x / sqrt2))`` in float32 but
    ``erf``, the C library's float64 one; ``sqrt2`` is ``0x3FB504F3``. Any
    array-like goes in; a float32 array of its shape comes out."""
    x = np.asarray(x, dtype=FLOAT, order="C")
    y = np.empty_like(x)
    _kernel("activations", "gelu_f32")(x.ctypes.data, x.size, y.ctypes.data)
    return y
