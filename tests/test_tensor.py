"""Dense core: matmul against a triple-loop oracle, the row kernels against a
sequential loop, their column split against the unsplit kernels, activation
values."""

import ctypes
import ctypes.util
import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scap import tensor
from scap.tensor import (
    ROW_GEMM_MIN,
    KernelError,
    ShapeError,
    gelu,
    matmul,
    matmul_rows,
    silu,
    swiglu,
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
    a = np.array([[1, 2], [3, 4]], np.float32)
    eye = np.array(np.eye(2), np.float32)
    assert np.array_equal(matmul(a, eye), a)


def test_matmul_dot_product():
    out = matmul(np.array([[1, 2]], np.float32), np.array([[3], [4]], np.float32))
    assert out.shape == (1, 1)
    assert out[0, 0] == 11.0


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((5, 7)).astype(np.float32)
    w = rng.standard_normal((7, 3)).astype(np.float32)
    np.testing.assert_allclose(matmul(x, w), _matmul_oracle(x, w), atol=1e-6)


def test_matmul_runs_wide_weights_through_the_row_kernel():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((3, 100)).astype(np.float32)
    w = rng.standard_normal((100, 4096)).astype(np.float32)
    assert w.size >= ROW_GEMM_MIN
    ref = x.astype(np.float64) @ w.astype(np.float64)
    # rounding to f32 allows half an ulp; the kernel's sequential summation
    # order adds only float64-level error on top
    np.testing.assert_allclose(matmul(x, w), ref, rtol=2e-7, atol=1e-12 * np.abs(ref).max())


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))


def _sequential_loop(x64, w, rows):
    """Reference: one f64 accumulator per output, one weight row at a time."""
    acc = np.zeros((x64.shape[0], w.shape[1]))
    for i, r in enumerate(range(w.shape[0]) if rows is None else rows):
        acc += x64[:, i : i + 1] * w[r].astype(np.float64)
    return acc


def _sequential_rows(x64, w, rows):
    """The reference for a one-row ``x64``, as a 1-D array."""
    return _sequential_loop(x64, w, rows)[0]


def _row_case(k, m, n_rows, zeros=0, seed=0, batch=1):
    """x64 (batch, n) and w (k, m), with the first ``zeros`` x entries of
    each row 0; all rows when ``n_rows`` is None, else ``n_rows`` ascending
    rows."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, m)).astype(np.float32)
    rows = None if n_rows is None else np.sort(rng.choice(k, n_rows, replace=False))
    x64 = rng.standard_normal((batch, k if rows is None else n_rows))
    x64[:, :zeros] = 0.0
    return x64, w, rows


def _int64(values):
    return np.array(values, dtype=np.int64)


@st.composite
def _product_case(draw, batch=st.just(1), max_cols=12):
    k = draw(st.integers(1, 40))
    m = draw(st.integers(0, max_cols))
    w = draw(hnp.arrays(np.float32, (k, m), elements=st.floats(-4, 4, width=32)))
    rows = draw(st.none() | st.lists(st.integers(0, k - 1), max_size=40).map(_int64))
    n = k if rows is None else rows.size
    x64 = draw(
        hnp.arrays(np.float64, (draw(batch), n), elements=st.just(0.0) | st.floats(-4, 4))
    )
    return x64, w, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_product_case())
@example(_row_case(5, 7, 0))  # no rows: a zero output
@example(_row_case(9, 7, 7))  # tail rows only
@example(_row_case(30, 13, 8))  # one full block of 8
@example(_row_case(40, 13, 8 * 3 + 5, zeros=6))  # blocks, a tail and zero x entries
@example(_row_case(21, 6, None))  # rows=None reads every row
def test_one_row_product_equals_sequential_loop(case):
    x64, w, rows = case
    out = matmul_rows(x64, w, rows)
    assert out.shape == (1, w.shape[1]) and out.dtype == np.float64
    assert np.array_equal(out[0], _sequential_rows(x64, w, rows))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_product_case(batch=st.integers(2, 5), max_cols=40))
@example(_row_case(5, 7, 0, batch=3))  # no rows: a zero output
@example(_row_case(20, 1, 13, batch=2))  # one column; a block and a tail
@example(_row_case(30, 255, 21, zeros=5, batch=4))  # one column short of a tile
@example(_row_case(30, 256, 16, batch=2))  # one full tile; two full blocks
@example(_row_case(30, 257, 8 * 2 + 3, batch=3))  # a one-column second tile
@example(_row_case(30, 100, 29, batch=5))  # not a multiple of 16 columns
@example(_row_case(40, 600, None, zeros=7, batch=33))  # rows=None; three tiles
def test_row_gemm_equals_sequential_loop(case):
    """Forced onto ``row_gemm`` at every size, a batch equals the sequential
    loop bit for bit, every row of it."""
    x64, w, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "ROW_GEMM_MIN", 0)
        mp.setattr(tensor, "_cpus", lambda: 1)
        slices = _recorded_slices(mp, "row_gemm")
        out = matmul_rows(x64, w, rows)
    assert slices == [(0, w.shape[1])]
    assert out.shape == (x64.shape[0], w.shape[1]) and out.dtype == np.float64
    assert np.array_equal(out, _sequential_loop(x64, w, rows))


def test_one_row_product_reads_non_contiguous_weights():
    x64, w, rows = _row_case(20, 11, 13, seed=1)
    wt = np.asfortranarray(w)
    assert np.array_equal(matmul_rows(x64, wt, rows)[0], _sequential_rows(x64, w, rows))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize(
    "rows,x_cols",
    [
        ([6], 1),  # one past the last row
        ([-1], 1),  # numpy would wrap this to the last row
        ([[0, 1]], 2),  # 2-D
        ([0.0, 1.0], 2),  # not integers
        ([True, False], 2),  # a mask, not row numbers
        ([0, 1], 3),  # x has a column per row
    ],
)
def test_matmul_rows_rejects_bad_rows(batch, rows, x_cols):
    w = np.ones((6, 4), np.float32)
    with pytest.raises(ShapeError):
        matmul_rows(np.ones((batch, x_cols)), w, np.array(rows))


def test_matmul_rows_rejects_non_float32_weights():
    with pytest.raises(ShapeError):
        matmul_rows(np.ones((1, 2)), np.ones((2, 3)))


def _first_use(source):
    """A call that needs the compiled ``source``, and its expected result."""
    if source == "rowgemv":
        x64, w, rows = _row_case(50, 30, 37, seed=2)
        return lambda: matmul_rows(x64, w, rows)[0], _sequential_rows(x64, w, rows)
    return lambda: silu(ACTIVATION_X), _from_bits(SILU_BITS)


@pytest.mark.parametrize("source", ["rowgemv", "activations"])
@pytest.mark.parametrize(
    "cc,needle",
    [
        (("scap-missing-cc",), "No such file"),
        (("cc", "-fno-such-flag"), "error"),  # the compiler's stderr
    ],
)
def test_row_kernel_build_failure_raises_kernel_error(monkeypatch, cc, needle, source):
    monkeypatch.setattr(tensor, "CC", cc)
    monkeypatch.setattr(tensor, "_libs", {})
    with pytest.raises(KernelError) as err:
        _first_use(source)[0]()
    command, _, detail = str(err.value).partition(" ".join(cc))
    assert source in command and needle in detail


@pytest.mark.parametrize("source", ["rowgemv", "activations"])
def test_row_kernel_compiles_once_under_concurrent_first_use(monkeypatch, source):
    monkeypatch.setattr(tensor, "_libs", {})
    builds = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **kw: builds.append(a) or run(*a, **kw))
    call, want = _first_use(source)
    results = []
    threads = [threading.Thread(target=lambda: results.append(call())) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len(results) == 6 and all(np.array_equal(r, want, equal_nan=True) for r in results)


def _recorded_slices(mp, name="row_gemv"):
    """Patch the row kernel ``name``, within MonkeyPatch ``mp``, to record the
    ``(lo, hi)`` column slice of every call; returns the list of slices."""
    real, slices = tensor._kernel, []

    def kernel(source, fn):
        compiled = real(source, fn)  # compiles the kernel and makes the pool
        if fn != name:
            return compiled

        def recording(*args):
            slices.append(args[-3:-1])
            return compiled(*args)

        return recording

    mp.setattr(tensor, "_kernel", kernel)
    return slices


@st.composite
def _split_product(draw, batch=st.just(1)):
    k = draw(st.integers(1, 30))
    m = draw(st.integers(0, 5 * tensor.SLICE_COLS + 3))
    w = draw(hnp.arrays(np.float32, (k, m), elements=st.floats(-4, 4, width=32)))
    rows = draw(st.none() | st.lists(st.integers(0, k - 1), max_size=45).map(_int64))
    n = k if rows is None else rows.size
    x64 = draw(
        hnp.arrays(np.float64, (draw(batch), n), elements=st.just(0.0) | st.floats(-4, 4))
    )
    return x64, w, rows, draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_split_product())
@example((*_row_case(12, 15, 7), 3))  # fewer columns than one slice; tail rows only
@example((*_row_case(12, 16, 0), 2))  # exactly one slice of columns; no rows
@example((*_row_case(30, 33, 8), 3))  # a one-column last slice; one block of 8
@example((*_row_case(40, 47, 8 * 3 + 5), 3))  # a last slice one column short of 16
@example((*_row_case(20, 70, 13), 3))  # uneven slices of 16, 32 and 22 columns
@example((*_row_case(40, 80, 8 * 4 + 5), 5))  # five full slices
@example((*_row_case(40, 81, 8 * 4 + 5, zeros=9), 6))  # six slices, the last one column
@example((*_row_case(21, 50, None), 4))  # rows=None reads every row
def test_split_row_product_equals_sequential_loop(case):
    """Forced to split at every size, a one-row product cuts its columns into
    ordered slices that start at multiples of ``SLICE_COLS`` and tile
    ``[0, m)`` once, and equals the sequential loop bit for bit."""
    _check_split(*case, "row_gemv")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_split_product(batch=st.integers(2, 4)))
@example((*_row_case(12, 16, 0, batch=2), 2))  # exactly one slice of columns; no rows
@example((*_row_case(40, 47, 8 * 3 + 5, batch=3), 3))  # a last slice one column short of 16
@example((*_row_case(40, 81, 8 * 4 + 5, zeros=9, batch=4), 6))  # six slices, the last one column
@example((*_row_case(21, 50, None, batch=2), 4))  # rows=None reads every row
def test_split_row_gemm_equals_sequential_loop(case):
    """The same for a batch forced onto ``row_gemm``: every row of it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "ROW_GEMM_MIN", 0)
        _check_split(*case, "row_gemm")


def _check_split(x64, w, rows, threads, kernel):
    m = w.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "SPLIT_MACS", 0)
        mp.setattr(tensor, "_cpus", lambda: threads)
        slices = _recorded_slices(mp, kernel)
        out = matmul_rows(x64, w, rows)
    groups = -(-m // tensor.SLICE_COLS)
    assert len(slices) == max(1, min(threads, groups))
    slices.sort()
    assert [lo for lo, _ in slices] == [0] + [hi for _, hi in slices[:-1]]
    assert slices[-1][1] == m
    assert all(lo % tensor.SLICE_COLS == 0 and (lo < hi or m == 0) for lo, hi in slices)
    assert np.array_equal(out, _sequential_loop(x64, w, rows))


def _large_case(seed=4, batch=1):
    """A product above ``SPLIT_MACS`` and, for a batch, ``ROW_GEMM_MIN``,
    with a width that is not a multiple of ``SLICE_COLS``."""
    x64, w, rows = _row_case(700, 4100, 600, zeros=50, seed=seed, batch=batch)
    assert rows.size * w.shape[1] >= max(tensor.SPLIT_MACS, ROW_GEMM_MIN)
    return x64, w, rows


def test_split_above_threshold_equals_one_thread(monkeypatch):
    _check_split_equals_one_thread(monkeypatch, *_large_case())


def test_split_row_gemm_above_threshold_equals_one_thread(monkeypatch):
    _check_split_equals_one_thread(monkeypatch, *_large_case(batch=5))


def _check_split_equals_one_thread(monkeypatch, x64, w, rows):
    affinity = tensor._cpus
    monkeypatch.setattr(tensor, "_cpus", lambda: 1)
    serial = matmul_rows(x64, w, rows)
    monkeypatch.setattr(tensor, "_cpus", affinity)
    split = matmul_rows(x64, w, rows)
    monkeypatch.setattr(tensor, "_cpus", lambda: 3)
    three = matmul_rows(x64, w, rows)
    want = _sequential_loop(x64, w, rows)
    assert all(np.array_equal(out, want) for out in (serial, split, three))


def test_concurrent_callers_get_the_serial_result(monkeypatch):
    """Four threads of a pool, like sweep grid points, split large one-row
    products at once, with more threads than a 2-core machine has cores;
    each gets exactly its one-thread result."""
    _check_concurrent_callers(monkeypatch, [_large_case(seed) for seed in range(5, 9)])


def test_concurrent_batched_callers_get_the_serial_result(monkeypatch):
    """The same for batches on ``row_gemm``."""
    _check_concurrent_callers(monkeypatch, [_large_case(seed, 3) for seed in range(5, 9)])


def _check_concurrent_callers(monkeypatch, cases):
    monkeypatch.setattr(tensor, "_cpus", lambda: 1)
    serial = [matmul_rows(*case) for case in cases]
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    start = threading.Barrier(len(cases))

    def call(case):
        start.wait(timeout=60)
        return [matmul_rows(*case) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(cases)) as pool:
            results = list(pool.map(call, cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial, results):
        assert all(np.array_equal(g, want) for g in got)


def test_small_one_row_products_stay_on_the_caller(monkeypatch):
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    matmul_rows(*_row_case(40, 96, 32, seed=3))  # a row product makes the pool
    submitted = []
    submit = tensor._row_pool.submit
    monkeypatch.setattr(
        tensor._row_pool, "submit", lambda *a, **kw: submitted.append(a) or submit(*a, **kw)
    )
    x64, w, rows = _row_case(40, 96, 32, seed=3)
    assert np.array_equal(matmul_rows(x64, w, rows)[0], _sequential_rows(x64, w, rows))
    assert submitted == []
    matmul_rows(*_large_case())
    assert len(submitted) == 1  # the spy sees a split


@pytest.mark.parametrize(
    "make,kw",
    [
        (_row_case, dict(k=40, m=96, n_rows=32, seed=3)),  # one row
        (_row_case, dict(k=256, m=512, n_rows=None, batch=2)),  # row_gemm, unsplit
        (_large_case, {}),  # one row, split
        (_large_case, dict(batch=5)),  # row_gemm, split
    ],
)
def test_row_kernels_leave_no_cyclic_garbage(monkeypatch, make, kw):
    """Every product frees all it made by reference counting alone."""
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    case = make(**kw)
    matmul_rows(*case)  # builds the kernels and the pool
    gc.collect()
    gc.disable()
    try:
        matmul_rows(*case)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_splits_without_the_parents_pool(monkeypatch):
    monkeypatch.setattr(tensor, "_cpus", lambda: 2)
    case = _large_case()
    want = matmul_rows(*case)[0]  # the parent's pool now has a thread
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports whether it got the parent's result
        try:
            os.write(write, b"1" if np.array_equal(matmul_rows(*case)[0], want) else b"0")
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on its one-row product")
        time.sleep(0.01)
    assert os.read(read, 1) == b"1"
    os.close(read)


@pytest.mark.parametrize("cpus,want", [(None, None), (1, 1), (3, 3), (64, 5)])
def test_thread_count_comes_from_affinity_or_cap(monkeypatch, cpus, want):
    """From ``SPLIT_MACS`` up, a product cuts one slice per CPU the process
    may run on, capped by its 5 groups of ``SLICE_COLS`` columns; one MAC
    below it runs as one slice."""
    if cpus is None:
        want = min(5, tensor._cpus())
    else:
        monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    x64, w, rows = _row_case(30, 5 * tensor.SLICE_COLS - 3, 20, zeros=4, batch=2)
    macs = 2 * rows.size * w.shape[1]
    monkeypatch.setattr(tensor, "ROW_GEMM_MIN", 0)
    slices = _recorded_slices(monkeypatch, "row_gemm")
    for split_macs, n in ((macs, want), (macs + 1, 1)):
        monkeypatch.setattr(tensor, "SPLIT_MACS", split_macs)
        slices.clear()
        assert np.array_equal(matmul_rows(x64, w, rows), _sequential_loop(x64, w, rows))
        assert len(slices) == n


def test_importing_the_cli_compiles_nothing():
    code = (
        "import sys, scap.cli, scap.tensor as t; assert not t._libs; "
        "assert not [m for m in sys.modules if m.partition('.')[0] == 'scipy']"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


# The activations' bits at +-0, +-1, the GELU tail, saturation, +-88, +-inf,
# NaN and a subnormal, as scipy's float32 expit and float64 erf gave them;
# NaN compares as NaN, whatever its sign and payload.
ACTIVATION_X = np.array(
    [0.0, -0.0, 1.0, -1.0, -5.0, -6.0, -13.0, 30.0, 88.0, -88.0]
    + [np.inf, -np.inf, np.nan, 2.0**-130],
    dtype=np.float32,
)
_NAN = 0x7FC00000
SILU_BITS = [
    0x00000000, 0x80000000, 0x3F3B26A8, 0xBE89B2B1, 0xBD0911D0, 0xBC731198, 0xB7F67E1F,
    0x41F00000, 0x42B00000, 0x83354DDB, 0x7F800000, _NAN, _NAN, 0x00040000,
]
GELU_BITS = [
    0x00000000, 0x80000000, 0x3F57625E, 0xBE227686, 0xB5C80000, 0x80000000, 0x80000000,
    0x41F00000, 0x42B00000, 0x80000000, 0x7F800000, _NAN, _NAN, 0x00040000,
]


def _from_bits(bits):
    return np.array(bits, dtype=np.uint32).view(np.float32)


def _same_bits(a, b):
    """Equal shapes, dtypes and bits, any NaN equal to any NaN."""
    same = (a.view(np.uint32) == b.view(np.uint32)) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and a.dtype == b.dtype == np.float32 and bool(same.all())


def test_silu_values():
    x = np.array([[0.0, 1.0, 30.0]], dtype=np.float32)
    out = silu(x)
    assert out[0, 0] == 0.0
    # scalar formula oracle: 1 * sigmoid(1)
    assert out[0, 1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-6)
    assert out[0, 1] == pytest.approx(0.7310586, abs=1e-6)
    assert out[0, 2] == pytest.approx(30.0, rel=1e-6)  # sigmoid saturates to 1
    assert _same_bits(silu(ACTIVATION_X), _from_bits(SILU_BITS))


def test_gelu_values():
    x = np.array([[0.0, 1.0, -30.0]], dtype=np.float32)
    out = gelu(x)
    assert out[0, 0] == 0.0
    # high-precision oracle: 0.5 * 1 * (1 + erf(1/sqrt(2)))
    assert out[0, 1] == pytest.approx(0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), abs=1e-6)
    assert out[0, 1] == pytest.approx(0.8413447, abs=1e-6)
    assert abs(out[0, 2]) < 1e-7  # erf saturates to -1
    assert _same_bits(gelu(ACTIVATION_X), _from_bits(GELU_BITS))


@pytest.mark.parametrize("fn", [silu, gelu])
def test_activations_keep_the_shape_and_return_float32(fn):
    x = np.linspace(-6.0, 6.0, 24).reshape(4, 6)  # float64, cast on the way in
    full = fn(x.astype(np.float32))
    cases = [(x[1, 2], full[1, 2]), (x[1], full[1]), (x.T, full.T), (x[:, ::2], full[:, ::2])]
    for arg, want in cases + [(x.tolist(), full)]:
        out = fn(arg)
        assert isinstance(out, np.ndarray) and _same_bits(out, np.asarray(want))


def test_activations_equal_scipy_bit_for_bit_on_a_strided_sweep():
    """The scipy formulas the activations replaced, on about 1M float32 bit
    patterns spread over every sign and exponent."""
    special = pytest.importorskip("scipy.special")
    x = np.arange(0, 1 << 32, 4093, dtype=np.uint64).astype(np.uint32).view(np.float32)
    with np.errstate(invalid="ignore"):
        want_silu = x * special.expit(x)
        want_gelu = 0.5 * x * (1.0 + special.erf(x / np.sqrt(2.0, dtype=np.float32)))
    assert _same_bits(silu(x), want_silu) and _same_bits(gelu(x), want_gelu)


def _libm_silu(x):
    """``x * (1 / (1 + expf(-x)))`` per element, in float32 numpy scalars,
    ``expf`` the C library's through ctypes."""
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    libm.expf.argtypes, libm.expf.restype = (ctypes.c_float,), ctypes.c_float
    one = np.float32(1.0)
    with np.errstate(all="ignore"):
        out = [v * (one / (one + np.float32(libm.expf(-v)))) for v in x.tolist()]
    return np.array(out, dtype=np.float32)


def test_silu_equals_libm_expf_silu_at_special_values():
    """Zeros, subnormals, infinities, NaN, large finite values and the
    float32 neighbours of the points where expf's special cases begin: its
    |x| >= 88 check, overflow past 0x1.62e42ep6 and underflow below
    -0x1.9fe368p6 and -0x1.9d1d9ep6."""
    edges = [88.0] + [float.fromhex(h) for h in ("0x1.62e42ep6", "0x1.9fe368p6", "0x1.9d1d9ep6")]
    edges = np.array(edges, dtype=np.float32)
    edges = np.concatenate([edges, -edges])
    near = [np.nextafter(edges, np.float32(s * np.inf)) for s in (-1, 1)]
    subnormal = np.array([1, 2, 0x400000, 0x7FFFFF], dtype=np.uint32).view(np.float32)
    big = [1000.0, -1000.0, np.finfo(np.float32).max, np.finfo(np.float32).min]
    x = np.concatenate(
        [[0.0, -0.0, np.inf, -np.inf], subnormal, -subnormal, big, edges, *near]
    ).astype(np.float32)
    assert _same_bits(silu(x), _libm_silu(x))
    assert np.isnan(silu(np.array([np.nan, -np.nan], dtype=np.float32))).all()


def test_swiglu_equals_libm_silu_times_up_at_special_values():
    """The one loop behind ``silu`` and SwiGLU's epilogue rounds float64 g
    and u to float32 and computes ``silu(g) * u`` in float32: on zeros,
    subnormals, infinities, NaN, expf's overflow and underflow edges and
    their neighbours, and float64 values that round to a subnormal, to zero
    or past float32's range, crossed with such u, against the C library's
    expf."""
    edges = np.array(
        [float.fromhex(h) for h in ("0x1.62e42ep6", "0x1.9fe368p6", "0x1.9d1d9ep6")], np.float32
    )
    edges = np.concatenate([edges, -edges])
    near = [np.nextafter(edges, np.float32(s * np.inf)) for s in (-1, 1)]
    tiny = np.finfo(np.float32).smallest_subnormal
    specials32 = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1.0, -1.0, 88.0, -88.0]
    g32 = np.concatenate([specials32, edges, *near]).astype(np.float32)
    rounding = [3.5e38, -3.5e38, 1e-46, -1e-46, 1e-40, 0.1, 1 + 2.0**-30]
    g = np.concatenate([g32.astype(np.float64), rounding])
    u = np.array([1.0, -1.0, 0.0, -0.0, np.inf, np.nan, 1e-45, 3.4e38, 0.5, 3.5e38, 1e-46])
    g, u = (a.ravel() for a in np.meshgrid(g, u))
    with np.errstate(all="ignore"):
        want = _libm_silu(g.astype(np.float32)) * u.astype(np.float32)
    assert _same_bits(swiglu(g, u), want)
    assert _same_bits(swiglu(g.reshape(-1, 11), u.reshape(-1, 11)), want.reshape(-1, 11))
    with pytest.raises(ShapeError):
        swiglu(g[:4], u[:5])


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
