"""Memory contract: building, saving and loading a stack hold one copy of its
weights plus a scratch of about ``CAST_BLOCK_BYTES``, a sparse forward's
records hold only their kept masks, and a sweep holds under two reservoirs at
once serially and under one and a half with threads allowed, measured with
tracemalloc (numpy reports its data buffers to it)."""

import gc
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  (else its lazy import lands in the first traced call)
import pytest

from scap import tensor
from scap.analysis import pareto_sweep, synthetic_stream
from scap.calib import DEFAULT_RESERVOIR_CAPACITY
from scap.io import load_model, save_model
from scap.model import BlockConfig, init_weights
from scap.prune import PruneSpec
from scap.tensor import CAST_BLOCK_BYTES

CONFIG = BlockConfig(d_model=512, d_hidden=2048, n_blocks=2)


def _model_bytes(model) -> int:
    tensors, _ = model.to_tensors()
    return sum(t.nbytes for t in tensors.values())


def _traced_peak(fn):
    """(result, peak bytes traced above what was live when ``fn`` started)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


@pytest.fixture(scope="module")
def model():
    return init_weights(CONFIG, seed=0)


def test_init_weights_holds_one_copy_plus_scratch():
    model, peak = _traced_peak(lambda: init_weights(CONFIG, seed=0))
    assert peak <= _model_bytes(model) + CAST_BLOCK_BYTES + 64 * 1024


def test_save_model_copies_no_tensor(model, tmp_path):
    _, peak = _traced_peak(lambda: save_model(model, tmp_path / "m.scap"))
    assert peak <= CAST_BLOCK_BYTES


def test_load_model_holds_one_copy(model, tmp_path):
    path = tmp_path / "m.scap"
    save_model(model, path)
    loaded, peak = _traced_peak(lambda: load_model(path))
    assert peak <= 1.3 * _model_bytes(loaded)


def test_one_row_records_hold_their_masks_and_no_activation():
    # d + h mask bytes per block; one retained float32 Down input would add
    # 4 * h = 16 KiB per block
    d, h = 64, 4096
    model = init_weights(BlockConfig(d_model=d, d_hidden=h, n_blocks=2), seed=0)
    sparse = model.apply_prune_specs({hook: PruneSpec(0.5) for hook in model.hook_points()})
    x = np.random.default_rng(1).standard_normal((1, d)).astype(np.float32)
    sparse.forward(x)  # compile the row kernel and start its pool outside the trace
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        records = sparse.forward(x)[1]
        gc.collect()  # the ctypes views of a kernel call form cycles
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    runs = [run for rec in records for run in (rec.up, rec.down)]
    assert all(run.kept.dtype == bool for run in runs)
    masks = sum(run.kept.nbytes for run in runs)
    assert masks == 2 * (d + h)
    assert held - base <= masks + 4096


def test_serial_sweep_holds_under_two_reservoirs_plus_its_streams(monkeypatch):
    # each pass's statistics die before the next pass starts; keeping them
    # would hold a reservoir per site per pass, 8 on this 3x3 grid
    monkeypatch.setattr(tensor, "_cpus", lambda: 1)
    model = init_weights(BlockConfig(d_model=16, d_hidden=48, n_blocks=2), seed=0)
    calib = synthetic_stream(16, 2, 32, seed=1)
    hold = synthetic_stream(16, 2, 32, seed=2)
    grids = ([0.2, 0.4, 0.6], [0.3, 0.5, 0.7])
    pareto_sweep(model, calib, hold, *grids, capacity=64)  # warm up outside the trace
    _, peak = _traced_peak(lambda: pareto_sweep(model, calib, hold, *grids))
    reservoir = DEFAULT_RESERVOIR_CAPACITY * np.dtype(np.float32).itemsize
    streams = sum(b.nbytes for b in calib + hold)
    assert peak < 2 * reservoir + streams


def test_sweep_with_threads_holds_one_pass_of_statistics(monkeypatch):
    # the sweep runs its passes one after another however many CPUs it may
    # use; three concurrent Down passes on this grid would hold three reservoirs
    monkeypatch.setattr(tensor, "_cpus", lambda: 4)
    model = init_weights(BlockConfig(d_model=16, d_hidden=48, n_blocks=2), seed=0)
    calib = synthetic_stream(16, 8, 32, seed=1)
    hold = synthetic_stream(16, 2, 32, seed=2)
    grids = ([0.2, 0.4, 0.6], [0.3, 0.5, 0.7])
    pareto_sweep(model, calib, hold, *grids, capacity=64)  # warm up outside the trace
    _, peak = _traced_peak(lambda: pareto_sweep(model, calib, hold, *grids))
    reservoir = DEFAULT_RESERVOIR_CAPACITY * np.dtype(np.float32).itemsize
    streams = sum(b.nbytes for b in calib + hold)
    assert peak < 1.5 * reservoir + streams
