"""Memory contract: building, saving and loading a stack hold one copy of its
weights plus a scratch of about ``CAST_BLOCK_BYTES``, a sparse forward's
records hold only their kept masks, and a sweep holds under two reservoirs at
once serially and under one and a half on one CPU, measured with tracemalloc
(numpy reports its data buffers to it). On more CPUs a sweep runs its Down
passes in forked children, min(CPUs, Up targets) passes at once, and every
process, this one included, holds one pass's statistics at a time; the
children's memory is not traced here."""

import gc
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  (else its lazy import lands in the first traced call)
import pytest

from scap import analysis, tensor
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
    # on one CPU the sweep runs its passes one after another, in this process;
    # three concurrent Down passes on this grid would hold three reservoirs
    monkeypatch.setattr(tensor, "_cpus", lambda: 1)
    peak, bound = _sweep_peak_and_bound()
    assert peak < bound


def test_forked_sweep_holds_one_pass_of_statistics_per_process(monkeypatch, forks):
    # at 4 CPUs the 3 Down passes run at once, one per process (this one and
    # 2 forked children), and this process still holds one pass at a time
    monkeypatch.setattr(tensor, "_cpus", lambda: 4)
    monkeypatch.setattr(analysis, "FORK_MACS", 0)
    peak, bound = _sweep_peak_and_bound()
    assert peak < bound
    # per sweep: min(CPUs, Up targets) processes, then min(CPUs, batches)
    assert len(forks) == 2 * ((3 - 1) + (2 - 1))


def _sweep_peak_and_bound() -> tuple[int, float]:
    """The traced peak of a 3x3-grid sweep run after a warm-up sweep, and its
    bound: one and a half reservoirs plus its streams."""
    model = init_weights(BlockConfig(d_model=16, d_hidden=48, n_blocks=2), seed=0)
    calib = synthetic_stream(16, 8, 32, seed=1)
    hold = synthetic_stream(16, 2, 32, seed=2)
    grids = ([0.2, 0.4, 0.6], [0.3, 0.5, 0.7])
    pareto_sweep(model, calib, hold, *grids, capacity=64)  # warm up outside the trace
    _, peak = _traced_peak(lambda: pareto_sweep(model, calib, hold, *grids))
    reservoir = DEFAULT_RESERVOIR_CAPACITY * np.dtype(np.float32).itemsize
    return peak, 1.5 * reservoir + sum(b.nbytes for b in calib + hold)
