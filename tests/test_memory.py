"""Memory contract: building, saving and loading a stack hold one copy of its
weights plus a scratch of about ``CAST_BLOCK_BYTES``, measured with tracemalloc
(numpy reports its data buffers to it)."""

import tracemalloc

import pytest

from scap.io import load_model, save_model
from scap.model import BlockConfig, init_weights
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
