"""Pruning operator, bias fusion, and sparse-layer forward equivalences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scap.calib import LayerStats
from scap.kernels import OpCount, sparse_fc
from scap.prune import PruneSpec, SparseLinear
from scap.tensor import ShapeError, matmul


def _spec(tau=0.0, eta=0.0, target=0.0):
    return PruneSpec(tau=tau, eta=eta, target_sparsity=target)


def _prune(x, tau):
    """(pruned x, kept mask) from the engine's pruner: ``sparse_fc`` through
    an identity weight returns its pruned input exactly."""
    out, kept, _ = sparse_fc(x, np.eye(x.shape[1], dtype=np.float32), tau)
    return out, kept


def _forward(layer, x):
    """(output, OpCount) of ``sparse_fc`` on one ``SparseLinear`` layer."""
    y, kept, macs = sparse_fc(x, layer.weight, layer.tau, layer.eta, layer.bias_fused)
    return y, OpCount(macs, kept.size - int(np.count_nonzero(kept)))


def _random_layer(rng, ic, oc):
    w = rng.standard_normal((ic, oc)).astype(np.float32)
    b = rng.standard_normal(oc).astype(np.float32)
    return w, b


# ---------------------------------------------------------------------------
# pruning operator


def test_prune_tau_zero_keeps_nonzeros_prunes_exact_zeros():
    x = np.array([[0.0, 1.5, -2.0]], dtype=np.float32)
    out, kept = _prune(x, 0.0)
    np.testing.assert_array_equal(out, x)  # zeroing an exact zero changes nothing
    assert kept.tolist() == [[False, True, True]]


def test_prune_strict_boundary():
    x = np.array([[0.1, -0.5, 0.9]], dtype=np.float32)
    out, kept = _prune(x, 0.5)
    np.testing.assert_array_equal(out, np.array([[0.0, 0.0, 0.9]], dtype=np.float32))
    assert kept.tolist() == [[False, False, True]]


def test_prune_rejects_negative_tau():
    with pytest.raises(ValueError):
        _prune(np.zeros((1, 1), np.float32), -0.1)


def test_pruned_fraction_matches_calibrated_quantile():
    rng = np.random.default_rng(123)
    calib = rng.standard_normal(10_000).astype(np.float32)
    stats = LayerStats("t", capacity=1 << 15, seed=1)
    stats.observe(calib)
    tau = stats.quantile_threshold(0.3)
    held_out = rng.standard_normal((100, 100)).astype(np.float32)
    out, kept = _prune(held_out, tau)
    assert float(np.mean(out == 0.0)) == pytest.approx(0.30, abs=0.02)
    assert np.array_equal(out == 0.0, ~kept)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False, width=32), min_size=1, max_size=64),
    st.floats(0, 10),
    st.floats(0, 10),
)
def test_pruning_monotone_in_tau(values, t1, t2):
    x = np.asarray(values, dtype=np.float32)[None, :]
    lo, hi = sorted((t1, t2))
    s_lo = float(np.mean(_prune(x, lo)[0] == 0.0))
    s_hi = float(np.mean(_prune(x, hi)[0] == 0.0))
    assert s_lo <= s_hi


# ---------------------------------------------------------------------------
# construction / bias fusion


def test_eta_zero_keeps_bias_exactly():
    rng = np.random.default_rng(0)
    w, b = _random_layer(rng, 6, 4)
    layer = SparseLinear(w, b, _spec(tau=0.1, eta=0.0))
    assert np.array_equal(layer.bias_fused, b)


def test_bias_fusion_column_sums():
    w = np.ones((3, 2), dtype=np.float32)
    b = np.zeros(2, dtype=np.float32)
    layer = SparseLinear(w, b, _spec(eta=2.0))
    np.testing.assert_array_equal(layer.bias_fused, np.array([6.0, 6.0], np.float32))


def test_fused_bias_is_read_only_float64_or_none():
    w = np.ones((3, 2), dtype=np.float32)
    assert SparseLinear(w, None, _spec(eta=0.0)).bias_fused is None
    for bias in (None, np.zeros(2, np.float32)):
        fused = SparseLinear(w, bias, _spec(eta=2.0)).bias_fused
        assert fused.dtype == np.float64 and not fused.flags.writeable


def test_construction_shape_mismatch():
    with pytest.raises(ShapeError):
        SparseLinear(
            np.zeros((3, 2), np.float32), np.zeros(3, np.float32), _spec()
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        PruneSpec(tau=-1.0)
    with pytest.raises(ValueError):
        PruneSpec(tau=0.0, target_sparsity=1.5)


# ---------------------------------------------------------------------------
# forward semantics


def test_forward_dense_fallback():
    rng = np.random.default_rng(1)
    w, b = _random_layer(rng, 8, 4)
    x = rng.standard_normal((5, 8)).astype(np.float32)
    y, _ = _forward(SparseLinear(w, b, _spec()), x)
    np.testing.assert_allclose(y, matmul(x, w) + b, atol=1e-6)


def test_forward_mode_centering_equivalence():
    # tau=0 with arbitrary eta must reproduce the dense layer: the algebraic
    # identity behind bias fusion
    rng = np.random.default_rng(2)
    for _ in range(20):
        ic, oc = int(rng.integers(1, 64)), int(rng.integers(1, 64))
        w, b = _random_layer(rng, ic, oc)
        eta = float(rng.uniform(-2, 2))
        x = rng.standard_normal((4, ic)).astype(np.float32)
        y, _ = _forward(SparseLinear(w, b, _spec(eta=eta)), x)
        np.testing.assert_allclose(y, matmul(x, w) + b, atol=1e-5)


def test_forward_ones_input_matches_dense_oracle():
    rng = np.random.default_rng(3)
    w, b = _random_layer(rng, 8, 4)
    layer = SparseLinear(w, b, _spec(eta=0.37))
    x = np.ones((1, 8), dtype=np.float32)
    y, _ = _forward(layer, x)
    np.testing.assert_allclose(y, matmul(x, w) + b, atol=1e-5)


def _dynamic_eta_reference(w, b, spec, x):
    """The layer without bias fusion: the eta * column_sums(W) compensation
    is recomputed per call and added to the original bias."""
    pruned, _ = _prune(x - np.float32(spec.eta), spec.tau)
    w64 = w.astype(np.float64)
    y = pruned.astype(np.float64) @ w64 + spec.eta * w64.sum(axis=0) + b
    return y.astype(np.float32)


def test_forward_matches_dynamic_eta_oracle():
    rng = np.random.default_rng(4)
    w, b = _random_layer(rng, 32, 16)
    spec = _spec(tau=0.4, eta=0.8)
    layer = SparseLinear(w, b, spec)
    x = rng.standard_normal((6, 32)).astype(np.float32)
    y, _ = _forward(layer, x)
    np.testing.assert_allclose(y, _dynamic_eta_reference(w, b, spec, x), atol=1e-5)


def test_opcount_exact():
    rng = np.random.default_rng(5)
    w, b = _random_layer(rng, 128, 64)
    layer = SparseLinear(w, b, _spec(tau=0.7))
    x = rng.standard_normal((3, 128)).astype(np.float32)
    y, count = _forward(layer, x)
    kept = int(np.sum(np.abs(x) > 0.7))
    assert count.macs == 64 * kept
    assert count.elements_pruned == 3 * 128 - kept
    assert count.macs <= 3 * 128 * 64


def test_half_pruned_row_mac_example():
    w = np.ones((128, 64), dtype=np.float32)
    b = np.zeros(64, dtype=np.float32)
    x = np.concatenate([np.full(64, 0.1), np.full(64, 2.0)]).astype(np.float32)[None, :]
    _, count = _forward(SparseLinear(w, b, _spec(tau=1.0)), x)
    assert count.macs == 64 * 64  # OC times surviving channels


def test_output_error_grows_with_tau_in_aggregate():
    # pointwise max-norm monotonicity does not hold in general (pruned terms
    # can cancel); the aggregate mean-squared error over a large batch is the
    # monotone observable
    rng = np.random.default_rng(6)
    w, b = _random_layer(rng, 64, 32)
    x = rng.standard_normal((256, 64)).astype(np.float32)
    dense, _ = _forward(SparseLinear(w, b, _spec()), x)
    errors = []
    for tau in (0.0, 0.2, 0.4, 0.8, 1.2, 2.0):
        y, _ = _forward(SparseLinear(w, b, _spec(tau=tau)), x)
        errors.append(float(np.mean((y.astype(np.float64) - dense) ** 2)))
    for e_lo, e_hi in zip(errors, errors[1:]):
        assert e_hi >= e_lo - 1e-3 * max(e_lo, 1e-12)


def test_weight_is_immutable():
    rng = np.random.default_rng(7)
    w, b = _random_layer(rng, 4, 4)
    layer = SparseLinear(w, b, _spec())
    with pytest.raises(ValueError):
        layer.weight[0, 0] = 5.0
