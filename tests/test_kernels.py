"""FFN execution schemes: value equivalences, mask structure, MAC accounting."""

import numpy as np
import pytest

from scap.kernels import (
    BlockRecord,
    GeluMlpWeights,
    SwiGluWeights,
    cats_swiglu,
    down_site,
    ffn_sparsity,
    gelu_up_site,
    mlp_ffn_sparsity,
    swiglu_up_site,
)
from scap.prune import PruneSpec, compile_ffn
from scap.tensor import ShapeError, gelu, matmul, silu


def _swiglu(rng, d, h):
    return SwiGluWeights(
        (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
        (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
        (rng.standard_normal((h, d)) / np.sqrt(h)).astype(np.float32),
    )


def dense_macs_swiglu(batch, d, h):
    """Oracle: Up and Gate read d inputs into h outputs each, Down h into d."""
    return batch * (2 * d * h + h * d)


def run_block(x, w, sites=(None, None)):
    """(output, Down input, record) of one FFN block run as the two site
    steps of its kind; ``sites`` are the compiled (Up/Gate, Down) sites of
    ``compile_ffn``, None for a dense one."""
    up_site = swiglu_up_site if isinstance(w, SwiGluWeights) else gelu_up_site
    z, up_run = up_site(x, w, sites[0])
    y, down_run = down_site(z, w, sites[1])
    return y, z, BlockRecord(up_run, down_run)


def _scap_masks(tau_x, tau_z, x, w, eta_z=0.0):
    """OpCount and the (Up/Gate, Down) kept masks from the one FFN path."""
    _, _, rec = run_block(x, w, compile_ffn(w, PruneSpec(tau_x), PruneSpec(tau_z, eta_z)))
    return rec.ops, rec.up.kept, rec.down.kept


def dense_swiglu(x, w):
    """(output, OpCount) of the unpruned SwiGLU block."""
    y, _, rec = run_block(x, w)
    return y, rec.ops


def dense_gelu_mlp(x, w):
    """(output, OpCount) of the unpruned GELU MLP block."""
    y, _, rec = run_block(x, w)
    return y, rec.ops


def scap_swiglu(tau_x, tau_gated, x, w, eta_x=0.0, eta_gated=0.0):
    """(output, OpCount) of the SwiGLU block with both sites pruned."""
    sites = compile_ffn(w, PruneSpec(tau_x, eta_x), PruneSpec(tau_gated, eta_gated))
    y, _, rec = run_block(x, w, sites)
    return y, rec.ops


def scap_gelu_mlp(tau_x, tau_h, eta_h, x, w):
    """(output, OpCount) of the GELU MLP with both sites pruned, the hidden
    activation mode-shifted by ``eta_h``."""
    y, _, rec = run_block(x, w, compile_ffn(w, PruneSpec(tau_x), PruneSpec(tau_h, eta_h)))
    return y, rec.ops


def _gelu_mlp(rng, d, h, bias_offset=0.0):
    return GeluMlpWeights(
        (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
        (bias_offset + 0.05 * rng.standard_normal(h)).astype(np.float32),
        (rng.standard_normal((h, d)) / np.sqrt(h)).astype(np.float32),
        np.zeros(d, dtype=np.float32),
    )


# ---------------------------------------------------------------------------
# dense references


def test_dense_swiglu_zero_input():
    w = _swiglu(np.random.default_rng(0), 4, 8)
    y, _ = dense_swiglu(np.zeros((2, 4), np.float32), w)
    np.testing.assert_array_equal(y, np.zeros((2, 4), np.float32))


def test_dense_swiglu_mac_count():
    w = _swiglu(np.random.default_rng(0), 4, 8)
    _, count = dense_swiglu(np.zeros((1, 4), np.float32), w)
    assert count.macs == 96  # 2*4*8 + 8*4


def test_dense_swiglu_matches_composed_ops():
    rng = np.random.default_rng(1)
    w = _swiglu(rng, 16, 64)
    x = rng.standard_normal((4, 16)).astype(np.float32)
    y, _ = dense_swiglu(x, w)
    oracle = matmul(silu(matmul(x, w.w_gate)) * matmul(x, w.w_up), w.w_down)
    np.testing.assert_allclose(y, oracle, atol=1e-5)


def test_dense_shape_check():
    w = _swiglu(np.random.default_rng(0), 4, 8)
    with pytest.raises(ShapeError):
        dense_swiglu(np.zeros((1, 5), np.float32), w)


# ---------------------------------------------------------------------------
# CATS


def test_cats_tau_zero_equals_dense():
    rng = np.random.default_rng(2)
    w = _swiglu(rng, 8, 24)
    x = rng.standard_normal((3, 8)).astype(np.float32)
    y_cats, _ = cats_swiglu(0.0, x, w)
    y_dense, _ = dense_swiglu(x, w)
    np.testing.assert_allclose(y_cats, y_dense, atol=1e-6)


def test_cats_all_channels_masked():
    rng = np.random.default_rng(3)
    w = _swiglu(rng, 8, 24)
    x = rng.standard_normal((2, 8)).astype(np.float32)
    v = silu(matmul(x, w.w_gate))
    tau = float(np.abs(v).max()) * 1.001
    y, count = cats_swiglu(tau, x, w)
    np.testing.assert_array_equal(y, np.zeros_like(y))
    assert count.macs == 2 * 8 * 24  # gate path only
    assert count.elements_pruned == 2 * 24


def test_cats_median_threshold_mac_count():
    rng = np.random.default_rng(4)
    d, h, n = 16, 48, 4
    w = _swiglu(rng, d, h)
    x = rng.standard_normal((n, d)).astype(np.float32)
    v = silu(matmul(x, w.w_gate))
    tau = float(np.quantile(np.abs(v), 0.5))
    _, count = cats_swiglu(tau, x, w)
    kept = int(np.sum(np.abs(v) >= tau))
    assert count.macs == n * d * h + 2 * d * kept
    assert count.macs == pytest.approx(n * (d * h + 2 * (h / 2) * d), rel=0.05)


def test_cats_equals_dense_with_subthreshold_silu_zeroed():
    rng = np.random.default_rng(5)
    w = _swiglu(rng, 12, 36)
    x = rng.standard_normal((5, 12)).astype(np.float32)
    v = silu(matmul(x, w.w_gate))
    tau = float(np.quantile(np.abs(v), 0.4))
    y, _ = cats_swiglu(tau, x, w)
    v_masked = np.where(np.abs(v) >= tau, v, 0.0).astype(np.float32)
    oracle = matmul(v_masked * matmul(x, w.w_up), w.w_down)
    np.testing.assert_allclose(y, oracle, atol=1e-5)


def test_cats_mask_couples_up_columns_and_down_rows():
    # weights of masked-out channels are never fetched: perturbing them
    # cannot change the output
    rng = np.random.default_rng(6)
    w = _swiglu(rng, 10, 30)
    x = rng.standard_normal((1, 10)).astype(np.float32)
    v = silu(matmul(x, w.w_gate))[0]
    tau = float(np.quantile(np.abs(v), 0.5))
    dead = np.flatnonzero(np.abs(v) < tau)
    assert dead.size > 0
    y_ref, _ = cats_swiglu(tau, x, w)
    w_up = w.w_up.copy()
    w_down = w.w_down.copy()
    w_up[:, dead] += 1000.0
    w_down[dead, :] -= 1000.0
    y_perturbed, _ = cats_swiglu(tau, x, SwiGluWeights(w.w_gate, w_up, w_down))
    np.testing.assert_array_equal(y_ref, y_perturbed)


# ---------------------------------------------------------------------------
# SCAP SwiGLU


def test_scap_zero_thresholds_equal_dense():
    rng = np.random.default_rng(7)
    w = _swiglu(rng, 16, 48)
    x = rng.standard_normal((4, 16)).astype(np.float32)
    y, _ = scap_swiglu(0.0, 0.0, x, w)
    y_dense, _ = dense_swiglu(x, w)
    np.testing.assert_allclose(y, y_dense, atol=1e-5)


def test_scap_eta_equivalence_at_zero_tau():
    rng = np.random.default_rng(8)
    w = _swiglu(rng, 16, 48)
    x = rng.standard_normal((4, 16)).astype(np.float32)
    y, _ = scap_swiglu(0.0, 0.0, x, w, eta_x=0.3, eta_gated=-0.2)
    y_dense, _ = dense_swiglu(x, w)
    np.testing.assert_allclose(y, y_dense, atol=1e-5)


def test_scap_table_row_sparsity_accounting():
    # targets (0.42, 0.617) reproduce the 48.5% aggregate FFN sparsity
    rng = np.random.default_rng(9)
    d, h, n = 64, 192, 256
    w = _swiglu(rng, d, h)
    x = rng.standard_normal((n, d)).astype(np.float32)
    tau_x = float(np.quantile(np.abs(x), 0.42))
    z = silu(matmul(x, w.w_gate)) * matmul(x, w.w_up)
    tau_g = float(np.quantile(np.abs(z), 0.617))
    count, kept_x, kept_g = _scap_masks(tau_x, tau_g, x, w)
    s_x = 1.0 - kept_x.sum() / kept_x.size
    s_g = 1.0 - kept_g.sum() / kept_g.size
    assert ffn_sparsity(s_x, s_g) == pytest.approx(0.485, abs=0.01)
    assert count.macs == 2 * h * int(kept_x.sum()) + d * int(kept_g.sum())


def test_scap_single_row_mac_example():
    d, h = 64, 32
    rng = np.random.default_rng(10)
    w = _swiglu(rng, d, h)
    x = np.concatenate([np.full(32, 0.01), np.full(32, 3.0)]).astype(np.float32)[None, :]
    count, kept_x, kept_g = _scap_masks(1.0, 0.0, x, w)
    assert int(kept_x.sum()) == 32  # exactly half the input channels survive
    assert count.macs == 2 * 32 * h + int(kept_g.sum()) * d


def test_scap_mac_proportionality_identity():
    rng = np.random.default_rng(11)
    d, h, n = 32, 96, 64
    w = _swiglu(rng, d, h)
    x = rng.standard_normal((n, d)).astype(np.float32)
    for s in (0.1, 0.3, 0.5):
        tau_x = float(np.quantile(np.abs(x), s))
        z = silu(matmul(x, w.w_gate)) * matmul(x, w.w_up)
        tau_g = float(np.quantile(np.abs(z), s))
        count, kept_x, kept_g = _scap_masks(tau_x, tau_g, x, w)
        s_x = 1.0 - kept_x.sum() / kept_x.size
        s_g = 1.0 - kept_g.sum() / kept_g.size
        ratio = count.macs / dense_macs_swiglu(n, d, h)
        assert ratio == pytest.approx(1.0 - ffn_sparsity(s_x, s_g), abs=1e-9)


def test_scap_masks_decoupled():
    rng = np.random.default_rng(12)
    w = _swiglu(rng, 16, 48)
    x = rng.standard_normal((6, 16)).astype(np.float32)
    _, mask_a, _ = _scap_masks(0.5, 0.1, x, w)
    _, mask_b, gated_b = _scap_masks(0.5, 0.9, x, w)
    np.testing.assert_array_equal(mask_a, mask_b)  # tau_gated cannot touch Up/Gate
    # the down mask is a pure function of (gated tensor, tau, eta)
    up, _, _ = _sparse_up(x, w, 0.5)
    np.testing.assert_array_equal(gated_b, np.abs(up) > 0.9)


def _sparse_up(x, w, tau_x):
    from scap.kernels import sparse_fc

    up, kept, macs = sparse_fc(x, w.w_up, tau_x)
    gate, _, _ = sparse_fc(x, w.w_gate, tau_x)
    return (silu(gate) * up), kept, macs


# ---------------------------------------------------------------------------
# SCAP GELU MLP


def test_gelu_mlp_zero_thresholds_equal_dense():
    rng = np.random.default_rng(13)
    w = _gelu_mlp(rng, 16, 48)
    x = rng.standard_normal((4, 16)).astype(np.float32)
    y, _ = scap_gelu_mlp(0.0, 0.0, 0.0, x, w)
    y_dense, _ = dense_gelu_mlp(x, w)
    np.testing.assert_allclose(y, y_dense, atol=1e-5)


def test_gelu_mlp_bias_fusion_identity():
    rng = np.random.default_rng(14)
    w = _gelu_mlp(rng, 16, 48, bias_offset=1.0)
    x = rng.standard_normal((4, 16)).astype(np.float32)
    y, _ = scap_gelu_mlp(0.0, 0.0, 0.73, x, w)  # eta nonzero, tau_h zero
    y_dense, _ = dense_gelu_mlp(x, w)
    np.testing.assert_allclose(y, y_dense, atol=1e-5)


def test_gelu_mlp_mode_centered_down_sparsity():
    # shifted hidden mode: centering at the mode and thresholding at the
    # 0.574 quantile of |h - eta| lands 57.4% observed Down-input sparsity
    rng = np.random.default_rng(15)
    d, h, n = 32, 128, 512
    w = _gelu_mlp(rng, d, h, bias_offset=1.2)
    x = (0.1 * rng.standard_normal((n, d))).astype(np.float32)
    hidden = gelu(matmul(x, w.w_up) + w.b_up)
    eta = float(np.median(hidden))
    tau_h = float(np.quantile(np.abs(hidden.astype(np.float64) - eta), 0.574))
    count, _, kept_h = _scap_masks(0.0, tau_h, x, w, eta_z=eta)
    observed = 1.0 - kept_h.sum() / kept_h.size
    assert observed == pytest.approx(0.574, abs=0.01)
    assert count.macs == d * h * n + int(kept_h.sum()) * d


# ---------------------------------------------------------------------------
# aggregate sparsity arithmetic


def test_ffn_sparsity_values():
    assert ffn_sparsity(0.0, 0.0) == 0.0
    assert ffn_sparsity(0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert ffn_sparsity(0.42, 0.617) == pytest.approx(0.4857, abs=1e-3)
    # CATS couples Up and Down at s_silu and leaves Gate dense
    assert 2.0 / 3.0 * 0.5 == pytest.approx(0.3333, abs=1e-3)
    assert mlp_ffn_sparsity(0.4, 0.6) == pytest.approx(0.5, abs=1e-12)


def test_ffn_sparsity_domain():
    with pytest.raises(ValueError):
        ffn_sparsity(-0.1, 0.5)
    with pytest.raises(ValueError):
        ffn_sparsity(0.5, 1.2)
    with pytest.raises(ValueError):
        mlp_ffn_sparsity(2.0, 0.0)


# ---------------------------------------------------------------------------
# cross-scheme invariants


def test_scheme_equivalence_at_zero_thresholds():
    rng = np.random.default_rng(16)
    for _ in range(10):
        d = int(rng.integers(2, 64))
        h = int(rng.integers(2, 256))
        n = int(rng.integers(1, 8))
        w = _swiglu(rng, d, h)
        x = rng.standard_normal((n, d)).astype(np.float32)
        y_dense, _ = dense_swiglu(x, w)
        y_cats, _ = cats_swiglu(0.0, x, w)
        y_scap, _ = scap_swiglu(0.0, 0.0, x, w)
        np.testing.assert_allclose(y_cats, y_dense, atol=1e-5)
        np.testing.assert_allclose(y_scap, y_dense, atol=1e-5)


def test_negative_thresholds_rejected():
    rng = np.random.default_rng(18)
    w = _swiglu(rng, 4, 8)
    x = rng.standard_normal((1, 4)).astype(np.float32)
    with pytest.raises(ValueError):
        cats_swiglu(-0.1, x, w)
    with pytest.raises(ValueError):
        scap_swiglu(0.1, -0.1, x, w)


def test_macs_never_exceed_dense():
    rng = np.random.default_rng(17)
    d, h, n = 24, 72, 16
    w = _swiglu(rng, d, h)
    x = rng.standard_normal((n, d)).astype(np.float32)
    dense = dense_macs_swiglu(n, d, h)
    for tau in (0.0, 0.5, 2.0):
        _, c1 = cats_swiglu(tau, x, w)
        _, c2 = scap_swiglu(tau, tau, x, w)
        assert c1.macs <= dense
        assert c2.macs <= dense
