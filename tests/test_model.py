"""Toy stack: hook capture, spec application, deterministic initialization."""

import numpy as np
import pytest

from scap.analysis import calibrate, make_specs, measure_sparsity, synthetic_stream
from scap.calib import LayerStats, ModeEstimator
from scap.model import (
    DOWN_INPUT,
    SITES,
    UP_GATE_INPUT,
    BlockConfig,
    HookPoint,
    init_weights,
)
from scap.prune import PruneSpec
from scap.tensor import CAST_BLOCK_BYTES, ShapeError, gelu, matmul


def _input(rng, n, d, scale=1.0):
    return (scale * rng.standard_normal((n, d))).astype(np.float32)


def test_forward_without_hooks_is_plain_forward():
    model = init_weights(BlockConfig(d_model=8, d_hidden=16, n_blocks=1), seed=0)
    x = _input(np.random.default_rng(1), 4, 8)
    y, captured = model.forward_with_hooks(x, [])
    assert captured == {}
    assert np.array_equal(y, model.forward(x))


def test_hook_capture_is_non_invasive():
    model = init_weights(BlockConfig(d_model=12, d_hidden=24, n_blocks=3), seed=2)
    x = _input(np.random.default_rng(3), 6, 12)
    y_plain = model.forward(x)
    y_hooked, captured = model.forward_with_hooks(x, model.hook_points())
    assert np.array_equal(y_plain, y_hooked)
    assert len(captured) == 6


def test_gelu_down_input_hook_matches_definition():
    cfg = BlockConfig(
        ffn="gelu", d_model=10, d_hidden=20, n_blocks=1, rmsnorm=False, residual=False
    )
    model = init_weights(cfg, seed=4)
    x = _input(np.random.default_rng(5), 3, 10)
    _, captured = model.forward_with_hooks(x, [HookPoint(0, DOWN_INPUT)])
    w = model.blocks[0]
    expected = gelu(matmul(x, w.w_up) + w.b_up)
    np.testing.assert_array_equal(captured[HookPoint(0, DOWN_INPUT)], expected)


def test_hook_shapes_two_blocks():
    cfg = BlockConfig(d_model=8, d_hidden=32, n_blocks=2)
    model = init_weights(cfg, seed=6)
    x = _input(np.random.default_rng(7), 5, 8)
    _, captured = model.forward_with_hooks(x, model.hook_points())
    assert len(captured) == 4
    for hook, tensor in captured.items():
        expected_cols = 8 if hook.site == UP_GATE_INPUT else 32
        assert tensor.shape == (5, expected_cols)


def test_invalid_hook_rejected():
    model = init_weights(BlockConfig(d_model=8, d_hidden=16, n_blocks=1), seed=0)
    with pytest.raises(ValueError):
        model.forward_with_hooks(np.zeros((1, 8), np.float32), [HookPoint(3, DOWN_INPUT)])
    with pytest.raises(ValueError):
        model.apply_prune_specs({HookPoint(0, "nowhere"): PruneSpec(0.0)})


def test_empty_specs_bitwise_identical():
    model = init_weights(BlockConfig(d_model=16, d_hidden=48, n_blocks=2), seed=8)
    x = _input(np.random.default_rng(9), 7, 16)
    sparse = model.apply_prune_specs({})
    y_sparse, records = sparse.forward(x)
    assert np.array_equal(y_sparse, model.forward(x))
    assert all(rec.ops.elements_pruned == 0 for rec in records)


@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
def test_records_count_from_the_masks_of_the_captured_inputs(ffn):
    # mixed specs: block 0 prunes both sites, block 1 only Up/Gate with a
    # mode shift, block 2 only Down
    cfg = BlockConfig(ffn=ffn, d_model=16, d_hidden=48, n_blocks=3)
    model = init_weights(cfg, seed=30)
    x = _input(np.random.default_rng(31), 9, 16)
    specs = {
        HookPoint(0, UP_GATE_INPUT): PruneSpec(0.5),
        HookPoint(0, DOWN_INPUT): PruneSpec(0.05, eta=0.01),
        HookPoint(1, UP_GATE_INPUT): PruneSpec(0.8, eta=-0.1),
        HookPoint(2, DOWN_INPUT): PruneSpec(0.1),
    }
    sparse = model.apply_prune_specs(specs)
    _, records = sparse.forward(x)
    _, captured = sparse.forward_with_hooks(x, model.hook_points())
    up_width = 2 * cfg.d_hidden if ffn == "swiglu" else cfg.d_hidden  # Up and Gate
    for b, rec in enumerate(records):
        macs = 0
        for site, run, width in zip(SITES, (rec.up, rec.down), (up_width, cfg.d_model)):
            hook = HookPoint(b, site)
            seen = captured[hook]
            if hook in specs:
                kept = np.abs(seen - np.float32(specs[hook].eta)) > specs[hook].tau
            else:
                kept = np.ones(seen.shape, dtype=bool)  # a dense site keeps all
            np.testing.assert_array_equal(run.kept, kept)
            assert rec.pruned[site] == run.pruned == seen.size - int(kept.sum())
            assert rec.total[site] == seen.size
            macs += int(kept.sum()) * width
        assert rec.ops.macs == rec.up.macs + rec.down.macs == macs
        assert rec.ops.elements_pruned == sum(rec.pruned.values())
        assert rec.dense_macs == 9 * (up_width + cfg.d_hidden) * cfg.d_model


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
def test_each_site_counts_the_dense_macs_of_the_projections_reading_it(ffn, pruned, n):
    d, h = 16, 48
    model = init_weights(BlockConfig(ffn=ffn, d_model=d, d_hidden=h, n_blocks=2), seed=34)
    specs = {hook: PruneSpec(0.5) for hook in model.hook_points()} if pruned else {}
    _, records = model.apply_prune_specs(specs).forward(_input(np.random.default_rng(35), n, d))
    # input elements x output widths: SwiGLU's Up and Gate both read x
    up_widths = 2 * h if ffn == "swiglu" else h
    for rec in records:
        assert (rec.up.dense_macs, rec.down.dense_macs) == (n * d * up_widths, n * h * d)
        assert rec.dense_macs == sum(run.dense_macs for run in rec.sites.values())
        for run in rec.sites.values():
            if pruned:
                assert run.pruned > 0 and 0 <= run.macs <= run.dense_macs
            else:
                assert run.macs == run.dense_macs


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
def test_nan_input_row_gives_a_nan_output_row_as_in_the_dense_forward(ffn, n):
    # with rmsnorm and the residual off, only the pruned sites carry the NaN
    cfg = BlockConfig(
        ffn=ffn, d_model=16, d_hidden=48, n_blocks=2, rmsnorm=False, residual=False
    )
    model = init_weights(cfg, seed=32)
    x = _input(np.random.default_rng(33), n, 16)
    x[n // 2, 3] = np.nan
    sparse = model.apply_prune_specs({hook: PruneSpec(0.5) for hook in model.hook_points()})
    y, records = sparse.forward(x)
    y_dense = model.forward(x)
    assert np.isnan(y_dense[n // 2]).all() and records[0].up.pruned > 0
    np.testing.assert_array_equal(np.isnan(y), np.isnan(y_dense))


@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
def test_tau_zero_specs_match_dense_within_fusion_rounding(ffn):
    cfg = BlockConfig(ffn=ffn, d_model=16, d_hidden=48, n_blocks=3)
    model = init_weights(cfg, seed=10)
    x = _input(np.random.default_rng(11), 16, 16)
    stream = synthetic_stream(16, 4, 64, seed=12)
    calres = calibrate(model, stream, capacity=1 << 14, seed=13)
    specs = {}
    for hook in model.hook_points():
        stats = calres[hook.site]
        eta = stats.estimate_mode(ModeEstimator(kind="mean"))
        specs[hook] = PruneSpec(tau=0.0, eta=eta)
    y_sparse, _ = model.apply_prune_specs(specs).forward(x)
    np.testing.assert_allclose(y_sparse, model.forward(x), atol=1e-4)


def test_targets_reproduced_on_held_out_data():
    cfg = BlockConfig(d_model=24, d_hidden=72, n_blocks=2)
    model = init_weights(cfg, seed=14)
    calres = calibrate(
        model, synthetic_stream(24, 16, 128, seed=15), capacity=1 << 17, seed=16
    )
    specs = make_specs(model, calres, {UP_GATE_INPUT: 0.4, DOWN_INPUT: 0.6})
    report = measure_sparsity(model, specs, synthetic_stream(24, 16, 128, seed=17))
    for hook, obs in report.hooks.items():
        assert obs.observed_sparsity == pytest.approx(obs.target_sparsity, abs=0.03)


def test_init_weights_deterministic():
    cfg = BlockConfig(d_model=8, d_hidden=16, n_blocks=2, ffn="gelu")
    a, _ = init_weights(cfg, seed=100).to_tensors()
    b, _ = init_weights(cfg, seed=100).to_tensors()
    c, _ = init_weights(cfg, seed=101).to_tensors()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def _one_shot_init(config, seed):
    """Reference: each matrix drawn whole in float64, then cast to float32."""
    rng = np.random.default_rng(seed)
    d, h = config.d_model, config.d_hidden

    def scaled(fan_in, fan_out, gain=1.0):
        z = rng.standard_normal((fan_in, fan_out))
        return (gain * z / np.sqrt(fan_in)).astype(np.float32)

    tensors = {}
    for i in range(config.n_blocks):
        if config.ffn == "swiglu":
            tensors[f"block{i}.w_gate"] = scaled(d, h)
            tensors[f"block{i}.w_up"] = scaled(d, h)
            tensors[f"block{i}.w_down"] = scaled(h, d)
        else:
            b_up = config.up_bias_offset + 0.05 * rng.standard_normal(h)
            tensors[f"block{i}.b_up"] = b_up.astype(np.float32)
            tensors[f"block{i}.w_up"] = scaled(d, h, gain=0.75)
            tensors[f"block{i}.w_down"] = scaled(h, d)
            tensors[f"block{i}.b_down"] = np.zeros(d, np.float32)
        if config.rmsnorm:
            tensors[f"block{i}.norm_gain"] = np.ones(d, np.float32)
    return tensors


@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
@pytest.mark.parametrize("d, h, several_blocks", [(8, 16, False), (300, 1000, True)])
def test_init_weights_matches_one_shot_draw_bytewise(ffn, d, h, several_blocks):
    for fan_in, fan_out in ((d, h), (h, d)):
        step = CAST_BLOCK_BYTES // (8 * fan_out)  # rows per drawn block
        assert several_blocks == (fan_in > 2 * step and fan_in % step > 0)
    cfg = BlockConfig(ffn=ffn, d_model=d, d_hidden=h, n_blocks=2, up_bias_offset=0.5)
    got, _ = init_weights(cfg, seed=25).to_tensors()
    want = _one_shot_init(cfg, seed=25)
    assert set(got) == set(want)
    for k in want:
        assert got[k].dtype == np.float32
        assert np.array_equal(got[k], want[k]), k


def test_fan_in_scaling_keeps_layer_variance_near_unit():
    rng = np.random.default_rng(18)
    model = init_weights(BlockConfig(d_model=64, d_hidden=256, n_blocks=1), seed=19)
    w = model.blocks[0]
    x_d = rng.standard_normal((2048, 64)).astype(np.float32)
    x_h = rng.standard_normal((2048, 256)).astype(np.float32)
    for inp, mat in ((x_d, w.w_gate), (x_d, w.w_up), (x_h, w.w_down)):
        var = float(np.var(matmul(inp, mat), dtype=np.float64))
        assert 0.5 <= var <= 2.0


def test_bias_offset_shifts_gelu_output_mode():
    cfg = BlockConfig(
        ffn="gelu", d_model=32, d_hidden=128, n_blocks=1,
        rmsnorm=False, up_bias_offset=1.2,
    )
    model = init_weights(cfg, seed=20)
    x = _input(np.random.default_rng(21), 2048, 32)  # unit-normal inputs
    _, captured = model.forward_with_hooks(x, [HookPoint(0, DOWN_INPUT)])
    stats = LayerStats("h", capacity=1 << 18, seed=22)
    stats.observe(captured[HookPoint(0, DOWN_INPUT)])
    assert stats.estimate_mode(ModeEstimator(kind="kde")) > 0.2


def test_forward_determinism_across_runs():
    cfg = BlockConfig(d_model=8, d_hidden=16, n_blocks=2)
    x = _input(np.random.default_rng(23), 4, 8)
    y1 = init_weights(cfg, seed=24).forward(x)
    y2 = init_weights(cfg, seed=24).forward(x)
    assert np.array_equal(y1, y2)


def test_input_shape_validation():
    model = init_weights(BlockConfig(d_model=8, d_hidden=16, n_blocks=1), seed=0)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 9), np.float32))
