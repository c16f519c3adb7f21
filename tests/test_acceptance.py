"""Acceptance suite: one test per release criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with the measured values.
"""

import time

import numpy as np
import pytest

from scap import analysis, io, kernels
from scap.analysis import (
    CorrelatedBatches,
    calibrate,
    iso_error_gain,
    make_specs,
    measure_sparsity,
    mode_centering_ablation,
    overlap_curve,
    overlap_sparsity,
    pareto_sweep,
    synthetic_stream,
)
from scap.calib import LayerStats
from scap.cli import main as cli_main
from scap.kernels import (
    SwiGluWeights,
    cats_swiglu,
    ffn_sparsity,
    swiglu_ffn,
)
from scap.model import DOWN_INPUT, UP_GATE_INPUT, BlockConfig, init_weights
from scap.prune import PruneSpec, SparseLinear, compile_ffn
from scap.tensor import matmul, silu

from test_cli import fast


def dense_macs_swiglu(batch, d, h):
    """Oracle: Up and Gate read d inputs into h outputs each, Down h into d."""
    return batch * (2 * d * h + h * d)


def _scap_masks(tau_x, tau_g, x, w):
    """OpCount and the (Up/Gate, Down) kept masks from the one SwiGLU path."""
    _, _, rec = swiglu_ffn(x, w, *compile_ffn(w, PruneSpec(tau_x), PruneSpec(tau_g)))
    return rec.ops, rec.up.kept, rec.down.kept


def dense_swiglu(x, w):
    """(output, OpCount) of the unpruned SwiGLU block."""
    y, _, rec = swiglu_ffn(x, w)
    return y, rec.ops


def scap_swiglu(tau_x, tau_gated, x, w):
    """(output, OpCount) of the SwiGLU block with both sites pruned."""
    y, _, rec = swiglu_ffn(x, w, *compile_ffn(w, PruneSpec(tau_x), PruneSpec(tau_gated)))
    return y, rec.ops


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_mode_centering_functional_equivalence():
    # 100 random (W, b, eta) layers up to 256x256: tau=0 forward == XW + b
    # within 1e-5 absolute per element, in under 10 seconds
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        ic = int(rng.integers(1, 257))
        oc = int(rng.integers(1, 257))
        w = rng.standard_normal((ic, oc)).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32)
        eta = float(rng.uniform(-2.0, 2.0))
        x = rng.standard_normal((4, ic)).astype(np.float32)
        layer = SparseLinear(w, b, PruneSpec(tau=0.0, eta=eta))
        y, _, _ = kernels.sparse_fc(x, layer.weight, layer.tau, layer.eta, layer.bias_fused)
        dense = matmul(x, w) + b
        worst = max(worst, float(np.max(np.abs(y.astype(np.float64) - dense))))
        assert np.allclose(y, dense, atol=1e-5)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        "criterion 1 (mode-centering functional equivalence)",
        f"100 layers, max |error| {worst:.2e} <= 1e-5, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_quantile_pruner_consistency():
    # thresholds from the calibration reservoir hit target sparsity on a
    # held-out 1e5-element sample within +-0.02 for s in {0.1, ..., 0.9}
    rng = np.random.default_rng(102)
    stats = LayerStats("x", capacity=1 << 17, seed=202)
    stats.observe(rng.standard_normal(300_000).astype(np.float32))
    held_out = rng.standard_normal(100_000).astype(np.float32)
    worst = 0.0
    for s in np.arange(0.1, 0.95, 0.1):
        tau = stats.quantile_threshold(float(s))
        observed = float(np.mean(np.abs(held_out) <= tau))
        worst = max(worst, abs(observed - s))
        assert observed == pytest.approx(s, abs=0.02)
    _report(
        "criterion 2 (quantile/pruner consistency)",
        f"s in 0.1..0.9, max |observed - target| {worst:.4f} <= 0.02",
    )


def test_criterion_03_target_vs_actual_alignment():
    # end-to-end on a 4-block model: calibrated targets reproduce observed
    # per-hook sparsities within +-0.03 on matched held-out data
    model = init_weights(
        BlockConfig(ffn="swiglu", d_model=32, d_hidden=96, n_blocks=4), seed=303
    )
    calib_stream = synthetic_stream(32, 32, 128, seed=313)
    eval_stream = synthetic_stream(32, 32, 128, seed=323)
    worst = 0.0
    for target in (0.2, 0.35, 0.5, 0.65, 0.8):
        specs = analysis.plan_specs(
            model,
            calib_stream,
            {UP_GATE_INPUT: target, DOWN_INPUT: target},
            capacity=1 << 18,
            seed=333,
        )
        report = measure_sparsity(model, specs, eval_stream)
        for label, obs in report.hooks.items():
            worst = max(worst, abs(obs.observed_sparsity - target))
            assert obs.observed_sparsity == pytest.approx(target, abs=0.03), label
    _report(
        "criterion 3 (target-vs-actual alignment)",
        f"4 blocks x 8 hooks x targets 0.2..0.8, max deviation {worst:.4f} <= 0.03",
    )


def test_criterion_04_ffn_sparsity_accounting():
    value = ffn_sparsity(0.42, 0.617)
    assert value == pytest.approx(0.4857, abs=0.001)
    cats_50 = 2.0 / 3.0 * 0.5
    assert cats_50 == pytest.approx(0.333, abs=5e-4)
    _report(
        "criterion 4 (FFN sparsity accounting)",
        f"ffn(0.42, 0.617) = {value:.4f} ~ 0.4857; CATS-50% = {cats_50:.4f} ~ 0.333",
    )


def test_criterion_05_mac_proportionality():
    rng = np.random.default_rng(105)
    d, h, n = 48, 144, 1024
    w = SwiGluWeights(
        (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
        (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
        (rng.standard_normal((h, d)) / np.sqrt(h)).astype(np.float32),
    )
    x = rng.standard_normal((n, d)).astype(np.float32)
    z = silu(matmul(x, w.w_gate)) * matmul(x, w.w_up)
    dense = dense_macs_swiglu(n, d, h)

    worst_scap = worst_cats = 0.0
    for s in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        tau_x = float(np.quantile(np.abs(x), s))
        tau_g = float(np.quantile(np.abs(z), s))
        count, kept_x, kept_g = _scap_masks(tau_x, tau_g, x, w)
        obs_ffn = ffn_sparsity(
            1.0 - kept_x.sum() / kept_x.size, 1.0 - kept_g.sum() / kept_g.size
        )
        gap = abs(count.macs / dense - (1.0 - obs_ffn))
        worst_scap = max(worst_scap, gap)
        assert gap <= 1e-6

        v = silu(matmul(x, w.w_gate))
        tau_s = float(np.quantile(np.abs(v), s))
        _, c_cats = cats_swiglu(tau_s, x, w)
        s_silu_obs = c_cats.elements_pruned / (n * h)
        gap = abs(c_cats.macs / dense - (1.0 - 2.0 / 3.0 * s_silu_obs))
        worst_cats = max(worst_cats, gap)
        assert gap <= 0.01

    # iso-quality stand-in for the decoding-speedup ratio: SCAP savings at
    # targets (0.42, 0.617) versus CATS savings at s_silu = 0.5
    tau_x = float(np.quantile(np.abs(x), 0.42))
    tau_g = float(np.quantile(np.abs(z), 0.617))
    count_scap, _, _ = _scap_masks(tau_x, tau_g, x, w)
    savings_scap = 1.0 - count_scap.macs / dense
    v = silu(matmul(x, w.w_gate))
    _, count_cats = cats_swiglu(float(np.quantile(np.abs(v), 0.5)), x, w)
    savings_cats = 1.0 - count_cats.macs / dense
    ratio = savings_scap / savings_cats
    assert ratio >= 1.4
    _report(
        "criterion 5 (MAC proportionality)",
        f"scap |ratio-(1-ffn)| {worst_scap:.1e} <= 1e-6; cats {worst_cats:.1e} <= 0.01; "
        f"savings ratio {ratio:.2f} >= 1.4",
    )


def test_criterion_06_mode_centering_sparsity_gain():
    # shifted-GELU substrate: at matched reconstruction error, centering buys
    # at least 30 points of Down-input sparsity
    start = time.monotonic()
    cfg = BlockConfig(
        ffn="gelu", d_model=24, d_hidden=96, n_blocks=1,
        rmsnorm=False, up_bias_offset=1.2,
    )
    model = init_weights(cfg, seed=606)
    calib_stream = synthetic_stream(24, 16, 128, scale=0.1, seed=616)
    eval_stream = synthetic_stream(24, 16, 128, scale=0.1, seed=626)
    result = mode_centering_ablation(
        model,
        calib_stream,
        eval_stream,
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        capacity=1 << 17,
        seed=636,
    )
    gain = iso_error_gain(result.points)
    elapsed = time.monotonic() - start
    assert gain >= 0.30
    assert elapsed < 120.0
    _report(
        "criterion 6 (mode-centering sparsity gain)",
        f"eta {result.eta:.3f}, iso-error gain {gain:.2f} >= 0.30, {elapsed:.1f}s < 120s",
    )


def test_criterion_07_overlap_decay():
    rng = np.random.default_rng(107)
    s, length, reps = 0.6, 10_000, 32
    worst_sigma = 0.0
    for k in (1, 2, 4, 8):
        measured = np.mean(
            [overlap_sparsity(rng.random((k, length)) >= s) for _ in range(reps)]
        )
        p = s**k
        se = np.sqrt(p * (1 - p) / (length * reps))
        worst_sigma = max(worst_sigma, abs(measured - p) / se)
        assert abs(measured - p) <= 3 * se

    model = init_weights(
        BlockConfig(d_model=16, d_hidden=48, n_blocks=1), seed=707
    )
    calres = calibrate(
        model, synthetic_stream(16, 8, 128, seed=717), capacity=1 << 15, seed=727
    )
    specs = make_specs(model, calres, {UP_GATE_INPUT: 0.6})
    sizes = [1, 2, 4, 8, 16]
    corr = overlap_curve(
        model, specs, CorrelatedBatches(16, rho=0.6, seed=737), sizes, n_batches=32
    )
    for a, b in zip(corr.overlap_sparsity, corr.overlap_sparsity[1:]):
        assert b <= a  # nested prefixes: exactly non-increasing
    baseline = corr.independent_baseline
    for k, o_c, o_i in zip(sizes, corr.overlap_sparsity, baseline):
        if k > 1:
            assert o_c > o_i  # correlation strictly slows the decay
    _report(
        "criterion 7 (overlap decay)",
        f"s^k within {worst_sigma:.2f} sigma (<= 3); nested curve monotone; "
        f"rho=0.6 overlap at k=16: {corr.overlap_sparsity[-1]:.3f} > {baseline[-1]:.4f}",
    )


def test_criterion_08_scheme_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 65))
        h = int(rng.integers(2, 257))
        n = int(rng.integers(1, 9))
        w = SwiGluWeights(
            (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
            (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
            (rng.standard_normal((h, d)) / np.sqrt(h)).astype(np.float32),
        )
        x = rng.standard_normal((n, d)).astype(np.float32)
        y_dense, _ = dense_swiglu(x, w)
        y_cats, _ = cats_swiglu(0.0, x, w)
        y_scap, _ = scap_swiglu(0.0, 0.0, x, w)
        worst = max(
            worst,
            float(np.max(np.abs(y_cats - y_dense))),
            float(np.max(np.abs(y_scap - y_dense))),
        )
        assert np.allclose(y_cats, y_dense, atol=1e-5)
        assert np.allclose(y_scap, y_dense, atol=1e-5)
    _report(
        "criterion 8 (scheme equivalence)",
        f"50 random configs, max cross-scheme |error| {worst:.2e} <= 1e-5",
    )


def test_criterion_09_determinism_and_persistence(tmp_path):
    per_command = {
        "calibrate": ["--sparsity-grid", "0.3,0.5,0.7"],
        "sweep": ["--grid-up", "0.3,0.6", "--grid-down", "0.4,0.7"],
        "bench": ["--batch", "4", "--sparsity-grid", "0.2,0.5"],
        "overlap": ["--batch-sizes", "1,2,4", "--n-batches", "4"],
        "ablate-mode": ["--sparsity-grid", "0.3,0.6"],
        "roundtrip-check": [],
    }
    for command, extra in per_command.items():
        out = tmp_path / command
        args = [command, "--out", str(out)] + fast(command, seed=909) + extra
        assert cli_main(args) == 0, command
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert cli_main(args) == 0, command
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert first == second, f"{command} output not byte-identical"

    model = init_weights(BlockConfig(d_model=12, d_hidden=24, n_blocks=2), seed=919)
    path = tmp_path / "model.scap"
    io.save_model(model, path)
    original, _ = model.to_tensors()
    restored, _ = io.load_model(path).to_tensors()
    assert all(original[k].tobytes() == restored[k].tobytes() for k in original)
    _report(
        "criterion 9 (determinism & persistence)",
        "6 subcommands byte-identical across reruns; container round-trip bitwise",
    )


def test_criterion_10_pareto_sweep_sanity():
    model = init_weights(
        BlockConfig(d_model=16, d_hidden=48, n_blocks=1), seed=1010
    )
    grid = [0.2, 0.35, 0.5, 0.65, 0.8]
    result = pareto_sweep(
        model,
        synthetic_stream(16, 16, 128, seed=1020),
        synthetic_stream(16, 32, 256, seed=1030),
        grid,
        grid,
        capacity=1 << 15,
        seed=1040,
    )
    assert len(result.entries) == 25
    front = set(result.pareto_indices)
    assert front
    for i, a in enumerate(result.entries):
        dominated = any(
            (
                b.report.ffn_sparsity >= a.report.ffn_sparsity
                and b.quality >= a.quality
                and (
                    b.report.ffn_sparsity > a.report.ffn_sparsity
                    or b.quality > a.quality
                )
            )
            for j, b in enumerate(result.entries)
            if j != i
        )
        if i in front:
            assert not dominated
    err = {(e.target_up_gate, e.target_down): e.error for e in result.entries}
    for i, su in enumerate(grid):
        for j, sd in enumerate(grid):
            if i:
                assert err[(grid[i - 1], sd)] <= err[(su, sd)] + 1e-9
            if j:
                assert err[(su, grid[j - 1])] <= err[(su, sd)] + 1e-9
    _report(
        "criterion 10 (Pareto sweep sanity)",
        f"5x5 grid, front size {len(front)} with no dominated pair; "
        "error monotone non-increasing as either target decreases",
    )
