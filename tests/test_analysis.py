"""Analysis harnesses: overlap decay, sweeps, ablation, report consistency."""

import os
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

import scap.analysis
import scap.calib
import scap.tensor
from scap import kernels
from scap.analysis import (
    AblationPoint,
    CorrelatedBatches,
    calibrate,
    iso_error_gain,
    make_specs,
    measure_sparsity,
    mode_centering_ablation,
    overlap_curve,
    overlap_sparsity,
    pareto_front,
    pareto_sweep,
    plan_specs,
    reconstruction_error,
    sweep_rows,
    synthetic_stream,
)
from scap.calib import LayerStats, ModeEstimator
from scap.cli import COMMAND_DEFAULTS
from scap.model import DOWN_INPUT, SITES, UP_GATE_INPUT, BlockConfig, HookPoint, init_weights
from scap.prune import PruneSpec
from scap.tensor import DataError


def _swiglu_model(seed=0, d=16, h=48, blocks=2):
    return init_weights(BlockConfig(d_model=d, d_hidden=h, n_blocks=blocks), seed=seed)


def _spy_kde(monkeypatch) -> list:
    """Records the sample size of every ``calib._kde_mode`` call."""
    calls, kde = [], scap.calib._kde_mode
    monkeypatch.setattr(scap.calib, "_kde_mode", lambda v: calls.append(v.size) or kde(v))
    return calls


def _spy_sorts(monkeypatch) -> list:
    """Records the sample size of every ``calib._sorted_magnitudes`` call."""
    calls, sort = [], scap.calib._sorted_magnitudes
    monkeypatch.setattr(
        scap.calib, "_sorted_magnitudes", lambda raw, eta: calls.append(raw.size) or sort(raw, eta)
    )
    return calls


def _spy_observe(monkeypatch) -> list:
    """Records the ``LayerStats`` of every ``observe`` call."""
    calls, observe = [], LayerStats.observe
    monkeypatch.setattr(LayerStats, "observe", lambda st_, x: calls.append(st_) or observe(st_, x))
    return calls


def _gelu_substrate(seed=3, d=24, h=96, offset=1.2):
    cfg = BlockConfig(
        ffn="gelu", d_model=d, d_hidden=h, n_blocks=1,
        rmsnorm=False, up_bias_offset=offset,
    )
    return init_weights(cfg, seed=seed)


# ---------------------------------------------------------------------------
# overlap sparsity


def test_overlap_single_mask_is_own_sparsity():
    mask = np.array([True, False, False, True])
    assert overlap_sparsity([mask]) == 0.5


def test_overlap_complementary_masks():
    mask = np.array([True, False, True, False])
    assert overlap_sparsity([mask, ~mask]) == 0.0


def test_overlap_independent_masks_match_power_law():
    rng = np.random.default_rng(42)
    s, length, reps = 0.6, 10_000, 32
    for k in (1, 2, 4, 8):
        measured = np.mean(
            [
                overlap_sparsity(rng.random((k, length)) >= s)
                for _ in range(reps)
            ]
        )
        p = s**k
        se = np.sqrt(p * (1 - p) / (length * reps))
        assert abs(measured - p) <= 3 * se + 1e-9


def test_overlap_rejects_ragged_masks():
    with pytest.raises(ValueError):
        overlap_sparsity([np.array([True, False]), np.array([True])])


# ---------------------------------------------------------------------------
# overlap curves through the model


def _specs_at(model, target, site=UP_GATE_INPUT, seed=5):
    calres = calibrate(
        model,
        synthetic_stream(model.config.d_model, 8, 128, seed=seed),
        capacity=1 << 15,
        seed=seed,
    )
    return make_specs(model, calres, {site: target})


def test_overlap_curve_k1_equals_per_vector_sparsity():
    model = _swiglu_model(seed=1, blocks=1)
    specs = _specs_at(model, 0.6)
    gen = CorrelatedBatches(16, rho=0.0, seed=7)
    curve = overlap_curve(
        model, specs, gen, [1], hook=HookPoint(0, UP_GATE_INPUT), n_batches=16
    )
    assert curve.overlap_sparsity[0] == pytest.approx(curve.per_vector_sparsity, abs=1e-12)


def test_overlap_curve_nested_batches_monotone():
    model = _swiglu_model(seed=2, blocks=1)
    specs = _specs_at(model, 0.5)
    gen = CorrelatedBatches(16, rho=0.3, seed=8)
    curve = overlap_curve(
        model, specs, gen, [1, 2, 4, 8, 16], hook=HookPoint(0, UP_GATE_INPUT)
    )
    for a, b in zip(curve.overlap_sparsity, curve.overlap_sparsity[1:]):
        assert b <= a + 1e-12
    assert all(
        o <= curve.per_vector_sparsity + 1e-9 for o in curve.overlap_sparsity[1:]
    )


def test_correlated_batches_decay_slower_than_independent():
    model = _swiglu_model(seed=3, blocks=1)
    specs = _specs_at(model, 0.6)
    sizes = [1, 2, 4, 8]
    indep = overlap_curve(
        model, specs, CorrelatedBatches(16, rho=0.0, seed=9), sizes,
        hook=HookPoint(0, UP_GATE_INPUT), n_batches=32,
    )
    corr = overlap_curve(
        model, specs, CorrelatedBatches(16, rho=0.6, seed=9), sizes,
        hook=HookPoint(0, UP_GATE_INPUT), n_batches=32,
    )
    for k, o_i, o_c in zip(sizes, indep.overlap_sparsity, corr.overlap_sparsity):
        if k > 1:
            assert o_c > o_i


@pytest.mark.parametrize(
    "sizes,n_batches,name",
    [([], 4, "batch_sizes"), ([2, 1], 4, "batch_sizes"), ([0, 1], 4, "batch_sizes"),
     ([1, 2], 0, "n_batches"), ([1, 2], -1, "n_batches")],
)
def test_overlap_curve_rejects_degenerate_sizes(sizes, n_batches, name):
    model = _swiglu_model(seed=1, blocks=1)
    specs = _specs_at(model, 0.5)
    with pytest.raises(ValueError, match=name):
        overlap_curve(
            model, specs, CorrelatedBatches(16, seed=7), sizes,
            hook=HookPoint(0, UP_GATE_INPUT), n_batches=n_batches,
        )


@pytest.mark.parametrize(
    "hook,match",
    [
        # a site without a spec runs dense: its curve would read 0 at every size
        (HookPoint(0, DOWN_INPUT), "block0.down_input has no spec"),
        (HookPoint(1, UP_GATE_INPUT), "invalid hook point"),
    ],
)
def test_overlap_curve_rejects_a_hook_it_cannot_read(hook, match):
    model = _swiglu_model(seed=1, blocks=1)
    specs = _specs_at(model, 0.5)
    with pytest.raises(ValueError, match=match):
        overlap_curve(model, specs, CorrelatedBatches(16, seed=7), [1, 2], hook=hook, n_batches=2)


def test_correlated_batches_validation():
    with pytest.raises(ValueError):
        CorrelatedBatches(8, rho=1.0)
    gen = CorrelatedBatches(8, rho=0.5, seed=1)
    assert gen.batch(4).shape == (4, 8)


def test_a_scale_that_overflows_float32_raises_naming_it():
    # 1e39 times any draw above 0.35 in magnitude passes float32's largest value
    with pytest.raises(ValueError, match="input scale 1e\\+39 overflows float32"):
        synthetic_stream(8, 2, 16, scale=1e39, seed=1)
    with pytest.raises(ValueError, match="input scale 1e\\+39 overflows float32"):
        CorrelatedBatches(8, scale=1e39, seed=1).batch(4)


@pytest.mark.parametrize("scale", [1e-44, 0.1, 1e37])
def test_a_finite_scale_keeps_the_cast_bits(scale):
    # 1e-44 flushes most draws to float32 subnormals or zero, which is no
    # overflow; 1e37 keeps draws under 34 in magnitude inside float32's range
    rng = np.random.default_rng(1)
    want = [(scale * rng.standard_normal((16, 8))).astype(np.float32) for _ in range(2)]
    got = synthetic_stream(8, 2, 16, scale=scale, seed=1)
    assert [b.view(np.uint32).tolist() for b in got] == [b.view(np.uint32).tolist() for b in want]
    rng = np.random.default_rng(1)
    base, noise = rng.standard_normal(8), rng.standard_normal((4, 8))
    rows = np.sqrt(0.5) * base + np.sqrt(0.5) * noise
    got = CorrelatedBatches(8, rho=0.5, scale=scale, seed=1).batch(4)
    assert np.array_equal(got.view(np.uint32), (scale * rows).astype(np.float32).view(np.uint32))


# ---------------------------------------------------------------------------
# spec planning


@pytest.mark.parametrize("targets", [{"down": 0.5}, {UP_GATE_INPUT: 0.5, "up_gate": 0.5}])
def test_unknown_target_site_rejected(targets):
    model = _swiglu_model()
    stream = synthetic_stream(16, 2, 32, seed=1)
    calres = calibrate(model, stream, capacity=1 << 12, seed=2)
    unknown = [k for k in targets if k not in SITES]
    plans = (
        lambda: make_specs(model, calres, targets),
        lambda: plan_specs(model, stream, targets),
    )
    for plan in plans:
        with pytest.raises(ValueError) as exc:
            plan()
        for name in (*unknown, *SITES):
            assert repr(name) in str(exc.value)


def test_target_site_without_calibration_rejected(monkeypatch):
    model = _swiglu_model(blocks=1)
    calres = calibrate(model, synthetic_stream(16, 2, 32, seed=1), capacity=1 << 12, seed=2)
    up_only = {UP_GATE_INPUT: calres[UP_GATE_INPUT]}
    calls = []
    threshold = LayerStats.centered_quantile_threshold
    monkeypatch.setattr(
        LayerStats, "centered_quantile_threshold", lambda *a: calls.append(a) or threshold(*a)
    )
    with pytest.raises(ValueError, match=repr(DOWN_INPUT)):
        make_specs(model, up_only, {UP_GATE_INPUT: 0.5, DOWN_INPUT: 0.5})
    assert calls == []  # rejected before any site is planned


def test_unknown_centering_site_rejected(monkeypatch):
    model = _swiglu_model(blocks=1)
    stream = synthetic_stream(16, 2, 32, seed=1)
    calres = calibrate(model, stream, capacity=1 << 12, seed=2)
    targets = {DOWN_INPUT: 0.5}
    calls = []
    observe = LayerStats.observe
    monkeypatch.setattr(LayerStats, "observe", lambda *a: calls.append(a) or observe(*a))
    plans = (
        lambda: make_specs(model, calres, targets, center_sites=("down",)),
        lambda: plan_specs(model, stream, targets, capacity=1 << 12, center_sites=("down",)),
        lambda: pareto_sweep(
            model, stream, stream, [0.3], [0.5], capacity=1 << 12, center_sites=("down",)
        ),
    )
    for plan in plans:
        with pytest.raises(ValueError) as exc:
            plan()
        for name in ("down", *SITES):
            assert repr(name) in str(exc.value)
    assert calls == []  # rejected before any calibration
    specs = make_specs(model, calres, targets, center_sites=(DOWN_INPUT,))
    assert specs[HookPoint(0, DOWN_INPUT)].eta != 0.0


@pytest.mark.parametrize("site", SITES)
def test_plan_specs_with_one_target_makes_one_pass(monkeypatch, site):
    model = _swiglu_model(blocks=2)
    stream = synthetic_stream(16, 3, 32, seed=1)
    calls = []
    observe = LayerStats.observe
    monkeypatch.setattr(LayerStats, "observe", lambda *a: calls.append(a) or observe(*a))
    specs = plan_specs(model, stream, {site: 0.5}, capacity=1 << 12, seed=2)
    assert len(calls) == len(stream) * model.config.n_blocks  # that site's hooks alone
    assert {stats.layer_id for stats, _ in calls} == {site}
    dense = make_specs(model, calibrate(model, stream, capacity=1 << 12, seed=2), {site: 0.5})
    assert specs == dense


@pytest.mark.parametrize("sites", [(UP_GATE_INPUT,), (DOWN_INPUT,), (DOWN_INPUT, UP_GATE_INPUT)])
def test_calibrate_chosen_sites_equal_an_all_site_run(sites):
    model = _swiglu_model(blocks=2)
    stream = synthetic_stream(16, 3, 32, seed=1)
    up = make_specs(model, calibrate(model, stream, capacity=1 << 10, seed=2), {UP_GATE_INPUT: 0.4})
    for specs in (None, up):  # dense and pruned captures
        full = calibrate(model, stream, capacity=1 << 10, seed=2, specs=specs)
        chosen = calibrate(model, stream, capacity=1 << 10, seed=2, specs=specs, sites=sites)
        assert set(chosen) == set(sites)
        for site in sites:
            a, b = chosen[site], full[site]
            assert a.raw_reservoir.tobytes() == b.raw_reservoir.tobytes()
            assert (a.seen_count, a.seed) == (b.seen_count, b.seed)


@pytest.mark.parametrize("sites", [(UP_GATE_INPUT,), (DOWN_INPUT,), SITES])
@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("rmsnorm", [True, False])
@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
def test_calibrate_walk_equals_observing_whole_forward_captures(ffn, rmsnorm, residual, sites):
    """``calibrate`` observes each site's tensor on the stage walk and stops
    each batch after its last observed stage. The route it replaced captured
    the hooks with ``forward_with_hooks`` and then observed them per batch,
    block by block, Up/Gate before Down. Both give the same reservoir bytes,
    seen counts and generator states, dense and with specs applied; the
    capacity is below each site's stream, so both draw past it."""
    cfg = BlockConfig(
        ffn=ffn, d_model=12, d_hidden=36, n_blocks=3, rmsnorm=rmsnorm, residual=residual
    )
    model = init_weights(cfg, seed=3)
    stream = synthetic_stream(12, 4, 16, seed=4)
    capacity, seed = 500, 5
    mixed = {  # block 0 prunes both sites, block 1 only Up/Gate, block 2 only Down
        HookPoint(0, UP_GATE_INPUT): PruneSpec(0.3),
        HookPoint(0, DOWN_INPUT): PruneSpec(0.05, eta=0.01),
        HookPoint(1, UP_GATE_INPUT): PruneSpec(0.4, eta=-0.1),
        HookPoint(2, DOWN_INPUT): PruneSpec(0.1),
    }
    hooks = [h for h in model.hook_points() if h.site in sites]
    for specs in (None, mixed):
        got = calibrate(model, stream, capacity=capacity, seed=seed, specs=specs, sites=sites)
        want = {
            site: LayerStats(site, capacity, int(np.random.SeedSequence([seed, i]).generate_state(1)[0]))
            for i, site in enumerate(sorted(SITES))
            if site in sites
        }
        runner = model if specs is None else model.apply_prune_specs(specs)
        for batch in stream:
            _, captured = runner.forward_with_hooks(batch, hooks)
            for h in hooks:
                want[h.site].observe(captured[h])
        assert set(got) == set(want)
        for site, st in want.items():
            assert st.seen_count > capacity
            assert got[site].raw_reservoir.tobytes() == st.raw_reservoir.tobytes()
            assert got[site].seen_count == st.seen_count
            assert got[site]._rng.bit_generator.state == st._rng.bit_generator.state


def _draw_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith(scap.analysis.DRAW_THREAD)]


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
def test_calibrate_draw_worker_equals_a_synchronous_fold(monkeypatch, ffn, blocks, pruned):
    """Each ``LayerStats`` of ``calibrate`` draws on the worker thread; the
    same tensors observed inline by statistics built outside ``calibrate``
    leave the same reservoir bytes, seen count and generator state. The
    capacity is below each site's stream, so draws run."""
    cfg = BlockConfig(ffn=ffn, d_model=8, d_hidden=24, n_blocks=blocks)
    model = init_weights(cfg, seed=6)
    specs = {h: PruneSpec(0.3, eta=0.05) for h in model.hook_points()} if pruned else None
    _check_against_an_inline_fold(monkeypatch, model, synthetic_stream(8, 6, 16, seed=7), specs)


def test_calibrate_draw_worker_equals_a_synchronous_fold_under_fast_switching(monkeypatch):
    """The same check over 40 batches into a 50-value reservoir, with the
    interpreter switching threads every microsecond, so that the caller's
    fills and reads interleave with the draws as often as they can."""
    model = _swiglu_model(blocks=2, d=8, h=24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_against_an_inline_fold(monkeypatch, model, synthetic_stream(8, 40, 8, seed=9))
    finally:
        sys.setswitchinterval(interval)


def _check_against_an_inline_fold(monkeypatch, model, stream, specs=None):
    seen, draw_threads = {}, set()
    observe, draw = LayerStats.observe, LayerStats._draw

    def spy_observe(stats, x):
        seen.setdefault(id(stats), (stats, []))[1].append(np.array(x))
        return observe(stats, x)

    def spy_draw(stats, values, n_seen):
        draw_threads.add(threading.current_thread().name)
        return draw(stats, values, n_seen)

    with monkeypatch.context() as mp:
        mp.setattr(LayerStats, "observe", spy_observe)
        mp.setattr(LayerStats, "_draw", spy_draw)
        got = calibrate(model, stream, capacity=50, seed=8, specs=specs)
    assert not _draw_threads()
    assert draw_threads and all(n.startswith(scap.analysis.DRAW_THREAD) for n in draw_threads)
    assert sorted(id(st_) for st_ in got.values()) == sorted(seen)
    for stats, tensors in seen.values():
        want = LayerStats(stats.layer_id, stats.capacity, stats.seed)
        for x in tensors:
            want.observe(x)
        assert want.seen_count > want.capacity
        assert stats.raw_reservoir.tobytes() == want.raw_reservoir.tobytes()
        assert stats.seen_count == want.seen_count
        assert stats._rng.bit_generator.state == want._rng.bit_generator.state


def test_calibrate_raises_data_error_and_ends_its_draw_thread():
    model = _swiglu_model(blocks=1)
    stream = synthetic_stream(16, 6, 32, seed=1)
    stream[4] = stream[4].copy()
    stream[4][3, 5] = np.nan
    with pytest.raises(DataError):
        calibrate(model, stream, capacity=64, seed=2)
    assert not _draw_threads()


def test_calibrate_propagates_a_failing_draw_and_ends_its_draw_thread(monkeypatch):
    def kernel(source, name):
        def fail(*args):
            raise RuntimeError(f"{name} failed")

        return fail if name == "reservoir_draw" else real(source, name)

    real = scap.calib._kernel
    monkeypatch.setattr(scap.calib, "_kernel", kernel)
    with pytest.raises(RuntimeError, match="reservoir_draw failed"):
        calibrate(_swiglu_model(blocks=2), synthetic_stream(16, 6, 32, seed=1), capacity=64)
    assert not _draw_threads()


def test_calibrate_rejects_an_unknown_site_before_observing(monkeypatch):
    model = _swiglu_model(blocks=1)
    calls = _spy_observe(monkeypatch)
    with pytest.raises(ValueError) as exc:
        calibrate(model, synthetic_stream(16, 2, 32, seed=1), sites=(UP_GATE_INPUT, "down"))
    for name in ("down", *SITES):
        assert repr(name) in str(exc.value)
    assert calls == []


def test_sweep_passes_observe_only_the_sites_they_plan(monkeypatch):
    monkeypatch.setattr(scap.tensor, "_cpus", lambda: 1)  # every pass in this process
    model = _swiglu_model(blocks=2)
    stream = synthetic_stream(16, 3, 32, seed=1)
    passes, calibrate_ = [], scap.analysis.calibrate

    def spy(*args, **kwargs):
        stats = calibrate_(*args, **kwargs)
        passes.append((kwargs.get("specs") is not None, stats))
        return stats

    monkeypatch.setattr(scap.analysis, "calibrate", spy)
    observed = _spy_observe(monkeypatch)
    pareto_sweep(model, stream, stream, [0.2, 0.5], [0.3, 0.6], capacity=1 << 12, seed=3)
    # one dense pass over Up/Gate, then one pruned pass over Down per Up target
    assert [(pruned, sorted(stats)) for pruned, stats in passes] == [
        (False, [UP_GATE_INPUT]), (True, [DOWN_INPUT]), (True, [DOWN_INPUT]),
    ]
    planned = [st_ for _, stats in passes for st_ in stats.values()]
    per_stats = Counter(id(st_) for st_ in observed)
    assert per_stats == {id(st_): len(stream) * model.config.n_blocks for st_ in planned}


@pytest.mark.parametrize(
    "build, center_sites",
    [(_swiglu_model, ()), (lambda: _gelu_substrate(d=16, h=48), (DOWN_INPUT,))],
    ids=["swiglu", "gelu-centered"],
)
def test_default_grid_sweep_sorts_each_sample_once(monkeypatch, build, center_sites):
    monkeypatch.setattr(scap.tensor, "_cpus", lambda: 1)  # every pass in this process
    sorts = _spy_sorts(monkeypatch)
    grid_up, grid_down = (
        [float(t) for t in COMMAND_DEFAULTS["sweep"][key].split(",")]
        for key in ("grid_up", "grid_down")
    )
    assert (len(grid_up), len(grid_down)) == (3, 3)
    model = build()
    stream = synthetic_stream(16, 2, 32, seed=1)
    pareto_sweep(
        model, stream, stream, grid_up, grid_down, capacity=1 << 12, seed=3,
        center_sites=center_sites,
    )
    # one Up sample, then one Down sample per Up target, each of 2 x 32 rows per block
    cfg = model.config
    up, down = (min(1 << 12, 2 * 32 * w * cfg.n_blocks) for w in (cfg.d_model, cfg.d_hidden))
    assert sorts == [up, down, down, down]


def test_make_specs_plans_each_site_once(monkeypatch):
    model = _swiglu_model(blocks=2)
    calres = calibrate(model, synthetic_stream(16, 2, 32, seed=1), capacity=1 << 12, seed=2)
    outermost, depth = [], [0]  # a quantile calling the other quantile counts once
    for name, kind in (
        ("quantile_threshold", "quantile"),
        ("centered_quantile_threshold", "quantile"),
        ("estimate_mode", "mode"),
    ):
        def spy(self, *args, _original=getattr(LayerStats, name), _kind=kind):
            if depth[0] == 0:
                outermost.append((_kind, self.layer_id))
            depth[0] += 1
            try:
                return _original(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(LayerStats, name, spy)
    specs = make_specs(
        model, calres, {UP_GATE_INPUT: 0.5, DOWN_INPUT: 0.4}, center_sites=(DOWN_INPUT,)
    )
    for site in SITES:
        assert specs[HookPoint(0, site)] is specs[HookPoint(1, site)]
    assert sorted(outermost) == sorted(
        [("quantile", UP_GATE_INPUT), ("mode", DOWN_INPUT), ("quantile", DOWN_INPUT)]
    )


# ---------------------------------------------------------------------------
# measure_sparsity


def test_tau_zero_specs_observe_zero_sparsity():
    model = _swiglu_model(seed=4)
    specs = {
        h: PruneSpec(tau=0.0) for h in model.hook_points()
    }
    report = measure_sparsity(model, specs, synthetic_stream(16, 2, 64, seed=10))
    for obs in report.hooks.values():
        assert obs.observed_sparsity == pytest.approx(0.0, abs=1e-4)


def test_matched_distribution_targets_within_tolerance():
    model = _swiglu_model(seed=5)
    calres = calibrate(
        model, synthetic_stream(16, 16, 128, seed=11), capacity=1 << 16, seed=11
    )
    specs = make_specs(model, calres, {UP_GATE_INPUT: 0.5, DOWN_INPUT: 0.5})
    report = measure_sparsity(model, specs, synthetic_stream(16, 16, 128, seed=12))
    for obs in report.hooks.values():
        assert obs.observed_sparsity == pytest.approx(0.5, abs=0.03)


def test_report_carries_table_structure():
    model = _swiglu_model(seed=6)
    calres = calibrate(
        model, synthetic_stream(16, 8, 64, seed=13), capacity=1 << 14, seed=13
    )
    specs = make_specs(model, calres, {UP_GATE_INPUT: 0.4, DOWN_INPUT: 0.6})
    report = measure_sparsity(model, specs, synthetic_stream(16, 8, 64, seed=14))
    assert set(report.site_sparsity) == {UP_GATE_INPUT, DOWN_INPUT}
    for hook in model.hook_points():
        obs = report.hooks[hook.label]
        assert obs.target_sparsity in (0.4, 0.6)
    # aggregate consistency with the kernel-level accounting
    expected = kernels.ffn_sparsity(
        report.site_sparsity[UP_GATE_INPUT], report.site_sparsity[DOWN_INPUT]
    )
    assert abs(report.ffn_sparsity - expected) < 1e-9
    assert report.macs_ratio == pytest.approx(1.0 - report.ffn_sparsity, abs=1e-9)
    assert report.sample_count == 8 * 64


def test_measure_sparsity_empty_stream():
    model = _swiglu_model(seed=7)
    with pytest.raises(ValueError):
        measure_sparsity(model, {}, [])


def test_a_dense_output_of_zeros_has_no_relative_error():
    # a zero input stays zero through rmsnorm, SwiGLU and the residual add
    model = _swiglu_model(seed=7)
    specs = _specs_at(model, 0.5)
    zeros = [np.zeros((32, 16), np.float32)] * 2
    with pytest.raises(ValueError, match="dense output is zero throughout"):
        reconstruction_error(model, specs, zeros)
    report = measure_sparsity(model, specs, zeros)  # computes no error
    assert report.site_sparsity[UP_GATE_INPUT] == 1.0


# ---------------------------------------------------------------------------
# pareto sweep


def test_single_point_grid_is_pareto_optimal():
    model = _swiglu_model(seed=8, blocks=1)
    result = pareto_sweep(
        model,
        synthetic_stream(16, 4, 64, seed=15),
        synthetic_stream(16, 4, 64, seed=16),
        [0.4],
        [0.6],
        capacity=1 << 14,
        seed=15,
    )
    assert len(result.entries) == 1
    assert result.pareto_indices == [0]


def test_sweep_error_monotone_and_front_undominated():
    # aggregate reconstruction error needs enough held-out data for the
    # up/down interaction cross-term to average out; at this eval size the
    # monotonicity is exact
    model = _swiglu_model(seed=9, blocks=1)
    grid = [0.2, 0.4, 0.6, 0.8]
    result = pareto_sweep(
        model,
        synthetic_stream(16, 8, 128, seed=17),
        synthetic_stream(16, 16, 256, seed=18),
        grid,
        grid,
        capacity=1 << 15,
        seed=17,
    )
    err = {
        (e.target_up_gate, e.target_down): e.error for e in result.entries
    }
    for i, su in enumerate(grid):
        for j, sd in enumerate(grid):
            if i:
                assert err[(grid[i - 1], sd)] <= err[(su, sd)] + 1e-9
            if j:
                assert err[(su, grid[j - 1])] <= err[(su, sd)] + 1e-9
    # brute-force dominance check over the whole grid
    front = set(result.pareto_indices)
    for i, a in enumerate(result.entries):
        dominated = any(
            (b.report.ffn_sparsity >= a.report.ffn_sparsity and b.quality >= a.quality)
            and (b.report.ffn_sparsity > a.report.ffn_sparsity or b.quality > a.quality)
            for k, b in enumerate(result.entries)
            if k != i
        )
        assert (i in front) == (not dominated)
    header, rows = sweep_rows(result)
    assert len(rows) == len(grid) ** 2
    assert header[0] == "target_up_gate"


def test_sweep_table_mirrors_published_grid_shape():
    # up/gate and down axes span different ranges, one row per grid point
    # with Up / Gate / Down / FFN observation columns
    model = _swiglu_model(seed=15, blocks=1)
    grid_up = [0.1, 0.35, 0.6]
    grid_down = [0.45, 0.6, 0.8]
    result = pareto_sweep(
        model,
        synthetic_stream(16, 4, 64, seed=30),
        synthetic_stream(16, 4, 64, seed=31),
        grid_up,
        grid_down,
        capacity=1 << 14,
        seed=32,
    )
    assert [(e.target_up_gate, e.target_down) for e in result.entries] == [
        (su, sd) for su in grid_up for sd in grid_down
    ]
    header, rows = sweep_rows(result)
    assert header[:6] == [
        "target_up_gate", "target_down", "obs_up", "obs_gate", "obs_down",
        "ffn_sparsity",
    ]
    for row in rows:
        assert row[2] == row[3]  # one shared Up/Gate mask, equal observations


def test_sweep_results_independent_of_thread_cap(monkeypatch):
    # 64-row batches over 128x1024 weights reach ROW_GEMM_MIN and SPLIT_MACS,
    # so the usable CPU count changes how row_gemm's output columns are cut
    model = _swiglu_model(seed=14, d=128, h=1024, blocks=1)
    calib = synthetic_stream(128, 2, 64, seed=27)
    hold = synthetic_stream(128, 2, 64, seed=28)
    real, slices = scap.tensor._kernel, []

    def kernel(source, name):
        compiled = real(source, name)
        if name != "row_gemm":
            return compiled
        return lambda *args: slices.append(args[-3:-1]) or compiled(*args)

    monkeypatch.setattr(scap.tensor, "_kernel", kernel)

    def run(threads):
        monkeypatch.setattr(scap.tensor, "_cpus", lambda: threads)
        slices.clear()
        result = pareto_sweep(
            model, calib, hold, [0.3, 0.6], [0.4, 0.7], capacity=1 << 14, seed=29
        )
        return result, set(slices)

    (serial, serial_cuts), (threaded, threaded_cuts) = run(1), run(2)
    assert serial_cuts == {(0, 1024), (0, 128)}  # Up/Gate and Down, uncut
    assert threaded_cuts == {(0, 512), (512, 1024), (0, 64), (64, 128)}
    for a, b in zip(serial.entries, threaded.entries):
        assert a.error == b.error
        assert asdict(a.report) == asdict(b.report)
    assert serial.pareto_indices == threaded.pareto_indices


def test_sweep_runs_on_the_calling_thread(monkeypatch, forks):
    # this process runs the dense pass, the first share of the Down passes
    # and of the walk's batches, and the walk's sums, all on the caller's
    # thread; the other shares run in forked children, one per further CPU
    monkeypatch.setattr(scap.tensor, "_cpus", lambda: 4)
    monkeypatch.setattr(scap.analysis, "FORK_MACS", 0)
    threads = []
    for name in ("calibrate", "_evaluate"):
        fn = getattr(scap.analysis, name)
        spy = lambda *a, _fn=fn, **k: threads.append(threading.get_ident()) or _fn(*a, **k)
        monkeypatch.setattr(scap.analysis, name, spy)
    model = _swiglu_model(seed=14, blocks=1)
    stream = synthetic_stream(16, 2, 32, seed=1)
    pareto_sweep(model, stream, stream, [0.3, 0.6], [0.4, 0.7], capacity=1 << 12)
    assert len(threads) == 1 + 1 + 1  # the dense pass, 1 of 2 Down passes, one walk
    assert set(threads) == {threading.get_ident()}
    assert len(forks) == 1 + 1  # the other Down pass, the other of 2 batches


@pytest.mark.parametrize(
    "run",
    [
        lambda model, calib: pareto_sweep(model, calib, [], [0.3], [0.4]),
        lambda model, calib: mode_centering_ablation(model, calib, [], [0.3]),
    ],
    ids=["pareto_sweep", "mode_centering_ablation"],
)
def test_empty_eval_stream_rejected_before_calibrating(monkeypatch, run):
    model = _swiglu_model(seed=14, blocks=1)
    calls = []
    monkeypatch.setattr(LayerStats, "observe", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="evaluation stream is empty"):
        run(model, synthetic_stream(16, 2, 8, seed=1))
    assert calls == []


@pytest.mark.parametrize(
    "build, center_sites, estimator",
    [
        (_swiglu_model, (), ModeEstimator()),
        (_gelu_substrate, (DOWN_INPUT,), ModeEstimator("kde")),
    ],
    ids=["swiglu", "gelu-centered-kde"],
)
def test_sweep_entries_equal_plan_specs(build, center_sites, estimator):
    # the sweep and plan_specs plan the same two passes, so every grid point
    # measures exactly what plan_specs' specs measure
    model = build()
    d = model.config.d_model
    calib = synthetic_stream(d, 4, 64, seed=33)
    hold = synthetic_stream(d, 4, 64, seed=34)
    kwargs = dict(capacity=1 << 14, seed=35, center_sites=center_sites, estimator=estimator)
    result = pareto_sweep(model, calib, hold, [0.3, 0.6], [0.4, 0.7], **kwargs)
    assert len(result.entries) == 4
    for e in result.entries:
        specs = plan_specs(
            model, calib, {UP_GATE_INPUT: e.target_up_gate, DOWN_INPUT: e.target_down}, **kwargs
        )
        assert asdict(measure_sparsity(model, specs, hold)) == asdict(e.report)
        assert reconstruction_error(model, specs, hold) == e.error


def test_sweep_estimates_each_second_pass_mode_once(monkeypatch):
    monkeypatch.setattr(scap.tensor, "_cpus", lambda: 1)  # every pass in this process
    calls = _spy_kde(monkeypatch)
    model = _gelu_substrate()
    stream = synthetic_stream(24, 2, 32, seed=41)
    pareto_sweep(
        model, stream, stream, [0.2, 0.4, 0.6], [0.3, 0.5, 0.7], capacity=1 << 12, seed=42,
        center_sites=(DOWN_INPUT,), estimator=ModeEstimator("kde"),
    )
    assert len(calls) == 3  # one per Up target's Down statistics, not one per point


def test_pareto_front_helper_tie_handling():
    class E:
        def __init__(self, f, q):
            self.report = type("R", (), {"ffn_sparsity": f})()
            self.quality = q

    entries = [E(0.5, -0.1), E(0.5, -0.1), E(0.4, -0.2)]
    front = pareto_front(entries)
    assert front == [0, 1]  # equal points do not dominate each other


# ---------------------------------------------------------------------------
# mode-centering ablation


def test_ablation_centered_data_curves_coincide():
    # gated SwiGLU intermediates are already centered: the estimated shift is
    # near zero and centering changes neither sparsity nor error beyond noise
    model = _swiglu_model(seed=10, blocks=1)
    calib = synthetic_stream(16, 8, 128, seed=19)
    hold = synthetic_stream(16, 8, 128, seed=20)
    result = mode_centering_ablation(
        model, calib, hold, [0.3, 0.5, 0.7], capacity=1 << 15, seed=19
    )
    assert abs(result.eta) < 0.1
    for p in result.points:
        assert p.observed_with == pytest.approx(p.observed_without, abs=0.05)
        assert p.err_with == pytest.approx(p.err_without, abs=0.05)


def test_ablation_shifted_substrate_gains_sparsity():
    model = _gelu_substrate(seed=11)
    calib = synthetic_stream(24, 8, 128, scale=0.1, seed=21)
    hold = synthetic_stream(24, 8, 128, scale=0.1, seed=22)
    result = mode_centering_ablation(
        model, calib, hold, [0.2, 0.4, 0.6, 0.8], capacity=1 << 15, seed=21
    )
    assert iso_error_gain(result.points) >= 0.30
    # centered pruning is near-lossless where uncentered pruning is not
    mid = result.points[1]
    assert mid.err_with < mid.err_without


def test_default_grid_ablation_estimates_the_mode_once(monkeypatch):
    calls = _spy_kde(monkeypatch)
    grid = [float(v) for v in COMMAND_DEFAULTS["ablate-mode"]["sparsity_grid"].split(",")]
    stream = synthetic_stream(24, 2, 32, scale=0.1, seed=43)
    result = mode_centering_ablation(_gelu_substrate(), stream, stream, grid, capacity=1 << 12)
    assert len(result.points) == len(grid) == 8
    assert len(calls) == 1


@pytest.mark.parametrize("centered", [True, False])
def test_ablation_points_equal_plan_specs(centered):
    # the ablation plans each variant through make_specs from one dense pass,
    # as plan_specs plans a Down-only target
    model = _gelu_substrate()
    calib_stream = synthetic_stream(24, 4, 64, scale=0.1, seed=44)
    hold = synthetic_stream(24, 4, 64, scale=0.1, seed=45)
    estimator, kwargs = ModeEstimator("kde"), dict(capacity=1 << 14, seed=46)
    result = mode_centering_ablation(model, calib_stream, hold, [0.3, 0.6], estimator, **kwargs)
    center_sites = (DOWN_INPUT,) if centered else ()
    for p in result.points:
        specs = plan_specs(
            model, calib_stream, {DOWN_INPUT: p.target_sparsity},
            center_sites=center_sites, estimator=estimator, **kwargs,
        )
        observed, err = (p.observed_with, p.err_with) if centered else (
            p.observed_without, p.err_without
        )
        assert measure_sparsity(model, specs, hold).site_sparsity[DOWN_INPUT] == observed
        assert reconstruction_error(model, specs, hold) == err


def window_sparsity_gain(values: np.ndarray, tau: float, eta: float) -> float:
    """Sparsity gained at fixed tau by shifting values by eta before pruning."""
    v = np.asarray(values, dtype=np.float64).ravel()
    with_eta = float(np.mean(np.abs(v - eta) <= tau))
    without = float(np.mean(np.abs(v) <= tau))
    return with_eta - without


def test_window_gain_on_shifted_mixture():
    # sharp mode at -0.17 with a thin positive lobe: a +-0.05 window at the
    # mode holds far more mass than the same window at zero
    rng = np.random.default_rng(23)
    vals = np.concatenate(
        [rng.normal(-0.17, 0.05, 9000), rng.normal(1.0, 0.3, 1000)]
    ).astype(np.float32)
    gain = window_sparsity_gain(vals, tau=0.05, eta=-0.17)
    assert gain >= 0.30


def test_iso_error_gain_budget_logic():
    points = [
        AblationPoint(0.3, observed_with=0.3, observed_without=0.05, err_with=0.01, err_without=0.01),
        AblationPoint(0.6, observed_with=0.6, observed_without=0.1, err_with=0.02, err_without=0.5),
    ]
    assert iso_error_gain(points) == pytest.approx(0.55)


# ---------------------------------------------------------------------------
# reconstruction error


def test_reconstruction_error_zero_for_empty_specs():
    model = _swiglu_model(seed=12)
    stream = synthetic_stream(16, 2, 32, seed=24)
    assert reconstruction_error(model, {}, stream) == pytest.approx(0.0, abs=1e-7)


def test_reconstruction_error_grows_with_target():
    model = _swiglu_model(seed=13)
    calres = calibrate(
        model, synthetic_stream(16, 4, 64, seed=25), capacity=1 << 14, seed=25
    )
    stream = synthetic_stream(16, 4, 64, seed=26)
    errs = [
        reconstruction_error(
            model, make_specs(model, calres, {UP_GATE_INPUT: s, DOWN_INPUT: s}), stream
        )
        for s in (0.2, 0.5, 0.8)
    ]
    assert errs[0] < errs[1] < errs[2]


def test_reconstruction_error_accepts_one_shot_iterable():
    model = _swiglu_model(seed=13)
    calres = calibrate(
        model, synthetic_stream(16, 4, 64, seed=25), capacity=1 << 14, seed=25
    )
    specs = make_specs(model, calres, {UP_GATE_INPUT: 0.5, DOWN_INPUT: 0.5})
    stream = synthetic_stream(16, 4, 64, seed=26)
    err = reconstruction_error(model, specs, stream)
    assert err > 0.0
    assert reconstruction_error(model, specs, (b for b in stream)) == err


# ---------------------------------------------------------------------------
# forked shares (``tests/conftest.py`` checks after every test that no child
# is left unreaped)


def _fork_always(monkeypatch, cpus=3):
    monkeypatch.setattr(scap.tensor, "_cpus", lambda: cpus)
    monkeypatch.setattr(scap.analysis, "FORK_MACS", 0)


def test_fan_out_runs_contiguous_shares_in_item_order(monkeypatch, forks):
    _fork_always(monkeypatch)
    results = scap.analysis._fan_out(lambda i: (i, os.getpid()), list(range(7)), 0)
    assert [i for i, _ in results] == list(range(7))
    pids = [pid for _, pid in results]
    # shares of 2, 2 and 3 items; this process runs the first
    assert pids == [os.getpid()] * 2 + [forks[0]] * 2 + [forks[1]] * 3


@pytest.mark.parametrize(
    "cpus, macs, drawing", [(1, 0, False), (3, -1, False), (3, 0, True)],
    ids=["one-cpu", "below-threshold", "draw-thread-alive"],
)
def test_fan_out_runs_every_item_here_when_it_cannot_gain(
    monkeypatch, forks, cpus, macs, drawing
):
    _fork_always(monkeypatch, cpus)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, name=scap.analysis.DRAW_THREAD + "_0")
    if drawing:
        thread.start()
    try:
        results = scap.analysis._fan_out(lambda i: (i, os.getpid()), [0, 1, 2], macs)
    finally:
        done.set()
        if drawing:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert results == [(i, os.getpid()) for i in range(3)]
    assert forks == []


class _Unpicklable(ValueError):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize(
    "error, expect",
    [(DataError("bad item 2"), DataError), (_Unpicklable("bad item 2"), RuntimeError)],
    ids=["picklable", "unpicklable"],
)
def test_fan_out_raises_a_child_failure_with_its_traceback(monkeypatch, error, expect):
    # a failure keeps its type when pickle can rebuild it, and its text always
    _fork_always(monkeypatch)
    parent = os.getpid()

    def work(i):
        if i == 2 and os.getpid() != parent:
            raise error
        return i

    with pytest.raises(expect, match="bad item 2") as exc:
        scap.analysis._fan_out(work, [0, 1, 2], 0)
    (note,) = exc.value.__notes__
    assert note.startswith("in forked share ")
    assert "Traceback" in note and "in work" in note and "bad item 2" in note


def test_fan_out_kills_and_reaps_its_children_when_its_own_share_raises(monkeypatch):
    _fork_always(monkeypatch)
    parent = os.getpid()

    def work(i):
        if os.getpid() == parent:
            raise DataError("own share failed")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(DataError, match="own share failed"):
        scap.analysis._fan_out(work, [0, 1, 2], 0)
    assert time.monotonic() - start < 30


@pytest.mark.parametrize(
    "die, status",
    [(lambda: os._exit(3), "3"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")],
    ids=["exit", "killed"],
)
def test_fan_out_names_the_status_of_a_child_that_ends_without_a_result(monkeypatch, die, status):
    _fork_always(monkeypatch, cpus=2)
    parent = os.getpid()
    work = lambda i: die() if os.getpid() != parent else i
    with pytest.raises(ChildProcessError, match=f"exited {status} without a result"):
        scap.analysis._fan_out(work, [0, 1], 0)


def test_forked_walks_count_only_the_parents_share_here(monkeypatch):
    # 2 maps over 5 batches at 2 CPUs: this process walks the first 2 batches
    _fork_always(monkeypatch, cpus=2)
    forwards = []
    forward = scap.model.SparseStack.forward
    monkeypatch.setattr(
        scap.model.SparseStack, "forward", lambda *a, **k: forwards.append(1) or forward(*a, **k)
    )
    model = _swiglu_model(seed=14, blocks=2)
    hold = synthetic_stream(16, 5, 32, seed=2)
    maps = [{h: PruneSpec(0.3 + 0.2 * k) for h in model.hook_points()} for k in range(2)]
    measured = scap.analysis._evaluate(model, maps, hold)
    assert len(forwards) == 2 * 2
    monkeypatch.setattr(scap.tensor, "_cpus", lambda: 1)
    assert scap.analysis._evaluate(model, maps, hold) == measured
