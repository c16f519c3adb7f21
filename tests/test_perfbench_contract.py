"""The benchmark's traced run still sees scap: its span tracer wraps the
public functions it names, records spans during a CLI job, and puts every
original back.

``perfbench/spans.py`` is loaded by path and used as it is, so a refactor
that renames or bypasses a traced function fails here instead of reading 0
in the benchmark's per-layer metrics.
"""

import importlib.util
from pathlib import Path

import numpy as np

import scap
from scap import analysis, calib, cli, io, kernels, model, prune, tensor
from scap.model import DOWN_INPUT, UP_GATE_INPUT, BlockConfig, init_weights
from scap.prune import PruneSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_sees_sparse_fc_and_restores_every_patch(tmp_path):
    spans = _load_spans()
    owners = (
        scap, analysis, calib, cli, io, kernels, model, prune, tensor,
        model.FfnStack, model.SparseStack, calib.LayerStats,
    )
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {id(owner) for owner, _, _ in tracer._patches}
        rc = cli.main([
            "sweep", "--out", str(tmp_path / "out"), "--grid-up", "0.4",
            "--grid-down", "0.5", "--calib-sequences", "4",
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert patched and patched <= {id(owner) for owner in owners}
    metrics = spans.layer_metrics(tracer)
    assert metrics["kernels.sparse_fc.calls"] > 0
    assert metrics["model.sparse_forward.calls"] > 0
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        assert all(now[name] is value for name, value in saved.items()), owner


def test_record_views_answer_the_decode_check():
    # decode-wide's check reads rec.total[site], rec.pruned[site] and
    # rec.ops.macs of the record its op returns
    d, h = 16, 40
    stack = init_weights(BlockConfig(d_model=d, d_hidden=h, n_blocks=1), seed=3)
    sparse = stack.apply_prune_specs({hook: PruneSpec(0.4) for hook in stack.hook_points()})
    x = np.random.default_rng(4).standard_normal((1, d)).astype(np.float32)
    _, records = sparse.forward(x)
    rec = records[0]
    kept_up = rec.total[UP_GATE_INPUT] - rec.pruned[UP_GATE_INPUT]
    kept_down = rec.total[DOWN_INPUT] - rec.pruned[DOWN_INPUT]
    assert (kept_up, kept_down) == tuple(
        int(np.count_nonzero(run.kept)) for run in (rec.up, rec.down)
    )
    assert 0 < kept_up < d and 0 < kept_down < h
    assert rec.ops.macs == kept_up * 2 * h + kept_down * d
