"""Golden SHA-256 digests of every CLI artifact at default settings, and of
small configs that reach paths the defaults do not.

The determinism tests compare reruns with each other; these pin the bytes
themselves, so a kernel or analysis change that shifts any output is seen.
Every run writes into the same relative ``--out`` because the effective
configuration, the output path included, is echoed into each artifact.
A digest may change only together with a CHANGES.md line naming why.
"""

import hashlib
from pathlib import Path

import pytest

from scap import analysis, model, tensor
from scap.cli import main

OUT = "out"

GOLDEN = {
    "calibrate": {
        "calibration.json": "b9718f5de121b6c6f47bae53dfc6400317a7073e037133d189fb1f388785bd25",
    },
    "sweep": {
        "sweep.json": "72faad811482dd8ac7f6ce9c848eea8f6d41eaa70a2914a43baf6d8304c6bd9f",
        "sweep.csv": "ac0468d504598a571b2e45617617e0a6b3cf1641fa3094ab619f5ce26425cc3b",
    },
    "bench": {
        "bench.csv": "64bcc22b71ce45105f5242fe9ed2101c98a9f72f3fd36dd57e7b3c095eb0ab8f",
        "bench.json": "82f75d898f92502f62e3d025e16ccb57c01e5846ce292bfcd11f765f1ca019a7",
    },
    "overlap": {
        "overlap.csv": "27f04d2c07559c9e06cd87d78100efae1c9116eaff8438125f04adc2b9da8bd4",
        "overlap.json": "e2b390ef0fcdb92858f3612d6770400fbd3aecd467ac009249ae3efaaa3d54ee",
    },
    "ablate-mode": {
        "ablation.csv": "b26f79be1492aeb7d2073db9477f0bf82608c784be0c85ed806155c7e500c5e7",
        "ablation.json": "8b192a513bd339800d1ef0712cf4b6aa222bec13eee8cda4ce959d0a1f34fe9f",
    },
    "roundtrip-check": {
        "roundtrip.json": "7d63842f9c7329b60ff912417842e9d8ea1898442b1851bd28d741fa50a36d6f",
        "model.scap": "1c6e1f209175d000716f540a7686ee8af3f19ec7aaf5e690397164f8a9bfbb7e",
    },
}


# Every product of a default calibration is a batch over a weight below
# ``tensor.ROW_GEMM_MIN``, where one BLAS GEMM is faster than the row kernels,
# so it never builds or runs them (as the README states); the default sweep's
# check is ``tests/test_cli.py::test_default_sweep_never_runs_the_row_kernels``.
NO_ROW_KERNELS = ("calibrate",)


@pytest.fixture
def row_products(monkeypatch):
    """The input shape of every ``tensor._row_product`` call the test makes."""
    shapes = []
    real = tensor._row_product
    monkeypatch.setattr(tensor, "_row_product", lambda *a: shapes.append(a[0].shape) or real(*a))
    return shapes


def _digests(argv):
    assert main([*argv, "--out", OUT]) == 0
    return _hashes(Path(OUT))


def _hashes(out: Path) -> dict[str, str]:
    written = sorted(p for p in out.iterdir() if p.is_file())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_artifact_digests(default_run, command):
    """Each command's one default run (``tests/conftest.py``), written with
    ``--out out`` as ``OUT`` is."""
    run = default_run(command)
    assert run.out.name == OUT
    assert _hashes(run.out) == GOLDEN[command]
    if command in NO_ROW_KERNELS:
        assert run.row_shapes == []


# Small dims and streams with a capacity below each site's stream, so both
# reservoirs draw past capacity (at defaults the Up/Gate one fills exactly),
# plus a centered GELU sweep on the KDE estimator, a three-block stack
# without residuals and an ablation. Three bench runs: one whose 16-row batch gives both SCAP
# sites more values (512 and 1,536) than its capacity of 500, so their taus
# come from a sampled reservoir, and two that run the row kernels end to end
# (``ROW_KERNEL_CALLS``). The table runs in well under 2 s.
SMALL = ["--d-model", "16", "--d-hidden", "48", "--calib-sequences", "4",
         "--sequence-len", "32", "--capacity", "1000"]
GOLDEN_SMALL = {
    "calibrate": (["calibrate", *SMALL], {
        "calibration.json": "8df0cf0f72126aef4e21dede66905632a4f11a8d1f1c273da215fde1f3c7df3f",
    }),
    "sweep": (["sweep", *SMALL], {
        "sweep.csv": "3ebadd1269c7c5567e0a5ef054186c6aea4c1e597200f12c70a01eda6cbd8839",
        "sweep.json": "80236ec0936cd32648c75bc247cfcc0e2546359c78b6d598531b6f9265aa68d6",
    }),
    "sweep-gelu-kde": (["sweep", *SMALL, "--ffn", "gelu", "--estimator", "kde"], {
        "sweep.csv": "eb43e509b0ff9a9095faafb7e8b3d9d10ce9d506dc4b1c276af9350984e82042",
        "sweep.json": "5bc43f2955267b78981f37868975eb8cd11e62553f9e0e154d330b8555cd83c9",
    }),
    "sweep-3-blocks-no-residual": (["sweep", *SMALL, "--blocks", "3", "--no-residual"], {
        "sweep.csv": "cbec65f10272415655a52419bb463c1064792a4667e65833df2b49f9f00c002e",
        "sweep.json": "0641aa2d3911637e2511457ed8ad30dec706e7fdde64fa746164ee63621fbbd0",
    }),
    "ablate-mode": (["ablate-mode", *SMALL], {
        "ablation.csv": "bd2427a0dd3173c742d7182149e47bcbb5950966dbc6239191777aab67920725",
        "ablation.json": "581515f3fdf7766ebde4afe9f8beb4f81a066bad6f42b8eac338372ef519ab4b",
    }),
    "bench-sampled": (["bench", "--batch", "16", "--capacity", "500"], {
        "bench.csv": "2eaa69fef0e64c8bf347ae0244e33d974488d4a30a936744bb99a5742150cfb7",
        "bench.json": "2f6be59b8ea0c8604b34ee7940464ff8305dc38001fa0f093e65669a4bb54315",
    }),
    "bench-row-gemv": (["bench", "--batch", "1"], {
        "bench.csv": "feb3f7a7481545fc8b33ee6cf4f751aa02760e45a9e94e6f32c6d4707ef318c5",
        "bench.json": "c53ac1f8dcb03c465872a7a59ca4b88064c2b214ac365a82f69d806ff81d9a0c",
    }),
    "bench-row-gemm": ([
        "bench", "--d-model", "512", "--d-hidden", "512", "--batch", "4", "--sparsity-grid", "0.3"
    ], {
        "bench.csv": "10c81713c37b65b998e6ae2c80c20677911b354487600834074df27ebf2b2464",
        "bench.json": "d64023db1c0dc90da745773973e55f52cccb07d8c79a0cd19af80ee9a4691558",
    }),
}
# (calls, batch rows of each) to ``tensor._row_product``: a one-row batch
# runs ``row_gemv``, and a batch over a 512x512 weight (``ROW_GEMM_MIN``
# elements and more) runs ``row_gemm``; every other small config runs none.
# Each bench runs the dense block's 3 products, 1 Gate product for the CATS
# taus, 3 per CATS and 3 per SCAP grid point (6 points at batch 1, 1 at
# batch 4), and 2 in its calibration, which stops before the Down product
ROW_KERNEL_CALLS = {"bench-row-gemv": (42, 1), "bench-row-gemm": (12, 4)}


@pytest.mark.parametrize("name", sorted(GOLDEN_SMALL))
def test_small_config_artifact_digests(tmp_path, monkeypatch, row_products, name):
    monkeypatch.chdir(tmp_path)
    argv, want = GOLDEN_SMALL[name]
    assert _digests(argv) == want
    calls, batch = ROW_KERNEL_CALLS.get(name, (0, 1))
    assert [shape[0] for shape in row_products] == [batch] * calls


# the ``GOLDEN_SMALL`` runs whose walks fork when ``analysis.FORK_MACS`` is 0
# -> (spec maps, eval batches)
FORKED = {
    "sweep": (9, 4),
    "sweep-gelu-kde": (9, 4),
    "sweep-3-blocks-no-residual": (9, 4),
    "ablate-mode": (16, 4),
}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("name", sorted(FORKED))
def test_forked_walks_write_the_golden_bytes(tmp_path, monkeypatch, forks, name, cpus):
    """With ``FORK_MACS`` forced to 0, a sweep forks ``cpus - 1`` children
    for its Down passes and as many for its walk, and the ablation as many
    for its walk, and each writes the bytes of its one-CPU digests. This
    process forwards each map over its own share of the batches only."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(analysis, "FORK_MACS", 0)
    monkeypatch.setattr(tensor, "_cpus", lambda: cpus)
    forwards, forward = [], model.SparseStack.forward
    count = lambda *a, **k: forwards.append(1) or forward(*a, **k)
    monkeypatch.setattr(model.SparseStack, "forward", count)
    argv, want = GOLDEN_SMALL[name]
    assert _digests(argv) == want
    maps, batches = FORKED[name]
    assert len(forks) == (cpus - 1) * (1 if name == "ablate-mode" else 2)
    assert len(forwards) == maps * (batches // cpus)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_runs_on_one_cpu_fork_nothing(default_run, command):
    assert "os.fork" not in default_run(command).calls
