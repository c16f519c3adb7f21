"""Golden SHA-256 digests of every CLI artifact at default settings.

The determinism tests compare reruns with each other; these pin the bytes
themselves, so a kernel or analysis change that shifts any output is seen.
Every run writes into the same relative ``--out`` because the effective
configuration, the output path included, is echoed into each artifact.
A digest may change only together with a CHANGES.md line naming why.
"""

import hashlib

import pytest

from scap import tensor
from scap.cli import main

OUT = "out"

GOLDEN = {
    "calibrate": {
        "calibration.json": "f7335fd2b154a82e3b0cfa6e8ac9c3aef4c82635c7c861dfa0d54d64a2641718",
    },
    "sweep": {
        "sweep.json": "72faad811482dd8ac7f6ce9c848eea8f6d41eaa70a2914a43baf6d8304c6bd9f",
        "sweep.csv": "ac0468d504598a571b2e45617617e0a6b3cf1641fa3094ab619f5ce26425cc3b",
    },
    "bench": {
        "bench.csv": "dac3388a16825931974746e87f60cd28de609a5d86ca643fd0d69075e4ab488e",
        "bench.json": "be785274ba25de45a1d64154b17729b55b2492256b9ff7393385d7985d2cc4e5",
    },
    "overlap": {
        "overlap.csv": "7e6ac04a191524484e42c50cc70760e5bc525c109cf9ad3511e1c2939eebed88",
        "overlap.json": "7b7b1c4db5288b4a10658bb13ed82c3e66579d256b0250f586ea3c4be6054bb7",
    },
    "ablate-mode": {
        "ablation.csv": "b26f79be1492aeb7d2073db9477f0bf82608c784be0c85ed806155c7e500c5e7",
        "ablation.json": "8b192a513bd339800d1ef0712cf4b6aa222bec13eee8cda4ce959d0a1f34fe9f",
    },
    "roundtrip-check": {
        "roundtrip.json": "2ae681392f2ed00a72c39702135a35a0461e97d070385e6ddcf6e5843da25669",
        "model.scap": "1c6e1f209175d000716f540a7686ee8af3f19ec7aaf5e690397164f8a9bfbb7e",
    },
}


# Every product of a default calibration is a batch over a weight below
# ``tensor.ROW_GEMM_MIN``, where one BLAS GEMM is faster than the row kernels,
# so it never builds or runs them (as the README states); the default sweep's
# check is ``tests/test_cli.py::test_default_sweep_never_runs_the_row_kernels``.
NO_ROW_KERNELS = ("calibrate",)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_artifact_digests(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    shapes = []
    real = tensor._row_product
    monkeypatch.setattr(tensor, "_row_product", lambda *a: shapes.append(a[0].shape) or real(*a))
    assert main([command, "--out", OUT]) == 0
    written = sorted(p for p in (tmp_path / OUT).iterdir() if p.is_file())
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == GOLDEN[command]
    if command in NO_ROW_KERNELS:
        assert shapes == []
