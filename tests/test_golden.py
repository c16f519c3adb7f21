"""Golden SHA-256 digests of every CLI artifact at default settings.

The determinism tests compare reruns with each other; these pin the bytes
themselves, so a kernel or analysis change that shifts any output is seen.
Every run writes into the same relative ``--out`` because the effective
configuration, the output path included, is echoed into each artifact.
A digest may change only together with a CHANGES.md line naming why.
"""

import hashlib

import pytest

from scap.cli import main

OUT = "out"

GOLDEN = {
    "calibrate": {
        "calibration.json": "f47f6698ef91a25ef6ee2afe09626525c3df97a479db5e7ac99db957125efe44",
    },
    "sweep": {
        "sweep.json": "51a767f5bd6e645459a084faaeaa3b4d77f0abbde20084647144a22c9bcc4ffd",
        "sweep.csv": "af9960e02fe0670f3087411c8333b92460ce558ec343826e58ee36f9f5fe07e2",
    },
    "bench": {
        "bench.csv": "dd0f1cd0c72310abcad06d5b6ce1b1f2059e32463dfcb86872d83cf88e36c2cd",
        "bench.json": "714e2f8b38a45b6bd37464c806be6dba1f82b9ee79ab0a4eb2291def7aa0d390",
    },
    "overlap": {
        "overlap.csv": "7e6ac04a191524484e42c50cc70760e5bc525c109cf9ad3511e1c2939eebed88",
        "overlap.json": "7b7b1c4db5288b4a10658bb13ed82c3e66579d256b0250f586ea3c4be6054bb7",
    },
    "ablate-mode": {
        "ablation.csv": "8cd038bdb62c387cfbf1d03a6f6bcbdcc46a08a575189a4ef82aa35fbf77022f",
        "ablation.json": "548ac6a3bfac4af9827989292a3f1e5a451a7265ca86b64977030ecfceb14423",
    },
    "roundtrip-check": {
        "roundtrip.json": "2ae681392f2ed00a72c39702135a35a0461e97d070385e6ddcf6e5843da25669",
        "model.scap": "1c6e1f209175d000716f540a7686ee8af3f19ec7aaf5e690397164f8a9bfbb7e",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_artifact_digests(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--out", OUT]) == 0
    written = sorted(p for p in (tmp_path / OUT).iterdir() if p.is_file())
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == GOLDEN[command]
