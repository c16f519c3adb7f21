"""Weight container and report persistence: bit-exactness and error taxonomy."""

import json
import struct

import numpy as np
import pytest

from scap.io import (
    ManifestError,
    OffsetOverlapError,
    ReportError,
    TruncatedBlobError,
    UnsupportedVersionError,
    WeightDataError,
    load_model,
    load_report,
    load_tensors,
    make_report,
    save_model,
    save_report,
    save_tensors,
)
from scap.model import BlockConfig, init_weights
from scap.tensor import CAST_BLOCK_BYTES


def _container_parts(path):
    data = path.read_bytes()
    (hlen,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + hlen])
    return data, hlen, header


def test_tensor_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.standard_normal((3, 5)).astype(np.float32),
        "b": rng.standard_normal(7).astype(np.float32),
    }
    path = tmp_path / "t.scap"
    save_tensors(tensors, path)
    loaded, _ = load_tensors(path)
    assert set(loaded) == {"a", "b"}
    for k in tensors:
        assert tensors[k].tobytes() == loaded[k].tobytes()


def test_model_round_trip_bitwise(tmp_path):
    for ffn in ("swiglu", "gelu"):
        model = init_weights(
            BlockConfig(ffn=ffn, d_model=8, d_hidden=16, n_blocks=2), seed=1
        )
        path = tmp_path / f"{ffn}.scap"
        save_model(model, path)
        loaded = load_model(path)
        orig, cfg_a = model.to_tensors()
        back, cfg_b = loaded.to_tensors()
        assert cfg_a == cfg_b
        assert set(orig) == set(back)
        assert all(orig[k].tobytes() == back[k].tobytes() for k in orig)


def test_container_blob_size_arithmetic(tmp_path):
    cfg = BlockConfig(d_model=8, d_hidden=16, n_blocks=1, rmsnorm=False)
    model = init_weights(cfg, seed=2)
    path = tmp_path / "m.scap"
    save_model(model, path)
    data, hlen, header = _container_parts(path)
    blob_len = len(data) - 8 - hlen
    assert blob_len == 4 * (8 * 16 * 2 + 16 * 8)
    total = sum(e["byte_len"] for e in header["tensors"].values())
    assert total == blob_len


def test_save_bytes_deterministic(tmp_path):
    model = init_weights(BlockConfig(d_model=8, d_hidden=16, n_blocks=1), seed=3)
    p1, p2 = tmp_path / "a.scap", tmp_path / "b.scap"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _break_manifest(header, case):
    if case == "manifest not a dict":
        header["tensors"] = list(header["tensors"])
    elif case == "config not a dict":
        header["config"] = ["swiglu"]
    elif case == "missing tensor":
        del header["tensors"]["block0.w_up"]
    elif case == "unknown config key":
        header["config"]["colour"] = 1
    elif case == "bad ffn value":
        header["config"]["ffn"] = "relu"
    elif case == "wrong-shaped tensor":  # same byte_len, transposed shape
        header["tensors"]["block0.w_up"]["shape"] = [16, 8]
    elif case == "negative dimensions":  # same byte_len
        header["tensors"]["block0.w_up"]["shape"] = [-8, -16]
    elif case == "fractional dimension":  # int() would read (8, 16)
        header["tensors"]["block0.w_up"]["shape"] = [8.7, 16]
    elif case == "float dimension":
        header["tensors"]["block0.w_up"]["shape"] = [8.0, 16]
    elif case == "bool dimension":  # int() would read (8, 16, 1)
        header["tensors"]["block0.w_up"]["shape"] = [8, 16, True]
    elif case == "float byte_len":
        header["tensors"]["block0.w_up"]["byte_len"] = 512.0
    elif case == "shape product wraps to zero":  # 2**64 elements, int64 product 0
        header["tensors"]["block0.w_up"]["shape"] = [2**32, 2**32]
        header["tensors"]["block0.w_up"]["byte_len"] = 0
    elif case == "shape product wraps negative":  # 3 * 2**62 elements, int64 product -2**62
        header["tensors"]["block0.w_up"]["shape"] = [3, 2**62]
        header["tensors"]["block0.w_up"]["byte_len"] = -(2**64)


@pytest.mark.parametrize(
    "case",
    [
        "manifest not a dict",
        "config not a dict",
        "missing tensor",
        "unknown config key",
        "bad ffn value",
        "wrong-shaped tensor",
        "negative dimensions",
        "fractional dimension",
        "float dimension",
        "bool dimension",
        "float byte_len",
        "shape product wraps to zero",
        "shape product wraps negative",
    ],
)
def test_malformed_model_container_raises_manifest_error(tmp_path, case):
    path = tmp_path / "m.scap"
    save_model(init_weights(BlockConfig(d_model=8, d_hidden=16, n_blocks=1), seed=4), path)
    data, hlen, header = _container_parts(path)
    _break_manifest(header, case)
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + data[8 + hlen :])
    with pytest.raises(ManifestError):
        load_model(path)


def _mismatch_config(tensors, config, case):
    if case == "down output width 1":  # broadcast through the residual add
        tensors["block0.w_down"] = tensors["block0.w_down"][:, :1]
        if "block0.b_down" in tensors:
            tensors["block0.b_down"] = tensors["block0.b_down"][:1]
    elif case == "norm gain of length 1":
        tensors["block0.norm_gain"] = tensors["block0.norm_gain"][:1]
    elif case == "d_model below the weights":
        config["d_model"] = 5
    elif case == "n_blocks below the tensors":  # block 1 would be dropped
        config["n_blocks"] = 1
    elif case == "1-D up weights":
        for name in ("block0.w_up", "block0.w_gate"):
            if name in tensors:
                tensors[name] = tensors[name].reshape(-1)


@pytest.mark.parametrize("ffn", ["swiglu", "gelu"])
@pytest.mark.parametrize(
    "case",
    [
        "down output width 1",
        "norm gain of length 1",
        "d_model below the weights",
        "n_blocks below the tensors",
        "1-D up weights",
    ],
)
def test_container_that_disagrees_with_its_config_raises_manifest_error(tmp_path, ffn, case):
    model = init_weights(BlockConfig(ffn=ffn, d_model=8, d_hidden=16, n_blocks=2), seed=4)
    tensors, config = model.to_tensors()
    _mismatch_config(tensors, config, case)
    path = tmp_path / "m.scap"
    save_tensors(tensors, path, extra=config)
    with pytest.raises(ManifestError):
        load_model(path)


def test_overlapping_offsets_rejected(tmp_path):
    path = tmp_path / "bad.scap"
    blob = np.zeros(8, dtype="<f4").tobytes()
    header = {
        "version": "scap-weights/1",
        "config": {},
        "tensors": {
            "a": {"shape": [4], "dtype": "f32", "byte_offset": 0, "byte_len": 16},
            "b": {"shape": [4], "dtype": "f32", "byte_offset": 8, "byte_len": 16},
        },
    }
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + blob)
    with pytest.raises(OffsetOverlapError):
        load_tensors(path)


def test_truncated_blob_rejected(tmp_path):
    path = tmp_path / "short.scap"
    save_tensors({"a": np.ones(4, np.float32)}, path)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(TruncatedBlobError):
        load_tensors(path)


def test_malformed_manifest_rejected(tmp_path):
    path = tmp_path / "junk.scap"
    raw = b"this is not json"
    path.write_bytes(struct.pack("<Q", len(raw)) + raw)
    with pytest.raises(ManifestError):
        load_tensors(path)
    path.write_bytes(b"\x00\x01")
    with pytest.raises(ManifestError):
        load_tensors(path)


def test_byte_len_shape_mismatch_rejected(tmp_path):
    path = tmp_path / "m.scap"
    save_tensors({"a": np.ones((2, 2), np.float32)}, path)
    data, hlen, header = _container_parts(path)
    header["tensors"]["a"]["byte_len"] = 12
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + data[8 + hlen :])
    with pytest.raises(ManifestError):
        load_tensors(path)


def test_nan_weights_rejected(tmp_path):
    path = tmp_path / "nan.scap"
    arr = np.array([1.0, np.nan], dtype=np.float32)
    # bypass save-side validation by writing the blob directly
    header = {
        "version": "scap-weights/1",
        "config": {},
        "tensors": {
            "a": {"shape": [2], "dtype": "f32", "byte_offset": 0, "byte_len": 8}
        },
    }
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + arr.astype("<f4").tobytes())
    with pytest.raises(WeightDataError):
        load_tensors(path)


def test_non_finite_weight_past_first_read_block_rejected(tmp_path):
    path = tmp_path / "inf.scap"
    arr = np.ones(2 * CAST_BLOCK_BYTES // 4 + 3, dtype=np.float32)  # three read blocks
    arr[-1] = np.inf
    save_tensors({"a": arr}, path)
    with pytest.raises(WeightDataError):
        load_tensors(path)


def test_container_version_rejected(tmp_path):
    path = tmp_path / "v.scap"
    header = {"version": "scap-weights/9", "config": {}, "tensors": {}}
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw)
    with pytest.raises(UnsupportedVersionError):
        load_tensors(path)


# ---------------------------------------------------------------------------
# reports


def test_empty_report_round_trip(tmp_path):
    path = tmp_path / "r.json"
    save_report(make_report("calibration", {}, {}), path)
    loaded = load_report(path)
    assert loaded["kind"] == "calibration"
    assert loaded["payload"] == {}


def test_report_bytes_deterministic(tmp_path):
    report = make_report(
        "calibration",
        {"seed": 7},
        {"layers": {"down_input": {"tau": 0.25}, "up_gate_input": {"tau": 0.5}}},
    )
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_report(report, p1)
    save_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_version_mismatch(tmp_path):
    path = tmp_path / "r.json"
    save_report(make_report("sweep", {}, {}), path)
    obj = json.loads(path.read_text())
    obj["version"] = "scap-report/2"
    path.write_text(json.dumps(obj))
    with pytest.raises(UnsupportedVersionError):
        load_report(path)


def test_report_schema_violations(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("not json at all")
    with pytest.raises(ReportError):
        load_report(path)
    with pytest.raises(ReportError):
        save_report({"version": "scap-report/1", "kind": "nope", "config": {}, "payload": {}}, path)
    with pytest.raises(ReportError):
        save_report({"version": "scap-report/1", "kind": "sweep", "config": [], "payload": {}}, path)
