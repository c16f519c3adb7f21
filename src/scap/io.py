"""Bit-exact persistence: weight container and report JSON.

Weight container layout (single file, little-endian):

    [u64 header length][header JSON utf-8][f32 blob]

The header carries a version tag, the model config, and a manifest mapping
tensor name -> {shape, dtype, byte_offset, byte_len} with offsets relative
to the blob start. Offsets must be non-overlapping and in-bounds;
``byte_len`` must equal ``4 * prod(shape)``. Loading reproduces every tensor
bitwise and rejects NaN/Inf weights.

Saving and loading both stream: saving writes each tensor's memory straight
to the file, and loading reads each tensor into its final array, so either
costs one copy of the weights plus a scratch of about ``CAST_BLOCK_BYTES``.

Reports are JSON with sorted keys and a ``version: "scap-report/1"`` field,
so identical in-memory values always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import CAST_BLOCK_BYTES

WEIGHTS_VERSION = "scap-weights/1"
REPORT_VERSION = "scap-report/1"
REPORT_KINDS = (
    "calibration",
    "sweep",
    "bench",
    "overlap",
    "ablation",
    "roundtrip",
)


class ContainerError(ValueError):
    """Base class for weight-container format violations."""


class ManifestError(ContainerError):
    """Header JSON missing, malformed, or carrying invalid fields."""


class OffsetOverlapError(ContainerError):
    """Two manifest entries claim overlapping blob ranges."""


class TruncatedBlobError(ContainerError):
    """Blob shorter than the manifest requires."""


class WeightDataError(ContainerError):
    """Stored weights contain NaN or Inf."""


class ReportError(ValueError):
    """Report JSON violates the expected schema."""


class UnsupportedVersionError(ReportError):
    """Version field does not match what this build writes."""


def save_tensors(tensors: dict[str, np.ndarray], path, extra: dict | None = None) -> None:
    """Write named float32 tensors into one container file.

    Manifest keys are sorted so identical tensors always produce identical
    bytes. ``extra`` lands in the header under "config". C-ordered float32
    tensors are written from their own memory, without a copy.
    """
    arrays = {
        name: np.ascontiguousarray(tensors[name], dtype="<f4") for name in sorted(tensors)
    }
    manifest = {}
    offset = 0
    for name, arr in arrays.items():
        manifest[name] = {
            "shape": list(arr.shape),
            "dtype": "f32",
            "byte_offset": offset,
            "byte_len": arr.nbytes,
        }
        offset += arr.nbytes
    header = {
        "version": WEIGHTS_VERSION,
        "config": extra or {},
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for arr in arrays.values():
            f.write(arr)


def _json_int(v) -> int:
    """A manifest integer; a float such as 2.7 or 2.0, or a bool, is malformed."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; returns (tensors, config). Validates everything.

    The manifest is checked against the file size before any tensor is read;
    then each tensor is read into its own float32 array, a block of about
    ``CAST_BLOCK_BYTES`` at a time, and each block is checked for NaN/Inf.
    The result is the only copy of the weights that loading makes.
    """
    with open(path, "rb") as f:
        prefix = f.read(8)
        if len(prefix) < 8:
            raise ManifestError("file too short for header length prefix")
        (header_len,) = struct.unpack("<Q", prefix)
        size = os.fstat(f.fileno()).st_size
        if 8 + header_len > size:
            raise ManifestError("header length exceeds file size")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ManifestError(f"header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("tensors"), dict):
            raise ManifestError("header missing 'tensors' manifest object")
        if header.get("version") != WEIGHTS_VERSION:
            raise UnsupportedVersionError(
                f"unsupported container version: {header.get('version')!r}"
            )
        blob_start = 8 + header_len
        spans = _manifest_spans(header["tensors"], size - blob_start)
        tensors = {}
        for off, _, name, shape in spans:
            f.seek(blob_start + off)
            tensors[name] = _read_tensor(f, name, shape)
    return tensors, header.get("config", {})


def _manifest_spans(manifest: dict, blob_len: int) -> list:
    """Validated (start, end, name, shape) of every tensor, sorted by offset."""
    spans = []
    for name, entry in manifest.items():
        try:
            shape = tuple(_json_int(v) for v in entry["shape"])
            off, length = _json_int(entry["byte_offset"]), _json_int(entry["byte_len"])
            dtype = entry["dtype"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"tensor {name!r}: malformed entry") from exc
        if dtype != "f32":
            raise ManifestError(f"tensor {name!r}: unsupported dtype {dtype!r}")
        if any(v < 0 for v in shape):
            raise ManifestError(f"tensor {name!r}: negative dimension in shape {shape}")
        expect = 4 * math.prod(shape)
        if length != expect:
            raise ManifestError(
                f"tensor {name!r}: byte_len {length} != 4*prod(shape) {expect}"
            )
        if off < 0 or off + length > blob_len:
            raise TruncatedBlobError(
                f"tensor {name!r}: range [{off}, {off + length}) outside blob of {blob_len} bytes"
            )
        spans.append((off, off + length, name, shape))
    spans.sort()
    for (s0, e0, n0, _), (s1, e1, n1, _) in zip(spans, spans[1:]):
        if s1 < e0:
            raise OffsetOverlapError(f"tensors {n0!r} and {n1!r} overlap in the blob")
    return spans


def _read_tensor(f, name: str, shape: tuple) -> np.ndarray:
    """Read one tensor at the file's position into a new float32 array."""
    arr = np.empty(shape, dtype="<f4")
    flat = arr.reshape(-1)
    step = CAST_BLOCK_BYTES // 4
    for lo in range(0, flat.size, step):
        block = flat[lo : lo + step]
        if f.readinto(block) != block.nbytes:
            raise TruncatedBlobError(f"tensor {name!r}: blob ends inside the tensor")
        if not np.all(np.isfinite(block)):
            raise WeightDataError(f"tensor {name!r} contains NaN or Inf")
    return arr


def save_model(model, path) -> None:
    """Persist an FfnStack (weights + config) as one container file."""
    tensors, config = model.to_tensors()
    save_tensors(tensors, path, extra=config)


def load_model(path):
    """Reconstruct an FfnStack saved with ``save_model``, bitwise; a
    container whose config or tensors describe no model raises ManifestError."""
    from .model import FfnStack

    tensors, config = load_tensors(path)
    if not config or not isinstance(config, dict):
        raise ManifestError("container carries no model config object")
    try:
        return FfnStack.from_tensors(tensors, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"container does not describe a model: {exc!r}") from exc


def save_report(report: dict, path) -> None:
    """Validate and write a report with deterministic bytes."""
    _validate_report(report)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_report(path) -> dict:
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReportError(f"report is not valid JSON: {exc}") from exc
    _validate_report(report)
    return report


def make_report(kind: str, config: dict, payload: dict) -> dict:
    return {
        "version": REPORT_VERSION,
        "kind": kind,
        "config": config,
        "payload": payload,
    }


def _validate_report(report: dict) -> None:
    if not isinstance(report, dict):
        raise ReportError("report must be a JSON object")
    version = report.get("version")
    if version != REPORT_VERSION:
        raise UnsupportedVersionError(f"unsupported report version: {version!r}")
    kind = report.get("kind")
    if kind not in REPORT_KINDS:
        raise ReportError(f"unknown report kind: {kind!r}")
    for key, typ in (("config", dict), ("payload", dict)):
        if not isinstance(report.get(key), typ):
            raise ReportError(f"report field {key!r} must be a JSON object")
