"""Bit-exact persistence: weight container and report JSON.

Weight container layout (single file, little-endian):

    [u64 header length][header JSON utf-8][f32 blob]

The header carries a version tag, the model config, and a manifest mapping
tensor name -> {shape, dtype, byte_offset, byte_len} with offsets relative
to the blob start. Offsets must be non-overlapping and in-bounds;
``byte_len`` must equal ``4 * prod(shape)``. Loading reproduces every tensor
bitwise and rejects NaN/Inf weights.

Reports are JSON with sorted keys and a ``version: "scap-report/1"`` field,
so identical in-memory values always serialize to identical bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

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
    bytes. ``extra`` lands in the header under "config".
    """
    manifest = {}
    chunks = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
        raw = arr.astype("<f4").tobytes()
        manifest[name] = {
            "shape": list(arr.shape),
            "dtype": "f32",
            "byte_offset": offset,
            "byte_len": len(raw),
        }
        chunks.append(raw)
        offset += len(raw)
    header = {
        "version": WEIGHTS_VERSION,
        "config": extra or {},
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for raw in chunks:
            f.write(raw)


def _json_int(v) -> int:
    """A manifest integer; a float such as 2.7 or 2.0, or a bool, is malformed."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; returns (tensors, config). Validates everything."""
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise ManifestError("file too short for header length prefix")
    (header_len,) = struct.unpack("<Q", data[:8])
    if 8 + header_len > len(data):
        raise ManifestError("header length exceeds file size")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), dict):
        raise ManifestError("header missing 'tensors' manifest object")
    if header.get("version") != WEIGHTS_VERSION:
        raise UnsupportedVersionError(
            f"unsupported container version: {header.get('version')!r}"
        )
    manifest = header["tensors"]
    blob = data[8 + header_len :]
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
        expect = 4 * int(np.prod(shape, dtype=np.int64)) if shape else 4
        if length != expect:
            raise ManifestError(
                f"tensor {name!r}: byte_len {length} != 4*prod(shape) {expect}"
            )
        if off < 0 or off + length > len(blob):
            raise TruncatedBlobError(
                f"tensor {name!r}: range [{off}, {off + length}) outside blob of {len(blob)} bytes"
            )
        spans.append((off, off + length, name, shape))
    spans.sort()
    for (s0, e0, n0, _), (s1, e1, n1, _) in zip(spans, spans[1:]):
        if s1 < e0:
            raise OffsetOverlapError(f"tensors {n0!r} and {n1!r} overlap in the blob")
    tensors = {}
    for off, end, name, shape in spans:
        arr = np.frombuffer(blob[off:end], dtype="<f4").reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise WeightDataError(f"tensor {name!r} contains NaN or Inf")
        tensors[name] = arr.astype(np.float32)
    return tensors, header.get("config", {})


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
