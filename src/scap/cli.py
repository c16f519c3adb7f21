"""Batch CLI tying the engine together.

Subcommands: calibrate, sweep, bench, overlap, ablate-mode, roundtrip-check.
Every run is deterministic under a fixed --seed and writes machine-readable
JSON (and CSV plot data) into --out; the effective configuration is echoed
into each artifact. Flag precedence: command line > --config file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, io, kernels
from .calib import ModeEstimator, check_fractions
from .model import BlockConfig, init_weights
from .prune import PruneSpec, compile_ffn
from .tensor import matmul, silu

COMMON_DEFAULTS = {
    "seed": 2025,
    "out": "scap-out",
    "d_model": 32,
    "d_hidden": 96,
    "blocks": 2,
    "ffn": "swiglu",
    "estimator": "mean",
    "capacity": 1 << 20,
    "calib_sequences": 64,
    "sequence_len": 256,
    "input_scale": 1.0,
    "up_bias_offset": 0.0,
    "rmsnorm": True,
    "residual": True,
}

COMMAND_DEFAULTS = {
    "calibrate": {"sparsity_grid": "0.2,0.3,0.4,0.5,0.6,0.7,0.8"},
    "sweep": {"grid_up": "0.2,0.4,0.6", "grid_down": "0.3,0.5,0.7"},
    "bench": {
        "sparsity_grid": "0.1,0.2,0.3,0.4,0.5,0.6",
        "batch": 8,
    },
    "overlap": {
        "batch_sizes": "1,2,4,8,16",
        "rho": 0.5,
        "target_sparsity": 0.6,
        "n_batches": 16,
    },
    "ablate-mode": {
        "sparsity_grid": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
        "ffn": "gelu",
        "estimator": "kde",
        "up_bias_offset": 1.2,
        "input_scale": 0.1,
        "rmsnorm": False,
    },
    "roundtrip-check": {},
}


class CliError(RuntimeError):
    pass


@dataclass
class RunConfig:
    command: str
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError as exc:
            raise AttributeError(name) from exc

    def block_config(self) -> BlockConfig:
        return BlockConfig(
            ffn=self.ffn,
            d_model=self.d_model,
            d_hidden=self.d_hidden,
            n_blocks=self.blocks,
            residual=self.residual,
            rmsnorm=self.rmsnorm,
            up_bias_offset=self.up_bias_offset,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scap",
        description="Calibrated activation-pruning engine: calibration, "
        "sparse-kernel accounting, and analysis harnesses.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", type=str, help="output directory")
    common.add_argument("--config", type=str, help="JSON config file")
    common.add_argument("--d-model", type=int, dest="d_model")
    common.add_argument("--d-hidden", type=int, dest="d_hidden")
    common.add_argument("--blocks", type=int)
    common.add_argument("--ffn", choices=["swiglu", "gelu"])
    common.add_argument("--estimator", choices=["mean", "median", "kde"])
    common.add_argument("--capacity", type=int, help="reservoir capacity")
    common.add_argument("--calib-sequences", type=int, dest="calib_sequences")
    common.add_argument("--sequence-len", type=int, dest="sequence_len")
    common.add_argument("--input-scale", type=float, dest="input_scale")
    common.add_argument("--up-bias-offset", type=float, dest="up_bias_offset")
    common.add_argument(
        "--no-rmsnorm", action="store_const", const=False, dest="rmsnorm"
    )
    common.add_argument(
        "--no-residual", action="store_const", const=False, dest="residual"
    )

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("calibrate", parents=[common], help="emit tau/eta calibration report")
    p.add_argument("--sparsity-grid", type=str, dest="sparsity_grid")
    p = sub.add_parser("sweep", parents=[common], help="two-axis Pareto grid sweep")
    p.add_argument("--grid-up", type=str, dest="grid_up")
    p.add_argument("--grid-down", type=str, dest="grid_down")
    p = sub.add_parser("bench", parents=[common], help="kernel MAC-ratio sweep")
    p.add_argument("--sparsity-grid", type=str, dest="sparsity_grid")
    p.add_argument("--batch", type=int)
    p = sub.add_parser("overlap", parents=[common], help="overlap-sparsity decay curve")
    p.add_argument("--batch-sizes", type=str, dest="batch_sizes")
    p.add_argument("--rho", type=float)
    p.add_argument("--target-sparsity", type=float, dest="target_sparsity")
    p.add_argument("--n-batches", type=int, dest="n_batches")
    p = sub.add_parser(
        "ablate-mode", parents=[common], help="pruning with vs without mode centering"
    )
    p.add_argument("--sparsity-grid", type=str, dest="sparsity_grid")
    sub.add_parser(
        "roundtrip-check", parents=[common], help="weight container round-trip check"
    )
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    defaults = {**COMMON_DEFAULTS, **COMMAND_DEFAULTS[command]}
    values = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file must hold a JSON object, got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(values)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            # a float option takes an int too; a bool is never an int here
            kind = type(values[key])
            if type(val) not in ((int, float) if kind is float else (kind,)):
                raise CliError(f"config key {key!r} must be of type {kind.__name__}, got {val!r}")
        values.update(file_cfg)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        values[key] = val
    for key, val in values.items():
        if type(defaults[key]) is float and not math.isfinite(val):
            raise CliError(f"{key} must be finite, got {val}")
    return RunConfig(command=command, values=values)


def _floats(cfg: RunConfig, key: str, kind=float) -> list:
    """The comma-separated list under ``key``; an empty one raises CliError."""
    text = cfg.values[key]
    try:
        values = [kind(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"expected comma-separated {kind.__name__}s, got {text!r}") from exc
    if not values:
        raise CliError(f"{key} must list at least one value, got {text!r}")
    return values


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)  # raises when ``out`` is a file
    return out


def _write_csv(path: Path, header, rows, config: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _native(obj):
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _save_report(cfg: RunConfig, kind: str, payload: dict, path: Path) -> None:
    report = io.make_report(kind, _native(dict(cfg.values)), _native(payload))
    io.save_report(report, path)
    io.load_report(path)  # exit 0 only for outputs that validate back


def _streams(cfg: RunConfig):
    """The calibration and held-out streams, drawn from seed + 1 and + 2."""
    for key in ("calib_sequences", "sequence_len"):
        if cfg.values[key] < 1:
            raise CliError(f"{key} must be >= 1, got {cfg.values[key]}")
    return [
        analysis.synthetic_stream(
            cfg.d_model, cfg.calib_sequences, cfg.sequence_len,
            scale=cfg.input_scale, seed=cfg.seed + k,
        )
        for k in (1, 2)
    ]


def cmd_calibrate(cfg: RunConfig) -> list[Path]:
    from .calib import report_entry

    grid = _floats(cfg, "sparsity_grid")
    check_fractions("sparsity_grid", grid)
    calib_stream, _ = _streams(cfg)
    out = _out_dir(cfg)
    model = init_weights(cfg.block_config(), cfg.seed)
    calres = analysis.calibrate(
        model, calib_stream, capacity=cfg.capacity, seed=cfg.seed
    )
    payload = {
        "layers": {
            gid: report_entry(st, grid) for gid, st in sorted(calres.items())
        },
        "hooks": {h.label: h.site for h in model.hook_points()},
    }
    path = out / "calibration.json"
    _save_report(cfg, "calibration", payload, path)
    return [path]


def cmd_sweep(cfg: RunConfig) -> list[Path]:
    grid_up, grid_down = _floats(cfg, "grid_up"), _floats(cfg, "grid_down")
    calib_stream, eval_stream = _streams(cfg)
    out = _out_dir(cfg)
    model = init_weights(cfg.block_config(), cfg.seed)
    center = ("down_input",) if cfg.ffn == "gelu" else ()
    result = analysis.pareto_sweep(
        model,
        calib_stream,
        eval_stream,
        grid_up,
        grid_down,
        capacity=cfg.capacity,
        seed=cfg.seed,
        center_sites=center,
        estimator=ModeEstimator(kind=cfg.estimator),
    )
    json_path = out / "sweep.json"
    _save_report(cfg, "sweep", result.to_payload(), json_path)
    csv_path = out / "sweep.csv"
    header, rows = analysis.sweep_rows(result)
    _write_csv(csv_path, header, rows, _native(dict(cfg.values)))
    return [json_path, csv_path]


def cmd_bench(cfg: RunConfig) -> list[Path]:
    for key in ("batch", "d_model", "d_hidden"):
        if cfg.values[key] < 1:
            raise CliError(f"{key} must be >= 1, got {cfg.values[key]}")
    grid = _floats(cfg, "sparsity_grid")
    check_fractions("sparsity_grid", grid)
    out = _out_dir(cfg)
    rng = np.random.default_rng(cfg.seed)
    d, h, batch = cfg.d_model, cfg.d_hidden, cfg.batch
    w = kernels.SwiGluWeights(
        (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
        (rng.standard_normal((d, h)) / np.sqrt(d)).astype(np.float32),
        (rng.standard_normal((h, d)) / np.sqrt(h)).astype(np.float32),
    )
    x = rng.standard_normal((batch, d)).astype(np.float32)
    header = [
        "scheme",
        "d",
        "h",
        "batch",
        "target_sparsity",
        "observed_sparsity",
        "macs",
        "dense_macs",
        "macs_ratio",
    ]
    dense_macs = kernels.dense_macs_swiglu(batch, d, h)

    def row(scheme, target, observed, macs):
        return [scheme, d, h, batch, target, observed, macs, dense_macs, macs / dense_macs]

    dense = kernels.swiglu_ffn(x, w)
    rows = [row("dense", 0.0, 0.0, dense.ops.macs)]
    silu_mag = np.abs(silu(matmul(x, w.w_gate)))
    for s in grid:
        _, count = kernels.cats_swiglu(float(np.quantile(silu_mag, s)), x, w)
        rows.append(row("cats", s, 2.0 / 3.0 * (count.elements_pruned / (batch * h)), count.macs))
    for s in grid:
        tau_x = float(np.quantile(np.abs(x), s))
        tau_g = float(np.quantile(np.abs(dense.down_in), s))
        run = kernels.swiglu_ffn(
            x, w, *compile_ffn(w, PruneSpec(tau_x), PruneSpec(tau_g))
        )
        kept_x, kept_g = run.up.kept, run.down.kept
        obs = kernels.ffn_sparsity(
            1.0 - kept_x.sum() / kept_x.size, 1.0 - kept_g.sum() / kept_g.size
        )
        rows.append(row("scap", s, obs, run.ops.macs))

    csv_path = out / "bench.csv"
    _write_csv(csv_path, header, rows, _native(dict(cfg.values)))
    json_path = out / "bench.json"
    payload = {"columns": header, "rows": _native(rows)}
    _save_report(cfg, "bench", payload, json_path)
    return [csv_path, json_path]


def cmd_overlap(cfg: RunConfig) -> list[Path]:
    from .model import UP_GATE_INPUT, HookPoint

    batch_sizes = _floats(cfg, "batch_sizes", int)
    analysis.check_overlap_sizes(batch_sizes, cfg.n_batches)
    check_fractions("target_sparsity", [cfg.target_sparsity])
    batches = analysis.CorrelatedBatches(
        cfg.d_model, rho=cfg.rho, scale=cfg.input_scale, seed=cfg.seed + 3
    )
    calib_stream, _ = _streams(cfg)
    out = _out_dir(cfg)
    model = init_weights(cfg.block_config(), cfg.seed)
    calres = analysis.calibrate(
        model, calib_stream, capacity=cfg.capacity, seed=cfg.seed
    )
    specs = analysis.make_specs(
        model, calres, {UP_GATE_INPUT: cfg.target_sparsity}
    )
    curve = analysis.overlap_curve(
        model,
        specs,
        batches,
        batch_sizes,
        hook=HookPoint(0, UP_GATE_INPUT),
        n_batches=cfg.n_batches,
    )
    csv_path = out / "overlap.csv"
    header, rows = analysis.overlap_rows(curve)
    _write_csv(csv_path, header, rows, _native(dict(cfg.values)))
    json_path = out / "overlap.json"
    _save_report(cfg, "overlap", curve.to_payload(), json_path)
    return [csv_path, json_path]


def cmd_ablate_mode(cfg: RunConfig) -> list[Path]:
    if cfg.ffn != "gelu":
        raise CliError("ablate-mode requires --ffn gelu (shifted hidden modes)")
    grid = _floats(cfg, "sparsity_grid")
    calib_stream, eval_stream = _streams(cfg)
    out = _out_dir(cfg)
    model = init_weights(cfg.block_config(), cfg.seed)
    result = analysis.mode_centering_ablation(
        model,
        calib_stream,
        eval_stream,
        grid,
        estimator=ModeEstimator(kind=cfg.estimator),
        capacity=cfg.capacity,
        seed=cfg.seed,
    )
    csv_path = out / "ablation.csv"
    header, rows = analysis.ablation_rows(result)
    _write_csv(csv_path, header, rows, _native(dict(cfg.values)))
    json_path = out / "ablation.json"
    _save_report(cfg, "ablation", result.to_payload(), json_path)
    return [csv_path, json_path]


def cmd_roundtrip_check(cfg: RunConfig) -> list[Path]:
    out = _out_dir(cfg)
    model = init_weights(cfg.block_config(), cfg.seed)
    container = out / "model.scap"
    io.save_model(model, container)
    loaded = io.load_model(container)
    tensors, _ = model.to_tensors()
    loaded_tensors, _ = loaded.to_tensors()
    match = set(tensors) == set(loaded_tensors) and all(
        np.array_equal(tensors[k].view(np.uint32), loaded_tensors[k].view(np.uint32))
        for k in tensors
    )
    if not match:
        raise CliError("weight container round-trip mismatch")
    payload = {
        "match": True,
        "tensors": len(tensors),
        "container_bytes": container.stat().st_size,
    }
    json_path = out / "roundtrip.json"
    _save_report(cfg, "roundtrip", payload, json_path)
    return [json_path, container]


COMMANDS = {
    "calibrate": cmd_calibrate,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "overlap": cmd_overlap,
    "ablate-mode": cmd_ablate_mode,
    "roundtrip-check": cmd_roundtrip_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        written = COMMANDS[cfg.command](cfg)
        for path in written:
            if not Path(path).is_file() or Path(path).stat().st_size == 0:
                raise CliError(f"output missing or empty: {path}")
        print(" ".join(str(p) for p in written))
        return 0
    except Exception as exc:  # single-line diagnostic, nonzero exit
        if os.environ.get("SCAP_DEBUG") == "1":
            raise  # keep the traceback
        print(f"scap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
