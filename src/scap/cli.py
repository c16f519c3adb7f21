"""Batch CLI tying the engine together.

Subcommands: calibrate, sweep, bench, overlap, ablate-mode, roundtrip-check.
Every run is deterministic under a fixed --seed and writes machine-readable
JSON (and CSV plot data) into --out; the effective configuration is echoed
into each artifact. ``COMMAND_DEFAULTS`` maps each command to the default of
every configuration key it reads, and only those: its flags (all but
--config), the keys its --config file may hold and its echo are generated
from that one map. Flag precedence: command line > --config file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import analysis, calib, io, kernels
from .calib import ESTIMATOR_KINDS, ModeEstimator, check_fractions
from .model import (
    DOWN_INPUT, FFN_KINDS, UP_GATE_INPUT, BlockConfig, FfnStack, HookPoint, init_weights
)
from .tensor import matmul, max_workers, silu

# each command declares exactly the keys it reads, spread from these groups
_RUN = {"seed": calib.DEFAULT_SEED, "out": "scap-out"}
_DIMS = {"d_model": 32, "d_hidden": 96}
_BLOCK = {
    **_DIMS, "blocks": 2, "ffn": "swiglu", "up_bias_offset": 0.0, "rmsnorm": True, "residual": True
}
_STREAMS = {
    "capacity": calib.DEFAULT_RESERVOIR_CAPACITY,
    "calib_sequences": analysis.CALIB_SEQUENCES,
    "sequence_len": analysis.CALIB_SEQUENCE_LEN,
    "input_scale": 1.0,
}
_CALIB_RUN = {**_RUN, **_BLOCK, **_STREAMS}

COMMAND_DEFAULTS = {
    "calibrate": {**_CALIB_RUN, "sparsity_grid": "0.2,0.3,0.4,0.5,0.6,0.7,0.8"},
    "sweep": {
        **_CALIB_RUN, "estimator": "mean", "grid_up": "0.2,0.4,0.6", "grid_down": "0.3,0.5,0.7"
    },
    "bench": {
        **_RUN,
        **_DIMS,
        "capacity": calib.DEFAULT_RESERVOIR_CAPACITY,
        "sparsity_grid": "0.1,0.2,0.3,0.4,0.5,0.6",
        "batch": 8,
    },
    "overlap": {
        **_CALIB_RUN,
        "batch_sizes": "1,2,4,8,16",
        "rho": 0.5,
        "target_sparsity": 0.6,
        "n_batches": 16,
    },
    "ablate-mode": {
        **_CALIB_RUN,
        "estimator": "kde",
        "sparsity_grid": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
        "ffn": "gelu",
        "up_bias_offset": 1.2,
        "input_scale": 0.1,
        "rmsnorm": False,
    },
    "roundtrip-check": {**_RUN, **_BLOCK},
}

CHOICES = {"ffn": FFN_KINDS, "estimator": ESTIMATOR_KINDS}


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
    """One subcommand per ``COMMANDS`` entry, its help the first line of the
    entry's docstring. A bool key becomes ``--no-<key>``, any other
    ``--<key-with-dashes>`` of its default's type."""
    parser = argparse.ArgumentParser(
        prog="scap",
        description="Calibrated activation-pruning engine: calibration, "
        "sparse-kernel accounting, and analysis harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__.splitlines()[0])
        p.add_argument("--config", type=str, help="JSON config file")
        for key, default in COMMAND_DEFAULTS[command].items():
            if type(default) is bool:
                p.add_argument(f"--no-{key}", action="store_const", const=False, dest=key)
            else:
                flag = "--" + key.replace("_", "-")
                p.add_argument(flag, type=type(default), dest=key, choices=CHOICES.get(key))
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    defaults = COMMAND_DEFAULTS[command]
    values = dict(defaults)
    if args.config:
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
        kind, low = type(defaults[key]), 0 if key == "seed" else 1
        if kind is int and val < low:
            raise CliError(f"{key} must be >= {low}, got {val}")
        # false for NaN, inf and an int beyond the float range alike
        if kind is float and not abs(val) <= sys.float_info.max:
            raise CliError(f"{key} must be finite, got {val}")
        if key in CHOICES and val not in CHOICES[key]:  # from --config
            raise CliError(f"{key} must be one of {list(CHOICES[key])}, got {val!r}")
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


def _save_report(cfg: RunConfig, kind: str, payload: dict, path: Path) -> None:
    report = io.make_report(kind, cfg.values, payload)
    io.save_report(report, path)
    io.load_report(path)  # exit 0 only for outputs that validate back


def _save_table(cfg: RunConfig, out: Path, kind: str, payload: dict, table) -> list[Path]:
    """Write ``table`` (header, rows) to ``<kind>.csv`` and the ``kind`` report
    of ``payload`` to ``<kind>.json``; returns both paths."""
    csv_path, json_path = out / f"{kind}.csv", out / f"{kind}.json"
    _write_csv(csv_path, *table, cfg.values)
    _save_report(cfg, kind, payload, json_path)
    return [csv_path, json_path]


def _streams(cfg: RunConfig):
    """The calibration and held-out streams, drawn from seed + 1 and + 2."""
    return [
        analysis.synthetic_stream(
            cfg.d_model, cfg.calib_sequences, cfg.sequence_len,
            scale=cfg.input_scale, seed=cfg.seed + k,
        )
        for k in (1, 2)
    ]


def cmd_calibrate(cfg: RunConfig) -> list[Path]:
    """emit tau/eta calibration report"""
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
            gid: calib.report_entry(st, grid) for gid, st in sorted(calres.items())
        },
        "hooks": {h.label: h.site for h in model.hook_points()},
    }
    path = out / "calibration.json"
    _save_report(cfg, "calibration", payload, path)
    return [path]


def cmd_sweep(cfg: RunConfig) -> list[Path]:
    """two-axis Pareto grid sweep"""
    grid_up, grid_down = _floats(cfg, "grid_up"), _floats(cfg, "grid_down")
    calib_stream, eval_stream = _streams(cfg)
    out = _out_dir(cfg)
    model = init_weights(cfg.block_config(), cfg.seed)
    center = (DOWN_INPUT,) if cfg.ffn == "gelu" else ()
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
    return _save_table(cfg, out, "sweep", asdict(result), analysis.sweep_rows(result))


def cmd_bench(cfg: RunConfig) -> list[Path]:
    """kernel MAC-ratio sweep"""
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
    config = BlockConfig(d_model=d, d_hidden=h, n_blocks=1, residual=False, rmsnorm=False)
    block = FfnStack(config, [w], None)
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
    _, _, dense = kernels.swiglu_ffn(x, w)
    dense_macs = dense.dense_macs

    def row(scheme, target, observed, macs):
        return [scheme, d, h, batch, target, observed, macs, dense_macs, macs / dense_macs]

    rows = [row("dense", 0.0, 0.0, dense.ops.macs)]
    silu_mag = np.abs(silu(matmul(x, w.w_gate)))
    for s in grid:
        _, count = kernels.cats_swiglu(float(np.quantile(silu_mag, s)), x, w)
        rows.append(row("cats", s, 2.0 / 3.0 * (count.elements_pruned / (batch * h)), count.macs))
    stats = analysis.calibrate(block, [x], capacity=cfg.capacity, seed=cfg.seed)
    for s in grid:
        specs = analysis.make_specs(block, stats, {UP_GATE_INPUT: s, DOWN_INPUT: s})
        _, (rec,) = block.apply_prune_specs(specs).forward(x)
        kept_x, kept_g = rec.up.kept, rec.down.kept
        obs = kernels.ffn_sparsity(
            1.0 - kept_x.sum() / kept_x.size, 1.0 - kept_g.sum() / kept_g.size
        )
        rows.append(row("scap", s, obs, rec.ops.macs))

    payload = {"columns": header, "rows": rows}
    return _save_table(cfg, out, "bench", payload, (header, rows))


def cmd_overlap(cfg: RunConfig) -> list[Path]:
    """overlap-sparsity decay curve"""
    batch_sizes = _floats(cfg, "batch_sizes", int)
    analysis.check_overlap_sizes(batch_sizes, cfg.n_batches)
    check_fractions("target_sparsity", [cfg.target_sparsity])
    batches = analysis.CorrelatedBatches(
        cfg.d_model, rho=cfg.rho, scale=cfg.input_scale, seed=cfg.seed + 3
    )
    calib_stream, _ = _streams(cfg)
    out = _out_dir(cfg)
    model = init_weights(cfg.block_config(), cfg.seed)
    specs = analysis.plan_specs(
        model, calib_stream, {UP_GATE_INPUT: cfg.target_sparsity}, cfg.capacity, cfg.seed
    )
    curve = analysis.overlap_curve(
        model,
        specs,
        batches,
        batch_sizes,
        hook=HookPoint(0, UP_GATE_INPUT),
        n_batches=cfg.n_batches,
    )
    return _save_table(cfg, out, "overlap", asdict(curve), analysis.overlap_rows(curve))


def cmd_ablate_mode(cfg: RunConfig) -> list[Path]:
    """pruning with vs without mode centering"""
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
    return _save_table(cfg, out, "ablation", asdict(result), analysis.ablation_rows(result))


def cmd_roundtrip_check(cfg: RunConfig) -> list[Path]:
    """weight container round-trip check"""
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
        max_workers(1)  # rejects a malformed SCAP_THREADS before any command runs
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
