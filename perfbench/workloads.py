"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload is a closed loop with one caller. ``build`` is the set-up that
precedes the first operation, ``op(i)`` is one timed operation, ``work(out)``
counts its units of work, and ``check(outputs)`` returns the index of every
operation whose output is wrong, with the reason. Checks run after timing.
"""

from __future__ import annotations

import contextlib
import io as _io
import math
import sys
from pathlib import Path

import numpy as np

import oracle

# sweep-desk: every point's error within this share of the exact-quantile
# reference (scap samples the Down quantile from a bounded reservoir; the
# deviation seen on this commit is below 0.001)
SWEEP_ERROR_MARGIN = 0.01
SPARSITY_SLACK = 0.03
MACS_RATIO_TOL = 1e-6

# decode-wide: Llama-2-7B FFN shape, one token per operation
DECODE_D, DECODE_H = 4096, 11008
DECODE_TARGET = 0.5
DECODE_CALIB = (2, 32)  # sequences x tokens for the one dense calibration pass
DECODE_TOKENS = 64  # distinct tokens, cycled
# pruned output against the reference under the same specs; both accumulate
# in f64 and keep the same channels, so only the summation order differs
DECODE_OUTPUT_TOL = 1e-5
DECODE_ERROR_MARGIN = 0.01
DECODE_SPARSITY_SLACK = 0.1


class OpError(RuntimeError):
    pass


def _cli(argv: list[str]) -> None:
    """One scap CLI job in this process; a nonzero exit is a failed operation."""
    cli = sys.modules["scap.cli"]
    err = _io.StringIO()
    with contextlib.redirect_stdout(_io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpError(f"scap {argv[0]} exited {rc}: {err.getvalue().strip()}")


class SweepDesk:
    name = "sweep-desk"
    work_unit = "grid points"
    trace_ops = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def build(self) -> None:
        pass  # the job does all its own set-up, inside the timed operation

    def op(self, i: int) -> Path:
        out = self.scratch / f"op{i}"
        _cli(["sweep", "--out", str(out), "--seed", str(self.seed)])
        return out

    def work(self, out: Path) -> int:
        return 9

    def check(self, outputs: dict[int, Path]) -> dict[int, str]:
        from scap import analysis, io
        from scap.model import BlockConfig, init_weights

        failures, reference = {}, None
        for i, out in outputs.items():
            report = io.load_report(out / "sweep.json")
            cfg = report["config"]
            grid = [(u, d) for u in _grid(cfg["grid_up"]) for d in _grid(cfg["grid_down"])]
            if reference is None:
                model = init_weights(
                    BlockConfig(d_model=cfg["d_model"], d_hidden=cfg["d_hidden"],
                                n_blocks=cfg["blocks"]),
                    cfg["seed"],
                )
                streams = [
                    np.concatenate(analysis.synthetic_stream(
                        cfg["d_model"], cfg["calib_sequences"], cfg["sequence_len"],
                        scale=cfg["input_scale"], seed=cfg["seed"] + k,
                    ))
                    for k in (1, 2)
                ]
                reference = oracle.sweep_errors(
                    model, *streams, _grid(cfg["grid_up"]), _grid(cfg["grid_down"])
                )
            problem = _sweep_problem(report, cfg, grid, reference, self.seed)
            if problem:
                failures[i] = problem
        return failures


def _grid(text: str) -> list[float]:
    return [float(t) for t in str(text).split(",")]


def _sweep_problem(report, cfg, grid, reference, seed) -> str | None:
    if (cfg["seed"], cfg["ffn"], cfg["rmsnorm"], cfg["residual"]) != (seed, "swiglu", True, True):
        return f"unexpected config echo {cfg}"
    entries = report["payload"]["entries"]
    if [(e["target_up_gate"], e["target_down"]) for e in entries] != grid:
        return f"expected {len(grid)} grid entries in grid order, got {len(entries)}"
    for e in entries:
        point = (e["target_up_gate"], e["target_down"])
        rep = e["report"]
        for label, hook in rep["hooks"].items():
            if abs(hook["observed_sparsity"] - hook["target_sparsity"]) > SPARSITY_SLACK:
                return f"{point} {label}: sparsity {hook['observed_sparsity']} vs target"
        if abs(rep["macs_ratio"] - (1.0 - rep["ffn_sparsity"])) > MACS_RATIO_TOL:
            return f"{point}: macs_ratio {rep['macs_ratio']} != 1 - ffn_sparsity"
        ref = reference[point]
        if not math.isfinite(e["error"]) or abs(e["error"] - ref) > SWEEP_ERROR_MARGIN * ref:
            return f"{point}: error {e['error']} vs reference {ref}"
    return None


class DecodeWide:
    name = "decode-wide"
    work_unit = "tokens"
    trace_ops = 12

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.model = self.sparse = self.specs = self.tokens = None

    def build(self) -> None:
        from scap import analysis
        from scap.model import DOWN_INPUT, UP_GATE_INPUT, BlockConfig, init_weights

        self.model = self.sparse = None  # release the previous build first
        self.model = init_weights(
            BlockConfig(d_model=DECODE_D, d_hidden=DECODE_H, n_blocks=1), self.seed
        )
        calib = analysis.synthetic_stream(DECODE_D, *DECODE_CALIB, seed=self.seed + 1)
        calres = analysis.calibrate(self.model, calib, seed=self.seed)
        self.specs = analysis.make_specs(
            self.model, calres, {UP_GATE_INPUT: DECODE_TARGET, DOWN_INPUT: DECODE_TARGET}
        )
        self.sparse = self.model.apply_prune_specs(self.specs)
        self.tokens = analysis.synthetic_stream(DECODE_D, 1, DECODE_TOKENS, seed=self.seed + 2)[0]

    def _token(self, i: int) -> np.ndarray:
        k = i % DECODE_TOKENS
        return self.tokens[k : k + 1]

    def op(self, i: int):
        y, records = self.sparse.forward(self._token(i))
        return y, records[0]

    def dense_op(self, i: int):
        return self.model.forward(self._token(i))

    def work(self, out) -> int:
        return 1

    def check(self, outputs: dict[int, tuple]) -> dict[int, str]:
        from scap.model import DOWN_INPUT, UP_GATE_INPUT, HookPoint

        ks = sorted({i % DECODE_TOKENS for i in outputs})
        row = {k: j for j, k in enumerate(ks)}
        up, down = (self.specs[HookPoint(0, s)] for s in (UP_GATE_INPUT, DOWN_INPUT))
        y_ref, y_dense, kept_x, kept_g = oracle.swiglu_block(
            self.model.blocks[0], self.model.gains[0], self.tokens[ks], up.tau, down.tau
        )
        failures = {}
        for i, (y, rec) in outputs.items():
            j = row[i % DECODE_TOKENS]
            kept_up = rec.total[UP_GATE_INPUT] - rec.pruned[UP_GATE_INPUT]
            kept_down = rec.total[DOWN_INPUT] - rec.pruned[DOWN_INPUT]
            err = oracle.rel_l2(y[0], y_dense[j])
            err_ref = oracle.rel_l2(y_ref[j], y_dense[j])
            if not np.all(np.isfinite(y)):
                failures[i] = "non-finite output"
            elif rec.ops.macs != kept_up * 2 * DECODE_H + kept_down * DECODE_D:
                failures[i] = f"ops.macs {rec.ops.macs} != kept channels x output width"
            elif (kept_up, kept_down) != (kept_x[j], kept_g[j]):
                failures[i] = f"kept ({kept_up}, {kept_down}) vs reference ({kept_x[j]}, {kept_g[j]})"
            elif max(abs(1 - kept_up / DECODE_D - DECODE_TARGET),
                     abs(1 - kept_down / DECODE_H - DECODE_TARGET)) > DECODE_SPARSITY_SLACK:
                failures[i] = f"sparsity far from target: kept ({kept_up}, {kept_down})"
            elif oracle.rel_l2(y[0], y_ref[j]) > DECODE_OUTPUT_TOL:
                failures[i] = f"output differs from reference by {oracle.rel_l2(y[0], y_ref[j])}"
            elif abs(err - err_ref) > DECODE_ERROR_MARGIN * err_ref:
                failures[i] = f"relative error vs dense {err} vs reference {err_ref}"
        return failures


WORKLOADS = {w.name: w for w in (SweepDesk, DecodeWide)}
