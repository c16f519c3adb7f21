"""Toy multi-block FFN stacks used as calibration and evaluation substrate.

A stack is a chain of identical blocks: optional RMS normalization, one FFN
(SwiGLU or GELU-MLP), optional residual add. Attention is deliberately a
pass-through; every observable of interest lives on the FFN path. Two hook
sites per block expose the activations that pruning targets:

* ``up_gate_input``: the (post-norm) tensor entering the first projection(s),
* ``down_input``: the tensor entering the Down projection (the gated
  intermediate for SwiGLU, the GELU output for the MLP).

``apply_prune_specs`` returns a sparse view of the stack whose forwards route
through the instrumented kernels; hook points without a spec keep the exact
dense code path, bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import kernels
from .kernels import GeluMlpWeights, OpCount, SwiGluWeights, sparse_fc
from .prune import PruneSpec
from .tensor import FLOAT, ShapeError, gelu, matmul, silu

UP_GATE_INPUT = "up_gate_input"
DOWN_INPUT = "down_input"
SITES = (UP_GATE_INPUT, DOWN_INPUT)

_NORM_EPS = 1e-6


class HookPoint(NamedTuple):
    block: int
    site: str

    @property
    def label(self) -> str:
        return f"block{self.block}.{self.site}"

    @staticmethod
    def parse(label: str) -> "HookPoint":
        blk, site = label.split(".", 1)
        return HookPoint(int(blk.removeprefix("block")), site)


@dataclass(frozen=True)
class BlockConfig:
    """Stack hyperparameters; `up_bias_offset` shifts GELU hidden modes."""

    ffn: str = "swiglu"
    d_model: int = 32
    d_hidden: int = 96
    n_blocks: int = 2
    residual: bool = True
    rmsnorm: bool = True
    up_bias_offset: float = 0.0

    def __post_init__(self):
        if self.ffn not in ("swiglu", "gelu"):
            raise ValueError(f"unknown ffn kind: {self.ffn!r}")
        if min(self.d_model, self.d_hidden, self.n_blocks) < 1:
            raise ValueError("d_model, d_hidden, n_blocks must all be >= 1")


@dataclass
class BlockRecord:
    """Instrumentation from one block of one forward pass."""

    pruned: dict = field(default_factory=dict)  # site -> zeroed elements
    total: dict = field(default_factory=dict)  # site -> elements seen
    ops: OpCount = field(default_factory=OpCount)
    dense_macs: int = 0
    masks: dict = field(default_factory=dict)  # site -> kept mask (if requested)


class FfnStack:
    """Dense toy model: immutable weights, pure forwards."""

    def __init__(self, config: BlockConfig, blocks, gains):
        self.config = config
        self.blocks = blocks
        self.gains = gains
        for arr in self._all_arrays():
            arr.setflags(write=False)

    def _all_arrays(self):
        for w in self.blocks:
            if isinstance(w, SwiGluWeights):
                yield from (w.w_gate, w.w_up, w.w_down)
            else:
                yield from (w.w_up, w.b_up, w.w_down, w.b_down)
        if self.gains is not None:
            yield from self.gains

    def hook_points(self) -> list[HookPoint]:
        return [
            HookPoint(b, site)
            for b in range(self.config.n_blocks)
            for site in SITES
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _, _ = _run_stack(self, x, {}, (), ())
        return y

    def forward_with_hooks(
        self, x: np.ndarray, hooks: Iterable[HookPoint]
    ) -> tuple[np.ndarray, dict[HookPoint, np.ndarray]]:
        hooks = list(hooks)
        _validate_hooks(self, hooks)
        y, captured, _ = _run_stack(self, x, {}, hooks, ())
        return y, captured

    def apply_prune_specs(self, specs: Mapping[HookPoint, PruneSpec]) -> "SparseStack":
        _validate_hooks(self, specs.keys())
        return SparseStack(self, dict(specs))

    def to_tensors(self) -> tuple[dict[str, np.ndarray], dict]:
        tensors = {}
        for i, w in enumerate(self.blocks):
            if isinstance(w, SwiGluWeights):
                tensors[f"block{i}.w_gate"] = w.w_gate
                tensors[f"block{i}.w_up"] = w.w_up
                tensors[f"block{i}.w_down"] = w.w_down
            else:
                tensors[f"block{i}.w_up"] = w.w_up
                tensors[f"block{i}.b_up"] = w.b_up
                tensors[f"block{i}.w_down"] = w.w_down
                tensors[f"block{i}.b_down"] = w.b_down
            if self.gains is not None:
                tensors[f"block{i}.norm_gain"] = self.gains[i]
        return tensors, asdict(self.config)

    @staticmethod
    def from_tensors(tensors: dict[str, np.ndarray], config_dict: dict) -> "FfnStack":
        config = BlockConfig(**config_dict)
        blocks, gains = [], [] if config.rmsnorm else None
        for i in range(config.n_blocks):
            if config.ffn == "swiglu":
                blocks.append(
                    SwiGluWeights(
                        tensors[f"block{i}.w_gate"].astype(FLOAT),
                        tensors[f"block{i}.w_up"].astype(FLOAT),
                        tensors[f"block{i}.w_down"].astype(FLOAT),
                    )
                )
            else:
                blocks.append(
                    GeluMlpWeights(
                        tensors[f"block{i}.w_up"].astype(FLOAT),
                        tensors[f"block{i}.b_up"].astype(FLOAT),
                        tensors[f"block{i}.w_down"].astype(FLOAT),
                        tensors[f"block{i}.b_down"].astype(FLOAT),
                    )
                )
            if config.rmsnorm:
                gains.append(tensors[f"block{i}.norm_gain"].astype(FLOAT))
        return FfnStack(config, blocks, gains)


class SparseStack:
    """Sparse view of an FfnStack: specified hook points prune, others stay dense."""

    def __init__(self, base: FfnStack, specs: dict[HookPoint, PruneSpec]):
        self.base = base
        self.config = base.config
        self.specs = specs

    def forward(
        self, x: np.ndarray, collect_masks: Iterable[HookPoint] = ()
    ) -> tuple[np.ndarray, list[BlockRecord]]:
        collect_masks = list(collect_masks)
        _validate_hooks(self.base, collect_masks)
        y, _, records = _run_stack(self.base, x, self.specs, (), collect_masks)
        return y, records

    def forward_with_hooks(
        self, x: np.ndarray, hooks: Iterable[HookPoint]
    ) -> tuple[np.ndarray, dict[HookPoint, np.ndarray]]:
        """Capture the (pre-prune) tensors flowing into hook points."""
        hooks = list(hooks)
        _validate_hooks(self.base, hooks)
        y, captured, _ = _run_stack(self.base, x, self.specs, hooks, ())
        return y, captured


def init_weights(config: BlockConfig, seed: int) -> FfnStack:
    """Deterministic pseudo-random stack, 1/sqrt(fan_in) weight scaling."""
    rng = np.random.default_rng(seed)
    d, h = config.d_model, config.d_hidden
    blocks = []
    gains = [] if config.rmsnorm else None
    for _ in range(config.n_blocks):
        if config.ffn == "swiglu":
            blocks.append(
                SwiGluWeights(
                    _scaled(rng, d, h),
                    _scaled(rng, d, h),
                    _scaled(rng, h, d),
                )
            )
        else:
            b_up = (
                config.up_bias_offset + 0.05 * rng.standard_normal(h)
            ).astype(FLOAT)
            # sub-unit up gain keeps hidden pre-activation spread below the
            # bias offset; otherwise the saturated-tail density spike at the
            # activation floor outweighs the shifted lobe and the offset
            # cannot move the output mode
            blocks.append(
                GeluMlpWeights(
                    _scaled(rng, d, h, gain=0.75),
                    b_up,
                    _scaled(rng, h, d),
                    np.zeros(d, dtype=FLOAT),
                )
            )
        if config.rmsnorm:
            gains.append(np.ones(d, dtype=FLOAT))
    return FfnStack(config, blocks, gains)


def _scaled(rng, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    return (gain * rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(FLOAT)


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    x64 = x.astype(np.float64)
    rms = np.sqrt(np.mean(x64 * x64, axis=1, keepdims=True) + _NORM_EPS)
    return ((x64 / rms) * gain).astype(FLOAT)


def _validate_hooks(model: FfnStack, hooks) -> None:
    valid = set(model.hook_points())
    for hook in hooks:
        if hook not in valid:
            raise ValueError(f"invalid hook point: {hook!r}")


def _run_stack(model, x, specs, capture_hooks, mask_hooks):
    """One forward through all blocks with optional pruning/instrumentation."""
    if x.ndim != 2 or x.shape[1] != model.config.d_model:
        raise ShapeError(
            f"input shape {x.shape} incompatible with d_model={model.config.d_model}"
        )
    capture_hooks = set(capture_hooks)
    mask_hooks = set(mask_hooks)
    captured = {}
    records = []
    cur = x
    for b, weights in enumerate(model.blocks):
        h_in = _rmsnorm(cur, model.gains[b]) if model.gains is not None else cur
        record = BlockRecord()
        up_hook = HookPoint(b, UP_GATE_INPUT)
        down_hook = HookPoint(b, DOWN_INPUT)
        if up_hook in capture_hooks:
            captured[up_hook] = h_in.copy()
        if model.config.ffn == "swiglu":
            ffn_out, down_in = _swiglu_block(
                h_in, weights, specs.get(up_hook), specs.get(down_hook), record,
                up_hook in mask_hooks, down_hook in mask_hooks,
            )
        else:
            ffn_out, down_in = _gelu_block(
                h_in, weights, specs.get(up_hook), specs.get(down_hook), record,
                up_hook in mask_hooks, down_hook in mask_hooks,
            )
        if down_hook in capture_hooks:
            captured[down_hook] = down_in.copy()
        cur = (cur + ffn_out).astype(FLOAT) if model.config.residual else ffn_out
        records.append(record)
    return cur, captured, records


def _swiglu_block(h_in, w, up_spec, down_spec, record, want_up_mask, want_down_mask):
    n, d, h = h_in.shape[0], w.d, w.h
    record.dense_macs = kernels.dense_macs_swiglu(n, d, h)
    if up_spec is not None:
        comp_up = kernels.fused_compensation(w.w_up, up_spec.eta)
        comp_gate = kernels.fused_compensation(w.w_gate, up_spec.eta)
        up, kept, macs_up = sparse_fc(h_in, w.w_up, up_spec.tau, up_spec.eta, comp_up)
        gate, _, macs_gate = sparse_fc(
            h_in, w.w_gate, up_spec.tau, up_spec.eta, comp_gate
        )
        _note(record, UP_GATE_INPUT, kept, macs_up + macs_gate, want_up_mask, skip_factor=2)
    else:
        up = matmul(h_in, w.w_up)
        gate = matmul(h_in, w.w_gate)
        _note_dense(record, UP_GATE_INPUT, n * d, 2 * n * d * h)
    z = silu(gate) * up
    if down_spec is not None:
        comp_down = kernels.fused_compensation(w.w_down, down_spec.eta)
        y, kept_g, macs_down = sparse_fc(
            z, w.w_down, down_spec.tau, down_spec.eta, comp_down
        )
        _note(record, DOWN_INPUT, kept_g, macs_down, want_down_mask)
    else:
        y = matmul(z, w.w_down)
        _note_dense(record, DOWN_INPUT, n * h, n * h * d)
    return y, z


def _gelu_block(h_in, w, up_spec, down_spec, record, want_up_mask, want_down_mask):
    n, d, h = h_in.shape[0], w.d, w.h
    record.dense_macs = kernels.dense_macs_gelu_mlp(n, d, h)
    b_up64 = w.b_up.astype(np.float64)
    if up_spec is not None:
        up, kept, macs_up = sparse_fc(h_in, w.w_up, up_spec.tau, up_spec.eta, b_up64)
        _note(record, UP_GATE_INPUT, kept, macs_up, want_up_mask)
    else:
        up = matmul(h_in, w.w_up) + w.b_up
        _note_dense(record, UP_GATE_INPUT, n * d, n * d * h)
    hidden = gelu(up)
    if down_spec is not None:
        b_down64 = w.b_down.astype(np.float64)
        comp = kernels.fused_compensation(w.w_down, down_spec.eta)
        if comp is not None:
            b_down64 = b_down64 + comp
        y, kept_h, macs_down = sparse_fc(
            hidden, w.w_down, down_spec.tau, down_spec.eta, b_down64
        )
        _note(record, DOWN_INPUT, kept_h, macs_down, want_down_mask)
    else:
        y = matmul(hidden, w.w_down) + w.b_down
        _note_dense(record, DOWN_INPUT, n * h, n * h * d)
    return y, hidden


def _note(record, site, kept, macs, want_mask, skip_factor=1):
    pruned = int(kept.size - kept.sum())
    record.pruned[site] = pruned
    record.total[site] = int(kept.size)
    record.ops = record.ops + OpCount(
        macs=macs,
        channels_skipped=skip_factor * pruned,
        elements_pruned=pruned,
    )
    if want_mask:
        record.masks[site] = kept


def _note_dense(record, site, elements, macs):
    record.pruned[site] = 0
    record.total[site] = elements
    record.ops = record.ops + OpCount(macs=macs)
