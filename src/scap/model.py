"""Toy multi-block FFN stacks used as calibration and evaluation substrate.

A stack is a chain of identical blocks: optional RMS normalization, one FFN
(SwiGLU or GELU-MLP), optional residual add. Attention is deliberately a
pass-through; every observable of interest lives on the FFN path. Two hook
sites per block expose the activations that pruning targets:

* ``up_gate_input``: the (post-norm) tensor entering the first projection(s),
* ``down_input``: the tensor entering the Down projection (the gated
  intermediate for SwiGLU, the GELU output for the MLP).

Every block runs through the one FFN path of its kind, ``kernels.swiglu_ffn``
or ``kernels.gelu_ffn``, which returns the block's output, its Down input and
its one ``BlockRecord`` (declared in ``kernels`` with the site names, and
re-exported here). ``apply_prune_specs`` compiles each spec once into the
``SparseLinear`` layer of its site, fusing any mode-shift compensation into
that layer's bias, and returns a sparse view whose forwards reuse those
layers; hook points without a spec keep the exact dense code path, bit for
bit. A stack is checked against its config when it is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import kernels
from .kernels import DOWN_INPUT, SITES, UP_GATE_INPUT  # noqa: F401 (re-exported)
from .kernels import BlockRecord, GeluMlpWeights, SwiGluWeights
from .prune import PruneSpec, compile_ffn
from .tensor import CAST_BLOCK_BYTES, FLOAT, ShapeError

FFN_KINDS = {"swiglu": SwiGluWeights, "gelu": GeluMlpWeights}  # kind -> its weights

_NORM_EPS = 1e-6


class HookPoint(NamedTuple):
    block: int
    site: str

    @property
    def label(self) -> str:
        return f"block{self.block}.{self.site}"


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
        if self.ffn not in FFN_KINDS:
            raise ValueError(f"unknown ffn kind: {self.ffn!r}")
        if min(self.d_model, self.d_hidden, self.n_blocks) < 1:
            raise ValueError("d_model, d_hidden, n_blocks must all be >= 1")


class FfnStack:
    """Dense toy model: immutable weights, pure forwards. Its weights must
    match its config; ShapeError otherwise."""

    def __init__(self, config: BlockConfig, blocks, gains):
        d, h, n = config.d_model, config.d_hidden, config.n_blocks
        if [(type(w), w.d, w.h) for w in blocks] != [(FFN_KINDS[config.ffn], d, h)] * n:
            raise ShapeError(f"blocks are not n_blocks={n} {config.ffn} FFNs of dims ({d}, {h})")
        shapes = None if gains is None else [g.shape for g in gains]
        if shapes != ([(d,)] * n if config.rmsnorm else None):
            raise ShapeError(f"norm gains must be one ({d},) per block exactly when rmsnorm is set")
        self.config = config
        self.blocks = blocks
        self.gains = gains
        for arr in self._all_arrays():
            arr.setflags(write=False)

    def _all_arrays(self):
        for w in self.blocks:
            yield from vars(w).values()
        if self.gains is not None:
            yield from self.gains

    def hook_points(self) -> list[HookPoint]:
        return [
            HookPoint(b, site)
            for b in range(self.config.n_blocks)
            for site in SITES
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _, _ = _run_stack(self, x, None, ())
        return y

    def forward_with_hooks(
        self, x: np.ndarray, hooks: Iterable[HookPoint]
    ) -> tuple[np.ndarray, dict[HookPoint, np.ndarray]]:
        hooks = list(hooks)
        _validate_hooks(self, hooks)
        y, captured, _ = _run_stack(self, x, None, hooks)
        return y, captured

    def apply_prune_specs(self, specs: Mapping[HookPoint, PruneSpec]) -> "SparseStack":
        """Compile each spec once into the ``SparseLinear`` layer of its site."""
        _validate_hooks(self, specs.keys())
        sites = [
            compile_ffn(w, *(specs.get(HookPoint(b, site)) for site in SITES))
            for b, w in enumerate(self.blocks)
        ]
        return SparseStack(self, sites)

    def to_tensors(self) -> tuple[dict[str, np.ndarray], dict]:
        tensors = {}
        for i, w in enumerate(self.blocks):
            for name, arr in vars(w).items():
                tensors[f"block{i}.{name}"] = arr
            if self.gains is not None:
                tensors[f"block{i}.norm_gain"] = self.gains[i]
        return tensors, asdict(self.config)

    @staticmethod
    def from_tensors(tensors: dict[str, np.ndarray], config_dict: dict) -> "FfnStack":
        """Wrap the given arrays as the stack's weights, float32 ones uncopied;
        a tensor that the config does not describe raises ValueError."""
        config = BlockConfig(**config_dict)
        kind, ids = FFN_KINDS[config.ffn], range(config.n_blocks)
        left = dict(tensors)

        def take(i, name):
            return np.asarray(left.pop(f"block{i}.{name}"), dtype=FLOAT)

        weights = [kind(*(take(i, f.name) for f in fields(kind))) for i in ids]
        gains = [take(i, "norm_gain") for i in ids] if config.rmsnorm else None
        if left:
            raise ValueError(f"tensors the config does not describe: {sorted(left)}")
        return FfnStack(config, weights, gains)


class SparseStack:
    """Sparse view of an FfnStack: specified hook points prune, others stay dense."""

    def __init__(self, base: FfnStack, sites: list):
        self.base = base
        self.sites = sites  # per block: compiled (Up/Gate, Down) sites, None = dense

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[BlockRecord]]:
        y, _, records = _run_stack(self.base, x, self.sites, ())
        return y, records

    def forward_with_hooks(
        self, x: np.ndarray, hooks: Iterable[HookPoint]
    ) -> tuple[np.ndarray, dict[HookPoint, np.ndarray]]:
        """Capture the (pre-prune) tensors flowing into hook points."""
        hooks = list(hooks)
        _validate_hooks(self.base, hooks)
        y, captured, _ = _run_stack(self.base, x, self.sites, hooks)
        return y, captured


def init_weights(config: BlockConfig, seed: int) -> FfnStack:
    """Deterministic pseudo-random stack, 1/sqrt(fan_in) weight scaling.

    Building costs one copy of the float32 weights plus one float64 scratch
    buffer of about ``CAST_BLOCK_BYTES``: each matrix is drawn a block of rows
    at a time straight into its final array.
    """
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
    """``gain * N(0, 1) / sqrt(fan_in)`` as float32, drawn in row blocks.

    The same float64 operations run in the same order on the same generator
    stream as one ``(fan_in, fan_out)`` draw, so the bytes are identical.
    """
    out = np.empty((fan_in, fan_out), dtype=FLOAT)
    step = max(1, CAST_BLOCK_BYTES // (8 * fan_out))
    scratch = np.empty((min(step, fan_in), fan_out))
    scale = np.sqrt(fan_in)
    for lo in range(0, fan_in, step):
        b = scratch[: min(step, fan_in - lo)]
        rng.standard_normal(out=b)
        b *= gain
        b /= scale
        out[lo : lo + len(b)] = b
    return out


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    x64 = x.astype(np.float64)
    rms = np.sqrt(np.mean(x64 * x64, axis=1, keepdims=True) + _NORM_EPS)
    return ((x64 / rms) * gain).astype(FLOAT)


def _validate_hooks(model: FfnStack, hooks) -> None:
    valid = set(model.hook_points())
    for hook in hooks:
        if hook not in valid:
            raise ValueError(f"invalid hook point: {hook!r}")


def _run_stack(model, x, sites, capture_hooks):
    """One forward through all blocks: a copy of the tensor at each of
    ``capture_hooks``, and one ``BlockRecord`` per block.

    ``sites`` holds each block's compiled (Up/Gate, Down) sites, or is None
    for the dense stack.
    """
    if x.ndim != 2 or x.shape[1] != model.config.d_model:
        raise ShapeError(
            f"input shape {x.shape} incompatible with d_model={model.config.d_model}"
        )
    ffn = kernels.swiglu_ffn if model.config.ffn == "swiglu" else kernels.gelu_ffn
    captured = {}
    records = []
    cur = x
    for b, weights in enumerate(model.blocks):
        h_in = _rmsnorm(cur, model.gains[b]) if model.gains is not None else cur
        y, down_in, record = ffn(h_in, weights, *(sites[b] if sites else (None, None)))
        for site, tensor in zip(SITES, (h_in, down_in)):
            hook = HookPoint(b, site)
            if hook in capture_hooks:
                captured[hook] = tensor.copy()
        records.append(record)
        cur = (cur + y).astype(FLOAT) if model.config.residual else y
    return cur, captured, records
