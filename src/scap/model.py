"""Toy multi-block FFN stacks used as calibration and evaluation substrate.

A stack is a chain of identical blocks: optional RMS normalization, one FFN
(SwiGLU or GELU-MLP), optional residual add. Attention is deliberately a
pass-through; every observable of interest lives on the FFN path. Two hook
sites per block expose the activations that pruning targets:

* ``up_gate_input``: the (post-norm) tensor entering the first projection(s),
* ``down_input``: the tensor entering the Down projection (the gated
  intermediate for SwiGLU, the GELU output for the MLP).

Every block runs the two site steps of its kind in ``kernels``, the Up/Gate
site then ``down_site``, each returning its tensor and its ``SiteRun``; the
block's two runs form its one ``BlockRecord`` (declared in ``kernels`` with
the site names, and re-exported here). A forward can share a dict of
finished stages with other forwards of the same batch, so that stages that
run the same specs on the same input run once (see ``_run_stack``). The same
walk hands each hook point's tensor to an observer as soon as its stage
finishes: calibration (``SparseStack.walk``) reads it uncopied and ends the
batch after its last observed stage, and ``forward_with_hooks`` copies it.
Rmsnorm is one compiled loop with the bits of the numpy formula.
``apply_prune_specs`` compiles each spec once into the ``SparseLinear``
layer of its site, fusing any mode-shift compensation into that layer's
bias, and returns a sparse view whose forwards reuse those layers; hook
points without a spec keep the exact dense code path, bit for bit. A stack
is checked against its config when it is built.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import kernels
from .kernels import DOWN_INPUT, SITES, UP_GATE_INPUT  # noqa: F401 (re-exported)
from .kernels import BlockRecord, GeluMlpWeights, SwiGluWeights
from .prune import PruneSpec, compile_ffn
from .tensor import CAST_BLOCK_BYTES, FLOAT, ShapeError, _kernel

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
    """Stack hyperparameters; `up_bias_offset` shifts GELU hidden modes.
    A field of the wrong type (a bool is not a number) raises ValueError."""

    ffn: str = "swiglu"
    d_model: int = 32
    d_hidden: int = 96
    n_blocks: int = 2
    residual: bool = True
    rmsnorm: bool = True
    up_bias_offset: float = 0.0

    def __post_init__(self):
        dims, flags = (self.d_model, self.d_hidden, self.n_blocks), (self.residual, self.rmsnorm)
        if not isinstance(self.ffn, str) or self.ffn not in FFN_KINDS:
            raise ValueError(f"unknown ffn kind: {self.ffn!r}")
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in dims):
            raise ValueError(f"d_model, d_hidden, n_blocks must be ints, got {dims}")
        if min(dims) < 1:
            raise ValueError("d_model, d_hidden, n_blocks must all be >= 1")
        if not all(isinstance(v, bool) for v in flags):
            raise ValueError(f"residual and rmsnorm must be bools, got {flags}")
        offset = self.up_bias_offset
        # false for NaN, inf and an int beyond the float range alike
        finite = isinstance(offset, numbers.Real) and abs(offset) <= sys.float_info.max
        if isinstance(offset, bool) or not finite:
            raise ValueError(f"up_bias_offset must be a finite number, got {offset!r}")


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
        for arr in [a for w in blocks for a in vars(w).values()] + (gains or []):
            arr.setflags(write=False)

    def hook_points(self) -> list[HookPoint]:
        return [HookPoint(b, site) for b in range(self.config.n_blocks) for site in SITES]

    def forward(self, x: np.ndarray, stages: dict | None = None) -> np.ndarray:
        """The dense output; ``stages`` as for ``SparseStack.forward``."""
        y, _ = _run_stack(self, x, stages=stages)
        return y

    def forward_with_hooks(
        self, x: np.ndarray, hooks: Iterable[HookPoint]
    ) -> tuple[np.ndarray, dict[HookPoint, np.ndarray]]:
        """The output and a copy of the tensor at each of ``hooks``."""
        return self.apply_prune_specs({}).forward_with_hooks(x, hooks)

    def apply_prune_specs(self, specs: Mapping[HookPoint, PruneSpec]) -> "SparseStack":
        """Compile each spec once into the ``SparseLinear`` layer of its site."""
        _validate_hooks(self, specs.keys())
        block_specs = [
            tuple(specs.get(HookPoint(b, site)) for site in SITES)
            for b in range(self.config.n_blocks)
        ]
        sites = [compile_ffn(w, *s) for w, s in zip(self.blocks, block_specs)]
        return SparseStack(self, sites, block_specs)

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

    def __init__(self, base: FfnStack, sites: list, specs: list):
        self.base = base
        self.sites = sites  # per block: compiled (Up/Gate, Down) sites, None = dense
        self.specs = specs  # per block: the (Up/Gate, Down) PruneSpecs, None = dense

    def forward(
        self, x: np.ndarray, stages: dict | None = None
    ) -> tuple[np.ndarray, list[BlockRecord]]:
        """The output and each block's record. ``stages`` holds the finished
        stages of earlier forwards of this same ``x``, of this stack or of
        any view of its base, the dense one included: a stage found there is
        reused, and one computed here is added. See ``_run_stack``."""
        return _run_stack(self.base, x, self.sites, self.specs, stages=stages)

    def walk(self, x: np.ndarray, observe) -> tuple:
        """``forward`` sharing no stages, handing ``observe(hook, tensor)``
        each hook point's tensor, uncopied, as soon as its stage finishes; it
        stops after the first call that returns true (see ``_run_stack``)."""
        return _run_stack(self.base, x, self.sites, self.specs, observe=observe)

    def forward_with_hooks(
        self, x: np.ndarray, hooks: Iterable[HookPoint]
    ) -> tuple[np.ndarray, dict[HookPoint, np.ndarray]]:
        """The output of a whole walk and a copy of the (pre-prune) tensor
        flowing into each of ``hooks``."""
        hooks, captured = set(hooks), {}
        _validate_hooks(self.base, hooks)

        def copy(hook, tensor):
            if hook in hooks:
                captured[hook] = tensor.copy()

        return self.walk(x, copy)[0], captured


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
            blocks.append(SwiGluWeights(_scaled(rng, d, h), _scaled(rng, d, h), _scaled(rng, h, d)))
        else:
            b_up = (config.up_bias_offset + 0.05 * rng.standard_normal(h)).astype(FLOAT)
            # sub-unit up gain keeps hidden pre-activation spread below the
            # bias offset; otherwise the saturated-tail density spike at the
            # activation floor outweighs the shifted lobe and the offset
            # cannot move the output mode
            w_up, w_down = _scaled(rng, d, h, gain=0.75), _scaled(rng, h, d)
            blocks.append(GeluMlpWeights(w_up, b_up, w_down, np.zeros(d, dtype=FLOAT)))
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
    """Each row over its root mean square, times ``gain``, as float32: one
    compiled loop with the bits of the float64 numpy formula."""
    x, gain = (np.ascontiguousarray(a, dtype=np.float64) for a in (x, gain))
    y = np.empty(x.shape, FLOAT)
    args = (x.ctypes.data, *x.shape, gain.ctypes.data, _NORM_EPS, y.ctypes.data)
    _kernel("activations", "rmsnorm_f32")(*args)
    return y


def _validate_hooks(model: FfnStack, hooks) -> None:
    valid = set(model.hook_points())
    for hook in hooks:
        if hook not in valid:
            raise ValueError(f"invalid hook point: {hook!r}")


def _run_stack(model, x, sites=None, specs=None, stages=None, observe=None):
    """One forward through all blocks: the output and one ``BlockRecord``
    per block.

    ``sites`` holds each block's compiled (Up/Gate, Down) sites and
    ``specs`` their PruneSpecs, or both are None for the dense stack. Each
    block runs three stages: rmsnorm, the Up/Gate site (its products and
    activation) and the Down site (its product and the residual add). A
    stage is keyed by the specs of every stage up to and including it, None
    for a dense one, so two views of one stack give a key the same result
    bit for bit. ``stages``, when given, maps the keys of stages already run
    on this ``x`` to their results; each stage found there is reused and
    each one run is added. ``observe``, when given, is called as
    ``observe(hook, tensor)`` with each hook point's tensor as soon as its
    stage finishes; the walk ends after the first call that returns true,
    with no output and the records of the blocks it finished.
    """
    if x.ndim != 2 or x.shape[1] != model.config.d_model:
        raise ShapeError(
            f"input shape {x.shape} incompatible with d_model={model.config.d_model}"
        )
    up_site = kernels.swiglu_up_site if model.config.ffn == "swiglu" else kernels.gelu_up_site
    records = []
    cur, key = x, ()
    for b, weights in enumerate(model.blocks):
        up, down = sites[b] if sites else (None, None)
        up_spec, down_spec = specs[b] if specs else (None, None)
        key += (None,)
        h_in = cur if model.gains is None else _stage(stages, key, _rmsnorm, cur, model.gains[b])
        if observe and observe(HookPoint(b, UP_GATE_INPUT), h_in):
            return None, records
        key += (up_spec,)
        down_in, up_run = _stage(stages, key, up_site, h_in, weights, up)
        if observe and observe(HookPoint(b, DOWN_INPUT), down_in):
            return None, records
        key += (down_spec,)
        cur, down_run = _stage(
            stages, key, _down_stage, model.config.residual, cur, down_in, weights, down
        )
        records.append(BlockRecord(up_run, down_run))
    return cur, records


def _stage(stages, key, run, *args):
    """``run(*args)``, computed once per key of ``stages`` when it is given;
    a forward without one holds no stage past its use."""
    if stages is None:
        return run(*args)
    done = stages.get(key)
    if done is None:
        done = stages[key] = run(*args)
    return done


def _down_stage(residual, x, z, weights, down):
    """The Down site on ``z`` and the residual add of the block input ``x``,
    rounded to float32 unless it is already: (block output, run)."""
    y, run = kernels.down_site(z, weights, down)
    return (np.asarray(x + y, FLOAT) if residual else y), run
