"""Instrumented FFN execution with deterministic per-site op accounting.

* ``swiglu_up_site`` / ``gelu_up_site`` and ``down_site``: the one
  execution path per FFN kind, every block of a model stack included, as
  its two site steps; ``swiglu_ffn`` / ``gelu_ffn`` run a block as both.
  Each site is dense or a ``SparseLinear`` from ``prune.compile_ffn``: SCAP
  prunes the input of each projection, with one mask ``~(|x - eta| <= tau)``
  shared by Up and Gate and an independent mask on the Down input, the mode
  shift compensated through the fused bias.
* ``cats_swiglu``: gate path computed densely, one shared mask
  ``~(|v| < tau)`` restricting Up output columns and Down input rows. Both
  masks keep NaN, so it reaches the output as in the dense path.

Sparse execution is one float64-accumulated ``tensor.matmul_rows`` product per
projection over the union of weight rows that any batch row keeps. One
compiled float32 loop, ``prune_f32`` of ``activations.c``, shifts and
compares each element, writes the float64 block with pruned elements zeroed
by ANDing their bits with the mask, which equals ``np.where(kept, x, 0)`` bit
for bit, ORs each row's kept flags into the union, and counts the kept
elements and the union's rows. When every row is in the union, the whole
float64 block goes to the product with ``rows=None`` and nothing is gathered
or searched. For one row (a decode token) that union is exactly the kept rows, so
nothing needs zeroing, and the compiled row kernel reads only those rows of
the weight. A batch runs the compiled batch kernel over the union, in which
each row's output equals its one-row result bit for bit, or one BLAS GEMM when
the union weight is below ``tensor.ROW_GEMM_MIN`` elements. Each site step
returns its tensor and its ``SiteRun``, and a block's two form its one
``BlockRecord``: a ``SiteRun`` per site of ``SITES``, counted where its
projections run, holding the site's kept mask, its kept count and the summed
output widths of the projections that read it; its kept-channel MACs are the
kept count times those widths, and its dense MACs the input elements times
them. Every block count is a view of the two. Kept-channel MACs are at one row the
multiply-accumulates the row kernel performs, at a batch fewer than the union
product computes. They are an operation count, not a time. Wall-clock is
measured by the benchmark in ``perfbench/``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import FLOAT, ShapeError, _kernel, gelu, matmul, matmul_rows, silu

# the least magnitude that rounds to an infinite float32: FLT_MAX plus half an ulp
_F32_OVERFLOW = 2.0**128 - 2.0**103
_COUNTS = ctypes.c_int64 * 2  # what prune_f32 counts

UP_GATE_INPUT = "up_gate_input"
DOWN_INPUT = "down_input"
SITES = (UP_GATE_INPUT, DOWN_INPUT)


class OpCount(NamedTuple):
    """Deterministic cost of one FFN forward.

    macs: kept-channel multiply-accumulates across all FC stages; at batch
        > 1 the union product, which multiplies every weight row that any
        batch row keeps, computes more (see the module docstring).
    elements_pruned: activation elements zeroed by a pruner.
    """

    macs: int
    elements_pruned: int


@dataclass
class SwiGluWeights:
    """Gated FFN weights: w_gate (d,h), w_up (d,h), w_down (h,d)."""

    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray

    def __post_init__(self):
        if self.w_gate.ndim != 2 or self.w_gate.shape != self.w_up.shape:
            raise ShapeError(
                f"gate/up must be one 2-D shape: {self.w_gate.shape} vs {self.w_up.shape}"
            )
        if self.w_down.shape != (self.h, self.d):
            raise ShapeError(f"down shape {self.w_down.shape} != (hidden, model) dims")

    @property
    def d(self) -> int:
        return self.w_gate.shape[0]

    @property
    def h(self) -> int:
        return self.w_gate.shape[1]


@dataclass
class GeluMlpWeights:
    """Non-GLU FFN weights: w_up (d,h) + b_up, w_down (h,d) + b_down."""

    w_up: np.ndarray
    b_up: np.ndarray
    w_down: np.ndarray
    b_down: np.ndarray

    def __post_init__(self):
        if self.w_up.ndim != 2 or self.b_up.shape != (self.h,):
            raise ShapeError("w_up must be 2-D and b_up as long as its hidden dim")
        if self.w_down.shape != (self.h, self.d):
            raise ShapeError(f"down shape {self.w_down.shape} != (hidden, model) dims")
        if self.b_down.shape != (self.d,):
            raise ShapeError("b_down length must equal the model dim")

    @property
    def d(self) -> int:
        return self.w_up.shape[0]

    @property
    def h(self) -> int:
        return self.w_up.shape[1]


def _check_input(x: np.ndarray, d: int) -> None:
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"input shape {x.shape} incompatible with weight input dim {d}")


def sparse_fc(
    x: np.ndarray,
    weight: np.ndarray,
    tau: float,
    eta: float = 0.0,
    bias_fused: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mode-shifted, input-pruned FC: the reusable sparse-by-input primitive.

    Rounds ``tau >= 0`` and ``eta`` to float32 once, whatever their type
    (each must stay finite there), shifts ``x``, read as float32, by ``eta``
    and keeps elements whose magnitude is not at most ``tau``, NaN included;
    one pass of ``prune_f32`` gives the shifted block in float64, the kept
    mask, the union of kept columns and the counts of both, so a full union
    is never searched. One float64-accumulated ``matmul_rows``
    product multiplies the block by the weight rows that any batch row keeps
    (the row kernel for one row), then adds ``bias_fused``. A batch has its
    pruned elements zeroed; one row keeps all of them and zeroes nothing. A
    union of every row is passed whole, ``rows=None``. Returns (output, kept
    mask, kept-channel MACs).
    """
    _check_input(x, weight.shape[0])
    tau32, eta32 = check_threshold(tau, eta)
    x = np.ascontiguousarray(x, dtype=FLOAT)
    n, d = x.shape
    x64, kept, union = np.empty((n, d)), np.empty((n, d), bool), np.empty(d, bool)
    counts = _COUNTS()  # kept elements, union rows
    _kernel("activations", "prune_f32")(
        x.ctypes.data, n, d, tau32, eta32, n > 1, x64.ctypes.data, kept.ctypes.data,
        union.ctypes.data, counts,
    )
    rows = None if counts[1] == d else np.flatnonzero(union)
    out = matmul_rows(x64 if rows is None else x64[:, rows], weight, rows)
    if bias_fused is not None:
        out += bias_fused
    return out.astype(FLOAT), kept, counts[0] * weight.shape[1]


def _zero_pruned(x: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``np.where(kept, x, 0)`` for float ``x``, bit for bit, NaN, infinities,
    -0.0 and subnormals included: the bits of ``x`` ANDed with ``-kept`` as
    integers of the same width, which takes no branch per element."""
    mask = kept.astype(f"i{x.itemsize}")
    np.negative(mask, out=mask)
    mask &= x.view(mask.dtype)
    return mask.view(x.dtype)


def check_threshold(tau: float, eta: float = 0.0) -> tuple[np.float32, np.float32]:
    """``tau`` and ``eta`` rounded to float32, the precision every pruner
    compares in. Reject a threshold that is NaN or negative, and a threshold
    or mode shift that is not finite as a float32: NaN would prune every
    channel, and a finite value past float32's range would become infinite."""
    tau, eta = float(tau), float(eta)  # a float32 compares with the limit unrounded
    if not 0 <= tau < _F32_OVERFLOW:  # false for NaN
        raise ValueError(f"tau must be >= 0 and finite as a float32, got {tau}")
    if not abs(eta) < _F32_OVERFLOW:
        raise ValueError(f"eta must be finite as a float32, got {eta}")
    return FLOAT(tau), FLOAT(eta)


def cats_swiglu(
    tau_silu: float, x: np.ndarray, w: SwiGluWeights
) -> tuple[np.ndarray, OpCount]:
    """Post-silu pruning with one mask coupling Up columns and Down rows.

    The gate projection and silu run densely; hidden channels whose silu
    output magnitude falls below ``tau_silu``, rounded to float32 whatever
    its type, are dropped from both the Up output and the Down input. The
    silu values of surviving channels are reused, not recomputed.
    """
    _check_input(x, w.d)
    tau32, _ = check_threshold(tau_silu)
    n, d, h = x.shape[0], w.d, w.h
    v = silu(matmul(x, w.w_gate))
    kept = ~(np.abs(v) < tau32)
    rows = np.flatnonzero(kept.any(axis=0))
    # the mask picks Up output columns and the matching Down input rows
    up = matmul_rows(x.astype(np.float64), np.take(w.w_up, rows, axis=1))
    y = matmul_rows(_zero_pruned(up * v[:, rows], kept[:, rows]), w.w_down, rows)
    k = int(np.count_nonzero(kept))
    return y.astype(FLOAT), OpCount(macs=n * d * h + 2 * d * k, elements_pruned=n * h - k)


class SiteRun(NamedTuple):
    """One pruning site of one FFN forward: the kept mask of its input, its
    kept elements, and the summed output widths of the projections that read
    it, of which its kept-channel and dense MACs are views."""

    kept: np.ndarray  # all True when the site runs dense
    n_kept: int
    widths: int
    macs = property(lambda self: self.n_kept * self.widths)
    dense_macs = property(lambda self: self.kept.size * self.widths)
    pruned = property(lambda self: self.kept.size - self.n_kept)


class BlockRecord(NamedTuple):
    """One FFN block of one forward: the ``SiteRun`` of each site. Every
    count is a view of the two runs. A record holds masks only, never an
    activation."""

    up: SiteRun
    down: SiteRun

    @property
    def sites(self) -> dict[str, SiteRun]:
        return dict(zip(SITES, self))

    @property
    def pruned(self) -> dict[str, int]:
        """site -> zeroed elements"""
        return {site: run.pruned for site, run in self.sites.items()}

    @property
    def total(self) -> dict[str, int]:
        """site -> elements seen"""
        return {site: run.kept.size for site, run in self.sites.items()}

    @property
    def dense_macs(self) -> int:
        return self.up.dense_macs + self.down.dense_macs

    @property
    def ops(self) -> OpCount:
        return OpCount(self.up.macs + self.down.macs, self.up.pruned + self.down.pruned)


def _fc(x, layer, weight, bias=None):
    """One FC, the compiled ``SparseLinear`` layer or dense when it is None:
    (output, kept mask, kept elements)."""
    if layer is not None:
        y, kept, macs = sparse_fc(x, layer.weight, layer.tau, layer.eta, layer.bias_fused)
        return y, kept, macs // weight.shape[1]
    y = matmul(x, weight)
    if bias is not None:
        y = y + bias
    return y, np.ones(x.shape, dtype=bool), x.size


def swiglu_up_site(x: np.ndarray, w: SwiGluWeights, up=None) -> tuple[np.ndarray, SiteRun]:
    """SwiGLU's Up/Gate site, silu(x W_gate) * (x W_up): (Down input, run).

    ``up`` is the (Up, Gate) pair of compiled ``SparseLinear`` layers, which
    share one mask of ``x``, or None to run both dense.
    """
    up_layer, gate_layer = up or (None, None)
    u, kept_x, n_kept = _fc(x, up_layer, w.w_up)
    # shared mask: gate prunes the same x with the same spec, only the weight differs
    gate, _, _ = _fc(x, gate_layer, w.w_gate)
    return silu(gate) * u, SiteRun(kept_x, n_kept, 2 * w.h)


def gelu_up_site(x: np.ndarray, w: GeluMlpWeights, up=None) -> tuple[np.ndarray, SiteRun]:
    """The GELU MLP's Up site, gelu(x W_up + b_up): (Down input, run). ``up``
    is None (dense) or a compiled ``SparseLinear`` whose fused bias carries
    ``b_up``."""
    u, kept_x, n_kept = _fc(x, up, w.w_up, w.b_up)
    return gelu(u), SiteRun(kept_x, n_kept, w.h)


def down_site(z: np.ndarray, w, down=None) -> tuple[np.ndarray, SiteRun]:
    """The Down site of either FFN, z W_down (+ b_down for the MLP): (output,
    run). ``down`` is None (dense) or a compiled ``SparseLinear`` whose fused
    bias carries any ``b_down``."""
    bias = w.b_down if isinstance(w, GeluMlpWeights) else None
    y, kept_z, n_kept = _fc(z, down, w.w_down, bias)
    return y, SiteRun(kept_z, n_kept, w.d)


def swiglu_ffn(
    x: np.ndarray, w: SwiGluWeights, up=None, down=None
) -> tuple[np.ndarray, np.ndarray, BlockRecord]:
    """The SwiGLU block (silu(x W_gate) * (x W_up)) W_down, dense or pruned:
    (output, Down input, record). ``up`` and ``down`` are the compiled sites
    of ``swiglu_up_site`` and ``down_site``; see ``prune.compile_ffn``.
    """
    z, up_run = swiglu_up_site(x, w, up)
    y, down_run = down_site(z, w, down)
    return y, z, BlockRecord(up_run, down_run)


def gelu_ffn(
    x: np.ndarray, w: GeluMlpWeights, up=None, down=None
) -> tuple[np.ndarray, np.ndarray, BlockRecord]:
    """The GELU MLP block gelu(x W_up + b_up) W_down + b_down, dense or
    pruned: (output, Down input, record). ``up`` and ``down`` are the
    compiled sites of ``gelu_up_site`` and ``down_site``.
    """
    hidden, up_run = gelu_up_site(x, w, up)
    y, down_run = down_site(hidden, w, down)
    return y, hidden, BlockRecord(up_run, down_run)


def ffn_sparsity(s_x: float, s_gated: float) -> float:
    """Aggregate GLU-FFN input sparsity: three equal layers, two see ``s_x``.

    Equals (2*s_x + s_gated) / 3; with CATS-style coupled masks this reduces
    to 2/3 of the post-silu sparsity.
    """
    if not (0.0 <= s_x <= 1.0 and 0.0 <= s_gated <= 1.0):
        raise ValueError(f"sparsities must lie in [0, 1], got ({s_x}, {s_gated})")
    return (2.0 * s_x + s_gated) / 3.0


def mlp_ffn_sparsity(s_x: float, s_hidden: float) -> float:
    """Aggregate non-GLU FFN input sparsity: two equal layers."""
    if not (0.0 <= s_x <= 1.0 and 0.0 <= s_hidden <= 1.0):
        raise ValueError(f"sparsities must lie in [0, 1], got ({s_x}, {s_hidden})")
    return (s_x + s_hidden) / 2.0
