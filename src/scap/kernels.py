"""Instrumented FFN execution with deterministic per-site op accounting.

* ``swiglu_ffn`` / ``gelu_ffn``: the one execution path per FFN kind, every
  block of a model stack included. Each site is dense or a ``SparseLinear``
  from ``prune.compile_ffn``: SCAP prunes the input of each projection, with
  one mask ``~(|x - eta| <= tau)`` shared by Up and Gate and an independent
  mask on the Down input, the mode shift compensated through the fused bias.
* ``cats_swiglu``: gate path computed densely, one shared mask
  ``~(|v| < tau)`` restricting Up output columns and Down input rows. Both
  masks keep NaN, so it reaches the output as in the dense path.

Sparse execution is one float64-accumulated ``tensor.matmul_rows`` product per
projection over the union of weight rows that any batch row keeps, with pruned
elements zeroed by ANDing their bits with the mask, which equals
``np.where(kept, x, 0)`` bit for bit. When every row is in the union, the
whole activation block goes to the product with ``rows=None`` and nothing is
gathered. For one row (a decode token) that union is exactly the kept rows, so
nothing needs zeroing, and the compiled row kernel reads only those rows of
the weight. A batch runs the compiled batch kernel over the union, in which
each row's output equals its one-row result bit for bit, or one BLAS GEMM when
the union weight is below ``tensor.ROW_GEMM_MIN`` elements. Each FFN forward
returns its output, its Down input and the block's one ``BlockRecord``: a
``SiteRun`` per site of ``SITES``, counted where its projections run, holding
the site's kept mask and the kept-channel and dense MACs of the projections
that read it (dense: the site's input elements times their output widths).
Every block count is a view of the two. Kept-channel MACs are at one row the
multiply-accumulates the row kernel performs, at a batch fewer than the union
product computes. They are an operation count, not a time. Wall-clock is
measured by the benchmark in ``perfbench/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import FLOAT, ShapeError, gelu, matmul, matmul_rows, silu

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

    Shifts ``x`` by finite ``eta`` and keeps elements whose magnitude is not
    at most finite ``tau >= 0``, NaN included. One float64-accumulated
    ``matmul_rows`` product multiplies them by the weight rows that any batch
    row keeps (the row kernel for one row), then adds ``bias_fused``. A batch
    zeroes its pruned elements of those rows with a bit mask; one row keeps
    all of them and zeroes nothing. A union of every row is passed whole,
    ``rows=None``. Returns (output, kept mask, kept-channel MACs).
    """
    _check_input(x, weight.shape[0])
    check_threshold(tau, eta)
    x_eta = x - FLOAT(eta)
    kept = ~(np.abs(x_eta) <= tau)
    rows = np.flatnonzero(kept.any(axis=0))
    full = rows.size == weight.shape[0]
    x_kept = x_eta if full else x_eta[:, rows]
    if x.shape[0] > 1:  # one row keeps every element of its union
        x_kept = _zero_pruned(x_kept, kept if full else kept[:, rows])
    out = matmul_rows(x_kept.astype(np.float64), weight, None if full else rows)
    if bias_fused is not None:
        out += bias_fused
    return out.astype(FLOAT), kept, int(np.count_nonzero(kept)) * weight.shape[1]


def _zero_pruned(x: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``np.where(kept, x, 0)`` for float ``x``, bit for bit, NaN, infinities,
    -0.0 and subnormals included: the bits of ``x`` ANDed with ``-kept`` as
    integers of the same width, which takes no branch per element."""
    mask = kept.astype(f"i{x.itemsize}")
    np.negative(mask, out=mask)
    mask &= x.view(mask.dtype)
    return mask.view(x.dtype)


def check_threshold(tau: float, eta: float = 0.0) -> None:
    """Reject a pruning threshold that is NaN, infinite or negative, or a
    non-finite mode shift; NaN would otherwise prune every channel."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")


def cats_swiglu(
    tau_silu: float, x: np.ndarray, w: SwiGluWeights
) -> tuple[np.ndarray, OpCount]:
    """Post-silu pruning with one mask coupling Up columns and Down rows.

    The gate projection and silu run densely; hidden channels whose silu
    output magnitude falls below ``tau_silu`` are dropped from both the Up
    output and the Down input. The silu values of surviving channels are
    reused, not recomputed.
    """
    _check_input(x, w.d)
    check_threshold(tau_silu)
    n, d, h = x.shape[0], w.d, w.h
    v = silu(matmul(x, w.w_gate))
    kept = ~(np.abs(v) < tau_silu)
    rows = np.flatnonzero(kept.any(axis=0))
    # the mask picks Up output columns and the matching Down input rows
    up = matmul_rows(x.astype(np.float64), np.take(w.w_up, rows, axis=1))
    y = matmul_rows(_zero_pruned(up * v[:, rows], kept[:, rows]), w.w_down, rows)
    k = int(np.count_nonzero(kept))
    return y.astype(FLOAT), OpCount(macs=n * d * h + 2 * d * k, elements_pruned=n * h - k)


class SiteRun(NamedTuple):
    """One pruning site of one FFN forward: the kept mask of its input, and
    the kept-channel and dense MACs of the projections that read it."""

    kept: np.ndarray  # all True when the site runs dense
    macs: int
    dense_macs: int  # input elements x the output widths of its projections

    @property
    def pruned(self) -> int:
        return self.kept.size - int(np.count_nonzero(self.kept))


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
    """One FC: the compiled ``SparseLinear`` layer, or dense when it is None."""
    if layer is not None:
        return sparse_fc(x, layer.weight, layer.tau, layer.eta, layer.bias_fused)
    y = matmul(x, weight)
    if bias is not None:
        y = y + bias
    return y, np.ones(x.shape, dtype=bool), x.size * weight.shape[1]


def swiglu_ffn(
    x: np.ndarray, w: SwiGluWeights, up=None, down=None
) -> tuple[np.ndarray, np.ndarray, BlockRecord]:
    """The SwiGLU block (silu(x W_gate) * (x W_up)) W_down, dense or pruned:
    (output, Down input, record).

    ``up`` is the (Up, Gate) pair of compiled ``SparseLinear`` layers, which
    share one mask of ``x``; ``down`` is the compiled Down layer, which prunes
    the gated intermediate. None for a layer or the pair runs it dense. See
    ``prune.compile_ffn``.
    """
    up_layer, gate_layer = up or (None, None)
    u, kept_x, macs_up = _fc(x, up_layer, w.w_up)
    # shared mask: gate prunes the same x with the same spec, only the weight differs
    gate, _, macs_gate = _fc(x, gate_layer, w.w_gate)
    z = silu(gate) * u
    y, kept_z, macs_down = _fc(z, down, w.w_down)
    up_run = SiteRun(kept_x, macs_up + macs_gate, x.size * 2 * w.h)
    return y, z, BlockRecord(up_run, SiteRun(kept_z, macs_down, z.size * w.d))


def gelu_ffn(
    x: np.ndarray, w: GeluMlpWeights, up=None, down=None
) -> tuple[np.ndarray, np.ndarray, BlockRecord]:
    """The GELU MLP block gelu(x W_up + b_up) W_down + b_down, dense or
    pruned: (output, Down input, record).

    ``up`` and ``down`` are None (dense) or compiled ``SparseLinear`` layers
    whose fused biases carry ``b_up`` and ``b_down``.
    """
    u, kept_x, macs_up = _fc(x, up, w.w_up, w.b_up)
    hidden = gelu(u)
    y, kept_h, macs_down = _fc(hidden, down, w.w_down, w.b_down)
    return y, hidden, BlockRecord(
        SiteRun(kept_x, macs_up, x.size * w.h), SiteRun(kept_h, macs_down, hidden.size * w.d)
    )


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
