"""Instrumented FFN execution schemes with deterministic op accounting.

Three sparse schemes plus dense references:

* ``dense_swiglu`` / ``dense_gelu_mlp``: unpruned baselines.
* ``cats_swiglu``: gate path computed densely, one shared mask (inclusive
  ``|v| >= tau``) restricting Up output columns and Down input rows.
* ``scap_swiglu``: input-activation pruning with one strict
  ``|x - eta| > tau`` mask shared by Up and Gate and an independent mask on
  the gated intermediate before Down.
* ``scap_gelu_mlp``: the non-GLU variant with optional mode shift on the
  hidden activation, compensated through the Down bias.

All but CATS, and every block of a model stack, run through ``swiglu_ffn``
or ``gelu_ffn``, the one path per FFN kind, with each site dense or a
``SparseLinear`` from ``prune.compile_ffn``. Sparse execution is one
float64-accumulated ``tensor.matmul_rows`` product per projection over the
union of weight rows that any batch row keeps, with pruned elements zeroed.
For one row (a decode token) that union is exactly the kept rows, and the
compiled row kernel reads only those rows of the weight; a batch runs
blocked BLAS GEMMs over the union.
``OpCount.macs`` counts kept-channel MACs: at one row the multiply-accumulates
the row kernel performs, at a batch fewer than the union GEMM computes. It is
an operation count, not a time. Wall-clock is measured by the benchmark in
``perfbench/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import FLOAT, ShapeError, gelu, matmul, matmul_rows, silu


@dataclass
class OpCount:
    """Deterministic cost accounting for one kernel invocation.

    macs: kept-channel multiply-accumulates across all FC stages; at batch
        > 1 the union GEMM computes more (see the module docstring).
    elements_pruned: activation elements zeroed by a pruner.
    """

    macs: int = 0
    elements_pruned: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.macs + other.macs, self.elements_pruned + other.elements_pruned)


@dataclass
class SwiGluWeights:
    """Gated FFN weights: w_gate (d,h), w_up (d,h), w_down (h,d)."""

    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray

    def __post_init__(self):
        if self.w_gate.shape != self.w_up.shape:
            raise ShapeError(
                f"gate/up shapes differ: {self.w_gate.shape} vs {self.w_up.shape}"
            )
        if self.w_down.shape[0] != self.w_gate.shape[1]:
            raise ShapeError(
                f"down input dim {self.w_down.shape[0]} != hidden dim {self.w_gate.shape[1]}"
            )

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
        if self.b_up.shape != (self.w_up.shape[1],):
            raise ShapeError("b_up length must equal hidden dim")
        if self.w_down.shape[0] != self.w_up.shape[1]:
            raise ShapeError("down input dim must equal hidden dim")
        if self.b_down.shape != (self.w_down.shape[1],):
            raise ShapeError("b_down length must equal output dim")

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

    Shifts ``x`` by finite ``eta`` and keeps elements whose magnitude strictly
    exceeds finite ``tau >= 0``. One float64-accumulated ``matmul_rows``
    product multiplies them by the weight rows that any batch row keeps (the
    row kernel for one row), then adds ``bias_fused``.
    Returns (output, kept mask, kept-channel MACs).
    """
    _check_input(x, weight.shape[0])
    check_threshold(tau, eta)
    x_eta = x - FLOAT(eta)
    kept = np.abs(x_eta) > tau
    rows = np.flatnonzero(kept.any(axis=0))
    x_kept = np.where(kept[:, rows], x_eta[:, rows], FLOAT(0)).astype(np.float64)
    out = matmul_rows(x_kept, weight, rows)
    if bias_fused is not None:
        out += bias_fused
    return out.astype(FLOAT), kept, int(kept.sum()) * weight.shape[1]


def check_threshold(tau: float, eta: float = 0.0) -> None:
    """Reject a pruning threshold that is NaN, infinite or negative, or a
    non-finite mode shift; NaN would otherwise prune every channel."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")


def dense_macs_swiglu(batch: int, d: int, h: int) -> int:
    return batch * (2 * d * h + h * d)


def dense_macs_gelu_mlp(batch: int, d: int, h: int) -> int:
    return batch * (d * h + h * d)


def dense_swiglu(x: np.ndarray, w: SwiGluWeights) -> tuple[np.ndarray, OpCount]:
    """Reference (silu(x W_gate) * (x W_up)) W_down with full MAC count."""
    run = swiglu_ffn(x, w)
    return run.y, run.ops


def dense_gelu_mlp(x: np.ndarray, w: GeluMlpWeights) -> tuple[np.ndarray, OpCount]:
    """Reference gelu(x W_up + b_up) W_down + b_down with full MAC count."""
    run = gelu_ffn(x, w)
    return run.y, run.ops


def cats_swiglu(
    tau_silu: float, x: np.ndarray, w: SwiGluWeights
) -> tuple[np.ndarray, OpCount]:
    """Post-silu pruning with one mask coupling Up columns and Down rows.

    The gate projection and silu run densely; hidden channels whose silu
    output magnitude falls below ``tau_silu`` (inclusive comparison) are
    dropped from both the Up output and the Down input. The silu values of
    surviving channels are reused, not recomputed.
    """
    _check_input(x, w.d)
    check_threshold(tau_silu)
    n, d, h = x.shape[0], w.d, w.h
    v = silu(matmul(x, w.w_gate))
    kept = np.abs(v) >= tau_silu
    rows = np.flatnonzero(kept.any(axis=0))
    # the mask picks Up output columns and the matching Down input rows
    up = matmul_rows(x.astype(np.float64), np.take(w.w_up, rows, axis=1))
    y = matmul_rows(np.where(kept[:, rows], up * v[:, rows], 0.0), w.w_down, rows)
    k = int(kept.sum())
    return y.astype(FLOAT), OpCount(macs=n * d * h + 2 * d * k, elements_pruned=n * h - k)


class SiteRun(NamedTuple):
    """One pruning site of one FFN forward: the kept mask of its input and
    the kept-channel MACs of the projections that read it."""

    kept: np.ndarray  # all True when the site runs dense
    macs: int

    @property
    def pruned(self) -> int:
        return int(self.kept.size - self.kept.sum())

    @property
    def ops(self) -> OpCount:
        return OpCount(self.macs, self.pruned)


class FfnRun(NamedTuple):
    """One FFN block forward: output, Down input, and both sites."""

    y: np.ndarray
    down_in: np.ndarray
    up: SiteRun
    down: SiteRun

    @property
    def ops(self) -> OpCount:
        return self.up.ops + self.down.ops


def _fc(x, layer, weight, bias=None):
    """One FC: the compiled ``SparseLinear`` layer, or dense when it is None."""
    if layer is not None:
        return layer.fc(x)
    y = matmul(x, weight)
    if bias is not None:
        y = y + bias
    return y, np.ones(x.shape, dtype=bool), x.size * weight.shape[1]


def swiglu_ffn(x: np.ndarray, w: SwiGluWeights, up=None, down=None) -> FfnRun:
    """The SwiGLU block (silu(x W_gate) * (x W_up)) W_down, dense or pruned.

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
    return FfnRun(y, z, SiteRun(kept_x, macs_up + macs_gate), SiteRun(kept_z, macs_down))


def gelu_ffn(x: np.ndarray, w: GeluMlpWeights, up=None, down=None) -> FfnRun:
    """The GELU MLP block gelu(x W_up + b_up) W_down + b_down, dense or pruned.

    ``up`` and ``down`` are None (dense) or compiled ``SparseLinear`` layers
    whose fused biases carry ``b_up`` and ``b_down``.
    """
    u, kept_x, macs_up = _fc(x, up, w.w_up, w.b_up)
    hidden = gelu(u)
    y, kept_h, macs_down = _fc(hidden, down, w.w_down, w.b_down)
    return FfnRun(y, hidden, SiteRun(kept_x, macs_up), SiteRun(kept_h, macs_down))


def _compile(w, up: tuple[float, float], down: tuple[float, float]):
    from .prune import PruneSpec, compile_ffn  # prune builds on this module

    return compile_ffn(w, PruneSpec(*up), PruneSpec(*down))


def scap_swiglu(
    tau_x: float,
    tau_gated: float,
    x: np.ndarray,
    w: SwiGluWeights,
    eta_x: float = 0.0,
    eta_gated: float = 0.0,
) -> tuple[np.ndarray, OpCount]:
    """Input-pruned SwiGLU with decoupled thresholds.

    ``x`` is shifted by ``eta_x`` and pruned once with ``tau_x``; the same
    mask feeds the Up and Gate projections. The gated intermediate is then
    shifted by ``eta_gated`` and pruned with ``tau_gated`` before Down. Each
    mode shift is compensated by fusing ``eta * column_sums(W)`` into that
    projection's (otherwise zero) bias, preserving functional equivalence.
    """
    run = swiglu_ffn(x, w, *_compile(w, (tau_x, eta_x), (tau_gated, eta_gated)))
    return run.y, run.ops


def scap_gelu_mlp(
    tau_x: float,
    tau_h: float,
    eta_h: float,
    x: np.ndarray,
    w: GeluMlpWeights,
) -> tuple[np.ndarray, OpCount]:
    """Input-pruned GELU MLP with mode-centered hidden activations.

    ``x`` is pruned with ``tau_x`` into Up; the GELU output is shifted by
    ``eta_h``, pruned with ``tau_h``, and fed to Down whose bias absorbs the
    compensating ``eta_h * column_sums(w_down)`` term.
    """
    run = gelu_ffn(x, w, *_compile(w, (tau_x, 0.0), (tau_h, eta_h)))
    return run.y, run.ops


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
