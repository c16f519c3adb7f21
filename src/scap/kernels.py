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

Sparse execution is one float64-accumulated GEMM per projection over the
union of weight rows that any batch row keeps, with pruned elements zeroed.
``OpCount.macs`` counts kept-channel MACs, the multiply-accumulates a
row-skipping kernel would perform; it is an operation count, not a time.
Wall-clock is measured by the benchmark in ``perfbench/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import FLOAT, ShapeError, gelu, matmul, matmul_rows, silu


@dataclass
class OpCount:
    """Deterministic cost accounting for one kernel invocation.

    macs: multiply-accumulates actually performed across all FC stages.
    channels_skipped: weight channels (rows, or masked Up columns for CATS)
        never fetched, summed over batch rows and stages.
    elements_pruned: activation elements zeroed by a pruner.
    """

    macs: int = 0
    channels_skipped: int = 0
    elements_pruned: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            self.macs + other.macs,
            self.channels_skipped + other.channels_skipped,
            self.elements_pruned + other.elements_pruned,
        )


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
    exceeds finite ``tau >= 0``. One float64-accumulated GEMM multiplies them
    by the weight rows that any batch row keeps, then adds ``bias_fused``.
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
    _check_input(x, w.d)
    z = silu(matmul(x, w.w_gate)) * matmul(x, w.w_up)
    y = matmul(z, w.w_down)
    return y, OpCount(macs=dense_macs_swiglu(x.shape[0], w.d, w.h))


def dense_gelu_mlp(x: np.ndarray, w: GeluMlpWeights) -> tuple[np.ndarray, OpCount]:
    """Reference gelu(x W_up + b_up) W_down + b_down with full MAC count."""
    _check_input(x, w.d)
    hidden = gelu(matmul(x, w.w_up) + w.b_up)
    y = matmul(hidden, w.w_down) + w.b_down
    return y, OpCount(macs=dense_macs_gelu_mlp(x.shape[0], w.d, w.h))


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
    up = matmul_rows(x.astype(np.float64), w.w_up[:, rows])
    y = matmul_rows(np.where(kept[:, rows], up * v[:, rows], 0.0), w.w_down, rows)
    k = int(kept.sum())
    count = OpCount(
        macs=n * d * h + 2 * d * k,
        channels_skipped=2 * (n * h - k),
        elements_pruned=n * h - k,
    )
    return y.astype(FLOAT), count


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
    y, count, _, _ = _scap_swiglu_full(tau_x, tau_gated, x, w, eta_x, eta_gated)
    return y, count


def _scap_swiglu_full(tau_x, tau_gated, x, w, eta_x=0.0, eta_gated=0.0):
    """scap_swiglu returning the Up/Gate and Down masks for instrumentation."""
    _check_input(x, w.d)
    n, d, h = x.shape[0], w.d, w.h
    comp_up = fused_compensation(w.w_up, eta_x)
    comp_gate = fused_compensation(w.w_gate, eta_x)
    comp_down = fused_compensation(w.w_down, eta_gated)

    up, kept_x, macs_up = sparse_fc(x, w.w_up, tau_x, eta_x, comp_up)
    # shared mask: gate prunes the same x with the same tau, only the weight differs
    gate, _, macs_gate = sparse_fc(x, w.w_gate, tau_x, eta_x, comp_gate)
    z = silu(gate) * up
    y, kept_g, macs_down = sparse_fc(z, w.w_down, tau_gated, eta_gated, comp_down)

    kx = int(kept_x.sum())
    kg = int(kept_g.sum())
    count = OpCount(
        macs=macs_up + macs_gate + macs_down,
        channels_skipped=2 * (n * d - kx) + (n * h - kg),
        elements_pruned=(n * d - kx) + (n * h - kg),
    )
    return y, count, kept_x, kept_g


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
    y, count, _, _ = _scap_gelu_mlp_full(tau_x, tau_h, eta_h, x, w)
    return y, count


def _scap_gelu_mlp_full(tau_x, tau_h, eta_h, x, w):
    _check_input(x, w.d)
    n, d, h = x.shape[0], w.d, w.h
    up, kept_x, macs_up = sparse_fc(x, w.w_up, tau_x, 0.0, w.b_up.astype(np.float64))
    hidden = gelu(up)
    b_down_fused = w.b_down.astype(np.float64)
    comp = fused_compensation(w.w_down, eta_h)
    if comp is not None:
        b_down_fused = b_down_fused + comp
    y, kept_h, macs_down = sparse_fc(hidden, w.w_down, tau_h, eta_h, b_down_fused)
    kx = int(kept_x.sum())
    kh = int(kept_h.sum())
    count = OpCount(
        macs=macs_up + macs_down,
        channels_skipped=(n * d - kx) + (n * h - kh),
        elements_pruned=(n * d - kx) + (n * h - kh),
    )
    return y, count, kept_x, kept_h


def fused_compensation(weight: np.ndarray, eta: float) -> np.ndarray | None:
    """The bias term ``eta * column_sums(weight)`` that undoes a mode shift."""
    if eta == 0.0:
        return None
    return eta * weight.sum(axis=0, dtype=np.float64)


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
