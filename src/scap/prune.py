"""Magnitude pruning of activations and mode-centered sparse FC layers.

The pruning operator, inside ``kernels.sparse_fc``, zeroes activation
elements whose magnitude is at most a calibrated threshold tau; NaN is kept.
A ``SparseLinear`` freezes a weight matrix together with a scalar mode shift
eta whose compensating term ``eta * column_sums(W)`` is fused into the bias
offline, so inference adds only a broadcast subtraction before the usual
masked GEMM. ``compile_ffn`` turns one FFN block's specs into the
``SparseLinear`` sites whose fields the site steps of ``kernels`` read:
one ``kernels.sparse_fc`` call per projection, except the SwiGLU Up/Gate
pair, which shares one prune of its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calib import check_fractions
from .kernels import SwiGluWeights, check_threshold
from .tensor import FLOAT, ShapeError


@dataclass(frozen=True)
class PruneSpec:
    """Calibrated pruning parameters for one layer input, hashed once."""

    tau: float
    eta: float = 0.0
    target_sparsity: float = 0.0

    def __post_init__(self):
        check_threshold(self.tau, self.eta)
        check_fractions("target_sparsity", [self.target_sparsity])
        object.__setattr__(self, "_hash", hash((self.tau, self.eta, self.target_sparsity)))

    def __hash__(self):
        return self._hash


class SparseLinear:
    """Frozen FC layer with mode-centered, input-pruned execution.

    ``bias_fused = bias + eta * column_sums(weight)`` is computed at
    construction as a read-only float64 array (a missing bias counts as
    zero; with no bias and eta 0 it is None, nothing to add). The FFN
    forwards compute ``prune(x - eta, tau) @ W + bias_fused`` from it in one
    float64 GEMM over the weight rows that any batch row keeps, through
    ``sparse_fc(x, weight, tau, eta, bias_fused)`` or, for the SwiGLU
    Up/Gate pair, its prune shared by both layers. A float32 weight is held by
    reference, as a read-only view, never copied.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None, spec: PruneSpec):
        if weight.ndim != 2:
            raise ShapeError("weight must be 2-D (in_channels x out_channels)")
        if bias is not None and bias.shape != (weight.shape[1],):
            raise ShapeError(
                f"bias length {bias.shape} does not match out_channels {weight.shape[1]}"
            )
        self.weight = np.asarray(weight, dtype=FLOAT).view()
        self.weight.setflags(write=False)
        self.tau = float(spec.tau)
        self.eta = float(spec.eta)
        fused = None if bias is None else bias.astype(np.float64)
        if self.eta != 0.0:
            comp = self.eta * self.weight.sum(axis=0, dtype=np.float64)
            fused = comp if fused is None else fused + comp
        if fused is not None:
            fused.setflags(write=False)
        self.bias_fused = fused


def compile_ffn(w, up: PruneSpec | None, down: PruneSpec | None):
    """One FFN block's (Up/Gate, Down) sites as ``SparseLinear`` layers.

    A site without a spec compiles to None and runs dense. The SwiGLU Up and
    Gate projections share their input site, so its first site is the
    (Up, Gate) pair compiled from the one spec.
    """

    def layer(weight, bias, spec):
        return None if spec is None else SparseLinear(weight, bias, spec)

    if isinstance(w, SwiGluWeights):
        return (layer(w.w_up, None, up), layer(w.w_gate, None, up)), layer(w.w_down, None, down)
    return layer(w.w_up, w.b_up, up), layer(w.w_down, w.b_down, down)
