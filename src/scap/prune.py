"""Magnitude pruning of activations and mode-centered sparse FC layers.

The pruning operator zeroes activation elements whose magnitude does not
strictly exceed a calibrated threshold tau. A ``SparseLinear`` freezes a
weight matrix together with a scalar mode shift eta whose compensating term
``eta * column_sums(W)`` is fused into the bias offline, so inference adds
only a broadcast subtraction before the usual masked GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import OpCount, check_threshold, sparse_fc
from .tensor import FLOAT, ShapeError


@dataclass(frozen=True)
class PruneSpec:
    """Calibrated pruning parameters for one layer input."""

    layer_id: str
    tau: float
    eta: float = 0.0
    target_sparsity: float = 0.0

    def __post_init__(self):
        check_threshold(self.tau, self.eta)
        if not 0.0 <= self.target_sparsity <= 1.0:
            raise ValueError(f"target_sparsity must lie in [0, 1], got {self.target_sparsity}")


def prune_activations(x: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero elements with |x| <= tau; returns (pruned, kept mask).

    The comparison is strict: values whose magnitude equals tau exactly are
    pruned. Ties are measure-zero for continuous activations.
    """
    check_threshold(tau)
    kept = np.abs(x) > tau
    return np.where(kept, x, FLOAT(0.0)).astype(FLOAT), kept


class SparseLinear:
    """Frozen FC layer with mode-centered, input-pruned execution.

    ``bias_fused = bias + eta * column_sums(weight)`` is computed at
    construction; forward computes ``prune(x - eta, tau) @ W + bias_fused``
    through ``sparse_fc``: one float64-accumulated GEMM over the weight rows
    that at least one batch row keeps, counting kept-channel MACs.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray, spec: PruneSpec):
        if weight.ndim != 2:
            raise ShapeError("weight must be 2-D (in_channels x out_channels)")
        if bias.shape != (weight.shape[1],):
            raise ShapeError(
                f"bias length {bias.shape} does not match out_channels {weight.shape[1]}"
            )
        self.weight = weight.astype(FLOAT)
        self.weight.setflags(write=False)
        self.tau = float(spec.tau)
        self.eta = float(spec.eta)
        self.spec = spec
        self._bias64 = bias.astype(np.float64) + self.eta * self.weight.sum(
            axis=0, dtype=np.float64
        )
        self.bias_fused = self._bias64.astype(FLOAT)
        self.bias_fused.setflags(write=False)

    @property
    def in_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, OpCount]:
        """Sparse forward pass; OpCount.macs == out_channels * kept channels."""
        y, kept, macs = sparse_fc(x, self.weight, self.tau, self.eta, self._bias64)
        pruned = int(kept.size - kept.sum())
        return y, OpCount(macs=macs, channels_skipped=pruned, elements_pruned=pruned)


def build_sparse_linear(
    weight: np.ndarray, bias: np.ndarray, spec: PruneSpec
) -> SparseLinear:
    """Construct the deployable layer, fusing spec.eta into the bias."""
    return SparseLinear(weight, bias, spec)
