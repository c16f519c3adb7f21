"""Statistical calibrated activation pruning engine.

Calibrates per-site (pooled over blocks) L1 pruning thresholds and mode
shifts from activation streams, rewrites FC layers into mode-centered input-pruned sparse layers,
and provides instrumented sparse FFN kernels plus analysis harnesses
(target-vs-actual sparsity, mode-centering gain, overlap decay, Pareto
sweeps).
"""

from .calib import (
    DEFAULT_RESERVOIR_CAPACITY,
    CalibrationError,
    LayerStats,
    ModeEstimator,
)
from .kernels import (
    GeluMlpWeights,
    OpCount,
    SwiGluWeights,
    cats_swiglu,
    dense_gelu_mlp,
    dense_swiglu,
    ffn_sparsity,
    mlp_ffn_sparsity,
    scap_gelu_mlp,
    scap_swiglu,
    sparse_fc,
)
from .model import (
    DOWN_INPUT,
    UP_GATE_INPUT,
    BlockConfig,
    FfnStack,
    HookPoint,
    SparseStack,
    init_weights,
)
from .prune import PruneSpec, SparseLinear
from .tensor import DataError, ShapeError, gelu, matmul, silu

__version__ = "0.1.0"

__all__ = [
    "BlockConfig",
    "CalibrationError",
    "DataError",
    "DEFAULT_RESERVOIR_CAPACITY",
    "DOWN_INPUT",
    "FfnStack",
    "GeluMlpWeights",
    "HookPoint",
    "LayerStats",
    "ModeEstimator",
    "OpCount",
    "PruneSpec",
    "ShapeError",
    "SparseLinear",
    "SparseStack",
    "SwiGluWeights",
    "UP_GATE_INPUT",
    "cats_swiglu",
    "dense_gelu_mlp",
    "dense_swiglu",
    "ffn_sparsity",
    "gelu",
    "init_weights",
    "matmul",
    "mlp_ffn_sparsity",
    "scap_gelu_mlp",
    "scap_swiglu",
    "silu",
    "sparse_fc",
]
