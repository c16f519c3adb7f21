"""Activation-statistics collection and threshold / mode-shift calibration.

``LayerStats`` accumulates a bounded uniform sample of the activation values
flowing through one pruning site (pooled over blocks) via seeded reservoir
sampling, so calibrations over arbitrarily long streams stay within a fixed
memory budget. From the reservoir we derive

* ``quantile_threshold``: tau as the target-sparsity quantile of |X|, or of
  |X - eta| for a mode-shifted pruner (``centered_quantile_threshold``),
* ``estimate_mode``: eta as the empirical mean, median, or the argmax of a
  Gaussian-kernel density over an evenly spaced grid.

Parallel calibration shards are combined with ``merge``, which draws a
hypergeometric split so the merged reservoir is again a uniform sample of
the pooled stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import DataError

DEFAULT_RESERVOIR_CAPACITY = 1 << 20
DEFAULT_KDE_GRID_POINTS = 2048
DEFAULT_SEED = 2025


class CalibrationError(RuntimeError):
    """Raised when statistics are insufficient for the requested estimate."""


class MergeError(ValueError):
    """Raised when two LayerStats shards are not merge-compatible."""


@dataclass(frozen=True)
class ModeEstimator:
    """Configuration for the eta estimator.

    kind: "mean", "median", or "kde".
    kde_grid_points: evaluation grid size for the KDE argmax.
    kde_bandwidth: "scott", "silverman", or a fixed positive bandwidth.
    """

    kind: str = "mean"
    kde_grid_points: int = DEFAULT_KDE_GRID_POINTS
    kde_bandwidth: str | float = "scott"

    def __post_init__(self):
        if self.kind not in ("mean", "median", "kde"):
            raise ValueError(f"unknown estimator kind: {self.kind!r}")
        if self.kind == "kde" and self.kde_grid_points < 2:
            raise ValueError("kde_grid_points must be >= 2")
        if isinstance(self.kde_bandwidth, str):
            if self.kde_bandwidth not in ("scott", "silverman"):
                raise ValueError(f"unknown bandwidth rule: {self.kde_bandwidth!r}")
        elif not self.kde_bandwidth > 0:
            raise ValueError("fixed bandwidth must be positive")


class LayerStats:
    """Calibration accumulator for one pruning site (pooled over blocks).

    Holds a uniform sample of raw X (vectorized Algorithm R) for mode
    estimation; its magnitudes are a uniform sample of |X| for threshold
    quantiles. Sampling is driven by a generator spawned deterministically
    from ``seed``.
    """

    def __init__(
        self,
        layer_id: str,
        capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        seed: int = DEFAULT_SEED,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.layer_id = layer_id
        self.capacity = capacity
        self.seed = int(seed)
        # spawned child 1 keeps the sample, and so every tau and eta, byte-stable
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(2)[1])
        self._buf = np.empty(capacity, dtype=np.float32)
        self.filled = 0
        self.seen_count = 0

    @property
    def abs_reservoir(self) -> np.ndarray:
        return np.abs(self.raw_reservoir)

    @property
    def raw_reservoir(self) -> np.ndarray:
        return self._buf[: self.filled]

    def observe(self, activations: np.ndarray) -> "LayerStats":
        """Fold an activation tensor's elements into the reservoir.

        NaN or Inf raises ``DataError`` before anything is recorded; it would
        otherwise make every threshold NaN.
        """
        flat = np.asarray(activations, dtype=np.float32).ravel()
        if not np.all(np.isfinite(flat)):
            raise DataError(f"{self.layer_id}: activations contain NaN or Inf")
        take = min(self.capacity - self.filled, flat.size)
        self._buf[self.filled : self.filled + take] = flat[:take]
        self.filled += take
        self.seen_count += take
        rest = flat[take:]
        if rest.size:
            # item at stream position t replaces slot j ~ U[0, t) iff j < capacity;
            # fancy assignment applies duplicates in order, matching sequential R
            positions = self.seen_count + 1 + np.arange(rest.size, dtype=np.int64)
            j = self._rng.integers(0, positions)
            accept = j < self.capacity
            self._buf[j[accept]] = rest[accept]
            self.seen_count += rest.size
        return self

    def quantile_threshold(self, target_sparsity: float) -> float:
        """tau = linear-interpolation quantile of the reservoir's magnitudes."""
        return self.centered_quantile_threshold(target_sparsity, 0.0)

    def centered_quantile_threshold(self, target_sparsity: float, eta: float) -> float:
        """tau for a mode-shifted pruner: quantile of |X - eta| (of the float32
        magnitudes |X| when eta is 0)."""
        if not 0.0 <= target_sparsity <= 1.0:
            raise ValueError(f"target_sparsity must lie in [0, 1], got {target_sparsity}")
        if self.filled == 0:
            raise CalibrationError(f"{self.layer_id}: no observations recorded")
        if eta == 0.0:
            magnitudes = self.abs_reservoir
        else:
            magnitudes = np.abs(self.raw_reservoir.astype(np.float64) - eta)
        return float(np.quantile(magnitudes, target_sparsity))

    def estimate_mode(self, estimator: ModeEstimator = ModeEstimator()) -> float:
        """eta from the raw reservoir, per the configured estimator."""
        vals = self.raw_reservoir
        if vals.size == 0:
            raise CalibrationError(f"{self.layer_id}: no observations recorded")
        if estimator.kind == "mean":
            return float(np.mean(vals, dtype=np.float64))
        if estimator.kind == "median":
            return float(np.quantile(vals, 0.5))
        return _kde_mode(vals, estimator.kde_grid_points, estimator.kde_bandwidth)


def merge(a: LayerStats, b: LayerStats) -> LayerStats:
    """Combine two calibration shards into a valid pooled-stream sample.

    The number of merged slots drawn from each shard follows the
    hypergeometric law of a uniform k-subset of the concatenated streams,
    so the result is distributed exactly like a single reservoir over the
    union (given that both inputs are uniform samples).
    """
    if a.layer_id != b.layer_id:
        raise MergeError(f"layer_id mismatch: {a.layer_id!r} vs {b.layer_id!r}")
    if a.capacity != b.capacity:
        raise MergeError(f"capacity mismatch: {a.capacity} vs {b.capacity}")
    out = LayerStats(
        a.layer_id,
        a.capacity,
        seed=int(np.random.SeedSequence([a.seed, b.seed, 0x6D72]).generate_state(1)[0]),
    )
    mix_rng = np.random.default_rng(
        np.random.SeedSequence([a.seed, b.seed, 0x6D31])
    )
    merged = _merge_reservoirs(a, b, mix_rng)
    out._buf[: merged.size] = merged
    out.filled = merged.size
    out.seen_count = a.seen_count + b.seen_count
    return out


def _merge_reservoirs(a: LayerStats, b: LayerStats, rng) -> np.ndarray:
    va, vb = a.raw_reservoir, b.raw_reservoir
    k = min(a.capacity, va.size + vb.size)
    if k == va.size + vb.size:
        return np.concatenate([va, vb])
    # k < va+vb implies both sides non-empty; clamps guard subsampled shards
    m_a = int(rng.hypergeometric(a.seen_count, b.seen_count, k))
    m_a = min(m_a, va.size)
    m_a = max(m_a, k - vb.size)
    pick_a = rng.choice(va, size=m_a, replace=False) if m_a else va[:0]
    pick_b = rng.choice(vb, size=k - m_a, replace=False) if k - m_a else vb[:0]
    merged = np.concatenate([pick_a, pick_b])
    rng.shuffle(merged)
    return merged


def _kde_mode(values: np.ndarray, grid_points: int, bandwidth: str | float) -> float:
    """Argmax of a Gaussian-kernel density over [min, max] of the sample.

    The sample is binned to the evaluation grid and convolved with the
    kernel, which matches direct evaluation to well below grid resolution
    while staying O(n + grid * kernel_width).
    """
    vals = values.astype(np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return lo
    n = vals.size
    sigma = float(np.std(vals, ddof=1))
    if isinstance(bandwidth, str):
        factor = n ** (-0.2) if bandwidth == "scott" else (3.0 * n / 4.0) ** (-0.2)
        h = sigma * factor
    else:
        h = float(bandwidth)
    if h <= 0.0:
        return lo  # degenerate spread; lo == hi handled above
    grid = np.linspace(lo, hi, grid_points)
    step = (hi - lo) / (grid_points - 1)
    idx = np.rint((vals - lo) / step).astype(np.int64)
    counts = np.bincount(idx, minlength=grid_points).astype(np.float64)
    radius = min(grid_points - 1, max(1, int(np.ceil(4.0 * h / step))))
    offsets = np.arange(-radius, radius + 1) * step
    kernel = np.exp(-0.5 * (offsets / h) ** 2)
    density = np.convolve(counts, kernel, mode="same")
    return float(grid[int(np.argmax(density))])


def report_entry(stats: LayerStats, sparsity_grid: list[float]) -> dict:
    """Serializable calibration summary for one site."""
    return {
        "layer_id": stats.layer_id,
        "seen_count": stats.seen_count,
        "tau_by_sparsity": {
            repr(float(s)): stats.quantile_threshold(s) for s in sparsity_grid
        },
        "eta": {
            kind: stats.estimate_mode(ModeEstimator(kind=kind))
            for kind in ("mean", "median", "kde")
        },
        "seed": stats.seed,
    }
