"""Activation-statistics collection and threshold / mode-shift calibration.

``LayerStats`` accumulates a bounded uniform sample of the activation values
flowing through one pruning site (pooled over blocks) via seeded reservoir
sampling, so calibrations over arbitrarily long streams stay within a fixed
memory budget. From the reservoir we derive

* ``quantile_threshold``: tau as the target-sparsity quantile of |X|, or of
  |X - eta| for a mode-shifted pruner (``centered_quantile_threshold``), read
  from one sorted copy of those magnitudes per eta,
* ``estimate_mode``: eta as the empirical mean, median, or the argmax of a
  Gaussian-kernel density over an evenly spaced grid.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .tensor import DataError, _kernel

DEFAULT_RESERVOIR_CAPACITY = 1 << 20
KDE_GRID_POINTS = 2048
DEFAULT_SEED = 2025
ESTIMATOR_KINDS = {  # kind -> eta of a raw float32 sample
    "mean": lambda vals: float(np.mean(vals, dtype=np.float64)),
    "median": lambda vals: float(np.quantile(vals, 0.5)),
    "kde": lambda vals: _kde_mode(vals),
}


def check_fractions(name: str, values) -> None:
    """Raise ValueError naming ``name`` unless every value lies in [0, 1]."""
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    if bad:
        raise ValueError(f"{name} must lie in [0, 1], got {bad}")


class CalibrationError(RuntimeError):
    """Raised when statistics are insufficient for the requested estimate."""


@dataclass(frozen=True)
class ModeEstimator:
    """The eta estimator: "mean", "median", or "kde".

    The KDE is fixed: a Gaussian kernel with Scott's-rule bandwidth, argmax
    taken over ``KDE_GRID_POINTS`` evenly spaced points. A bad kind raises
    here, before any calibration runs.
    """

    kind: str = "mean"

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind: {self.kind!r}")


class LayerStats:
    """Calibration accumulator for one pruning site (pooled over blocks).

    Holds a uniform sample of raw X (Algorithm R) for mode estimation; its
    magnitudes are a uniform sample of |X| for threshold quantiles. Sampling
    is driven by a generator spawned deterministically from ``seed``, whose
    draws are numpy's ``Generator.integers`` algorithm run in a compiled
    loop (``reservoir_draw`` of ``activations.c``), which runs on the
    caller's thread within ``observe``.
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
        self._modes = {}  # estimator kind -> eta of the current sample
        self._sorted = {}  # eta -> sorted |X - eta| of the current sample

    @property
    def raw_reservoir(self) -> np.ndarray:
        """The sample as a read-only view: ``observe`` alone writes it, and
        clears the modes and sorted magnitudes cached from it."""
        view = self._buf[: self.filled]
        view.setflags(write=False)
        return view

    def observe(self, activations: np.ndarray) -> "LayerStats":
        """Fold an activation tensor's elements into the reservoir.

        Elements fill free slots in order. Past capacity, the element at
        stream position t draws j uniform on [0, t) and replaces slot j when
        j < capacity: one compiled loop, in stream order, draws each j as
        ``Generator.integers(0, t)`` would (Lemire's bounded-integer method)
        from this generator's own bits, under its lock. So the sample and the
        generator state are those of numpy's vectorized formulation, bit for
        bit. The loop reads the values in place, uncopied, and is done when
        this returns. NaN or Inf raises ``DataError`` before anything is
        recorded; it would otherwise make every threshold NaN.
        """
        flat = np.asarray(activations, dtype=np.float32).ravel()
        if not np.all(np.isfinite(flat)):
            raise DataError(f"{self.layer_id}: activations contain NaN or Inf")
        self._modes.clear()
        self._sorted.clear()
        take = min(self.capacity - self.filled, flat.size)
        self._buf[self.filled : self.filled + take] = flat[:take]
        self.filled += take
        self.seen_count += take
        rest = flat[take:]
        if rest.size:
            self._draw(rest, self.seen_count)
            self.seen_count += rest.size
        return self

    def _draw(self, values: np.ndarray, seen: int) -> None:
        """The compiled draws of ``values``, arriving after ``seen`` values."""
        bitgen = self._rng.bit_generator
        c = bitgen.ctypes  # the generator's state and functions as addresses
        next64, next32 = (
            ctypes.cast(f, ctypes.c_void_p).value for f in (c.next_uint64, c.next_uint32)
        )
        draw = _kernel("activations", "reservoir_draw")
        with bitgen.lock:
            draw(values.ctypes.data, values.size, seen, self.capacity,
                 self._buf.ctypes.data, c.state_address, next64, next32)

    def quantile_threshold(self, target_sparsity: float) -> float:
        """tau = linear-interpolation quantile of the reservoir's magnitudes."""
        return self.centered_quantile_threshold(target_sparsity, 0.0)

    def centered_quantile_threshold(self, target_sparsity: float, eta: float) -> float:
        """tau for a mode-shifted pruner: ``np.quantile(m, float(target_sparsity))``
        of the magnitudes m = |X - eta| (the float32 |X| when eta is 0).

        m is sorted at most once per eta and reservoir state, and every
        target reads its tau from that copy. A non-finite eta raises
        ValueError.
        """
        check_fractions("target_sparsity", [target_sparsity])
        if not math.isfinite(eta):
            raise ValueError(f"{self.layer_id}: eta must be finite, got {eta}")
        if self.filled == 0:
            raise CalibrationError(f"{self.layer_id}: no observations recorded")
        eta = float(eta)
        if eta not in self._sorted:
            self._sorted[eta] = _sorted_magnitudes(self.raw_reservoir, eta)
        return _sorted_quantile(self._sorted[eta], float(target_sparsity))

    def estimate_mode(self, estimator: ModeEstimator = ModeEstimator()) -> float:
        """eta from the raw reservoir, per the configured estimator, computed
        at most once per reservoir state."""
        if self.filled == 0:
            raise CalibrationError(f"{self.layer_id}: no observations recorded")
        kind = estimator.kind
        if kind not in self._modes:
            self._modes[kind] = ESTIMATOR_KINDS[kind](self.raw_reservoir)
        return self._modes[kind]


def _sorted_magnitudes(raw: np.ndarray, eta: float) -> np.ndarray:
    """|raw - eta| in ascending order: float32 when eta is 0, else float64."""
    if eta == 0.0:
        magnitudes = np.abs(raw)
    else:
        magnitudes = np.subtract(raw, eta, dtype=np.float64)
        np.abs(magnitudes, out=magnitudes)
    magnitudes.sort()
    return magnitudes


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` for a sorted sample and a float q, bit for
    bit: numpy's "linear" rule at v = (n - 1) * q, interpolated in the
    sample's dtype from the upper neighbour when the weight is 0.5 or more."""
    n = ordered.size
    v = (n - 1) * q
    lo = math.floor(v)
    t = v - lo
    a, b = ordered[lo], ordered[min(lo + 1, n - 1)]
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def _kde_mode(values: np.ndarray) -> float:
    """Argmax of a Scott's-rule Gaussian-kernel density over [min, max] of the
    sample.

    The sample is binned to the evaluation grid and convolved with the
    kernel, which matches direct evaluation to well below grid resolution
    while staying O(n + grid * kernel_width).
    """
    vals = values.astype(np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return lo
    # h > 0: lo != hi, so the sample holds two distinct finite values
    h = float(np.std(vals, ddof=1)) * vals.size ** (-0.2)
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    step = (hi - lo) / (KDE_GRID_POINTS - 1)
    idx = np.rint((vals - lo) / step).astype(np.int64)
    counts = np.bincount(idx, minlength=KDE_GRID_POINTS).astype(np.float64)
    radius = min(KDE_GRID_POINTS - 1, max(1, int(np.ceil(4.0 * h / step))))
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
            for kind in ESTIMATOR_KINDS
        },
        "seed": stats.seed,
    }
