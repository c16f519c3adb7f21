"""Independent numpy references for the benchmark's output checks.

These re-derive what scap computes (RMS norm, SwiGLU, strict magnitude
pruning, quantile thresholds, relative L2 error) with batched numpy
arithmetic instead of scap's kernels, so a kernel or analysis change that
alters results shows up as a failed check. Inputs (weights and streams) come
from scap's own seeded generators, which is how the CLI builds them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

F32 = np.float32
_NORM_EPS = 1e-6


def rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    x64 = x.astype(np.float64)
    rms = np.sqrt(np.mean(x64 * x64, axis=1, keepdims=True) + _NORM_EPS)
    return ((x64 / rms) * gain).astype(F32)


def _fc(x: np.ndarray, w: np.ndarray, rows: int = 1024) -> np.ndarray:
    """x @ w accumulated in f64, as scap does, converting w a block of rows at a time."""
    x64 = x.astype(np.float64)
    acc = np.zeros((x.shape[0], w.shape[1]))
    for r in range(0, w.shape[0], rows):
        acc += x64[:, r : r + rows] @ w[r : r + rows].astype(np.float64)
    return acc.astype(F32)


def _prune(x: np.ndarray, tau: float | None) -> np.ndarray:
    if tau is None:
        return x
    return np.where(np.abs(x) > tau, x, F32(0))


def swiglu_stack(model, x, taus=None):
    """Forward of a residual RMS-normed SwiGLU stack with optional pruning.

    ``taus`` is ``(tau_up_gate, tau_down)``, either may be None (dense).
    Returns the output and, per block, the Up/Gate and Down inputs.
    """
    tau_x, tau_g = taus or (None, None)
    cur, captured = x, []
    for w, gain in zip(model.blocks, model.gains):
        h = rmsnorm(cur, gain)
        hx = _prune(h, tau_x)
        gate, up = _fc(hx, w.w_gate), _fc(hx, w.w_up)
        z = (gate * expit(gate)).astype(F32) * up
        captured.append((h, z))
        cur = (cur + _fc(_prune(z, tau_g), w.w_down)).astype(F32)
    return cur, captured


def rel_l2(y: np.ndarray, ref: np.ndarray) -> float:
    diff = y.astype(np.float64) - ref.astype(np.float64)
    return float(np.sqrt(np.sum(diff * diff) / np.sum(ref.astype(np.float64) ** 2)))


def sweep_errors(model, calib, evals, grid_up, grid_down) -> dict:
    """Reconstruction error per (up/gate, down) target, by exact quantiles.

    Mirrors the sweep's two-pass calibration: Up/Gate thresholds from dense
    captures, Down thresholds from captures with the Up/Gate pruning applied.
    scap draws the Down quantile from a bounded reservoir sample, so its
    errors match these to sampling accuracy, not bit for bit.
    """
    _, dense_caps = swiglu_stack(model, calib)
    abs_h = np.abs(np.concatenate([h.ravel() for h, _ in dense_caps]))
    y_dense, _ = swiglu_stack(model, evals)
    errors = {}
    for su in grid_up:
        tau_x = float(np.quantile(abs_h, su))
        _, caps = swiglu_stack(model, calib, (tau_x, None))
        abs_z = np.abs(np.concatenate([z.ravel() for _, z in caps]))
        for sd in grid_down:
            tau_g = float(np.quantile(abs_z, sd))
            y, _ = swiglu_stack(model, evals, (tau_x, tau_g))
            errors[su, sd] = rel_l2(y, y_dense)
    return errors


def swiglu_block(w, gain, x, tau_x, tau_g):
    """One residual SwiGLU block on a batch of tokens, pruned and dense.

    Returns (pruned output, dense output, kept Up/Gate inputs per row, kept
    Down inputs per row).
    """
    h = rmsnorm(x, gain)

    def block(tx, tg):
        hx = _prune(h, tx)
        gate, up = _fc(hx, w.w_gate), _fc(hx, w.w_up)
        z = _prune((gate * expit(gate)).astype(F32) * up, tg)
        y = (x + _fc(z, w.w_down)).astype(F32)
        return y, (hx != 0).sum(axis=1), (z != 0).sum(axis=1)

    y_sparse, kept_x, kept_g = block(tau_x, tau_g)
    y_dense, _, _ = block(None, None)
    return y_sparse, y_dense, kept_x, kept_g
