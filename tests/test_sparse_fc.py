"""sparse_fc against its per-row gather-then-GEMV reference, and its validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scap.kernels import sparse_fc
from scap.prune import PruneSpec
from scap.tensor import CAST_BLOCK_BYTES

F32 = np.float32
EPS32 = float(np.finfo(F32).eps)
EPS64 = float(np.finfo(np.float64).eps)
TINY32 = float(np.finfo(F32).smallest_subnormal)


def sparse_fc_rowwise(x, weight, tau, eta=0.0, bias_fused=None):
    """Reference: for each batch row, gather the kept channels and run a GEMV
    over only their weight rows, accumulating in float64."""
    oc = weight.shape[1]
    x_eta = x - F32(eta)
    kept = np.abs(x_eta) > tau
    w64 = weight.astype(np.float64)
    out = np.zeros((x.shape[0], oc), dtype=np.float64)
    macs = 0
    for i in range(x.shape[0]):
        idx = np.flatnonzero(kept[i])
        if idx.size:
            out[i] = x_eta[i, idx].astype(np.float64) @ w64[idx, :]
            macs += idx.size * oc
    if bias_fused is not None:
        out += bias_fused
    return out.astype(F32), kept, macs


def _check_against_reference(x, weight, tau, eta, bias):
    out, kept, macs = sparse_fc(x, weight, tau, eta, bias)
    ref, ref_kept, ref_macs = sparse_fc_rowwise(x, weight, tau, eta, bias)
    np.testing.assert_array_equal(kept, ref_kept)
    assert macs == ref_macs == int(kept.sum()) * weight.shape[1]
    assert out.dtype == F32 and out.shape == ref.shape
    # Both sum exact f64 products, in different orders, then round to f32:
    # the f64 sums differ by at most ~2k eps64 times the sum of |terms|, and
    # each rounding adds half an f32 ulp.
    x_kept = np.where(kept, x - F32(eta), 0).astype(np.float64)
    mag = np.abs(x_kept) @ np.abs(weight.astype(np.float64))
    if bias is not None:
        mag = mag + np.abs(bias)
    k = weight.shape[0] + 1
    bound = EPS32 * np.abs(ref) + 2 * k * EPS64 * mag + TINY32
    assert np.all(np.abs(out.astype(np.float64) - ref) <= bound)


_ELEM = st.floats(-4, 4, width=32, allow_subnormal=False)


@st.composite
def _fc_case(draw):
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 10))
    oc = draw(st.integers(1, 10))
    x = draw(hnp.arrays(F32, (n, d), elements=_ELEM))
    w = draw(hnp.arrays(F32, (d, oc), elements=_ELEM))
    tau = draw(st.just(0.0) | st.floats(0, 6, allow_subnormal=False))
    eta = draw(st.just(0.0) | st.floats(-2, 2, width=32, allow_subnormal=False))
    bias = draw(st.none() | hnp.arrays(np.float64, (oc,), elements=st.floats(-4, 4)))
    return x, w, tau, eta, bias


def _case(n, d, oc, tau, eta, bias=False, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)).astype(F32)
    w = rng.standard_normal((d, oc)).astype(F32)
    b = rng.standard_normal(oc) if bias else None
    return x, w, tau, eta, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fc_case())
@example(_case(4, 6, 5, tau=100.0, eta=0.0))  # no channel kept
@example(_case(4, 6, 5, tau=0.0, eta=0.0, bias=True))  # every channel kept
@example(_case(0, 6, 5, tau=0.5, eta=0.3))  # empty batch
@example(_case(5, 8, 7, tau=0.4, eta=-0.7, bias=True))  # mode shift
@example(_case(1, 19, 7, tau=0.3, eta=0.2, bias=True))  # one row: the row kernel
def test_sparse_fc_matches_rowwise_reference(case):
    _check_against_reference(*case)


def test_sparse_fc_kept_rows_span_several_cast_blocks():
    n, d, oc = 3, 100, 4096
    assert d > 2 * (CAST_BLOCK_BYTES // (8 * oc))  # the blocked path runs
    for seed, (tau, eta) in enumerate(((0.0, 0.0), (0.3, 0.1), (1.0, -0.2))):
        _check_against_reference(*_case(n, d, oc, tau, eta, bias=True, seed=seed))


@pytest.mark.parametrize(
    "tau,eta",
    [
        (math.nan, 0.0),
        (-1.0, 0.0),
        (math.inf, 0.0),
        (0.5, math.nan),
        (0.5, math.inf),
        (0.5, -math.inf),
    ],
)
def test_bad_thresholds_rejected(tau, eta):
    x, w, _, _, _ = _case(2, 4, 3, 0.0, 0.0)
    with pytest.raises(ValueError):
        sparse_fc(x, w, tau, eta)
    with pytest.raises(ValueError):
        PruneSpec(tau=tau, eta=eta)
