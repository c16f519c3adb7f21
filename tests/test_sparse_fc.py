"""sparse_fc against its per-row gather-then-GEMV reference and, bit for bit,
against the masked-gather formulation, and its validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scap import kernels
from scap.kernels import sparse_fc
from scap.prune import PruneSpec
from scap.tensor import ROW_GEMM_MIN, matmul_rows

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


def sparse_fc_where(x, weight, tau, eta=0.0, bias_fused=None):
    """Bit oracle: the union rows gathered, pruned elements zeroed with
    ``np.where``, one ``matmul_rows`` product over the gathered rows."""
    x_eta = x - F32(eta)
    kept = np.abs(x_eta) > tau
    rows = np.flatnonzero(kept.any(axis=0))
    x_kept = np.where(kept[:, rows], x_eta[:, rows], F32(0)).astype(np.float64)
    out = matmul_rows(x_kept, weight, rows)
    if bias_fused is not None:
        out += bias_fused
    return out.astype(F32)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _check_against_reference(x, weight, tau, eta, bias):
    out, kept, macs = sparse_fc(x, weight, tau, eta, bias)
    assert _same_bits(out, sparse_fc_where(x, weight, tau, eta, bias))
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
    assert d * oc >= ROW_GEMM_MIN  # a wide weight: the row kernel runs the batch
    for seed, (tau, eta) in enumerate(((0.0, 0.0), (0.3, 0.1), (1.0, -0.2))):
        _check_against_reference(*_case(n, d, oc, tau, eta, bias=True, seed=seed))


def _wide_case(n, seed, tau, eta, neg_zeros, bias):
    """An (n, 64) batch and a (64, 4100) weight whose first 40 rows every
    batch row keeps, so the union of kept rows spans at least
    ``ROW_GEMM_MIN`` weight elements; the other channels are kept or pruned
    row by row. A ``neg_zeros`` share of the weights is -0.0."""
    rng = np.random.default_rng(seed)
    x = (1.5 * rng.standard_normal((n, 64))).astype(F32)
    sign = np.where(rng.random((n, 40)) < 0.5, -1.0, 1.0)
    x[:, :40] = eta + sign * (tau + 1.0 + rng.random((n, 40)))
    w = rng.standard_normal((64, 4100)).astype(F32)
    w[rng.random(w.shape) < neg_zeros] = -0.0
    return x, w, tau, eta, rng.standard_normal(4100) if bias else None


@st.composite
def _wide_batch(draw):
    return _wide_case(
        draw(st.integers(1, 33)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.floats(0, 1.5)),
        draw(st.floats(-1, 1, width=32).filter(bool)),
        draw(st.sampled_from([0.0, 0.1, 0.5])),
        draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_wide_batch())
@example(_wide_case(33, 0, 0.8, -0.25, 0.5, True))
@example(_wide_case(2, 1, 0.0, 0.5, 0.1, False))
def test_batch_rows_equal_their_one_row_results(case):
    """Above the row kernel's cut-off a batch is batch-invariant: each row of
    ``sparse_fc(X)`` equals ``sparse_fc`` of that row alone, bit for bit."""
    x, w, tau, eta, bias = case
    out, kept, _ = sparse_fc(x, w, tau, eta, bias)
    assert kept[:, :40].all() and 40 * w.shape[1] >= ROW_GEMM_MIN
    for b in range(x.shape[0]):
        one, one_kept, _ = sparse_fc(x[b : b + 1], w, tau, eta, bias)
        assert np.array_equal(one_kept[0], kept[b])
        assert np.array_equal(one[0].view(np.uint32), out[b].view(np.uint32))


# NaN, infinities, signed zeros and subnormals (the smallest, its negation,
# and 2^-130), placed down the first columns
SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, TINY32, -TINY32, 2.0**-130], F32)


def _special_case(n, full, tau, eta, bias, d=12, oc=7):
    """An (n, d) batch holding ``SPECIALS``, with a full union of kept
    columns when ``full`` and the last column pruned in every row otherwise."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, d)).astype(F32)
    for i, v in enumerate(SPECIALS):
        x[(5 * i) % n, i] = v
    if full:
        x[-1, ~(np.abs(x - F32(eta)) > tau).any(axis=0)] = F32(eta + tau + 1)
    else:
        x[:, -1] = F32(eta)
    w = rng.standard_normal((d, oc)).astype(F32)
    w[0, 0] = -0.0
    b = rng.standard_normal(oc) if bias else None
    assert (np.abs(x - F32(eta)) > tau).any(axis=0).all() == full
    return x, w, tau, eta, b


# a kept infinity times weights of both signs sums to NaN
_INF_PRODUCTS = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


@_INF_PRODUCTS
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("tau,eta", [(0.0, 0.0), (0.0, 0.25), (0.5, 0.0), (0.5, -0.25)])
@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("n", [1, 3, 256])
def test_special_values_match_the_where_oracle_bit_for_bit(n, full, tau, eta, bias):
    x, w, tau, eta, b = _special_case(n, full, tau, eta, bias)
    out, kept, macs = sparse_fc(x, w, tau, eta, b)
    assert _same_bits(out, sparse_fc_where(x, w, tau, eta, b))
    np.testing.assert_array_equal(kept, np.abs(x - F32(eta)) > tau)
    assert macs == int(kept.sum()) * w.shape[1]


@_INF_PRODUCTS
@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("n", [1, 3, 256])
def test_full_union_runs_ungathered_and_one_row_unzeroed(monkeypatch, n, full):
    """A full union reaches ``matmul_rows`` as ``rows=None``, a partial one
    as its index array, with the oracle's bits either way; one row, whose
    union is its kept set, runs no zeroing step."""
    seen, zeroed = [], []
    real_zero = kernels._zero_pruned

    def product(x64, w, rows=None):
        seen.append(rows)
        return matmul_rows(x64, w, rows)

    monkeypatch.setattr(kernels, "matmul_rows", product)
    monkeypatch.setattr(
        kernels, "_zero_pruned", lambda x, kept: zeroed.append(x.shape) or real_zero(x, kept)
    )
    x, w, tau, eta, b = _special_case(n, full, 0.5, 0.25, True)
    out, _, _ = sparse_fc(x, w, tau, eta, b)
    (rows,) = seen
    if full:
        assert rows is None
    else:
        union = (np.abs(x - F32(eta)) > tau).any(axis=0)
        np.testing.assert_array_equal(rows, np.flatnonzero(union))
    assert len(zeroed) == (n > 1)
    assert _same_bits(out, sparse_fc_where(x, w, tau, eta, b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_pruned_equals_where_bit_for_bit(dtype):
    """The bit-mask zeroing of ``sparse_fc`` (f32) and ``cats_swiglu`` (f64)."""
    rng = np.random.default_rng(0)
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.concatenate([SPECIALS.astype(dtype), [tiny, -tiny], rng.standard_normal(54)])
    x = x.astype(dtype).reshape(8, 8)
    uint = np.uint32 if dtype is np.float32 else np.uint64
    for kept in (rng.random(x.shape) < 0.5, np.ones(x.shape, bool), np.zeros(x.shape, bool)):
        got = kernels._zero_pruned(x, kept)
        assert got.dtype == dtype
        assert np.array_equal(got.view(uint), np.where(kept, x, dtype(0)).view(uint))


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
