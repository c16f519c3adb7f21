"""sparse_fc against its per-row gather-then-GEMV reference and, bit for bit,
against the masked-gather formulation, and its validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scap import kernels
from scap.kernels import SwiGluWeights, cats_swiglu, sparse_fc, swiglu_up_site
from scap.prune import PruneSpec, compile_ffn
from scap.tensor import ROW_GEMM_MIN, matmul, matmul_rows, silu

F32 = np.float32
EPS32 = float(np.finfo(F32).eps)
EPS64 = float(np.finfo(np.float64).eps)
TINY32 = float(np.finfo(F32).smallest_subnormal)


def _kept(x, tau, eta):
    """The pruner's mask: ``|x - eta|`` not at most ``tau``, so NaN is kept."""
    return ~(np.abs(x - F32(eta)) <= tau)


def sparse_fc_rowwise(x, weight, tau, eta=0.0, bias_fused=None):
    """Reference: for each batch row, gather the kept channels and run a GEMV
    over only their weight rows, accumulating in float64."""
    oc = weight.shape[1]
    x_eta = x - F32(eta)
    kept = _kept(x, tau, eta)
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
    kept = _kept(x, tau, eta)
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
        x[-1, ~_kept(x, tau, eta).any(axis=0)] = F32(eta + tau + 1)
    else:
        x[:, -1] = F32(eta)
    w = rng.standard_normal((d, oc)).astype(F32)
    w[0, 0] = -0.0
    b = rng.standard_normal(oc) if bias else None
    assert _kept(x, tau, eta).any(axis=0).all() == full
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
    np.testing.assert_array_equal(kept, _kept(x, tau, eta))
    assert macs == int(kept.sum()) * w.shape[1]


@_INF_PRODUCTS
@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("n", [1, 3, 256])
def test_full_union_runs_ungathered_and_one_row_unzeroed(monkeypatch, n, full):
    """A full union reaches ``matmul_rows`` as ``rows=None``, a partial one
    as its index array, with the oracle's bits either way. A batch's block is
    zeroed exactly at its pruned elements; one row, whose union is its kept
    set, hands over its kept values."""
    seen = []

    def product(x64, w, rows=None):
        seen.append((x64.copy(), rows))
        return matmul_rows(x64, w, rows)

    monkeypatch.setattr(kernels, "matmul_rows", product)
    x, w, tau, eta, b = _special_case(n, full, 0.5, 0.25, True)
    out, _, _ = sparse_fc(x, w, tau, eta, b)
    ((x64, rows),) = seen
    kept = _kept(x, tau, eta)
    union = np.flatnonzero(kept.any(axis=0))
    if full:
        assert rows is None
    else:
        np.testing.assert_array_equal(rows, union)
    shifted = (x - F32(eta))[:, union].astype(np.float64)
    want = np.where(kept[:, union], shifted, 0.0)
    assert np.array_equal(x64.view(np.uint64), want.view(np.uint64))
    if n == 1:
        assert np.array_equal(x64.view(np.uint64), shifted.view(np.uint64))
    assert _same_bits(out, sparse_fc_where(x, w, tau, eta, b))


def sparse_fc_numpy(x, weight, tau, eta=0.0, bias_fused=None):
    """Oracle: the pruner as numpy operations, tau and eta rounded to
    float32: the shifted elements of the union columns, a batch's pruned
    ones zeroed with ``np.where``, cast to float64 for one ``matmul_rows``
    product. Returns (output, kept, MACs, the float64 block, its rows)."""
    x_eta = x - F32(eta)
    kept = ~(np.abs(x_eta) <= F32(tau))
    rows = np.flatnonzero(kept.any(axis=0))
    full = rows.size == weight.shape[0]
    x_kept = x_eta if full else x_eta[:, rows]
    if x.shape[0] > 1:
        x_kept = np.where(kept if full else kept[:, rows], x_kept, F32(0))
    x64, rows = x_kept.astype(np.float64), None if full else rows
    out = matmul_rows(x64, weight, rows)
    if bias_fused is not None:
        out += bias_fused
    return out.astype(F32), kept, int(kept.sum()) * weight.shape[1], x64, rows


def _edge_case(n, full, tau, eta, d=40, oc=5, seed=0):
    """An (n, d) batch whose shifted elements sit at float32(tau) and one
    ulp either side, both signs, after ``SPECIALS`` shifted by eta and the
    smallest normal; the rest are random. The last column is pruned in every
    row unless ``full``."""
    rng = np.random.default_rng(seed)
    tau32, eta32 = F32(tau), F32(eta)
    near = [np.nextafter(tau32, F32(0)), tau32, np.nextafter(tau32, F32(np.inf))]
    edge = [_shifted_to(s * v, eta32) for v in near for s in (1, -1)]
    special = [*(SPECIALS + eta32), *edge, F32(np.finfo(F32).tiny)]
    x = rng.standard_normal((n, d)).astype(F32) + eta32
    for i, v in enumerate(special):
        x[(7 * i) % n, i] = v
    # some element lands on float32(tau) exactly, others one ulp either side
    assert {np.any(np.abs(x - eta32) == v) for v in near} == {True}
    if full:
        x[-1, ~(np.abs(x - eta32) > tau32).any(axis=0)] = eta32 + 2 * tau32 + 1
    else:
        x[:, -1] = eta32
    w = rng.standard_normal((d, oc)).astype(F32)
    return x, w, rng.standard_normal(oc)


def _shifted_to(v, eta32):
    """A float32 x near ``v + eta32`` with ``x - eta32 == v`` where one exists."""
    x = F32(v + eta32)
    for _ in range(4):
        if x - eta32 == v:
            break
        x = np.nextafter(x, F32(np.inf) if x - eta32 < v else F32(-np.inf))
    return x


@_INF_PRODUCTS
@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("eta", [0.0, 0.25, -0.7])
@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("n", [1, 3, 256])
def test_compiled_prune_equals_the_numpy_oracle_bit_for_bit(monkeypatch, n, full, eta, contiguous):
    """``prune_f32`` against the numpy pruner it replaced: output, kept
    mask, MACs and the float64 block handed to ``matmul_rows``, bit for bit,
    around a tau that float32 does not hold exactly. The union ORs 8 columns
    to a word, and the columns past the last whole word one by one."""
    tau = 0.3
    assert float(F32(tau)) != tau
    for d in (40, 43):
        _check_compiled_prune(monkeypatch, *_edge_case(n, full, tau, eta, d=d), tau, eta,
                              contiguous, full)


def _check_compiled_prune(monkeypatch, x, w, b, tau, eta, contiguous, full):
    n = x.shape[0]
    if not contiguous:  # every other column of a wider batch
        wide = np.zeros((n, 2 * x.shape[1]), F32)
        wide[:, ::2] = x
        x = wide[:, ::2]
        assert not x.flags.c_contiguous
    seen = []

    def product(x64, w, rows=None):
        seen.append((x64.copy(), rows))
        return matmul_rows(x64, w, rows)

    monkeypatch.setattr(kernels, "matmul_rows", product)
    out, kept, macs = sparse_fc(x, w, tau, eta, b)
    monkeypatch.undo()
    want, want_kept, want_macs, want_x64, want_rows = sparse_fc_numpy(x, w, tau, eta, b)
    assert _same_bits(out, want)
    np.testing.assert_array_equal(kept, want_kept)
    assert macs == want_macs
    ((x64, rows),) = seen
    assert (rows is None) == (want_rows is None) and np.array_equal(rows, want_rows)
    assert x64.shape == want_x64.shape
    assert np.array_equal(x64.view(np.uint64), want_x64.view(np.uint64))
    assert kept.any(axis=0).all() == full


def test_threshold_precision_does_not_depend_on_its_type():
    """tau and eta round to float32 once, whatever their type: a float64
    tau just above the midpoint of 0.5f and the next float rounds up to that
    float, which then prunes both of its signs, as a Python float does."""
    b = np.nextafter(F32(0.5), F32(1))
    tau = (0.5 + float(b)) / 2 + 1e-12
    assert F32(tau) == b and np.float64(tau) < b
    x = np.array([[b, -b, 0.5, 1.0], [0.25, 1.0, -b, 2.0]], F32)
    w = np.eye(4, dtype=F32)
    for t in (tau, np.float64(tau), np.float32(tau)):
        for e in (0.0, np.float64(0.0)):
            _, kept, _ = sparse_fc(x, w, t, e)
            assert kept.tolist() == [[False, False, False, True], [False, True, False, True]]
            _, kept, _ = sparse_fc(x[:1], w, t, e)
            assert kept.tolist() == [[False, False, False, True]]


def test_cats_threshold_rounds_to_float32_whatever_its_type():
    """A float64 tau a quarter ulp above one silu magnitude rounds down to
    it, so that channel is kept, by a float64 tau as by a Python float."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6)).astype(F32)
    w = SwiGluWeights(*(rng.standard_normal(s).astype(F32) for s in ((6, 9), (6, 9), (9, 6))))
    v = np.abs(silu(matmul(x, w.w_gate)))
    mag = v[0, 0]
    tau = float(mag) + (float(np.nextafter(mag, F32(1))) - float(mag)) / 4
    assert F32(tau) == mag and np.float64(tau) > mag
    runs = [cats_swiglu(t, x, w) for t in (tau, np.float64(tau), F32(tau))]
    kept = int(np.count_nonzero(~(v < mag)))
    assert {run[1].elements_pruned for run in runs} == {v.size - kept}
    assert all(_same_bits(y, runs[0][0]) for y, _ in runs)


@pytest.mark.parametrize(
    "tau,eta",
    [(1e39, 0.0), (2.0**128 - 2.0**103, 0.0), (0.5, 1e39), (0.5, -1e39), (np.float64(1e39), 0.0)],
    ids=["tau", "tau-rounding-up", "eta", "negative-eta", "float64-tau"],
)
def test_thresholds_past_float32_range_rejected(tau, eta):
    """A finite tau or eta that rounds to an infinite float32 raises, where
    it would prune every element or make every output infinite."""
    x, w, _, _, _ = _case(2, 4, 3, 0.0, 0.0)
    with pytest.raises(ValueError, match="finite as a float32"):
        sparse_fc(x, w, tau, eta)
    with pytest.raises(ValueError, match="finite as a float32"):
        PruneSpec(tau=tau, eta=eta)
    if eta == 0.0:
        with pytest.raises(ValueError, match="finite as a float32"):
            cats_swiglu(tau, x, SwiGluWeights(w, w, w.T.copy()))
    largest = float(np.finfo(F32).max)
    assert not sparse_fc(x, w, largest, 0.0)[1].any()
    PruneSpec(tau=largest, eta=-largest)


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


# ---------------------------------------------------------------------------
# the fused SwiGLU Up/Gate site


def _composed_up_site(x, w, up):
    """Oracle: the Up/Gate site as two ``sparse_fc`` calls (dense: two
    ``matmul`` calls), ``silu`` of the gate and the multiply."""
    up_layer, gate_layer = up or (None, None)
    if up_layer is None:
        return silu(matmul(x, w.w_gate)) * matmul(x, w.w_up), np.ones(x.shape, bool)
    u, kept, _ = sparse_fc(x, up_layer.weight, up_layer.tau, up_layer.eta, up_layer.bias_fused)
    g, _, _ = sparse_fc(x, gate_layer.weight, gate_layer.tau, gate_layer.eta, gate_layer.bias_fused)
    return silu(g) * u, kept


@pytest.mark.parametrize(
    "n,d,h,spec,quiet",
    [
        (1, 24, 40, PruneSpec(0.5), False),  # one row: the row kernel
        (1, 24, 40, PruneSpec(0.4, eta=-0.3), False),
        (256, 24, 40, PruneSpec(0.3), False),  # every column in the union
        (256, 24, 40, PruneSpec(0.5), True),  # a partial union
        (256, 24, 40, PruneSpec(0.4, eta=0.2), True),  # fused biases
        (256, 24, 40, None, False),  # the dense site
        (8, 512, 256, PruneSpec(0.1, eta=0.05), False),  # row_gemm
        (3, 24, 40, PruneSpec(0.2, eta=0.1), "specials"),
    ],
)
def test_fused_up_site_equals_two_sparse_fc_silu_and_multiply(n, d, h, spec, quiet):
    rng = np.random.default_rng(n + d)
    w = SwiGluWeights(*(rng.standard_normal(s).astype(F32) for s in ((d, h), (d, h), (h, d))))
    x = rng.standard_normal((n, d)).astype(F32)
    if quiet is True:
        x[:, ::5] *= F32(0.01)  # columns every row prunes
    elif quiet == "specials":
        tiny = np.finfo(F32).smallest_subnormal
        x[:, :8] = [np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 1e30]
    up, _ = compile_ffn(w, spec, None)
    got, run = swiglu_up_site(x, w, None if spec is None else up)
    want, kept = _composed_up_site(x, w, up)
    assert got.dtype == F32 and got.shape == want.shape
    same = (got.view(np.uint32) == want.view(np.uint32)) | (np.isnan(got) & np.isnan(want))
    assert same.all()
    assert quiet == "specials" or not np.isnan(want).any()
    assert np.array_equal(run.kept, kept) and run.n_kept == int(kept.sum())
    assert run.widths == 2 * h
    if quiet is True:
        assert 0 < kept.any(axis=0).sum() < d


def test_fused_up_site_rejects_up_and_gate_of_different_specs():
    rng = np.random.default_rng(1)
    w = SwiGluWeights(*(rng.standard_normal(s).astype(F32) for s in ((8, 12), (8, 12), (12, 8))))
    (up, _), _ = compile_ffn(w, PruneSpec(0.3), None)
    (_, gate), _ = compile_ffn(w, PruneSpec(0.3, eta=0.1), None)
    with pytest.raises(ValueError):
        swiglu_up_site(rng.standard_normal((2, 8)).astype(F32), w, (up, gate))
