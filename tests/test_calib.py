"""Calibration statistics: reservoirs, quantile thresholds, mode estimation."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scap import calib
from scap.calib import (
    DEFAULT_RESERVOIR_CAPACITY,
    KDE_GRID_POINTS,
    CalibrationError,
    LayerStats,
    ModeEstimator,
    report_entry,
)
from scap.cli import COMMAND_DEFAULTS
from scap.tensor import DataError

KDE = ModeEstimator(kind="kde")
MEAN = ModeEstimator(kind="mean")
MEDIAN = ModeEstimator(kind="median")


def _stats(values, capacity=1 << 16, seed=0, layer_id="t"):
    st_ = LayerStats(layer_id, capacity=capacity, seed=seed)
    st_.observe(np.asarray(values, dtype=np.float32))
    return st_


# ---------------------------------------------------------------------------
# observe / reservoir behaviour


def test_observe_counts_elements():
    st_ = LayerStats("l", capacity=16, seed=1)
    st_.observe(np.ones((2, 2), dtype=np.float32))
    assert st_.seen_count == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observe_rejects_non_finite_before_recording(bad):
    st_ = _stats([0.5, -1.0, 2.0], capacity=4, seed=1)
    raw, seen = st_.raw_reservoir.copy(), st_.seen_count
    with pytest.raises(DataError):
        st_.observe(np.array([[1.0, bad], [3.0, 4.0]], dtype=np.float32))
    assert st_.seen_count == seen
    np.testing.assert_array_equal(st_.raw_reservoir, raw)
    assert st_.quantile_threshold(0.5) == 1.0


def test_below_capacity_reservoir_is_exhaustive():
    vals = np.arange(10, dtype=np.float32)
    st_ = LayerStats("l", capacity=10, seed=1)
    st_.observe(vals)
    assert sorted(st_.raw_reservoir.tolist()) == sorted(vals.tolist())


def test_reservoir_is_unbiased_over_long_stream():
    rng = np.random.default_rng(123)
    st_ = LayerStats("l", capacity=1000, seed=5)
    for _ in range(10):
        st_.observe(rng.standard_normal(100_000).astype(np.float32))
    assert st_.seen_count == 1_000_000
    assert abs(float(np.mean(st_.raw_reservoir))) < 0.1


def test_reservoir_positions_uniform():
    # feed indices 0..n-1; mean of an unbiased sample is n/2 within 3 sigma
    n = 200_000
    st_ = LayerStats("l", capacity=2000, seed=11)
    st_.observe(np.arange(n, dtype=np.float32))
    se = n / np.sqrt(12.0) / np.sqrt(2000)
    assert abs(float(np.mean(st_.raw_reservoir, dtype=np.float64)) - n / 2) < 3 * se


def test_observe_is_deterministic():
    data = np.random.default_rng(2).standard_normal(50_000).astype(np.float32)
    a = _stats(data, capacity=512, seed=9)
    b = _stats(data, capacity=512, seed=9)
    assert np.array_equal(a.raw_reservoir, b.raw_reservoir)


class _NumpyReservoir:
    """Algorithm R as numpy formulates it, the oracle of the compiled draw:
    past capacity, the value at stream position t replaces slot
    ``j = Generator.integers(0, t)`` when j < capacity, and a fancy
    assignment applies the slots drawn twice in stream order. Its generator
    is spawned from the seed as ``LayerStats`` spawns its own."""

    def __init__(self, capacity, seed):
        self.rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        self.buf = np.empty(capacity, dtype=np.float32)
        self.capacity, self.filled, self.seen = capacity, 0, 0

    def observe(self, values):
        flat = np.asarray(values, dtype=np.float32).ravel()
        take = min(self.capacity - self.filled, flat.size)
        self.buf[self.filled : self.filled + take] = flat[:take]
        self.filled += take
        self.seen += take
        rest = flat[take:]
        positions = self.seen + 1 + np.arange(rest.size, dtype=np.int64)
        j = self.rng.integers(0, positions)
        accept = j < self.capacity
        self.buf[j[accept]] = rest[accept]
        self.seen += rest.size


def _assert_same_reservoir(stats, oracle):
    assert stats.seen_count == oracle.seen
    assert stats.raw_reservoir.tobytes() == oracle.buf[: oracle.filled].tobytes()
    assert stats._rng.bit_generator.state == oracle.rng.bit_generator.state


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 4096),
    st.lists(st.tuples(st.integers(1, 10_000), st.booleans()), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_observe_equals_the_numpy_draw(capacity, observes, seed):
    """After every observe the compiled draw leaves the reservoir bytes, the
    seen count and the generator state that numpy's formulation leaves.
    Values are the stream positions, or (with repeats) a few distinct ones."""
    stats = LayerStats("t", capacity=capacity, seed=seed)
    oracle = _NumpyReservoir(capacity, seed)
    for size, repeats in observes:
        values = oracle.seen + np.arange(size, dtype=np.float32)
        values = values % 3 if repeats else values
        stats.observe(values)
        oracle.observe(values)
        _assert_same_reservoir(stats, oracle)


def test_observe_draws_on_the_callers_thread_and_is_done_on_return(monkeypatch):
    """Every draw runs on the thread that calls ``observe``, and writing to
    the observed tensor after it returns leaves the sample as it was."""
    threads, draw = [], LayerStats._draw

    def spy_draw(stats, values, n_seen):
        threads.append(threading.current_thread())
        return draw(stats, values, n_seen)

    monkeypatch.setattr(LayerStats, "_draw", spy_draw)
    stats, oracle = LayerStats("t", capacity=64, seed=3), _NumpyReservoir(64, 3)
    for i in range(4):
        values = np.arange(100 * i, 100 * i + 100, dtype=np.float32)
        stats.observe(values)
        oracle.observe(values.copy())
        values[:] = -1.0
    assert threads == [threading.current_thread()] * 4
    _assert_same_reservoir(stats, oracle)


@pytest.mark.parametrize("seen", [2**31, 2**32 - 5, 2**62])
def test_observe_draws_at_large_stream_positions(seen):
    """From seen count 2^32 - 5 one observe draws below 2^32 - 1 from 32-bit
    words, at 2^32 - 1 one raw word, and above it from 64-bit words. Just
    past 2^31 and 2^62 Lemire's method rejects about a half and a quarter of
    its 32- and 64-bit words, so the retries are compared too."""
    stats, oracle = LayerStats("t", capacity=8, seed=4), _NumpyReservoir(8, 4)
    for reservoir in (stats, oracle):
        reservoir.observe(np.arange(8, dtype=np.float32))
    stats.seen_count = oracle.seen = seen
    values = np.arange(100, 140, dtype=np.float32)
    stats.observe(values)
    oracle.observe(values)
    _assert_same_reservoir(stats, oracle)


# ---------------------------------------------------------------------------
# quantile thresholds


def test_quantile_examples():
    st_ = _stats([1, 2, 3, 4, 5])
    assert st_.quantile_threshold(0.0) == 1.0
    assert st_.quantile_threshold(0.5) == 3.0
    assert st_.quantile_threshold(0.25) == 2.0  # linear-interpolation oracle


def test_quantile_empty_reservoir_errors():
    st_ = LayerStats("l", capacity=4, seed=0)
    with pytest.raises(CalibrationError):
        st_.quantile_threshold(0.5)


def test_quantile_rejects_bad_target():
    st_ = _stats([1.0])
    with pytest.raises(ValueError):
        st_.quantile_threshold(1.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False, width=32), min_size=1, max_size=200),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_quantile_monotone_in_target(values, s1, s2):
    st_ = _stats(values)
    lo, hi = sorted((s1, s2))
    assert st_.quantile_threshold(lo) <= st_.quantile_threshold(hi)
    assert st_.quantile_threshold(lo) >= 0.0


def test_quantile_self_consistency():
    rng = np.random.default_rng(17)
    st_ = _stats(rng.standard_normal(5000))
    reservoir = np.abs(st_.raw_reservoir)
    n = reservoir.size
    for s in np.arange(0.1, 0.95, 0.1):
        tau = st_.quantile_threshold(float(s))
        frac = float(np.mean(reservoir <= tau))
        assert abs(frac - s) <= 1.0 / n + 1e-12


# every sparsity target a CLI default names, and both ends of [0, 1]
CLI_TARGETS = sorted(
    {0.0, 1.0, COMMAND_DEFAULTS["overlap"]["target_sparsity"]}
    | {
        float(tok)
        for cmd in COMMAND_DEFAULTS.values()
        for key in ("sparsity_grid", "grid_up", "grid_down")
        if key in cmd
        for tok in cmd[key].split(",")
    }
)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(1, 16), st.integers(17, 5000)),
    st.sampled_from([1, 2, 7, 40, 5000]),
    st.sampled_from([0.0, 0.5, -1.25, 0.1]),
    st.integers(0, 2**32 - 1),
)
def test_sorted_read_equals_np_quantile_bit_for_bit(n, distinct, eta, seed):
    # n draws from ``distinct`` random levels make heavy duplicates; a small n
    # leaves neighbours far apart, where the two interpolation forms round
    # differently; eta 0 reads float32 magnitudes, any other eta float64 ones
    rng = np.random.default_rng(seed)
    levels = rng.standard_normal(distinct).astype(np.float32)
    st_ = _stats(levels[rng.integers(0, distinct, size=n)], capacity=8192)
    raw = st_.raw_reservoir
    unsorted = np.abs(raw) if eta == 0.0 else np.abs(raw.astype(np.float64) - eta)
    assert unsorted.dtype == (np.float32 if eta == 0.0 else np.float64)
    for q in [*CLI_TARGETS, float(rng.random())]:
        got = st_.centered_quantile_threshold(q, eta)
        assert _bits(got) == _bits(np.quantile(unsorted, q)), (q, n)


def test_sorted_read_equals_np_quantile_at_default_capacity():
    values = np.random.default_rng(4).standard_normal(DEFAULT_RESERVOIR_CAPACITY + 77)
    st_ = _stats(values, capacity=DEFAULT_RESERVOIR_CAPACITY)
    for eta in (0.0, 0.3):
        unsorted = np.abs(st_.raw_reservoir.astype(np.float64 if eta else np.float32) - eta)
        for q in CLI_TARGETS:
            assert _bits(st_.centered_quantile_threshold(q, eta)) == _bits(np.quantile(unsorted, q))


def _spy_sorts(monkeypatch) -> list:
    """Records (sample size, eta) of every ``calib._sorted_magnitudes`` call."""
    calls, sort = [], calib._sorted_magnitudes
    monkeypatch.setattr(
        calib, "_sorted_magnitudes", lambda raw, eta: calls.append((raw.size, eta)) or sort(raw, eta)
    )
    return calls


def test_each_eta_sorts_once_per_reservoir_state(monkeypatch):
    sorts = _spy_sorts(monkeypatch)
    st_ = _stats(np.random.default_rng(6).standard_normal(3000))
    first = [st_.centered_quantile_threshold(q, eta) for eta in (0.0, 0.4) for q in CLI_TARGETS]
    again = [st_.centered_quantile_threshold(q, eta) for eta in (0.0, 0.4) for q in CLI_TARGETS]
    assert again == first
    assert st_.quantile_threshold(0.5) == st_.centered_quantile_threshold(0.5, -0.0)
    assert sorts == [(3000, 0.0), (3000, 0.4)]
    # a read after an observe sorts, and reads, the new sample
    st_.observe(np.full(3000, 9.0, dtype=np.float32))
    assert st_.quantile_threshold(0.9) == 9.0
    assert st_.centered_quantile_threshold(0.9, 0.4) == np.quantile(
        np.abs(st_.raw_reservoir.astype(np.float64) - 0.4), 0.9
    )
    assert sorts[2:] == [(6000, 0.0), (6000, 0.4)]


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_non_finite_eta_rejected_before_sorting(monkeypatch, eta):
    sorts = _spy_sorts(monkeypatch)
    st_ = _stats([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=f"eta must be finite, got {eta}"):
        st_.centered_quantile_threshold(0.5, eta)
    assert sorts == []


# ---------------------------------------------------------------------------
# mode estimation


@pytest.mark.parametrize("estimator", [MEAN, MEDIAN, KDE])
def test_mode_of_constant_data(estimator):
    st_ = _stats(np.full(100, 2.5))
    assert st_.estimate_mode(estimator) == pytest.approx(2.5, abs=1e-7)


def test_median_example():
    st_ = _stats([-1.0, 0.0, 0.0, 0.0, 1.0])
    assert st_.estimate_mode(MEDIAN) == 0.0


def test_mode_empty_reservoir_errors():
    st_ = LayerStats("l", capacity=4, seed=0)
    with pytest.raises(CalibrationError):
        st_.estimate_mode(MEAN)


def _shifted_gelu_mixture(n, seed):
    """Sharp spike near -0.17 plus a broad positive lobe."""
    rng = np.random.default_rng(seed)
    n_main = int(0.9 * n)
    main = rng.normal(-0.17, 0.05, size=n_main)
    tail = rng.normal(1.0, 0.3, size=n - n_main)
    return np.concatenate([main, tail]).astype(np.float32)


def _kde_mode_oracle(values, grid_points=4096):
    """Direct (unbinned) Gaussian KDE argmax on a fine grid, Scott bandwidth."""
    v = np.sort(values.astype(np.float64))
    h = float(np.std(v, ddof=1)) * v.size ** (-0.2)
    grid = np.linspace(v.min(), v.max(), grid_points)
    density = np.empty(grid_points)
    # 8h cutoff keeps the pairwise slab small without visible argmax error
    for i in range(0, grid_points, 256):
        g = grid[i : i + 256]
        lo = np.searchsorted(v, g[0] - 8 * h)
        hi = np.searchsorted(v, g[-1] + 8 * h)
        window = v[lo:hi]
        density[i : i + 256] = np.exp(
            -0.5 * ((g[:, None] - window[None, :]) / h) ** 2
        ).sum(axis=1)
    return float(grid[int(np.argmax(density))])


def test_kde_mode_on_shifted_mixture():
    values = _shifted_gelu_mixture(10_000, seed=31)
    st_ = _stats(values)
    est = st_.estimate_mode(KDE)
    assert est == pytest.approx(-0.17, abs=0.03)
    # binned estimate agrees with the exact-evaluation oracle
    oracle = _kde_mode_oracle(st_.raw_reservoir)
    assert abs(est - oracle) <= 0.01


def test_mode_translation_equivariance():
    rng = np.random.default_rng(5)
    base = rng.normal(0.3, 0.2, size=4000).astype(np.float32)
    shift = 1.7
    for est in (MEAN, MEDIAN):
        a = _stats(base).estimate_mode(est)
        b = _stats(base + np.float32(shift)).estimate_mode(est)
        assert b == pytest.approx(a + shift, abs=1e-5)
    sa = _stats(base)
    sb = _stats(base + np.float32(shift))
    grid_step = (base.max() - base.min()) / (KDE_GRID_POINTS - 1)
    assert sb.estimate_mode(KDE) == pytest.approx(
        sa.estimate_mode(KDE) + shift, abs=2 * grid_step + 1e-5
    )


def test_each_estimator_runs_once_per_reservoir_state(monkeypatch):
    calls = []
    kde = calib._kde_mode
    monkeypatch.setattr(calib, "_kde_mode", lambda v: calls.append(v.copy()) or kde(v))
    rng = np.random.default_rng(8)
    st_ = _stats(_shifted_gelu_mixture(2000, seed=9), capacity=8000)
    first = {e.kind: st_.estimate_mode(e) for e in (MEAN, MEDIAN, KDE)}
    assert {e.kind: st_.estimate_mode(e) for e in (MEAN, MEDIAN, KDE)} == first
    assert len(calls) == 1
    st_.observe(rng.normal(1.0, 0.02, size=4000))  # moves every estimate
    again = {e.kind: st_.estimate_mode(e) for e in (MEAN, MEDIAN, KDE)}
    assert len(calls) == 2 and np.array_equal(calls[1], st_.raw_reservoir)
    fresh = _stats(st_.raw_reservoir, capacity=8000)
    assert again == {e.kind: fresh.estimate_mode(e) for e in (MEAN, MEDIAN, KDE)}
    assert all(again[k] != first[k] for k in first)


def test_raw_reservoir_is_read_only():
    st_ = _stats([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="read-only"):
        st_.raw_reservoir[0] = 5.0
    st_.observe(np.array([4.0], dtype=np.float32))  # observe still writes it
    assert st_.raw_reservoir.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_estimator_validation():
    with pytest.raises(ValueError):
        ModeEstimator(kind="argmax")


# ---------------------------------------------------------------------------
# report serialization entry


def test_report_entry_structure():
    st_ = _stats(np.random.default_rng(0).standard_normal(4000), layer_id="down")
    entry = report_entry(st_, [0.3, 0.5])
    assert entry["layer_id"] == "down"
    assert entry["seen_count"] == 4000
    assert set(entry["tau_by_sparsity"]) == {"0.3", "0.5"}
    assert entry["tau_by_sparsity"]["0.3"] <= entry["tau_by_sparsity"]["0.5"]
    assert set(entry["eta"]) == {"mean", "median", "kde"}
    assert isinstance(entry["seed"], int)
