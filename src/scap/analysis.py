"""Analysis harnesses: sparsity measurement, overlap decay, sweeps, ablation.

Everything here runs on synthetic activation streams (the desk-scale
calibration set is 64 sequences of 256 feature vectors) and emits plain
dict / CSV-row payloads so results can be persisted byte-identically.
Calibration is per site (pooled over blocks): each site's statistics, and
so its ``PruneSpec``, serve that site's hook in every block.

Quality throughout is the negated relative L2 reconstruction error of the
pruned stack against its dense twin on held-out data; higher is better.

A sweep's Down passes and the batches of every evaluation walk (the
sweep's, the ablation's and the one-map walks of ``measure_sparsity`` and
``reconstruction_error``) are independent work items. Above ``FORK_MACS``
estimated multiply-adds, ``_fan_out`` runs them in one contiguous share per
CPU this process may run on (``taskset`` caps them): the first here, each
other one in a forked child, whose results come back pickled and are added
in item order, so every artifact keeps the bytes of one process. On one CPU
every item runs here, on the calling thread.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback

# calibrate's draw pool; looked up by name, so that perfbench/spans.py can patch it
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import kernels, tensor
from .calib import (
    DEFAULT_RESERVOIR_CAPACITY,
    DEFAULT_SEED,
    LayerStats,
    ModeEstimator,
    check_fractions,
)
from .model import DOWN_INPUT, SITES, UP_GATE_INPUT, FfnStack, HookPoint
from .prune import PruneSpec

CALIB_SEQUENCES = 64
CALIB_SEQUENCE_LEN = 256
DRAW_THREAD = "scap-draw"  # the name prefix of calibrate's draw thread
# work of fewer estimated dense multiply-adds than this runs in this process.
# At the default sweep's shapes on 2 vCPUs (two rounds), an evaluation walk of
# 8 batches (3.8e8) took 32-45 ms in one process against 31-45 ms forked, and
# one of 16 (7.5e8) 62-83 against 42-51 ms: a fork and join cost about 2-3 ms,
# and each process's first batch after it about 4 ms more, in page faults.
FORK_MACS = 1 << 29


# ---------------------------------------------------------------------------
# synthetic streams


def synthetic_stream(
    d_model: int,
    n_sequences: int = CALIB_SEQUENCES,
    sequence_len: int = CALIB_SEQUENCE_LEN,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> list[np.ndarray]:
    """Deterministic list of (sequence_len x d_model) float32 batches; a
    ``scale`` that overflows float32 raises ValueError."""
    rng = np.random.default_rng(seed)
    return [
        _to_float32(scale * rng.standard_normal((sequence_len, d_model)), scale)
        for _ in range(n_sequences)
    ]


def _to_float32(values: np.ndarray, scale: float) -> np.ndarray:
    """``values`` cast to float32, each finite value keeping the cast's bits;
    one that overflows raises ValueError naming ``scale``."""
    try:
        with np.errstate(over="raise"):
            return values.astype(np.float32)
    except FloatingPointError as exc:
        raise ValueError(f"input scale {scale} overflows float32") from exc


class CorrelatedBatches:
    """Beam-search proxy: rows share a base vector plus per-row noise.

    Each ``batch(k)`` call draws a fresh base b and returns rows
    ``sqrt(rho) * b + sqrt(1 - rho) * n_i``, so any two rows have
    correlation ``rho``; rho=0 gives independent rows.
    """

    def __init__(self, d_model: int, rho: float = 0.0, scale: float = 1.0, seed: int = DEFAULT_SEED):
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {rho}")
        self.d_model = d_model
        self.rho = rho
        self.scale = scale
        self._rng = np.random.default_rng(seed)

    def batch(self, n_rows: int) -> np.ndarray:
        base = self._rng.standard_normal(self.d_model)
        noise = self._rng.standard_normal((n_rows, self.d_model))
        rows = np.sqrt(self.rho) * base + np.sqrt(1.0 - self.rho) * noise
        return _to_float32(self.scale * rows, self.scale)


# ---------------------------------------------------------------------------
# calibration plumbing


def calibrate(
    model: FfnStack,
    calib_stream,
    capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    seed: int = DEFAULT_SEED,
    specs: dict[HookPoint, PruneSpec] | None = None,
    sites: tuple[str, ...] = SITES,
) -> dict[str, LayerStats]:
    """Observe calibration batches on the model's stage walk: each observed
    hook's tensor goes, uncopied, to its site's statistics as soon as its
    stage finishes, and each batch stops after the last observed stage.

    Returns one ``LayerStats`` per name in ``sites``, and observes only
    those sites' hooks; a name not in ``SITES`` raises ValueError before
    anything is observed. Activations are pooled per site: all blocks'
    Up/Gate inputs feed one ``LayerStats`` and all Down inputs another, so
    one threshold serves a uniform target per site. Each site's sampling
    seed comes from its index in ``sorted(SITES)``, so a site's statistics
    do not depend on which other sites are observed. Passing ``specs``
    walks the pruned view, so statistics reflect the distributions a
    deployed model sees.

    The statistics' reservoir draws (``LayerStats.drawing_on``) run on one
    worker thread while the walk goes on, in stream order, so the sample
    bytes equal a synchronous fold's. The thread lives for this call, which
    returns or raises only after every draw is done and the thread has
    ended; a draw that fails raises its error here.
    """
    _check_sites(sites, "calibration")
    hooks = [h for h in model.hook_points() if h.site in sites]
    last = hooks[-1] if hooks else None
    runner = model.apply_prune_specs(specs or {})
    stats = {}
    for i, site in enumerate(sorted(SITES)):
        if site in sites:
            site_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            stats[site] = LayerStats(site, capacity=capacity, seed=site_seed)

    def observe(hook, tensor):
        if hook.site in stats:
            stats[hook.site].observe(tensor)
        return hook == last

    with ThreadPoolExecutor(1, DRAW_THREAD) as pool, ExitStack() as drawing:
        for st in stats.values():
            drawing.enter_context(st.drawing_on(pool))
        for batch in calib_stream:
            runner.walk(batch, observe)
    return stats


def _check_sites(sites, role: str = "target") -> None:
    unknown = sorted(set(sites) - set(SITES))
    if unknown:
        raise ValueError(f"unknown {role} sites {unknown}; valid sites are {list(SITES)}")


def make_specs(
    model: FfnStack,
    calibration: dict[str, LayerStats],
    targets: dict[str, float],
    center_sites: tuple[str, ...] = (),
    estimator: ModeEstimator = ModeEstimator(),
) -> dict[HookPoint, PruneSpec]:
    """Derive per-hook PruneSpecs from calibrated statistics.

    ``targets`` maps a site name to its target sparsity; sites absent from
    the map stay dense, and a name not in ``SITES``, or without statistics in
    ``calibration``, raises ValueError. Sites listed in ``center_sites``
    (which must also name ``SITES``) get a mode shift eta, with tau
    recalibrated on the shifted magnitudes. Each site's spec is computed once
    and shared by that site's hook in every block.
    """
    _check_sites(targets)
    _check_sites(center_sites, "centering")
    missing = sorted(set(targets) - set(calibration))
    if missing:
        raise ValueError(f"target sites {missing} have no calibration")
    site_specs = {}
    for site, s in targets.items():
        st = calibration[site]
        eta = st.estimate_mode(estimator) if site in center_sites else 0.0
        tau = st.centered_quantile_threshold(s, eta)
        site_specs[site] = PruneSpec(tau=tau, eta=eta, target_sparsity=s)
    return {h: site_specs[h.site] for h in model.hook_points() if h.site in site_specs}


def plan_specs(
    model: FfnStack,
    calib_stream,
    targets: dict[str, float],
    capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    seed: int = DEFAULT_SEED,
    center_sites: tuple[str, ...] = (),
    estimator: ModeEstimator = ModeEstimator(),
) -> dict[HookPoint, PruneSpec]:
    """Two-pass calibration: Down thresholds see the upstream pruning.

    Pruning the Up/Gate inputs perturbs the gated tensors, so Down
    thresholds quantiled on dense captures land above their target (the
    effect is small at production widths but grows as 1/sqrt(d) at desk
    scale). When both sites have a target, a dense pass observes the Up/Gate
    site alone and plans its specs, and is dropped; a second pass re-streams
    with those specs applied and observes the Down site alone, from which
    Down is planned as the deployed model will actually prune it. A single
    target is planned from one dense pass that observes that site alone.
    """
    _check_sites(targets)
    _check_sites(center_sites, "centering")
    plan = {"center_sites": center_sites, "estimator": estimator}
    batches = list(calib_stream)
    if set(targets) != set(SITES):
        dense = calibrate(model, batches, capacity=capacity, seed=seed, sites=tuple(targets))
        return make_specs(model, dense, targets, **plan)
    (up_specs,) = _plan_up(model, batches, [targets[UP_GATE_INPUT]], capacity, seed, plan)
    (down_specs,) = _second_pass(
        model, batches, up_specs, [targets[DOWN_INPUT]], capacity, seed, plan
    )
    return {**up_specs, **down_specs}


def _plan_up(model, batches, up_targets, capacity, seed, plan) -> list[dict]:
    """The Up specs of each target, planned (with ``make_specs`` options
    ``plan``) from one dense pass that observes the Up/Gate site alone; the
    pass's statistics die when this returns."""
    first = calibrate(model, batches, capacity=capacity, seed=seed, sites=(UP_GATE_INPUT,))
    return [make_specs(model, first, {UP_GATE_INPUT: s}, **plan) for s in up_targets]


def _second_pass(model, batches, up_specs, down_targets, capacity, seed, plan) -> list[dict]:
    """The Down specs of each target, planned from one pass re-streamed with
    ``up_specs`` applied that observes the Down site alone; its statistics
    die when this returns."""
    second = calibrate(
        model, batches, capacity=capacity, seed=seed + 1, specs=up_specs, sites=(DOWN_INPUT,)
    )
    return [make_specs(model, second, {DOWN_INPUT: s}, **plan) for s in down_targets]


# ---------------------------------------------------------------------------
# forked shares


def _dense_macs(model: FfnStack, rows: int) -> int:
    """The multiply-adds of ``rows`` dense forward rows: the work measure
    that ``FORK_MACS`` bounds."""
    return rows * sum(a.size for w in model.blocks for a in vars(w).values() if a.ndim == 2)


def _fan_out(work, items: list, macs: int) -> list:
    """``[work(item) for item in items]``, in one contiguous share of
    ``items`` per CPU this process may run on (``tensor._cpus``, which
    ``taskset`` caps), or fewer when the items run out: this process runs
    the first share, and a forked child each other one.

    A child inherits everything ``work`` reads copy-on-write, sends its
    share's results back pickled through a pipe and leaves with
    ``os._exit``, running no exit handler and flushing none of its parent's
    buffers. Every child is reaped before this returns or raises: a share
    that raises makes every child still running be killed, and its
    exception, its type kept, is raised here; a child's carries its
    formatted traceback as a note. A child that ends without a result
    raises ChildProcessError naming its exit status.

    Work under ``FORK_MACS`` estimated multiply-adds, one CPU, or a live
    calibration draw thread, whose locks a child would inherit in whatever
    state they are in, runs every item here, in order. A child drops the
    row pool it inherits (``tensor._after_fork_in_child``).
    """
    n = min(len(items), tensor._cpus())
    drawing = any(t.name.startswith(DRAW_THREAD) for t in threading.enumerate())
    if n < 2 or macs < FORK_MACS or drawing:
        return [work(item) for item in items]
    cuts = [i * len(items) // n for i in range(n + 1)]
    shares = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children = {}  # pid -> the read end of its pipe, until it is reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_child(work, share, write)
            os.close(write)
            children[pid] = read
        results = [work(item) for item in shares[0]]
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            status = _reap(children, pid)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"forked share {pid} exited {code} without a result")
            note, value = pickle.loads(data)
            if note is not None:
                value.add_note(note)
                raise value
            results += value
        return results
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in list(children):
            _reap(children, pid)


def _reap(children: dict, pid: int) -> int:
    """Close the pipe of child ``pid``, wait for it to end, and return its
    wait status."""
    os.close(children.pop(pid))
    return os.waitpid(pid, 0)[1]


def _run_child(work, share, fd) -> None:
    """In a forked child: write ``(None, results)`` of ``work`` over
    ``share``, or ``(traceback note, exception)`` if it raises, pickled to
    ``fd``, and exit without returning."""
    try:
        try:
            data = pickle.dumps((None, [work(item) for item in share]))
        except BaseException as exc:
            note = f"in forked share {os.getpid()}:\n{traceback.format_exc()}"
            try:
                data = pickle.dumps((note, exc))
                pickle.loads(data)
            except Exception:  # an exception that pickle cannot rebuild
                data = pickle.dumps((note, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# sparsity measurement


@dataclass
class HookObservation:
    target_sparsity: float
    observed_sparsity: float
    pruned: int
    total: int


@dataclass
class SparsityReport:
    """Observed sparsities and MAC accounting over an evaluation stream."""

    hooks: dict[str, HookObservation]
    site_sparsity: dict[str, float]
    ffn_sparsity: float
    macs_ratio: float
    macs: int
    dense_macs: int
    sample_count: int


def measure_sparsity(
    model: FfnStack, specs: dict[HookPoint, PruneSpec], eval_stream
) -> SparsityReport:
    """Run the pruned stack over a stream, tallying masks and op counts."""
    ((report, _),) = _evaluate(model, [specs], _eval_batches(eval_stream), error=False)
    return report


def reconstruction_error(
    model: FfnStack, specs: dict[HookPoint, PruneSpec], eval_stream
) -> float:
    """Relative L2 distance between pruned and dense stack outputs; a dense
    output that is zero throughout raises ValueError."""
    ((_, err),) = _evaluate(model, [specs], _eval_batches(eval_stream))
    return err


def _eval_batches(eval_stream) -> list:
    """The stream as a list; a stream of no rows raises ValueError."""
    batches = list(eval_stream)
    if not sum(len(b) for b in batches):
        raise ValueError("evaluation stream is empty")
    return batches


def _evaluate(model, spec_maps, batches, error=True) -> list[tuple[SparsityReport, float]]:
    """One walk over the batches for every map of ``spec_maps``: each map's
    SparsityReport and relative L2 error against the dense stack (0.0 when
    ``error`` is false). A dense output that is zero throughout has no
    relative error, and raises ValueError.

    Per batch, the dense stack (when ``error`` is set) and then each map's
    sparse view run their forwards on one dict of finished stages, so that a
    stage runs once for all the forwards that share its specs and those of
    every stage before it; the dict dies with its batch. Above ``FORK_MACS``
    the batches run in contiguous shares across the usable CPUs
    (``_fan_out``), each batch giving its per-hook counts, MACs, each map's
    squared-error term and ``sum(y_dense**2)``. Each sum adds those terms in
    batch order, so it has the bits of a walk over that map alone in one
    process.
    """
    stacks = [model.apply_prune_specs(specs) for specs in spec_maps]

    def batch_terms(batch):
        stages = {}
        y_dense = model.forward(batch, stages).astype(np.float64) if error else None
        den = float(np.sum(y_dense**2)) if error else 0.0
        return den, [_terms(*sparse.forward(batch, stages), y_dense) for sparse in stacks]

    rows = sum(batch.shape[0] for batch in batches)
    work = _dense_macs(model, rows * (len(stacks) + error))
    tallies = [_Tally(model.hook_points()) for _ in stacks]
    den = 0.0
    for batch_den, terms in _fan_out(batch_terms, batches, work):
        den += batch_den
        for tally, term in zip(tallies, terms):
            tally.add(*term)
    if error and not den:
        raise ValueError("the dense output is zero throughout: no relative error exists")
    return [
        (tally.report(model, specs, rows), float(np.sqrt(tally.num / den)) if error else 0.0)
        for specs, tally in zip(spec_maps, tallies)
    ]


def _terms(y_sparse, records, y_dense) -> tuple:
    """One forward's terms of its map's sums: (pruned and seen elements per
    hook, kept-channel MACs, dense MACs, squared error against ``y_dense``,
    0.0 when that is None)."""
    counts = {
        HookPoint(b, site): (run.pruned, run.kept.size)
        for b, rec in enumerate(records)
        for site, run in rec.sites.items()
    }
    sq = 0.0
    if y_dense is not None:
        diff = y_sparse.astype(np.float64) - y_dense
        sq = float(np.sum(diff * diff))
    return counts, sum(r.ops.macs for r in records), sum(r.dense_macs for r in records), sq


class _Tally:
    """One spec map's sums over an evaluation walk: pruned and seen elements
    per hook, kept-channel and dense MACs, and the squared error."""

    def __init__(self, hooks):
        self.pruned = dict.fromkeys(hooks, 0)
        self.total = dict.fromkeys(hooks, 0)
        self.macs = self.dense_macs = 0
        self.num = 0.0

    def add(self, counts, macs, dense_macs, sq) -> None:
        for hook, (pruned, total) in counts.items():
            self.pruned[hook] += pruned
            self.total[hook] += total
        self.macs += macs
        self.dense_macs += dense_macs
        self.num += sq

    def report(self, model, specs, rows) -> SparsityReport:
        pruned, total = self.pruned, self.total
        observations = {
            h.label: HookObservation(
                target_sparsity=specs[h].target_sparsity if h in specs else 0.0,
                observed_sparsity=pruned[h] / total[h],
                pruned=pruned[h],
                total=total[h],
            )
            for h in pruned
        }
        site_sparsity = {
            site: sum(pruned[h] for h in pruned if h.site == site)
            / sum(total[h] for h in total if h.site == site)
            for site in SITES
        }
        glu = model.config.ffn == "swiglu"
        ffn = (kernels.ffn_sparsity if glu else kernels.mlp_ffn_sparsity)(
            site_sparsity[UP_GATE_INPUT], site_sparsity[DOWN_INPUT]
        )
        return SparsityReport(
            hooks=observations,
            site_sparsity=site_sparsity,
            ffn_sparsity=ffn,
            macs_ratio=self.macs / self.dense_macs,
            macs=self.macs,
            dense_macs=self.dense_macs,
            sample_count=rows,
        )


# ---------------------------------------------------------------------------
# overlapping (structured) sparsity


def overlap_sparsity(masks) -> float:
    """Fraction of positions pruned in every vector of the batch.

    ``masks`` is a list of equal-length boolean kept-masks (True = kept);
    the result is the structured fraction a batched kernel could skip.
    """
    arr = np.asarray(masks)
    if arr.dtype == object:
        raise ValueError("masks must share one length")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("masks must be a non-empty list of boolean vectors")
    return float(np.mean(~arr.any(axis=0)))


@dataclass
class OverlapCurve:
    """``independent_baseline[i]`` is ``per_vector_sparsity ** batch_sizes[i]``:
    the overlap of rows pruned independently."""

    batch_sizes: list[int]
    overlap_sparsity: list[float]
    per_vector_sparsity: float
    independent_baseline: list[float]
    rho: float


def check_overlap_sizes(batch_sizes: list[int], n_batches: int) -> None:
    """``overlap_curve``'s size checks, callable before any calibration."""
    if not batch_sizes or list(batch_sizes) != sorted(batch_sizes) or min(batch_sizes) < 1:
        raise ValueError(f"batch_sizes must be non-empty, ascending and >= 1, got {batch_sizes}")
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")


def overlap_curve(
    model: FfnStack,
    specs: dict[HookPoint, PruneSpec],
    batches: CorrelatedBatches,
    batch_sizes: list[int],
    hook: HookPoint | None = None,
    n_batches: int = 16,
) -> OverlapCurve:
    """Average structured sparsity at one hook across nested batch prefixes.

    For each repetition one batch of max(batch_sizes) correlated rows is
    generated and its prefixes reused for every smaller size, so the curve
    is exactly non-increasing per construction.
    """
    check_overlap_sizes(batch_sizes, n_batches)
    sparse = model.apply_prune_specs(specs)
    if hook is None:
        hook = min(specs, key=lambda h: (h.block, h.site), default=None)
        if hook is None:
            raise ValueError("no specs given and no hook selected")
    elif hook not in model.hook_points():
        raise ValueError(f"invalid hook point: {hook!r}")
    elif hook not in specs:
        raise ValueError(f"hook {hook.label} has no spec: it runs dense and prunes nothing")
    k_max = max(batch_sizes)
    sums = np.zeros(len(batch_sizes))
    vec_sum = 0.0
    for _ in range(n_batches):
        x = batches.batch(k_max)
        _, records = sparse.forward(x)
        mask = records[hook.block].sites[hook.site].kept
        vec_sum += float(np.mean(~mask))
        for j, k in enumerate(batch_sizes):
            sums[j] += overlap_sparsity(mask[:k])
    per_vector = vec_sum / n_batches
    return OverlapCurve(
        batch_sizes=list(batch_sizes),
        overlap_sparsity=[float(v / n_batches) for v in sums],
        per_vector_sparsity=per_vector,
        independent_baseline=[float(per_vector**k) for k in batch_sizes],
        rho=batches.rho,
    )


# ---------------------------------------------------------------------------
# Pareto sweep


@dataclass
class SweepEntry:
    target_up_gate: float
    target_down: float
    report: SparsityReport
    error: float
    quality: float  # -error


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    pareto_indices: list[int]


def pareto_sweep(
    model: FfnStack,
    calib_stream,
    eval_stream,
    grid_up: list[float],
    grid_down: list[float],
    capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    seed: int = DEFAULT_SEED,
    center_sites: tuple[str, ...] = (),
    estimator: ModeEstimator = ModeEstimator(),
) -> SweepResult:
    """Grid search over (up/gate, down) targets with Pareto-front extraction.

    Quality is the negated relative reconstruction error against the dense
    model.

    The sweep shares ``plan_specs``'s passes: one dense pass observes the
    Up/Gate site alone, plans the Up specs of every ``grid_up`` target and
    is dropped; then, for each Up target, a second pass observes the Down
    site alone with that pruning applied and plans every ``grid_down``
    target from that one sample. The second passes are independent, so
    above ``FORK_MACS`` they run in contiguous shares of the Up targets
    across the usable CPUs (``_fan_out``), each process one pass at a time:
    min(CPUs, Up targets) passes' statistics are alive at once, one per
    process, and only the specs outlive them. On one CPU every pass runs on
    the calling thread. Then one ``_evaluate`` walk over shared held-out
    data measures every grid point's sparsity and reconstruction error,
    running each stage the points share once per batch: block 0's rmsnorm
    with the dense stack, and its Up/Gate site with the points of the same
    Up target. The non-dominated subset under (maximize ffn_sparsity,
    maximize quality) is reported. Targets outside [0, 1], an
    unknown centering site and an empty evaluation stream raise ValueError
    before anything is calibrated; a dense output that is zero throughout
    raises it from the walk.
    """
    check_fractions("grid_up", grid_up)
    check_fractions("grid_down", grid_down)
    _check_sites(center_sites, "centering")
    plan = {"center_sites": center_sites, "estimator": estimator}
    eval_batches = _eval_batches(eval_stream)
    calib_batches = list(calib_stream)
    up_plans = _plan_up(model, calib_batches, grid_up, capacity, seed, plan)
    down_plans = _fan_out(
        lambda up_specs: _second_pass(
            model, calib_batches, up_specs, grid_down, capacity, seed, plan
        ),
        up_plans,
        _dense_macs(model, len(up_plans) * sum(batch.shape[0] for batch in calib_batches)),
    )
    spec_maps = [
        {**up_specs, **down_specs}
        for up_specs, downs in zip(up_plans, down_plans)
        for down_specs in downs
    ]
    results = _evaluate(model, spec_maps, eval_batches)
    points = [(su, sd) for su in grid_up for sd in grid_down]
    entries = [SweepEntry(*p, rep, err, -err) for p, (rep, err) in zip(points, results)]
    return SweepResult(entries=entries, pareto_indices=pareto_front(entries))


def pareto_front(entries: list[SweepEntry]) -> list[int]:
    """Indices of entries not dominated under (ffn_sparsity, quality)."""

    def dominates(a: SweepEntry, b: SweepEntry) -> bool:
        af, bf = a.report.ffn_sparsity, b.report.ffn_sparsity
        return (
            af >= bf
            and a.quality >= b.quality
            and (af > bf or a.quality > b.quality)
        )

    return [
        i
        for i, e in enumerate(entries)
        if not any(dominates(o, e) for j, o in enumerate(entries) if j != i)
    ]


# ---------------------------------------------------------------------------
# mode-centering ablation


@dataclass
class AblationPoint:
    target_sparsity: float
    observed_with: float
    observed_without: float
    err_with: float
    err_without: float


@dataclass
class AblationResult:
    points: list[AblationPoint]
    eta: float
    iso_error_gain: float


def mode_centering_ablation(
    model: FfnStack,
    calib_stream,
    eval_stream,
    sparsity_grid: list[float],
    estimator: ModeEstimator = ModeEstimator(kind="kde"),
    capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    seed: int = DEFAULT_SEED,
) -> AblationResult:
    """Down-input pruning with eta = estimated mode versus eta = 0.

    One dense pass observes the Down site alone. For each target sparsity,
    ``make_specs`` plans that site with thresholds calibrated on |h - eta|
    and on |h| respectively, each read from one sorted sample; both variants
    report observed Down-input sparsity and output reconstruction error on
    the same held-out stream, all in one ``_evaluate`` walk, which runs block
    0's dense Up site once per batch for every variant and the dense stack,
    and above ``FORK_MACS`` spreads its batches across the usable CPUs.
    Targets outside [0, 1] and an empty evaluation stream raise ValueError
    before anything is calibrated.
    """
    check_fractions("sparsity_grid", sparsity_grid)
    eval_batches = _eval_batches(eval_stream)
    stats = calibrate(model, calib_stream, capacity=capacity, seed=seed, sites=(DOWN_INPUT,))
    eta = stats[DOWN_INPUT].estimate_mode(estimator)
    spec_maps = [
        make_specs(model, stats, {DOWN_INPUT: s}, center_sites=center, estimator=estimator)
        for s in sparsity_grid
        for center in ((DOWN_INPUT,), ())
    ]
    del stats  # only the specs outlive the pass
    runs = _evaluate(model, spec_maps, eval_batches)
    points = [
        AblationPoint(s, with_.site_sparsity[DOWN_INPUT], without.site_sparsity[DOWN_INPUT], e, e0)
        for s, (with_, e), (without, e0) in zip(sparsity_grid, runs[::2], runs[1::2])
    ]
    return AblationResult(points=points, eta=eta, iso_error_gain=iso_error_gain(points))


def iso_error_gain(points: list[AblationPoint]) -> float:
    """Best sparsity advantage of centering at any matched error budget.

    For each candidate budget, each variant contributes the highest observed
    sparsity among its points within budget (zero sparsity is always
    achievable at zero error); returns the maximum with-minus-without gap.
    """
    budgets = sorted({p.err_with for p in points} | {p.err_without for p in points})
    best = 0.0
    for b in budgets:
        s_with = max((p.observed_with for p in points if p.err_with <= b), default=0.0)
        s_wo = max((p.observed_without for p in points if p.err_without <= b), default=0.0)
        best = max(best, s_with - s_wo)
    return best


# ---------------------------------------------------------------------------
# tabular emission


def sweep_rows(result: SweepResult) -> tuple[list[str], list[list]]:
    header = [
        "target_up_gate", "target_down", "obs_up", "obs_gate", "obs_down",
        "ffn_sparsity", "macs_ratio", "error", "quality", "pareto",
    ]
    pareto = set(result.pareto_indices)
    rows = []
    for i, e in enumerate(result.entries):
        sites = e.report.site_sparsity
        rows.append([
            e.target_up_gate, e.target_down, sites[UP_GATE_INPUT], sites[UP_GATE_INPUT],
            sites[DOWN_INPUT], e.report.ffn_sparsity, e.report.macs_ratio, e.error, e.quality,
            int(i in pareto),
        ])
    return header, rows


def overlap_rows(curve: OverlapCurve) -> tuple[list[str], list[list]]:
    header = ["batch_size", "overlap_sparsity", "independent_baseline"]
    rows = [
        [k, o, b]
        for k, o, b in zip(
            curve.batch_sizes, curve.overlap_sparsity, curve.independent_baseline
        )
    ]
    return header, rows


def ablation_rows(result: AblationResult) -> tuple[list[str], list[list]]:
    return [f.name for f in fields(AblationPoint)], [list(astuple(p)) for p in result.points]
