"""Analysis harnesses: sparsity measurement, overlap decay, sweeps, ablation.

Everything here runs on synthetic activation streams (the desk-scale
calibration set is 64 sequences of 256 feature vectors) and emits plain
dict / CSV-row payloads so results can be persisted byte-identically.
Calibration is per site (pooled over blocks): each site's statistics, and
so its ``PruneSpec``, serve that site's hook in every block.

Quality throughout is the negated relative L2 reconstruction error of the
pruned stack against its dense twin on held-out data; higher is better.
"""

from __future__ import annotations

# unused here, but perfbench/spans.py patches analysis.ThreadPoolExecutor by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import kernels
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


# ---------------------------------------------------------------------------
# synthetic streams


def synthetic_stream(
    d_model: int,
    n_sequences: int = CALIB_SEQUENCES,
    sequence_len: int = CALIB_SEQUENCE_LEN,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> list[np.ndarray]:
    """Deterministic list of (sequence_len x d_model) float32 batches."""
    rng = np.random.default_rng(seed)
    return [
        (scale * rng.standard_normal((sequence_len, d_model))).astype(np.float32)
        for _ in range(n_sequences)
    ]


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
        return (self.scale * rows).astype(np.float32)


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
    """Relative L2 distance between pruned and dense stack outputs."""
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
    ``error`` is false).

    Per batch, the dense stack (when ``error`` is set) and then each map's
    sparse view run their forwards on one dict of finished stages, so that a
    stage runs once for all the forwards that share its specs and those of
    every stage before it; the dict dies with its batch. Each map's counts and error
    sums are added in batch order, and ``sum(y_dense**2)`` once per batch, so
    every sum has the bits of a walk over that map alone.
    """
    stacks = [model.apply_prune_specs(specs) for specs in spec_maps]
    hooks = model.hook_points()
    tallies = [_Tally(hooks) for _ in stacks]
    rows, den = 0, 0.0
    for batch in batches:
        stages = {}
        y_dense = model.forward(batch, stages).astype(np.float64) if error else None
        if error:
            den += float(np.sum(y_dense**2))
        rows += batch.shape[0]
        for sparse, tally in zip(stacks, tallies):
            tally.add(*sparse.forward(batch, stages), y_dense)
    return [
        (tally.report(model, specs, rows), float(np.sqrt(tally.num / den)) if den else 0.0)
        for specs, tally in zip(spec_maps, tallies)
    ]


class _Tally:
    """One spec map's sums over an evaluation walk: pruned and seen elements
    per hook, kept-channel and dense MACs, and the squared error."""

    def __init__(self, hooks):
        self.pruned = dict.fromkeys(hooks, 0)
        self.total = dict.fromkeys(hooks, 0)
        self.macs = self.dense_macs = 0
        self.num = 0.0

    def add(self, y_sparse, records, y_dense) -> None:
        for b, rec in enumerate(records):
            for site, run in rec.sites.items():
                hook = HookPoint(b, site)
                self.pruned[hook] += run.pruned
                self.total[hook] += run.kept.size
                self.macs += run.macs
                self.dense_macs += run.dense_macs
        if y_dense is not None:
            diff = y_sparse.astype(np.float64) - y_dense
            self.num += float(np.sum(diff * diff))

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
    is dropped; then, for each Up target in grid order, a second pass
    observes the Down site alone with that pruning applied and plans every
    ``grid_down`` target from that one sample. Everything runs on the
    calling thread, so only one pass's statistics are alive at a time, and
    only the specs outlive them. Then one ``_evaluate`` walk over shared
    held-out data measures every grid point's sparsity and reconstruction
    error, running each stage the points share once per batch: block 0's
    rmsnorm with the dense stack, and its Up/Gate site with the points of
    the same Up target. The non-dominated subset under (maximize
    ffn_sparsity, maximize quality) is reported. Targets outside [0, 1], an
    unknown centering site and an empty evaluation stream raise ValueError
    before anything is calibrated.
    """
    check_fractions("grid_up", grid_up)
    check_fractions("grid_down", grid_down)
    _check_sites(center_sites, "centering")
    plan = {"center_sites": center_sites, "estimator": estimator}
    eval_batches = _eval_batches(eval_stream)
    calib_batches = list(calib_stream)
    up_plans = _plan_up(model, calib_batches, grid_up, capacity, seed, plan)
    spec_maps = [
        {**up_specs, **down_specs}
        for up_specs in up_plans
        for down_specs in _second_pass(
            model, calib_batches, up_specs, grid_down, capacity, seed, plan
        )
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
    0's dense Up site once per batch for every variant and the dense stack.
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
