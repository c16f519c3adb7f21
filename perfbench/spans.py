"""In-memory span tracing of scap's public functions, from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper
at every place it is looked up (the defining module, the modules that import
it by name, and the package root), and ``uninstall()`` puts every original
back. A span records its name, start, end, parent span and thread; spans stay
in a list until the run writes them out. Each thread keeps its own span
stack, so the spans of ``pareto_sweep``'s pool workers nest under the pool
task that runs them. ``layer_metrics`` derives the per-layer numbers.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "nested", "attrs")

    def __init__(self, sid, name, start, parent, thread, nested):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.nested = nested  # an ancestor in the same thread has the same name
        self.attrs = None

    def as_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.thread, self.attrs]


# ---------------------------------------------------------------------------
# per-call counts, computed after the span has ended


def _sparse_fc_attrs(args, kwargs, result):
    x, weight = args[0], args[1]
    _, kept, macs = result
    rows, d_in, d_out = x.shape[0], weight.shape[0], weight.shape[1]
    kept_rows = int(kept.any(axis=0).sum()) if rows else 0
    return {
        "rows": rows,
        "macs": int(macs),
        "dense_macs": rows * d_in * d_out,
        # f32 weight rows that at least one batch row keeps; computed, not measured
        "bytes_computed": kept_rows * d_out * 4,
    }


def _matmul_attrs(args, kwargs, result):
    x, w = args[0], args[1]
    return {"macs": x.shape[0] * x.shape[1] * w.shape[1]}


def _save_report_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.layer_stats: dict[int, object] = {}  # every LayerStats observed, kept alive
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1].sid if stack else None

    def call(self, name, fn, args, kwargs, attrs_fn=None, parent=None, attrs=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        nested = any(s.name == name for s in stack)
        span = Span(next(self._ids), name, 0.0, parent, threading.get_ident(), nested)
        span.attrs = attrs
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if attrs_fn is not None:
            span.attrs = {**(span.attrs or {}), **attrs_fn(args, kwargs, result)}
        return result

    def wrap(self, name, fn, attrs_fn=None):
        tracer = self
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            return tracer.call(label, fn, args, kwargs, attrs_fn)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, name, home, attr, lookups=(), attrs_fn=None):
        """Wrap ``home.attr`` and rebind it in every module that imported it by name."""
        original = getattr(home, attr)
        traced = self.wrap(name, original, attrs_fn)
        for module in (home, *lookups):
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, traced)

    def install(self) -> None:
        import scap
        from scap import analysis, calib, cli, io, kernels, model, prune, tensor

        if self._patches:
            raise RuntimeError("tracer already installed")
        f = self._patch_function
        f("kernels.sparse_fc", kernels, "sparse_fc", (model, prune, scap), _sparse_fc_attrs)
        f("tensor.matmul", tensor, "matmul", (kernels, model, cli, scap), _matmul_attrs)
        f("tensor.silu", tensor, "silu", (kernels, model, cli, scap))
        f("model.init_weights", model, "init_weights", (cli, scap))
        for name, attr in (
            ("analysis.calibrate", "calibrate"),
            ("analysis.make_specs", "make_specs"),
            ("analysis.measure_sparsity", "measure_sparsity"),
            ("analysis.reconstruction_error", "reconstruction_error"),
            ("analysis.pareto_sweep", "pareto_sweep"),
            ("analysis.synthetic_stream", "synthetic_stream"),
        ):
            f(name, analysis, attr)
        f("io.save_report", io, "save_report", attrs_fn=_save_report_attrs)
        f("io.load_report", io, "load_report")
        f("io.make_report", io, "make_report")
        f("cli.main", cli, "main")

        methods = (
            (model.FfnStack, "forward", "model.dense_forward", None),
            (model.FfnStack, "forward_with_hooks", "model.capture_forward", None),
            (model.FfnStack, "apply_prune_specs", "model.apply_prune_specs", None),
            (model.SparseStack, "forward", "model.sparse_forward", None),
            (model.SparseStack, "forward_with_hooks", "model.capture_forward", None),
            (calib.LayerStats, "observe", "calib.observe", self._observe_attrs),
            (calib.LayerStats, "quantile_threshold", "calib.quantile", None),
            (calib.LayerStats, "centered_quantile_threshold", "calib.quantile", None),
        )
        for cls, attr, name, attrs_fn in methods:
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], attrs_fn))

        # pareto_sweep looks its pool class up as a module global
        self._patch(analysis, "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _observe_attrs(self, args, kwargs, result):
        stats, activations = args[0], args[1]
        self.layer_stats[id(stats)] = stats
        return {"elements": int(activations.size)}

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                queued = time.perf_counter()

                def task():
                    return tracer.call(
                        "analysis.pool_task", fn, args, kwargs,
                        parent=parent, attrs={"queued": queued},
                    )

                return super().submit(task)

        return TracedPool


# ---------------------------------------------------------------------------
# derived per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans.

    ``busy_s`` sums span time; ``self_s`` subtracts the time of child spans
    in the same thread. A span nested inside a span of the same name (a
    centered quantile delegating to the plain one) counts once.
    """
    spans = [s for s in tracer.spans if not s.nested]
    by_id = {s.sid: s for s in tracer.spans}
    child_time = defaultdict(float)
    for s in tracer.spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            child_time[p.sid] += s.end - s.start

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    sums = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        calls[s.name] += 1
        busy[s.name] += dur
        self_time[s.name] += dur - child_time[s.sid]
        for key, val in (s.attrs or {}).items():
            if key != "queued":
                sums[s.name, key] += val

    def ratio(num, den):
        return num / den if den else 0.0

    fc = "kernels.sparse_fc"
    m = {
        f"{fc}.calls": calls[fc],
        f"{fc}.busy_s": busy[fc],
        f"{fc}.rows": sums[fc, "rows"],
        f"{fc}.macs": sums[fc, "macs"],
        f"{fc}.dense_macs": sums[fc, "dense_macs"],
        f"{fc}.kept_ratio": ratio(sums[fc, "macs"], sums[fc, "dense_macs"]),
        f"{fc}.ns_per_mac": ratio(busy[fc] * 1e9, sums[fc, "macs"]),
        f"{fc}.bytes_computed": sums[fc, "bytes_computed"],
        "tensor.matmul.calls": calls["tensor.matmul"],
        "tensor.matmul.busy_s": busy["tensor.matmul"],
        "tensor.matmul.macs": sums["tensor.matmul", "macs"],
        "tensor.silu.busy_s": busy["tensor.silu"],
    }
    for name in ("model.sparse_forward", "model.capture_forward"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.self_s"] = self_time[name]
    m["model.dense_forward.calls"] = calls["model.dense_forward"]
    m["model.dense_forward.busy_s"] = busy["model.dense_forward"]
    m["model.init_weights.busy_s"] = busy["model.init_weights"]

    obs = "calib.observe"
    m[f"{obs}.calls"] = calls[obs]
    m[f"{obs}.busy_s"] = busy[obs]
    m[f"{obs}.elements"] = sums[obs, "elements"]
    m[f"{obs}.elems_per_s"] = ratio(sums[obs, "elements"], busy[obs])
    m["calib.quantile.calls"] = calls["calib.quantile"]
    m["calib.quantile.busy_s"] = busy["calib.quantile"]
    stats = list(tracer.layer_stats.values())
    filled = sum(st.raw_reservoir.size for st in stats)
    m["calib.reservoir_fill"] = ratio(filled, sum(st.capacity for st in stats))
    m["calib.seen_per_slot"] = ratio(sum(st.seen_count for st in stats), filled)

    for name in ("analysis.calibrate", "analysis.measure_sparsity", "analysis.reconstruction_error"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
    m["analysis.make_specs.busy_s"] = busy["analysis.make_specs"]
    m.update(_pool_metrics(tracer.spans, by_id))

    m["io.save_report.calls"] = calls["io.save_report"]
    m["io.save_report.busy_s"] = busy["io.save_report"]
    m["io.save_report.bytes"] = sums["io.save_report", "bytes"]
    m["io.load_report.busy_s"] = busy["io.load_report"]
    m["cli.job_s"] = busy["cli.main"]
    m["cli.self_s"] = self_time["cli.main"]
    m["trace.spans"] = len(tracer.spans)
    return m


def _pool_metrics(spans, by_id) -> dict[str, float]:
    tasks = [s for s in spans if s.name == "analysis.pool_task"]
    if not tasks:
        return {
            "analysis.sparse_forwards_per_point": 0.0,
            "analysis.point_wait_s": 0.0,
            "analysis.pool_concurrency": 0.0,
        }

    def under_task(s):
        while s is not None:
            if s.name == "analysis.pool_task":
                return True
            s = by_id.get(s.parent)
        return False

    forwards = sum(1 for s in spans if s.name == "model.sparse_forward" and under_task(s))
    phase = max(s.end for s in tasks) - min(s.attrs["queued"] for s in tasks)
    return {
        "analysis.sparse_forwards_per_point": forwards / len(tasks),
        "analysis.point_wait_s": math.fsum(s.start - s.attrs["queued"] for s in tasks),
        "analysis.pool_concurrency": math.fsum(s.end - s.start for s in tasks) / phase,
    }
