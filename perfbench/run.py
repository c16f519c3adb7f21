"""scap benchmark: one command, two workloads, checked outputs.

Run from the root of a scap checkout:

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` makes a separate traced run: it alternates ``trace_ops``
untraced operations with ``trace_ops`` operations during which every public
scap function is wrapped in spans (see spans.py), and reports per-layer
counts, busy and self times, and the tracing overhead. Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
result, with the environment record (and the spans, when traced), is
written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT_REPEATS = 5
BUILD_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
OUT_DIR = ".perfbench-out"

# the workload-specific names of the generic metrics, printed alongside
NAMED = {
    "sweep-desk": {"sweep_points_per_s": "work_per_s"},
    "decode-wide": {"token_ms_p50": "op_ms_p50", "token_ms_tail": "op_ms_tail"},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(NAMED))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds(root: Path) -> float:
    """Median wall time of a fresh interpreter importing the scap CLI."""
    code = "import sys; sys.path.insert(0, 'src'); import scap.cli"
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would not exceed the
    median, so the median is reported, as percentile 50.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run_ops(op, indices, failures):
    """Time ``op(i)`` for each index; returns durations and outputs of ops that ran."""
    durations, outputs = [], {}
    for i in indices:
        t0 = time.perf_counter()
        try:
            out = op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures[i] = f"{type(exc).__name__}: {exc}"
            out = None
        durations.append(time.perf_counter() - t0)
        if out is not None:
            outputs[i] = out
    return durations, outputs


def check(wl, outputs, failures) -> None:
    """Add the operations whose output fails the workload's checks to ``failures``."""
    if not outputs:
        return
    try:
        failures.update(wl.check(outputs))
    except Exception as exc:  # a check that cannot read the output fails every op
        failures.update({i: f"check raised {type(exc).__name__}: {exc}" for i in outputs})


def until(seconds: float):
    start = time.perf_counter()
    i = 0
    while True:
        yield i
        i += 1
        if time.perf_counter() - start >= seconds:
            return


def measure(wl, args, root: Path):
    setup = import_seconds(root)
    builds = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - t0)
    failures = {}
    durations, outputs = run_ops(wl.op, until(args.seconds), failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before checks
    check(wl, outputs, failures)
    n = len(durations)
    work = sum(wl.work(out) for i, out in outputs.items() if i not in failures)
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": setup + statistics.median(builds),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (n - len(failures)) / n,
        "op_ms_p50": statistics.median(durations) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "work_per_s": work / math.fsum(durations),
    }
    details = {
        "import_s": setup,
        "build_s": builds,
        "op_s": durations,
        "tail_percentile": tail_pct,
        "samples": n,
        "work_unit": wl.work_unit,
        "error_rate": len(failures) / n,
        "named": {k: metrics[v] for k, v in NAMED[wl.name].items()},
    }
    return metrics, details, failures, n


def measure_traced(wl, args, root: Path):
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        wl.build()
    finally:
        tracer.uninstall()
    # untraced, traced and (decode-wide) dense operations interleave, so drift
    # in the machine's speed does not masquerade as tracing overhead
    failures, outputs = {}, {}
    plain, traced, dense = [], [], []
    for i in range(wl.trace_ops):
        d, out = run_ops(wl.op, [2 * i], failures)
        plain += d
        outputs.update(out)
        tracer.install()
        try:
            d, out = run_ops(wl.op, [2 * i + 1], failures)
        finally:
            tracer.uninstall()
        traced += d
        outputs.update(out)
        if hasattr(wl, "dense_op"):  # the dense twin on the same token
            dense += run_ops(wl.dense_op, [2 * i], failures)[0]
    check(wl, outputs, failures)
    metrics = layer_metrics(tracer)
    p50 = statistics.median(plain)
    overhead = statistics.median(traced) - p50
    metrics["kernels.speedup_vs_dense"] = statistics.median(dense) / p50 if dense else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / p50
    details = {
        "untraced_op_s": plain,
        "traced_op_s": traced,
        "dense_op_s": dense,
        "spans": [s.as_list() for s in tracer.spans],
        "span_fields": ["id", "name", "start", "end", "parent", "thread", "attrs"],
    }
    return metrics, details, failures, len(plain) + len(traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "scap" / "__init__.py").is_file():
        print("perfbench: run from the root of a scap checkout (no src/scap here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import scap.cli

    if Path(scap.cli.__file__).resolve().parents[2] != root.resolve():
        print(f"perfbench: imported scap from {scap.cli.__file__}, not this checkout", file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    import environment
    from workloads import DECODE_D, DECODE_H, WORKLOADS

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch)
        run = measure_traced if args.trace else measure
        metrics, details, failures, attempted = run(wl, args, root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 3

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            k: {"value": metrics[k], "unit": unit} for k, unit in units.items()
        },
    }
    env = environment.record((DECODE_D, DECODE_H))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "failures": {str(k): v for k, v in failures.items()},
        **result, "details": details,
    }
    name = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    (out_dir / f"{name}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")

    print("# env " + json.dumps(env, sort_keys=True))
    for k, v in details.get("named", {}).items():
        print(f"# {k} = {v:.6g} {units[NAMED[args.workload][k]]}")
    if "error_rate" in details:
        print(f"# error_rate = {details['error_rate']:.6g} (failed / attempted)")
    for i, why in sorted(failures.items()):
        print(f"# op {i} failed: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
