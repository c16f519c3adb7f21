"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload decode-wide --seeds 1-10 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` from the current checkout once per seed, one run
at a time, and prints for every metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
Runs last ``run_seconds`` from ``BENCHMARK.json``. ``--out`` adds the
per-seed result lines and the summary to a JSON file, keyed by workload (with
a ``-trace`` suffix for traced runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    summary = summarise(runs, bounds)
    for name, s in summary.items():
        bound = "" if s["bound"] is None else f"  bound {s['bound']}"
        print(f"{name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  spread {s['spread']:.4f}{bound}")
    if args.out:
        data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        key = args.workload + ("-trace" if args.trace else "")
        data[key] = {"seconds": seconds, "runs": runs, "summary": summary}
        args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
