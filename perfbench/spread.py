"""Run a workload on several seeds and report each metric's median and spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload serve_sharded --seeds 1-10 --seconds 15

Each seed is one ``run.py`` invocation, run one after another.  For every
metric the script prints the median of the runs and the spread, defined as
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's ``bound`` from ``BENCHMARK.json`` — the figure a steady
benchmark keeps below a third of its bound — and the spread of the same
figure unscaled by the host speed (the report's ``raw`` figures).
``--json`` writes every run's metrics to a file; ``--against`` reads such a
file from an earlier set of runs and prints how far each median moved from
it, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def spread(values):
    """Quartile distance over the median, or None for fewer than two values."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def _fmt(value) -> str:
    return f"{'-':>8s}" if value is None else f"{value:8.3f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        wall = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        reports = [json.loads(line[len("report "):]) for line in lines if line.startswith("report ")]
        runs.append(
            {"seed": seed, "wall_s": wall, "result": result, "values": values, "reports": reports}
        )
        print(f"seed {seed}: {wall:5.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    earlier = json.loads(args.against.read_text()) if args.against else None
    print(f"\n{'metric':34s} {'median':>12s} {'spread':>8s} {'raw':>8s} {'moved':>8s} {'bound':>6s}  values")
    for name in runs[0]["values"]:
        values = [run["values"][name] for run in runs]
        median = statistics.median(values)
        raw = [run["reports"][0].get("raw", {}).get(name) for run in runs]
        raw_spread = spread(raw) if None not in raw else None
        moved = None
        if earlier is not None:
            before = statistics.median(run["values"][name] for run in earlier)
            moved = (median - before) / abs(before) if before else None
        bound = bounds.get(name)
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"{name:34s} {median:12.4f} {_fmt(spread(values))} {_fmt(raw_spread)} {_fmt(moved)} "
              f"{bound if bound is not None else '-':>6}  {shown}")
    print(f"\nwall seconds per run: {statistics.median(run['wall_s'] for run in runs):.1f} (median)")
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
