"""The benchmark's own checks, on a held-out seed.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seconds 3] [--seed 424242]

1. The oracle gate rejects a perturbed answer (one score off by one ulp,
   swapped rows) and accepts a tie resolved either way at the k-th boundary.
2. A shortened pass of every workload, untraced and traced, on a seed that
   was not used while the benchmark was tuned: exit status 0, a last line
   with exactly ``correct``/``attempted``/``failed``/``metrics``, the metric
   names and units of ``BENCHMARK.json``, every end-to-end value positive
   and finite, ``correct`` true, no failed operation, and an accounting line
   that splits every operation kind into the six outcome buckets.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark's files
   (no library sources), the command exits nonzero without a result line.

Exits 1 on the first failed check.  Never collected by pytest (the file name
does not start with ``test_``), so the repository's test suite is unchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
OUTCOMES = {"ok", "degraded", "timeout", "rejected", "error", "wrong"}


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_gate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from harness import Oracle, Query, matches_oracle
    from repro.core.results import Match, TopKResult

    rng = np.random.default_rng(7)
    data = rng.random((500, 4))
    oracle = Oracle(data)
    query = Query(point=(0.5, 0.5, 0.5, 0.5), k=5, alpha=(0.3, 0.9), beta=(0.6, 0.2))
    truth = oracle.truth(query)
    exact = TopKResult(matches=list(truth.matches[:5]))
    if not oracle.check(query, exact):
        fail("the oracle rejects its own answer")
    first = truth.matches[0]
    nudged = [Match(row_id=first.row_id, score=math.nextafter(first.score, -math.inf), point=first.point)]
    if oracle.check(query, TopKResult(matches=nudged + list(truth.matches[1:5]))):
        fail("a score one ulp off passed the gate")
    second = truth.matches[1]
    swapped = [
        Match(row_id=second.row_id, score=first.score, point=first.point),
        Match(row_id=first.row_id, score=second.score, point=second.point),
    ] + list(truth.matches[2:5])
    if oracle.check(query, TopKResult(matches=swapped)):
        fail("swapped row ids passed the gate")
    tie = TopKResult(matches=[Match(row_id=r, score=s) for r, s in ((1, 3.0), (2, 2.0), (3, 1.0), (4, 1.0))])
    either = TopKResult(matches=[Match(row_id=r, score=s) for r, s in ((1, 3.0), (2, 2.0), (4, 1.0))])
    if not matches_oracle(either, tie, 3):
        fail("a tie at the k-th boundary resolved the other way was rejected")
    print("ok: oracle gate")


def run(args, cwd: Path):
    return subprocess.run(
        [sys.executable, *CONFIG["command"][1:], *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_workload(name: str, seed: int, seconds: int, trace: int) -> None:
    proc = run(["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)], ROOT)
    label = f"{name} trace={trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {n: e["unit"] for n, e in result["metrics"].items()}
    if got != want:
        fail(f"{label}: metric names/units differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: {metric} = {value!r}")
        if not trace and value <= 0:
            fail(f"{label}: end-to-end metric {metric} = {value}")
    accounting = [line for line in lines if line.startswith("accounting ")]
    if not accounting:
        fail(f"{label}: no accounting line")
    counts = json.loads(accounting[-1][len("accounting "):])
    if sum(sum(b.values()) for b in counts.values()) != result["attempted"]:
        fail(f"{label}: accounting does not add up to attempted")
    if any(set(bucket) != OUTCOMES for bucket in counts.values()):
        fail(f"{label}: outcome buckets {[sorted(b) for b in counts.values()]}")
    print(f"ok: {label} ({result['attempted']} operations)")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(["--workload", CONFIG["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        fail(f"bare directory: exit {proc.returncode}, last line {last[0][:80]!r}")
    print(f"ok: bare directory exits {proc.returncode} without a result")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=424242)
    args = parser.parse_args()
    check_gate()
    for workload in CONFIG["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], args.seed, args.seconds, trace)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
