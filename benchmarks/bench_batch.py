#!/usr/bin/env python3
"""Batch-serving benchmark: SDIndex.batch_query vs a loop of legacy queries.

Builds the SD-Index over a 50k-point uniform dataset (paper-style roles: two
repulsive, two attractive dimensions), answers the registered ``batch_serving``
workload of 100 queries both ways — batched through the shared session vs a
Python loop over ``query(..., engine="legacy")``, the threshold-traversal
oracle — verifies the answers are bit-identical, and writes a trajectory point
to ``BENCH_batch.json``.  (``bench_single.py`` covers the single-query fast
path against the same oracle.)

Run with::

    PYTHONPATH=src python benchmarks/bench_batch.py

Knobs (environment): ``REPRO_BENCH_BATCH_POINTS`` (dataset size, default
50000), ``REPRO_BENCH_BATCH_QUERIES`` (batch size, default 100),
``REPRO_BENCH_BATCH_REPEAT`` (timing repetitions, default 3, best-of),
``REPRO_BENCH_BATCH_MIN_SPEEDUP`` (exit-1 bar, default 5.0; set to 0 on
noisy shared runners to gate on correctness only),
``REPRO_BENCH_BATCH_MAX_OVERFETCH`` (exit-1 bar on the batch-vs-sequential
candidates-per-query ratio, default 2.5 — deterministic, so it stays on even
on noisy runners; the healthy ratio is ~1.2x now that verification re-prunes
with exact-pair-0 tight bounds over the refined bound grid (DESIGN.md,
"The bound hierarchy"), and a pruning regression shows up here long before
wall clock).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.sdindex import SDIndex  # noqa: E402
from repro.data.generators import generate_dataset  # noqa: E402
from repro.workloads.registry import build_workload  # noqa: E402

NUM_POINTS = int(os.environ.get("REPRO_BENCH_BATCH_POINTS", "50000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_BATCH_QUERIES", "100"))
REPEAT = int(os.environ.get("REPRO_BENCH_BATCH_REPEAT", "3"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_BATCH_MIN_SPEEDUP", "5.0"))
MAX_OVERFETCH = float(os.environ.get("REPRO_BENCH_BATCH_MAX_OVERFETCH", "2.5"))
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


def main() -> int:
    print(f"dataset: uniform, {NUM_POINTS} points, 4 dims; "
          f"batch of {NUM_QUERIES} queries (mixed k)")
    data = generate_dataset("uniform", NUM_POINTS, 4, seed=0).matrix
    build_started = time.perf_counter()
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    build_seconds = time.perf_counter() - build_started
    workload = build_workload(
        "batch_serving", REPULSIVE, ATTRACTIVE,
        num_queries=NUM_QUERIES, num_dims=4, seed=1,
    )
    queries = workload.queries()

    # Warm both paths once (the first legacy query builds the pair trees;
    # first-touch allocations, branch caches).
    index.query(queries[0], engine="legacy")
    index.batch_query(workload)

    sequential_seconds = float("inf")
    singles = None
    for _ in range(max(1, REPEAT)):
        started = time.perf_counter()
        answers = [index.query(query, engine="legacy") for query in queries]
        sequential_seconds = min(sequential_seconds, time.perf_counter() - started)
        singles = answers

    batch_seconds = float("inf")
    batch = None
    for _ in range(max(1, REPEAT)):
        started = time.perf_counter()
        batch = index.batch_query(workload)
        batch_seconds = min(batch_seconds, time.perf_counter() - started)

    # Bit-identical verification: same row ids, exactly equal float scores.
    identical = all(
        batched.row_ids == single.row_ids and batched.scores == single.scores
        for batched, single in zip(batch, singles)
    )
    speedup = sequential_seconds / batch_seconds

    point = {
        "benchmark": "batch_serving",
        "distribution": "uniform",
        "num_points": NUM_POINTS,
        "num_dims": 4,
        "repulsive": list(REPULSIVE),
        "attractive": list(ATTRACTIVE),
        "num_queries": NUM_QUERIES,
        "k_choices": sorted(set(int(k) for k in workload.ks)),
        "build_seconds": build_seconds,
        "sequential_seconds": sequential_seconds,
        "batch_seconds": batch_seconds,
        "sequential_ms_per_query": 1000.0 * sequential_seconds / NUM_QUERIES,
        "batch_ms_per_query": 1000.0 * batch_seconds / NUM_QUERIES,
        "speedup": speedup,
        "bit_identical": identical,
        "batch_candidates_per_query": batch.candidates_examined / NUM_QUERIES,
        "sequential_candidates_per_query": (
            sum(result.candidates_examined for result in singles) / NUM_QUERIES
        ),
    }
    point["overfetch_ratio"] = point["batch_candidates_per_query"] / max(
        point["sequential_candidates_per_query"], 1e-9
    )
    OUTPUT.write_text(json.dumps(point, indent=2) + "\n")

    print(f"sequential: {sequential_seconds:.3f}s "
          f"({point['sequential_ms_per_query']:.2f} ms/query)")
    print(f"batch:      {batch_seconds:.3f}s "
          f"({point['batch_ms_per_query']:.2f} ms/query)")
    print(f"speedup:    {speedup:.1f}x   bit-identical: {identical}")
    print(
        f"candidates: batch {point['batch_candidates_per_query']:.0f}/query vs "
        f"sequential {point['sequential_candidates_per_query']:.0f}/query "
        f"(over-fetch {point['overfetch_ratio']:.1f}x)"
    )
    print(f"wrote {OUTPUT}")

    if not identical:
        print("FAIL: batch answers differ from the sequential path", file=sys.stderr)
        return 1
    if MAX_OVERFETCH > 0 and point["overfetch_ratio"] > MAX_OVERFETCH:
        print(
            f"FAIL: batch over-fetches {point['overfetch_ratio']:.1f}x the "
            f"sequential candidates per query (bar: {MAX_OVERFETCH:g}x) — "
            "the pooled threshold has stopped pruning",
            file=sys.stderr,
        )
        return 1
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {speedup:.1f}x below the {MIN_SPEEDUP:g}x acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
