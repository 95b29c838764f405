#!/usr/bin/env python3
"""Single-query benchmark: the flattened-array fast path vs the legacy traversal.

Builds the SD-Index over a 50k-point uniform dataset (paper-style roles: two
repulsive, two attractive dimensions) and answers 100 mixed-k queries one at a
time through both engines:

* ``engine="legacy"`` — the per-stream threshold aggregation (the oracle), and
* ``engine="fast"`` (the default) — the vectorized filter-and-verify kernels
  over the cached, incrementally maintained query session.

The two must be bit-identical (same row ids, exactly equal float scores).  A
second phase interleaves >= 1,000 inserts/deletes with fast queries and asserts
the serving session is patched in place the whole time — zero reflattens —
while answers stay bit-identical to the legacy path.  Writes a trajectory
point to ``BENCH_single.json``.

Run with::

    PYTHONPATH=src python benchmarks/bench_single.py

Knobs (environment): ``REPRO_BENCH_SINGLE_POINTS`` (dataset size, default
50000), ``REPRO_BENCH_SINGLE_QUERIES`` (query count, default 100),
``REPRO_BENCH_SINGLE_REPEAT`` (timing repetitions, default 3, best-of),
``REPRO_BENCH_SINGLE_UPDATES`` (interleaved updates, default 1000),
``REPRO_BENCH_SINGLE_MIN_SPEEDUP`` (exit-1 bar, default 5.0; set to 0 on noisy
shared runners to gate on correctness only),
``REPRO_BENCH_SINGLE_MAX_OVERFETCH`` (exit-1 bar on the fast-vs-legacy
candidates-per-query ratio, default 2.5 — deterministic; the single-query
fast path runs through the same cached session as the batch engine, so it
must inherit the tightened verification bounds, not just the batch path).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.sdindex import SDIndex  # noqa: E402
from repro.data.generators import generate_dataset  # noqa: E402
from repro.workloads.registry import build_workload  # noqa: E402

NUM_POINTS = int(os.environ.get("REPRO_BENCH_SINGLE_POINTS", "50000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_SINGLE_QUERIES", "100"))
REPEAT = int(os.environ.get("REPRO_BENCH_SINGLE_REPEAT", "3"))
NUM_UPDATES = int(os.environ.get("REPRO_BENCH_SINGLE_UPDATES", "1000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SINGLE_MIN_SPEEDUP", "5.0"))
MAX_OVERFETCH = float(os.environ.get("REPRO_BENCH_SINGLE_MAX_OVERFETCH", "2.5"))
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_single.json"


def _bit_identical(mine, theirs) -> bool:
    return all(
        a.row_ids == b.row_ids and a.scores == b.scores
        for a, b in zip(mine, theirs)
    )


def main() -> int:
    print(f"dataset: uniform, {NUM_POINTS} points, 4 dims; "
          f"{NUM_QUERIES} single queries (mixed k); {NUM_UPDATES} interleaved updates")
    data = generate_dataset("uniform", NUM_POINTS, 4, seed=0).matrix
    build_started = time.perf_counter()
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    build_seconds = time.perf_counter() - build_started
    workload = build_workload(
        "batch_serving", REPULSIVE, ATTRACTIVE,
        num_queries=NUM_QUERIES, num_dims=4, seed=1,
    )
    queries = workload.queries()

    # Warm both engines (the first legacy query builds the pair trees here).
    index.query(queries[0], engine="legacy")
    index.query(queries[0])

    legacy_seconds = float("inf")
    legacy = None
    for _ in range(max(1, REPEAT)):
        started = time.perf_counter()
        answers = [index.query(query, engine="legacy") for query in queries]
        legacy_seconds = min(legacy_seconds, time.perf_counter() - started)
        legacy = answers

    fast_seconds = float("inf")
    fast = None
    for _ in range(max(1, REPEAT)):
        started = time.perf_counter()
        answers = [index.query(query) for query in queries]
        fast_seconds = min(fast_seconds, time.perf_counter() - started)
        fast = answers

    identical = _bit_identical(fast, legacy)
    speedup = legacy_seconds / fast_seconds

    # ------------------------------------------------- update-interleaved phase
    session = index.query_session()
    reflattens_before = session.reflattens
    rng = np.random.default_rng(2)
    deletable = list(
        rng.choice(NUM_POINTS, size=min(NUM_UPDATES, NUM_POINTS), replace=False)
    )
    interleaved_query_seconds = 0.0
    interleaved_queries = 0
    update_started = time.perf_counter()
    for step in range(NUM_UPDATES):
        if step % 2 == 0:
            index.insert(rng.random(4))
        else:
            index.delete(int(deletable.pop()))
        if step % 25 == 0:
            query = queries[step % NUM_QUERIES]
            q_started = time.perf_counter()
            index.query(query)
            interleaved_query_seconds += time.perf_counter() - q_started
            interleaved_queries += 1
    update_seconds = (time.perf_counter() - update_started) - interleaved_query_seconds
    session_survived = session.reflattens == reflattens_before

    # Post-churn verification: the patched session still matches the oracle.
    post_fast = [index.query(query) for query in queries[:20]]
    post_legacy = [index.query(query, engine="legacy") for query in queries[:20]]
    churn_identical = _bit_identical(post_fast, post_legacy)

    point = {
        "benchmark": "single_query",
        "distribution": "uniform",
        "num_points": NUM_POINTS,
        "num_dims": 4,
        "repulsive": list(REPULSIVE),
        "attractive": list(ATTRACTIVE),
        "num_queries": NUM_QUERIES,
        "k_choices": sorted(set(int(k) for k in workload.ks)),
        "build_seconds": build_seconds,
        "legacy_seconds": legacy_seconds,
        "fast_seconds": fast_seconds,
        "legacy_ms_per_query": 1000.0 * legacy_seconds / NUM_QUERIES,
        "fast_ms_per_query": 1000.0 * fast_seconds / NUM_QUERIES,
        "speedup": speedup,
        "bit_identical": identical,
        "fast_candidates_per_query": (
            sum(result.candidates_examined for result in fast) / NUM_QUERIES
        ),
        "legacy_candidates_per_query": (
            sum(result.candidates_examined for result in legacy) / NUM_QUERIES
        ),
        "overfetch_ratio": (
            sum(result.candidates_examined for result in fast)
            / max(1, sum(result.candidates_examined for result in legacy))
        ),
        "updates": {
            "num_updates": NUM_UPDATES,
            "updates_per_second": NUM_UPDATES / update_seconds,
            "interleaved_query_ms": (
                1000.0 * interleaved_query_seconds / max(interleaved_queries, 1)
            ),
            "session_survived": session_survived,
            "session_reflattens": session.reflattens,
            "bit_identical_after_churn": churn_identical,
            "maintenance": session.maintenance_stats(),
        },
    }
    OUTPUT.write_text(json.dumps(point, indent=2) + "\n")

    print(f"legacy: {legacy_seconds:.3f}s ({point['legacy_ms_per_query']:.2f} ms/query, "
          f"{point['legacy_candidates_per_query']:.0f} cand/query)")
    print(f"fast:   {fast_seconds:.3f}s ({point['fast_ms_per_query']:.2f} ms/query, "
          f"{point['fast_candidates_per_query']:.0f} cand/query)")
    print(f"speedup: {speedup:.1f}x   bit-identical: {identical}   "
          f"over-fetch: {point['overfetch_ratio']:.2f}x")
    print(f"updates: {point['updates']['updates_per_second']:.0f}/s over {NUM_UPDATES} "
          f"interleaved, session survived: {session_survived} "
          f"(reflattens={session.reflattens}), "
          f"bit-identical after churn: {churn_identical}")
    print(f"wrote {OUTPUT}")

    if not identical or not churn_identical:
        print("FAIL: fast-path answers differ from the legacy oracle", file=sys.stderr)
        return 1
    if not session_survived:
        print("FAIL: the serving session reflattened during the update phase",
              file=sys.stderr)
        return 1
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.1f}x below the {MIN_SPEEDUP:g}x acceptance bar",
              file=sys.stderr)
        return 1
    if MAX_OVERFETCH > 0 and point["overfetch_ratio"] > MAX_OVERFETCH:
        print(
            f"FAIL: fast path over-fetches {point['overfetch_ratio']:.2f}x the "
            f"legacy candidates per query (bar: {MAX_OVERFETCH:g}x) — "
            "a verification-bound regression",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
