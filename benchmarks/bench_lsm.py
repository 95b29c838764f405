#!/usr/bin/env python3
"""LSM maintenance benchmark: the layered write path under a write-heavy stream.

Drives the registered ``write_heavy`` workload's deterministic update script
through a default index over a seeded uniform dataset: a bounded mutable
delta over immutable levels, with flushes and tier merges in place of any
stop-the-world rebuild.

Per-update wall times are recorded individually, so maintenance spikes land
in the tail latency rather than vanishing into a mean.  After the stream the
engine answers the workload's read batch, which must be bit-identical to a
sequential-scan oracle over the surviving population; the engine must have
performed zero reflattens, and its epoch manager must hold exactly one live
epoch with no pinned readers.  The layered world's candidate fetches are
reported against a freshly built (single-level) index over the same
surviving population — the over-fetch the layering costs.  A trajectory
point goes to ``BENCH_lsm.json``.

Run with::

    PYTHONPATH=src python benchmarks/bench_lsm.py

Knobs (environment): ``REPRO_BENCH_LSM_POINTS`` (dataset size, default
10000), ``REPRO_BENCH_LSM_UPDATES`` (update-script length, default 10000 —
long enough to drive flushes and tier merges), ``REPRO_BENCH_LSM_QUERIES``
(read batch, default 16).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import SequentialScan  # noqa: E402
from repro.core.sdindex import SDIndex  # noqa: E402
from repro.data.generators import generate_dataset  # noqa: E402
from repro.workloads.registry import build_workload  # noqa: E402

NUM_POINTS = int(os.environ.get("REPRO_BENCH_LSM_POINTS", "10000"))
NUM_UPDATES = int(os.environ.get("REPRO_BENCH_LSM_UPDATES", "10000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_LSM_QUERIES", "16"))
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_lsm.json"


def run_engine(data, script, workload):
    """Apply the update script, timing each op; return (stats, answers)."""
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    # One read before the stream, as a serving engine would see (the session
    # itself is built with the index).
    index.batch_query(workload.reads)
    latencies = np.empty(len(script), dtype=float)
    for i, (op, row, point) in enumerate(script):
        started = time.perf_counter()
        if op == "insert":
            index.insert(point, row_id=row)
        else:
            index.delete(row)
        latencies[i] = time.perf_counter() - started
    index.quiesce_maintenance()
    answers = index.batch_query(workload.reads)
    counters = index.maintenance_stats()
    session = index._aggregator.serving_session()
    stats = {
        "write_p50_us": float(np.percentile(latencies, 50) * 1e6),
        "write_p95_us": float(np.percentile(latencies, 95) * 1e6),
        "write_p99_us": float(np.percentile(latencies, 99) * 1e6),
        "write_max_us": float(latencies.max() * 1e6),
        "reflattens": counters["reflattens"],
        "maintenance": counters,
        "live_epochs": counters["epochs_live"],
        "pinned_readers": session.epochs.pinned_readers,
    }
    return stats, answers


def main() -> int:
    print(
        f"dataset: uniform, {NUM_POINTS} points, 4 dims; "
        f"{NUM_UPDATES} updates then {NUM_QUERIES} reads"
    )
    data = generate_dataset("uniform", NUM_POINTS, 4, seed=0).matrix
    workload = build_workload(
        "write_heavy",
        REPULSIVE,
        ATTRACTIVE,
        num_queries=NUM_QUERIES,
        num_updates=NUM_UPDATES,
        num_dims=4,
        seed=1,
    )
    script = workload.script(range(NUM_POINTS))

    lsm_stats, lsm_answers = run_engine(data, script, workload)

    # Oracle over the surviving population after the full script.
    store = {row: data[row] for row in range(NUM_POINTS)}
    for op, row, point in script:
        if op == "insert":
            store[row] = np.asarray(point, dtype=float)
        else:
            del store[row]
    rows = sorted(store)
    survivors = np.asarray([store[row] for row in rows], dtype=float)
    oracle = SequentialScan(survivors, REPULSIVE, ATTRACTIVE, row_ids=rows)
    expected = oracle.batch_query(workload.reads)
    identical = all(
        got.row_ids == want.row_ids and got.scores == want.scores
        for got, want in zip(lsm_answers, expected)
    )
    # Over-fetch baseline: a fresh single-level index over the survivors.
    fresh_answers = SDIndex.build(
        survivors, repulsive=REPULSIVE, attractive=ATTRACTIVE, row_ids=rows
    ).batch_query(workload.reads)
    lsm_candidates = sum(r.candidates_examined for r in lsm_answers)
    fresh_candidates = sum(r.candidates_examined for r in fresh_answers)

    point = {
        "benchmark": "lsm_maintenance",
        "distribution": "uniform",
        "num_points": NUM_POINTS,
        "num_dims": 4,
        "repulsive": list(REPULSIVE),
        "attractive": list(ATTRACTIVE),
        "num_updates": NUM_UPDATES,
        "num_queries": NUM_QUERIES,
        "lsm": lsm_stats,
        "bit_identical": identical,
        # Layered-vs-fresh verification cost: the LSM world's bound-ordered
        # source visitation and pooled sample thresholds must keep its
        # candidate fetches close to a freshly built single-level index's.
        "lsm_candidates_per_query": lsm_candidates / max(1, len(lsm_answers)),
        "fresh_candidates_per_query": fresh_candidates / max(1, len(fresh_answers)),
        "overfetch_ratio": lsm_candidates / max(1, fresh_candidates),
    }
    OUTPUT.write_text(json.dumps(point, indent=2) + "\n")

    maint = lsm_stats["maintenance"]
    print(
        f"lsm:    p50 {lsm_stats['write_p50_us']:.0f}us  "
        f"p95 {lsm_stats['write_p95_us']:.0f}us  "
        f"max {lsm_stats['write_max_us']:.0f}us  "
        f"({maint['flushes']} flushes, {maint['compactions']} compactions, "
        f"{maint['levels']} levels, {lsm_stats['reflattens']} reflattens)"
    )
    print(f"bit-identical: {identical}   over-fetch vs a fresh index "
          f"{point['overfetch_ratio']:.2f}x")
    print(f"wrote {OUTPUT}")

    if not identical:
        print(
            "FAIL: layered answers differ from the oracle",
            file=sys.stderr,
        )
        return 1
    if lsm_stats["reflattens"] != 0:
        print(
            f"FAIL: the default write path reflattened "
            f"{lsm_stats['reflattens']} time(s) — the LSM engine must never "
            "rebuild stop-the-world",
            file=sys.stderr,
        )
        return 1
    if lsm_stats["live_epochs"] != 1 or lsm_stats["pinned_readers"] != 0:
        print(
            f"FAIL: leaked epochs after quiesce: "
            f"{lsm_stats['live_epochs']} live, "
            f"{lsm_stats['pinned_readers']} pinned readers",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
