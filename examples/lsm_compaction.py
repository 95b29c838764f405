#!/usr/bin/env python3
"""LSM maintenance quickstart: serve exact answers through a compaction storm.

The default SD-Index session is LSM-structured (DESIGN.md section 11): writes
append to a small mutable delta, a background compactor folds full deltas into
immutable levels and merges levels tier by tier, and every structure change is
one atomic epoch publication — so readers never wait on maintenance and the
write path never stops the world to reflatten.

This script builds an index with deliberately aggressive maintenance knobs,
hammers it with an insert/delete storm from a writer thread while the main
thread keeps serving queries, and shows that

* every answer during the storm is bit-identical to a brute-force scan of a
  pinned snapshot (exactness is never traded for availability),
* read latency stays flat while flushes and tier merges churn underneath,
* the structure the storm leaves behind is a handful of bounded levels, not
  one monolithic rebuild.

Run with:  PYTHONPATH=src python examples/lsm_compaction.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import SDIndex, SDQuery
from repro.baselines import SequentialScan

REPULSIVE = [0, 1]
ATTRACTIVE = [2, 3]


def main() -> None:
    rng = np.random.default_rng(42)
    data = rng.random((20_000, 4))

    print("Building the SD-Index (LSM maintenance, background compaction) ...")
    index = SDIndex.build(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        # Tiny flush/fanout so the 60k-update storm below produces hundreds
        # of flushes and dozens of tier merges in a few seconds.  Production
        # defaults are flush_rows=256, fanout=4.
        flush_rows=64,
        fanout=2,
        background_compaction=True,
    )
    print("  compaction policy: size-tiered (flush_rows=64, fanout=2)\n")

    # --- the write storm ------------------------------------------------------
    storm_rounds = 300
    stop = threading.Event()
    storm_error: list[BaseException] = []

    def write_storm() -> None:
        storm_rng = np.random.default_rng(7)
        next_row = len(data)
        try:
            for _ in range(storm_rounds):
                if stop.is_set():
                    return
                burst = storm_rng.random((100, 4))
                ids = index.bulk_insert(burst)
                # Delete most of the burst again: delta-absorbed deletes plus
                # level tombstones, the traffic shape compaction exists for.
                index.bulk_delete(ids[: 80])
                next_row += len(ids)
        except BaseException as error:  # surfaced after the join
            storm_error.append(error)

    writer = threading.Thread(target=write_storm, name="write-storm")

    # --- serve while it rages -------------------------------------------------
    query = SDQuery.simple(data[17], REPULSIVE, ATTRACTIVE, k=10)
    latencies = []
    checked = 0

    print(f"Serving queries while {storm_rounds * 100} inserts and "
          f"{storm_rounds * 80} deletes land ...")
    writer.start()
    while writer.is_alive():
        started = time.perf_counter()
        result = index.query(query)
        latencies.append(time.perf_counter() - started)

        # Every 25th read, verify exactness against a brute-force scan of a
        # pinned snapshot — the snapshot holds one epoch still, so the scan
        # and the indexed answer see the same world even mid-flush.
        if len(latencies) % 25 == 0:
            with index.snapshot() as snapshot:
                rows, matrix = snapshot.frozen()
                oracle = SequentialScan(
                    matrix, REPULSIVE, ATTRACTIVE, row_ids=rows
                ).query(query)
                pinned = snapshot.query(query)
            assert pinned.same_scores(oracle), "answer diverged mid-storm!"
            checked += 1
    writer.join()
    if storm_error:
        raise storm_error[0]

    # Join any still-running compactor, then force the remaining backlog
    # through so the final structure below is quiescent.
    index.quiesce_maintenance()
    index.lsm_maintain()

    # --- what the storm left behind -------------------------------------------
    stats = index.maintenance_stats()
    lat_ms = 1000.0 * np.asarray(latencies)
    print(f"\nServed {len(latencies)} queries during the storm "
          f"({checked} spot-checked against the exact scan):")
    print(f"  read latency p50 {np.percentile(lat_ms, 50):.2f} ms, "
          f"p95 {np.percentile(lat_ms, 95):.2f} ms, "
          f"max {lat_ms.max():.2f} ms")
    print(f"  {stats['flushes']} delta flushes, "
          f"{stats['compactions']} tier merges, "
          f"{stats['reflattens']} stop-the-world reflattens")
    print(f"  final structure: {stats['levels']} level(s), "
          f"{stats['delta_live']} rows still in the delta, "
          f"{stats['live_rows']} rows live\n")

    # --- and the answers are still exact --------------------------------------
    with index.snapshot() as snapshot:
        rows, matrix = snapshot.frozen()
        oracle = SequentialScan(matrix, REPULSIVE, ATTRACTIVE, row_ids=rows)
        final = index.query(query)
        assert final.same_scores(oracle.query(query))
    print("Final answer matches the exact sequential scan. "
          "Maintenance never cost a single wrong result.")


if __name__ == "__main__":
    main()
