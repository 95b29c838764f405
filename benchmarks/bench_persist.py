#!/usr/bin/env python3
"""Persistence benchmark: warm starts, WAL replay and checkpoint-under-load.

What a restart costs is the whole reason the persistence subsystem exists
(DESIGN.md section 7), so this benchmark measures exactly that:

* **Cold rebuild vs snapshot load vs mmap load.**  Building the SD-Index from
  the raw matrix lays out each dimension pair's flat view straight from
  sorted arrays (no projection tree is built) and computes every leaf's
  per-angle bounds from the points; loading a snapshot reads the stored
  bounds back and rebuilds the rest of the serving arrays with gathers and
  scatters (no tree either: neither serving nor WAL replay needs the legacy
  pair trees); ``load(mmap=True)`` maps the one data file and touches pages
  on demand.  All three must answer the probe batch bit-identically — the
  speedups are only reported if the answers match.
* **WAL replay throughput.**  A recovery is a snapshot load plus a replay of
  the journaled tail; ops/second of the replay bounds how much un-checkpointed
  history a deployment can afford.  Reported both as pure replay rate (from
  ``last_recovery``) and end-to-end recovery wall time.
* **Checkpoint under write load.**  A checkpoint pins an epoch and streams
  while writers keep running; the metric that proves the design is the read
  latency impact: p50/p95 of serving batches with checkpoints streaming in a
  loop versus an idle baseline.

Run with::

    PYTHONPATH=src python benchmarks/bench_persist.py

Knobs (environment): ``REPRO_BENCH_PERSIST_POINTS`` (dataset size, default
50000), ``REPRO_BENCH_PERSIST_QUERIES`` (probe batch size, default 32),
``REPRO_BENCH_PERSIST_OPS`` (WAL ops journaled, default 2000),
``REPRO_BENCH_PERSIST_BATCHES`` (read batches per latency run, default 30),
``REPRO_BENCH_PERSIST_MIN_SPEEDUP`` (exit-1 bar on snapshot-load vs cold
rebuild, default 2.0; set to 0 on noisy shared runners to gate on
correctness only).  Writes ``BENCH_persist.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.persistence import DurableIndex  # noqa: E402
from repro.core.sdindex import SDIndex  # noqa: E402
from repro.data.generators import generate_dataset  # noqa: E402

NUM_POINTS = int(os.environ.get("REPRO_BENCH_PERSIST_POINTS", "50000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_PERSIST_QUERIES", "32"))
NUM_OPS = int(os.environ.get("REPRO_BENCH_PERSIST_OPS", "2000"))
NUM_BATCHES = int(os.environ.get("REPRO_BENCH_PERSIST_BATCHES", "30"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_PERSIST_MIN_SPEEDUP", "2.0"))
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_persist.json"

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4


def answers_of(engine, queries, ks):
    batch = engine.batch_query(queries, k=ks)
    return [
        [(m.row_id, m.score) for m in result.matches] for result in batch.results
    ]


def main() -> int:
    rng = np.random.default_rng(0)
    data = generate_dataset("uniform", NUM_POINTS, NUM_DIMS, seed=0).matrix
    queries = rng.random((NUM_QUERIES, NUM_DIMS))
    ks = rng.integers(1, 11, size=NUM_QUERIES)
    workdir = Path(tempfile.mkdtemp(prefix="bench-persist-"))
    report = {
        "config": {
            "num_points": NUM_POINTS,
            "num_queries": NUM_QUERIES,
            "num_wal_ops": NUM_OPS,
            "num_batches": NUM_BATCHES,
        }
    }
    failures = []
    try:
        # ---------------------------------------------- cold build vs loads
        started = time.perf_counter()
        index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        baseline = answers_of(index, queries, ks)
        cold_seconds = time.perf_counter() - started

        started = time.perf_counter()
        index.save(workdir / "snap")
        save_seconds = time.perf_counter() - started

        started = time.perf_counter()
        loaded = SDIndex.load(workdir / "snap")
        full_answers = answers_of(loaded, queries, ks)
        full_load_seconds = time.perf_counter() - started

        started = time.perf_counter()
        mapped = SDIndex.load(workdir / "snap", mmap=True)
        mmap_answers = answers_of(mapped, queries, ks)
        mmap_load_seconds = time.perf_counter() - started

        if full_answers != baseline:
            failures.append("full snapshot load answers diverged")
        if mmap_answers != baseline:
            failures.append("mmap snapshot load answers diverged")

        report["warm_start"] = {
            "cold_build_seconds": cold_seconds,
            "snapshot_save_seconds": save_seconds,
            "snapshot_load_seconds": full_load_seconds,
            "mmap_load_seconds": mmap_load_seconds,
            "load_speedup_vs_cold": cold_seconds / full_load_seconds,
            "mmap_speedup_vs_cold": cold_seconds / mmap_load_seconds,
            "bit_identical": not failures,
        }
        print(
            f"warm start ({NUM_POINTS} pts): cold build+first-batch "
            f"{cold_seconds:.2f}s, save {save_seconds:.2f}s, load "
            f"{full_load_seconds:.2f}s ({cold_seconds / full_load_seconds:.1f}x), "
            f"mmap load {mmap_load_seconds:.2f}s "
            f"({cold_seconds / mmap_load_seconds:.1f}x), bit-identical="
            f"{not failures}"
        )

        # ------------------------------------------------ WAL replay throughput
        durable = DurableIndex.create(loaded, workdir / "dur", fsync="os")
        live = list(range(NUM_POINTS))
        append_started = time.perf_counter()
        for step in range(NUM_OPS):
            if step % 4 == 3:
                durable.delete(live.pop(step % len(live)))
            else:
                durable.insert(rng.random(NUM_DIMS))
        append_seconds = time.perf_counter() - append_started
        expected = answers_of(durable, queries, ks)
        durable.close()

        recover_started = time.perf_counter()
        recovered = DurableIndex.recover(workdir / "dur", fsync="os")
        recover_seconds = time.perf_counter() - recover_started
        replay = recovered.last_recovery
        if answers_of(recovered, queries, ks) != expected:
            failures.append("post-replay answers diverged")
        recovered.close()
        report["wal"] = {
            "ops_journaled": NUM_OPS,
            "append_ops_per_second": NUM_OPS / append_seconds,
            "replayed": replay["replayed"],
            "replay_seconds": replay["replay_seconds"],
            "replay_ops_per_second": replay["replayed"]
            / max(replay["replay_seconds"], 1e-9),
            "recover_wall_seconds": recover_seconds,
        }
        print(
            f"WAL: journaled {NUM_OPS} ops at "
            f"{NUM_OPS / append_seconds:,.0f} ops/s, replayed "
            f"{replay['replayed']} in {replay['replay_seconds']:.2f}s "
            f"({report['wal']['replay_ops_per_second']:,.0f} ops/s), "
            f"recovery wall {recover_seconds:.2f}s"
        )

        # --------------------------------------- checkpoint-under-load latency
        def read_latencies(engine, stop_event=None):
            latencies = []
            for _ in range(NUM_BATCHES):
                started = time.perf_counter()
                engine.batch_query(queries, k=ks)
                latencies.append(time.perf_counter() - started)
            if stop_event is not None:
                stop_event.set()
            return latencies

        fresh = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(fresh, workdir / "latency", fsync="os")
        durable.batch_query(queries, k=ks)  # warm the session
        idle = read_latencies(durable)

        stop = threading.Event()
        checkpoints = {"count": 0}

        def checkpoint_storm():
            while not stop.is_set():
                durable.insert(rng.random(NUM_DIMS))
                durable.checkpoint()
                checkpoints["count"] += 1

        storm = threading.Thread(target=checkpoint_storm)
        storm.start()
        under_load = read_latencies(durable, stop)
        storm.join()
        durable.close()

        def pct(values, q):
            return float(np.percentile(np.asarray(values), q))

        report["checkpoint_under_load"] = {
            "checkpoints_streamed": checkpoints["count"],
            "idle_p50_ms": 1000 * statistics.median(idle),
            "idle_p95_ms": 1000 * pct(idle, 95),
            "under_load_p50_ms": 1000 * statistics.median(under_load),
            "under_load_p95_ms": 1000 * pct(under_load, 95),
            "p95_impact": pct(under_load, 95) / pct(idle, 95),
        }
        print(
            f"checkpoint under load: {checkpoints['count']} checkpoints "
            f"streamed; read p95 {1000 * pct(idle, 95):.1f} ms idle -> "
            f"{1000 * pct(under_load, 95):.1f} ms under load "
            f"({report['checkpoint_under_load']['p95_impact']:.2f}x)"
        )

        # ------------------------------------------------------------- gates
        report["gates"] = {
            "min_load_speedup": MIN_SPEEDUP,
            "load_speedup": report["warm_start"]["load_speedup_vs_cold"],
            "failures": failures,
        }
        if MIN_SPEEDUP > 0 and report["warm_start"]["load_speedup_vs_cold"] < MIN_SPEEDUP:
            failures.append(
                f"snapshot load speedup "
                f"{report['warm_start']['load_speedup_vs_cold']:.2f}x "
                f"below the {MIN_SPEEDUP:.2f}x bar"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {OUTPUT}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
