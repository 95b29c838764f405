"""The three workloads: ``query_flat``, ``read_under_write`` and ``serve_sharded``.

Each runs through the library's public API only, times whole operations,
verifies every answer it times against :class:`SequentialScan` outside the
timed spans, and returns a :class:`RunResult` holding every end-to-end metric
(``README.md`` in this directory gives the definitions and the reasoning).

Besides its read phases, every workload has the same two probes, so that
each end-to-end metric exists on each workload:

* writes: ``read_under_write`` times its durable writes (a seeded 70/30
  script arriving as a Poisson stream at :data:`WRITE_RATE`) from when they
  were due; the other two apply a write storm of the repository's
  ``write_heavy`` shape (:data:`STORM_WRITES` 70/30 writes back to back) to
  a copy of their read engine, loaded from its snapshot, and time each
  write from call to return;
* persistence: an engine is written to disk (``space_amp``) and restored up
  to a first verified answer (``recover_s``): ``DurableIndex.recover``
  (snapshot plus WAL tail) for ``read_under_write``, after its script;
  ``SDIndex.load``/``ShardedIndex.load`` (snapshot only) of the read engine
  for the others.

``query_flat`` and ``serve_sharded`` run as :data:`ROUNDS` rounds, each with
a slice of every phase, so every metric samples the whole run.

Every timing but the durable writes of ``read_under_write`` is reported at
the host's reference speed (see :class:`harness.HostSpeed`); every report
carries all figures raw as well (``raw``).
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    ATTRACTIVE,
    NUM_DIMS,
    RECOVER_REPEATS,
    REPULSIVE,
    SETUP_REPEATS,
    STREAM_CLOSED,
    STREAM_OPEN,
    STREAM_SAMPLE,
    Accounting,
    HostSpeed,
    Oracle,
    Query,
    RunResult,
    Samples,
    WriteScript,
    apply_write,
    dir_bytes,
    lateness_summary,
    make_query_pool,
    make_rows,
    make_write_script,
    no_leaks,
    peak_rss_mb,
    population_matches,
    normalized_median,
    queries_from_batch,
    scratch_dir,
    settle,
    sub_seed,
    spaced_arrivals,
    timed_setups,
    write_arrivals,
)
from repro import DurableIndex, SDIndex, SDQueryServer, ShardedIndex
from repro.serving.admission import AdmissionError
from repro.serving.coalescer import RequestTimeout
from repro.workloads.workload import make_serving_workload

perf_counter = time.perf_counter

#: Rows of the read-only engine of ``query_flat`` (and the initial rows of
#: ``read_under_write``).
FLAT_ROWS = 50_000
#: Rows of the 2-shard, range-partitioned engine of ``serve_sharded``.
SHARDED_ROWS = 200_000
NUM_SHARDS = 2
#: Distinct queries the closed-loop readers cycle through.  Larger than the
#: kernel's 1024-entry angle caches, so repeats never run warm.
QUERY_POOL = 2048
K_FLAT = (1, 5, 10, 25)
K_SERVE = (1, 5, 10)
#: ``read_under_write``: durable writes per second (70% inserts, Poisson
#: arrivals).
WRITE_RATE = 200
#: ``read_under_write``: a checkpoint after every this many writes (taken on
#: a checkpointer thread while writes go on, as a durable service would);
#: the script ends this many writes after the last one (the WAL tail that
#: recovery replays).
CHECKPOINT_EVERY = 1000
#: ``read_under_write``: one read in this many is pinned and verified.
SAMPLE_EVERY = 16
#: ``query_flat``/``serve_sharded``: writes of the write probe, a storm of
#: the ``write_heavy`` registry workload's shape (70/30 inserts/deletes,
#: applied back to back) at the size ``benchmarks/bench_lsm.py`` replays.
STORM_WRITES = 10_000
#: ``query_flat`` and ``serve_sharded`` run in this many rounds.  A round
#: reads for its share of the run (``serve_sharded``: open loop, then closed
#: loop), applies its slice of the write storm and restores the read
#: engine's snapshot.  The host switches between a fast and a slow state,
#: for a fraction of a second up to minutes at a time, in which the storm's
#: writes run 1.6-1.75x apart, so a phase run once, at one time, lands in a
#: different mix of the two on every run: over ten seeds the write p50 of
#: one storm of 10,000 writes after the reads spread by 0.21-0.31 of its
#: median.
ROUNDS = 10
#: ``query_flat`` restores per round: a snapshot load of its 50k engine
#: takes ~30 ms, so it can afford a larger sample.
FLAT_RESTORES = 3
#: Shares of the run's seconds: ``query_flat`` reads; ``serve_sharded`` open
#: loop and closed loop.  Storm slices and restores come on top.
FLAT_READ_SHARE = 0.9
OPEN_SHARE = 0.75
CLOSED_SHARE = 0.2
#: ``serve_sharded`` open loop: requests per second, with gaps of 37.5-62.5 ms
#: (:func:`harness.spaced_arrivals`).  One answer alone takes ~12 ms (p95
#: ~15 ms) on a 2-core host, so requests do not queue behind each other and
#: the phase stays off the knee.  Batching lifts the closed-loop capacity to
#: 450-650/s, but the coalescer only batches once requests queue: Poisson
#: arrivals at 100/s and 40/s queued, and host slowdowns grew the queue, so
#: the p95 spread by 0.34 and 0.28 of its median over ten seeds.
OPEN_RATE = 20.0
#: ``serve_sharded`` closed loop: requests kept in flight.
OUTSTANDING = 32
NUM_TENANTS = 4
REPEAT_FRACTION = 0.25
#: How strongly each kind of timing follows the host's speed: the power of
#: the slowdown factor (:class:`harness.HostSpeed`) its raw figure moved
#: with across runs (the log-log slope over 20 runs per workload, 40 for
#: ``serve_sharded``, in both host states; correlations 0.78-0.99), rounded
#: to 0.05.  A timing is divided by the factor raised to it.  Dividing by
#: the factor itself over-corrects: in the fast state, ``serve_sharded``'s
#: open-loop p50 then read 28% above its slow-state value.  Open-loop
#: answers wait on the coalescer's tick and the shard threads, which the
#: host's state moves little.  The durable writes of ``read_under_write``
#: are reported raw: they wait mostly behind the reader for the interpreter
#: lock, and that wait grew when the host ran faster (``README.md``, *Known
#: limit*).
SENSITIVITY = {
    "query_flat": {"read": 0.75, "write": 1.0, "restore": 0.9, "setup": 0.7},
    "read_under_write": {"read": 0.85, "restore": 0.85, "setup": 0.65},
    "serve_sharded": {"read": 0.45, "ops": 0.7, "write": 0.85, "restore": 0.95, "setup": 0.65},
}


@dataclass
class Context:
    seed: int
    seconds: int
    tracer: object
    speed: HostSpeed


def _ask(engine, query: Query):
    return engine.query(query.point, k=query.k, alpha=query.alpha, beta=query.beta)


def _closed_loop_rate(reads: Dict[str, float]) -> Tuple[float, float]:
    """Reads per second of one client reading back to back: 1 / mean latency.

    Returns the rate and the same rate from the raw latencies.
    """
    return 1000.0 / reads["mean_ms"], 1000.0 / reads["raw_mean_ms"]


def _write_chunk(engine, ops, samples: Samples, ctx: Context, acct: Accounting) -> None:
    """In-memory writes back to back, each timed from call to return.

    The writes are CPU-bound calls of ~0.1-0.2 ms, so the host's speed
    swings move them almost one for one; the host-speed probes run between
    writes and set aside those that overlap the engine's background
    compaction.
    Returns once that compaction is over, so none of it runs into the next
    phase.
    """
    tracer = ctx.tracer
    ctx.speed.watch_threads()
    tracer.set_phase("write")
    for op in ops:
        ctx.speed.tick()
        with tracer.op("op.write"):
            t0 = perf_counter()
            try:
                apply_write(engine, op)
            except Exception:  # noqa: BLE001 - counted; the gate reports it
                acct.add("write", "error")
                continue
            samples.add(t0, perf_counter() - t0)
        acct.add("write", "ok")
    tracer.set_phase(None)
    _quiesce(engine)


def _quiesce(engine) -> None:
    """Wait until the engine's (or every shard's) background maintenance is done."""
    if isinstance(engine, ShardedIndex):
        for shard in range(engine.num_shards):
            engine.shard(shard).quiesce_maintenance()
    else:
        engine.quiesce_maintenance()


def _chunk(items: Sequence, r: int) -> Sequence:
    """The ``r``-th of :data:`ROUNDS` near-equal consecutive slices of ``items``."""
    return items[r * len(items) // ROUNDS : (r + 1) * len(items) // ROUNDS]


def _restore(
    restore: Callable[[], object],
    query: Query,
    oracle: Oracle,
    ctx: Context,
    acct: Accounting,
    leaks: Callable[[object], Sequence[Dict[str, int]]],
    whole: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    note: Callable[[object], None] = lambda restored: None,
) -> Tuple[float, float]:
    """Restore once, up to a first verified answer.

    With ``whole`` (``(rows, matrix)``) the restored population must equal
    it and its epochs must be drained.  Returns a ``(midpoint, seconds)``
    timing for :func:`normalized_median`.
    """
    ctx.tracer.set_phase("persist")
    settle()
    ctx.speed.watch_threads()
    ctx.speed.around()
    with ctx.tracer.op("op.recover"):
        started = perf_counter()
        restored = restore()
        answer = _ask(restored, query)
        seconds = perf_counter() - started
    ctx.speed.around()
    ctx.tracer.set_phase(None)
    try:
        note(restored)
        ok = oracle.check(query, answer)
        if whole is not None:
            with restored.snapshot() as snap:
                ok = ok and population_matches(snap.frozen(), *whole)
            ok = ok and no_leaks(*leaks(restored))
    finally:
        restored.close()
    acct.add("recover", "ok" if ok else "wrong")
    return started + seconds / 2, seconds


def _space(engine, label: str, script: WriteScript) -> Dict[str, float]:
    """Snapshot the engine at the script's end: bytes on disk per live byte."""
    path = scratch_dir(label) / "snapshot"
    engine.save(path)
    disk = dir_bytes(path)
    return {"space_amp": disk / script.final_matrix.nbytes, "snapshot_bytes": float(disk)}


def _session_leaks(index) -> List[Dict[str, int]]:
    return [index.query_session().epochs.leak_report()]


def _sharded_leaks(engine) -> List[Dict[str, int]]:
    reports = [
        engine.shard(s).serving_session().epochs.leak_report() for s in range(engine.num_shards)
    ]
    # The topology epoch manager has no public accessor; it is read here
    # only to assert that no cross-shard cut was left pinned.
    return reports + [engine._topology.leak_report()]


def _overfetch(answers: Sequence[object]) -> float:
    """Candidates verified per answer row, over answers that matched the oracle."""
    rows = sum(len(answer.matches) for answer in answers)
    return sum(answer.candidates_examined for answer in answers) / rows if rows else 0.0


def _metrics(ctx: Context, sensitivity, reads, ops_s, writes, recover, space_amp: float, setup):
    """Every end-to-end metric, and the same figures unscaled (``raw``).

    ``ops_s`` is ``(reported, raw)``.  The p95 and p99 of reads and writes
    stay in the report beside the metrics, not among them: on a shared
    2-core host their spread over ten seeds exceeded the metrics' bound.
    """
    ops_s, raw_ops_s = ops_s
    speed = ctx.speed
    setup_s = float(np.median(_seconds(setup)))
    metrics = {
        "read_p50_ms": reads["p50_ms"],
        "read_ops_s": ops_s,
        "write_p50_ms": writes["p50_ms"],
        "recover_s": normalized_median(speed, recover, sensitivity["restore"]),
        "space_amp": space_amp,
        "setup_s": normalized_median(speed, setup, sensitivity["setup"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = dict(
        metrics,
        read_p50_ms=reads["raw_p50_ms"],
        read_ops_s=raw_ops_s,
        write_p50_ms=writes["raw_p50_ms"],
        recover_s=float(np.median(_seconds(recover))),
        setup_s=setup_s,
    )
    return metrics, raw


def _seconds(timings: Sequence[Tuple[float, float]]) -> List[float]:
    return [seconds for _stamp, seconds in timings]


def _storm_engine(load: Callable[[object], object], path, query: Query, oracle: Oracle, acct: Accounting):
    """The write storm's engine: a copy of the read engine, loaded from its snapshot.

    The reads keep a read-only engine; the storm writes to this copy.  One
    verified query first materializes its serving session, so the writes
    take the epoch-publish path, as they would on an engine that serves.
    """
    engine = load(path)
    acct.add("state", "ok" if oracle.check(query, _ask(engine, query)) else "wrong")
    return engine


# ----------------------------------------------------------------- query_flat
def query_flat(ctx: Context) -> RunResult:
    """One client, closed loop, single ``SDIndex.query`` calls on a read-only engine.

    The run is :data:`ROUNDS` rounds of reads, then a slice of the write
    storm on a copy of the engine, then :data:`FLAT_RESTORES` restores of
    its snapshot.
    """
    acct = Accounting()
    tracer = ctx.tracer
    data = make_rows(ctx.seed, FLAT_ROWS)
    pool = make_query_pool(ctx.seed, QUERY_POOL, K_FLAT)
    oracle = Oracle(data)

    def make():
        started = perf_counter()
        index = SDIndex.build(data, REPULSIVE, ATTRACTIVE)
        first = _ask(index, pool[0])
        seconds = perf_counter() - started
        acct.add("setup", "ok" if oracle.check(pool[0], first) else "wrong")
        return index, seconds

    index, setup = timed_setups(ctx.speed, make, lambda old: old.close())
    for query in pool:  # the oracle's answers, before the clock starts
        oracle.truth(query)
    snapshot = scratch_dir("flat") / "snapshot"
    index.save(snapshot)
    storm = _storm_engine(SDIndex.load, snapshot, pool[0], oracle, acct)
    script = make_write_script(ctx.seed, data, STORM_WRITES)
    whole = (np.arange(FLAT_ROWS, dtype=np.int64), data)

    sensitivity = SENSITIVITY["query_flat"]
    round_seconds = FLAT_READ_SHARE * ctx.seconds / ROUNDS
    samples = Samples(ctx.speed, sensitivity["read"])
    write_samples = Samples(ctx.speed, sensitivity["write"])
    recover: List[Tuple[float, float]] = []
    verified: List[object] = []
    i = 0
    for r in range(ROUNDS):
        ctx.speed.watch_threads()
        tracer.set_phase("read")
        end = perf_counter() + round_seconds
        while perf_counter() < end:
            ctx.speed.tick()
            query = pool[i % QUERY_POOL]
            i += 1
            with tracer.op("op.read"):
                t0 = perf_counter()
                try:
                    answer = _ask(index, query)
                except Exception:  # noqa: BLE001 - counted; the gate reports it
                    acct.add("read", "error")
                    continue
                t1 = perf_counter()
            samples.add(t1, t1 - t0)
            if oracle.check(query, answer):
                acct.add("read", "ok")
                if tracer.enabled:
                    verified.append(answer)
            else:
                acct.add("read", "wrong")
        tracer.set_phase(None)
        _write_chunk(storm, _chunk(script.ops, r), write_samples, ctx, acct)
        recover += [
            _restore(
                lambda: SDIndex.load(snapshot), pool[0], oracle, ctx, acct, _session_leaks,
                whole=whole if r == attempt == 0 else None,
            )
            for attempt in range(FLAT_RESTORES)
        ]
    reads = samples.summary()
    writes = write_samples.summary()
    acct.add("state", "ok" if no_leaks(*_session_leaks(index)) else "wrong")
    index.close()

    with storm.snapshot() as snap:
        same = population_matches(snap.frozen(), script.final_rows, script.final_matrix)
    acct.add("state", "ok" if same else "wrong")
    disk = _space(storm, "flat-final", script)
    acct.add("state", "ok" if no_leaks(*_session_leaks(storm)) else "wrong")
    storm.close()

    metrics, raw = _metrics(
        ctx, sensitivity, reads, _closed_loop_rate(reads), writes, recover, disk["space_amp"], setup
    )
    return RunResult(
        metrics=metrics,
        accounting=acct,
        report={
            "raw": raw,
            "rows": FLAT_ROWS,
            "rounds": ROUNDS,
            "reads": reads,
            "writes": writes,
            "setup_s": _seconds(setup),
            "recover_s": _seconds(recover),
        },
        layer_inputs={
            "overfetch_ratio": _overfetch(verified),
            "snapshot_bytes": disk["snapshot_bytes"],
        },
    )


# ------------------------------------------------------------ read_under_write
def read_under_write(ctx: Context) -> RunResult:
    """A closed-loop reader against a rate-paced durable writer on one engine."""
    acct = Accounting()
    tracer = ctx.tracer
    data = make_rows(ctx.seed, FLAT_ROWS)
    pool = make_query_pool(ctx.seed, QUERY_POOL, K_FLAT)
    total_writes = WRITE_RATE * ctx.seconds
    script = make_write_script(ctx.seed, data, total_writes)
    checkpoints = set(range(CHECKPOINT_EVERY, total_writes - CHECKPOINT_EVERY + 1, CHECKPOINT_EVERY))
    first_oracle = Oracle(data)
    attempts = iter(range(SETUP_REPEATS))

    def make():
        path = scratch_dir(f"durable-{next(attempts)}")
        started = perf_counter()
        engine = SDIndex.build(data, REPULSIVE, ATTRACTIVE)
        durable = DurableIndex.create(engine, path)
        first = _ask(durable, pool[0])
        seconds = perf_counter() - started
        acct.add("setup", "ok" if first_oracle.check(pool[0], first) else "wrong")
        return (durable, path), seconds

    (durable, path), setup = timed_setups(ctx.speed, make, lambda old: old[0].close())

    done = threading.Event()
    due_checkpoints: "queue.Queue[bool]" = queue.Queue()
    checkpoint_s: List[float] = []
    lateness: List[float] = []
    behind: List[float] = []
    sensitivity = SENSITIVITY["read_under_write"]
    write_samples = Samples()
    arrivals = write_arrivals(ctx.seed, total_writes, ctx.seconds)
    started = perf_counter()

    def checkpointer() -> None:
        """Takes each checkpoint the writer asks for, while writes go on."""
        while due_checkpoints.get():
            with tracer.op("op.checkpoint"), ctx.speed.busy():
                t0 = perf_counter()
                try:
                    durable.checkpoint()
                except Exception:  # noqa: BLE001 - counted; the gate reports it
                    acct.add("checkpoint", "error")
                    continue
                checkpoint_s.append(perf_counter() - t0)
            acct.add("checkpoint", "ok")

    def writer() -> None:
        try:
            for i, op in enumerate(script.ops):
                due = started + arrivals[i]
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness.append(perf_counter() - due)
                with tracer.op("op.write"), ctx.speed.busy():
                    try:
                        apply_write(durable, op)
                    except Exception:  # noqa: BLE001 - counted; the gate reports it
                        acct.add("write", "error")
                        continue
                    write_samples.add(due, perf_counter() - due)
                acct.add("write", "ok")
                if i + 1 in checkpoints:
                    due_checkpoints.put(True)
            behind.append(perf_counter() - (started + arrivals[-1]))
        finally:
            due_checkpoints.put(False)
            done.set()

    sample = np.random.default_rng(sub_seed(ctx.seed, STREAM_SAMPLE))
    read_samples = Samples(ctx.speed, sensitivity["read"])
    verified: List[object] = []
    tracer.set_phase("mixed")
    threads = [
        threading.Thread(target=checkpointer, name="perfbench-checkpointer"),
        threading.Thread(target=writer, name="perfbench-writer"),
    ]
    for thread in threads:
        thread.start()
    i = 0
    while not done.is_set():
        ctx.speed.tick()
        query = pool[i % QUERY_POOL]
        i += 1
        pinned = sample.random() * SAMPLE_EVERY < 1.0
        snap = None
        with tracer.op("op.read"):
            t0 = perf_counter()
            try:
                if pinned:
                    snap = durable.snapshot()
                    answer = _ask(snap, query)
                else:
                    answer = _ask(durable, query)
            except Exception:  # noqa: BLE001 - counted; the gate reports it
                acct.add("read", "error")
                if snap is not None:
                    snap.close()
                continue
            t1 = perf_counter()
        read_samples.add(t1, t1 - t0)
        if snap is None:
            acct.add("read", "ok")
            continue
        try:
            rows, matrix = snap.frozen()
        finally:
            snap.close()
        if Oracle(matrix, rows).check(query, answer):
            acct.add("read", "ok")
            verified.append(answer)
        else:
            acct.add("read", "wrong")
    for thread in threads:
        thread.join()
    tracer.set_phase(None)
    reads = read_samples.summary()
    writes = write_samples.summary()

    with durable.snapshot() as snap:
        same = population_matches(snap.frozen(), script.final_rows, script.final_matrix)
    acct.add("state", "ok" if same else "wrong")
    acct.add("state", "ok" if no_leaks(*_session_leaks(durable)) else "wrong")
    current = path / (path / "CURRENT").read_text(encoding="utf-8").strip()
    snapshot_bytes = dir_bytes(current)
    space_amp = dir_bytes(path) / (len(script.final_rows) * NUM_DIMS * 8)
    durable.close()

    replayed: List[int] = []
    final_oracle = Oracle(script.final_matrix, script.final_rows)
    recover = [
        _restore(
            lambda: DurableIndex.recover(path), pool[0], final_oracle, ctx, acct, _session_leaks,
            whole=(script.final_rows, script.final_matrix) if attempt == 0 else None,
            note=lambda restored: replayed.append(restored.last_recovery["replayed"]),
        )
        for attempt in range(RECOVER_REPEATS)
    ]

    metrics, raw = _metrics(
        ctx, sensitivity, reads, _closed_loop_rate(reads), writes, recover, space_amp, setup
    )
    return RunResult(
        metrics=metrics,
        accounting=acct,
        report={
            "raw": raw,
            "rows": FLAT_ROWS,
            "reads": reads,
            "reads_verified": len(verified),
            "writes": writes,
            "writes_scripted": total_writes,
            "writer_lateness": lateness_summary(lateness),
            "writer_behind_at_end_ms": 1000.0 * behind[0] if behind else None,
            "checkpoints_s": checkpoint_s,
            "replayed_records": replayed,
            "setup_s": _seconds(setup),
            "recover_s": _seconds(recover),
        },
        layer_inputs={
            "overfetch_ratio": _overfetch(verified),
            "snapshot_bytes": float(snapshot_bytes),
        },
    )


# --------------------------------------------------------------- serve_sharded
def serve_sharded(ctx: Context) -> RunResult:
    return asyncio.run(_serve_sharded(ctx))


def _serving_requests(seed: int, stream: int, count: int):
    workload = make_serving_workload(
        REPULSIVE,
        ATTRACTIVE,
        num_requests=count,
        target_rate=OPEN_RATE,
        k=K_SERVE,
        num_tenants=NUM_TENANTS,
        repeat_fraction=REPEAT_FRACTION,
        num_dims=NUM_DIMS,
        seed=sub_seed(seed, stream),
    )
    return queries_from_batch(workload.reads), workload.arrival_offsets, workload.tenants


async def _submit(server, query: Query, tenant: str, acct: Accounting, answers: list) -> bool:
    """One request; True when it was answered (ok or degraded)."""
    try:
        served = await server.submit(
            query.point, k=query.k, alpha=query.alpha, beta=query.beta, tenant=tenant
        )
    except AdmissionError:
        acct.add("read", "rejected")
        return False
    except RequestTimeout:
        acct.add("read", "timeout")
        return False
    except Exception:  # noqa: BLE001 - counted; the gate reports it
        acct.add("read", "error")
        return False
    if served.degraded:
        acct.add("read", "degraded")
    else:
        answers.append((query, served.result))
    return True


async def _serve_sharded(ctx: Context) -> RunResult:
    acct = Accounting()
    tracer = ctx.tracer
    speed = ctx.speed
    data = make_rows(ctx.seed, SHARDED_ROWS)
    open_seconds = OPEN_SHARE * ctx.seconds
    closed_seconds = CLOSED_SHARE * ctx.seconds / ROUNDS
    opened, _offsets, tenants = _serving_requests(
        ctx.seed, STREAM_OPEN, int(round(OPEN_RATE * open_seconds))
    )
    offsets = spaced_arrivals(ctx.seed, len(opened), OPEN_RATE)
    # Three times the measured closed-loop capacity; a faster engine that
    # runs out wraps around (reported as ``closed.wrapped``).
    closed_pool, _offsets, _tenants = _serving_requests(
        ctx.seed, STREAM_CLOSED, int(1500 * CLOSED_SHARE * ctx.seconds) + OUTSTANDING
    )
    warm = opened[0]
    oracle = Oracle(data)

    setup: List[Tuple[float, float]] = []
    index = server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            await server.close()
            index.close()
        settle()
        speed.around()
        started = perf_counter()
        index = SDIndex.build_sharded(
            data, REPULSIVE, ATTRACTIVE, num_shards=NUM_SHARDS, partitioner="range"
        )
        server = SDQueryServer(index)
        served = await server.submit(warm.point, k=warm.k, alpha=warm.alpha, beta=warm.beta)
        seconds = perf_counter() - started
        setup.append((started + seconds / 2, seconds))
        speed.around()
        acct.add("setup", "ok" if oracle.check(warm, served.result) else "wrong")
    tracer.watch_sharded(index)
    batches_before = dict(server.coalescer.batch_sizes)
    snapshot = scratch_dir("sharded") / "snapshot"
    index.save(snapshot)
    storm = _storm_engine(ShardedIndex.load, snapshot, warm, oracle, acct)
    script = make_write_script(ctx.seed, data, STORM_WRITES)
    whole = (np.arange(SHARDED_ROWS, dtype=np.int64), data)

    answers: list = []
    lateness: List[float] = []
    sensitivity = SENSITIVITY["serve_sharded"]
    open_samples = Samples(sensitivity=sensitivity["read"])
    write_samples = Samples(speed, sensitivity["write"])
    recover: List[Tuple[float, float]] = []
    backlog = 0
    drain_ms: List[float] = []
    issued = 0
    completed = 0
    # Per round: its host-speed factor, open-loop answers, closed-loop
    # answers and seconds.
    rounds: List[Dict[str, float]] = []

    async def arrive(j: int, due: float) -> None:
        with tracer.op("op.read"):
            if await _submit(server, opened[j], tenants[j % len(tenants)], acct, answers):
                open_samples.add(due, perf_counter() - due)

    async def client(end: float) -> None:
        nonlocal issued, completed
        while perf_counter() < end:
            j = issued
            issued += 1
            with tracer.op("op.read"):
                query = closed_pool[j % len(closed_pool)]
                if await _submit(server, query, tenants[j % len(tenants)], acct, answers):
                    completed += 1

    for r in range(ROUNDS):
        # Probes bracket each serving phase while no request is in flight;
        # with the storm's and the restore's they scale the round.
        round_start = perf_counter()
        answered = len(open_samples.values)
        done = completed
        speed.watch_threads()
        speed.around()

        # Open loop: this round's slice of the schedule, from now on;
        # latency from arrival.
        tracer.set_phase("open")
        tasks = []
        base = perf_counter()
        first = None
        for j in _chunk(range(len(opened)), r):
            first = offsets[j] if first is None else first
            due = base + float(offsets[j] - first)
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(perf_counter() - due)
            tasks.append(asyncio.create_task(arrive(j, due)))
        schedule_end = perf_counter()
        backlog += sum(1 for task in tasks if not task.done())
        await asyncio.gather(*tasks)
        drain_ms.append(1000.0 * (perf_counter() - schedule_end))

        speed.around()

        # Closed loop: a fixed number of requests always in flight.
        tracer.set_phase("closed")
        started = perf_counter()
        await asyncio.gather(*(client(started + closed_seconds) for _ in range(OUTSTANDING)))
        closed = perf_counter() - started
        tracer.set_phase(None)
        speed.around()

        # Nothing is in flight: the server's threads idle while the event
        # loop writes and restores.
        _write_chunk(storm, _chunk(script.ops, r), write_samples, ctx, acct)
        recover.append(
            _restore(
                lambda: ShardedIndex.load(snapshot), warm, oracle, ctx, acct, _sharded_leaks,
                whole=whole if r == 0 else None,
            )
        )
        rounds.append(
            {
                "factor": speed.span_factor(round_start, perf_counter()),
                "open_answers": len(open_samples.values) - answered,
                "closed_answers": completed - done,
                "closed_seconds": closed,
            }
        )
    reads = open_samples.summary(
        np.repeat([x["factor"] for x in rounds], [x["open_answers"] for x in rounds])
    )
    writes = write_samples.summary()
    closed_time = sum(x["closed_seconds"] for x in rounds)
    ops_s = (
        completed / sum(x["closed_seconds"] / x["factor"] ** sensitivity["ops"] for x in rounds),
        completed / closed_time,
    )
    coalescer = server.coalescer.stats()
    batch_sizes = {
        size: count - batches_before.get(size, 0)
        for size, count in server.coalescer.batch_sizes.items()
    }
    await server.close()

    verified = []
    for query, answer in answers:
        if oracle.check(query, answer):
            acct.add("read", "ok")
            verified.append(answer)
        else:
            acct.add("read", "wrong")
    acct.add("state", "ok" if no_leaks(*_sharded_leaks(index)) else "wrong")
    index.close()

    with storm.snapshot() as snap:
        same = population_matches(snap.frozen(), script.final_rows, script.final_matrix)
    acct.add("state", "ok" if same else "wrong")
    disk = _space(storm, "sharded-final", script)
    acct.add("state", "ok" if no_leaks(*_sharded_leaks(storm)) else "wrong")
    storm.close()

    batches = sum(batch_sizes.values())
    metrics, raw = _metrics(ctx, sensitivity, reads, ops_s, writes, recover, disk["space_amp"], setup)
    return RunResult(
        metrics=metrics,
        accounting=acct,
        report={
            "raw": raw,
            "rows": SHARDED_ROWS,
            "rounds": ROUNDS,
            "open": {
                "rate": OPEN_RATE,
                "scheduled": len(offsets),
                "reads": reads,
                "generator_lateness": lateness_summary(lateness),
                "backlog_at_schedule_end": backlog,
                "drain_ms_max": max(drain_ms),
            },
            "closed": {
                "outstanding": OUTSTANDING,
                "issued": issued,
                "completed": completed,
                "seconds": closed_time,
                "wrapped": issued > len(closed_pool),
            },
            "round_factors": [x["factor"] for x in rounds],
            "closed_ops_s_by_round": [x["closed_answers"] / x["closed_seconds"] for x in rounds],
            "coalescer": coalescer,
            "writes": writes,
            "setup_s": _seconds(setup),
            "recover_s": _seconds(recover),
        },
        layer_inputs={
            "overfetch_ratio": _overfetch(verified),
            "snapshot_bytes": disk["snapshot_bytes"],
            "batch_size_mean": (
                sum(size * count for size, count in batch_sizes.items()) / batches if batches else 0.0
            ),
        },
    )


WORKLOADS = {
    "query_flat": query_flat,
    "read_under_write": read_under_write,
    "serve_sharded": serve_sharded,
}
