"""Chaos suite: seeded fault storms over the serving stack (DESIGN.md §9).

Every test here installs a :class:`repro.faults.FaultPlane` and asserts the
fault-domain contract end to end:

* **Availability.** Under a single-shard storm, requests keep succeeding —
  retried to a full answer or degraded to an explicitly partial one.
* **Soundness.** A non-degraded response is bit-identical to the sequential
  oracle; a degraded one reports its shard coverage and a ``score_bound``
  that dominates every score the answer could possibly be missing.
* **Cleanliness.** No storm leaks an epoch pin, poisons the cache with a
  partial answer, or leaves a breaker wedged after the fault clears.

Storms are seeded, breaker clocks are hand-stepped and retry sleeps are
no-ops, so every test is fast and replays exactly.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import faults
from repro.baselines.sequential import SequentialScan
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.faults import FaultPlane, FaultRule, InjectedFault
from repro.serving.breaker import ResiliencePolicy, RetryPolicy
from repro.serving.cache import ResultCache
from repro.serving.coalescer import TickCoalescer

pytestmark = pytest.mark.chaos

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4
NUM_SHARDS = 4


class FakeClock:
    def __init__(self, start: float = 50.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


class SteppingClock:
    """Advances a fixed step on every read: deadlines expire mid-serve."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = float(step)

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _dataset(seed: int = 42, rows: int = 240):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(rows, NUM_DIMS))


def _engine(data, policy=None, **kwargs):
    return ShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=NUM_SHARDS,
        resilience=policy,
        **kwargs,
    )


def _policy(**overrides):
    """A fast deterministic policy: zero-jitter retries, no real sleeping."""
    defaults = dict(
        retry=RetryPolicy(max_attempts=3, jitter=0.0, base_backoff=0.0),
        failure_threshold=5,
        reset_timeout=1.0,
        degrade=True,
        sleep=lambda _s: None,
    )
    defaults.update(overrides)
    return ResiliencePolicy(**defaults)


def _queries(seed: int, count: int, k: int = 5):
    rng = np.random.default_rng(seed)
    return [
        SDQuery.simple(
            point=rng.uniform(0, 1, size=NUM_DIMS),
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            k=k,
            alpha=rng.uniform(0.1, 1.0, size=2),
            beta=rng.uniform(0.1, 1.0, size=2),
        )
        for _ in range(count)
    ]


def _score_table(data, query, row_ids=None):
    """Every live row's exact score for ``query``, as ``{row: score}``."""
    oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE, row_ids=row_ids)
    full = oracle.query(query.with_k(len(data)))
    return dict(zip(full.row_ids, full.scores))


def _assert_sound(result, query, data, row_ids=None) -> None:
    """The degraded-response contract (DESIGN.md §9).

    Returned scores are exact, and every oracle top-k row the answer is
    missing scores no better than the reported conservative bound.
    """
    assert result.degraded
    coverage = result.coverage
    assert coverage is not None
    assert coverage.skipped
    assert 0.0 <= coverage.covered_fraction < 1.0
    table = _score_table(data, query, row_ids=row_ids)
    for match in result.matches:
        assert table[match.row_id] == match.score  # exact, never fabricated
    top = sorted(table.items(), key=lambda item: (-item[1], item[0]))
    returned = set(result.row_ids)
    for row, score in top[: query.k]:
        if row not in returned:
            assert score <= coverage.score_bound + 1e-12, (
                f"missing row {row} scores {score} above the reported "
                f"bound {coverage.score_bound}"
            )


def _assert_drained(engine: ShardedIndex) -> None:
    topology = engine._topology.leak_report()
    assert topology["pinned_readers"] == 0
    for shard in engine._shards:
        report = shard.serving_session().epochs.leak_report()
        assert report["pinned_readers"] == 0, report


# ------------------------------------------------------------- probe storms
class TestShardProbeStorms:
    def test_full_storm_on_one_shard_degrades_soundly(self):
        """Shard 1 hard down ("shard.probe" raises every time): every answer
        is explicitly partial, covers the other shards, and bounds the gap."""
        data = _dataset()
        clock = FakeClock()
        engine = _engine(data, _policy(failure_threshold=3, clock=clock))
        queries = _queries(seed=1, count=8)
        plane = FaultPlane([FaultRule("shard.probe", key=1)], seed=7)
        try:
            with faults.fault_plane(plane):
                for query in queries:
                    result = engine.query(query)
                    _assert_sound(result, query, data)
                    assert {s for s, _ in result.coverage.skipped} == {1}
                    assert result.coverage.probed == (0, 2, 3)
            stats = engine.breaker_stats()
            assert stats[1]["state"] == "open"
            assert all(stats[s]["state"] == "closed" for s in (0, 2, 3))
            reasons = {r for _, r in result.coverage.skipped}
            assert reasons <= {"fault", "breaker_open"}
            # Storm over, breaker reset elapsed: bit-identical serving resumes.
            clock.advance(1.5)
            for query in queries:
                healed = engine.query(query)
                assert not healed.degraded
                expect = SequentialScan(data, REPULSIVE, ATTRACTIVE).query(query)
                assert healed.row_ids == expect.row_ids
                assert healed.scores == expect.scores
            assert engine.breaker_stats()[1]["state"] == "closed"
            _assert_drained(engine)
        finally:
            engine.close()

    def test_degraded_score_bound_sound_with_tightened_bounds(self):
        """``ShardCoverage.score_bound`` stays sound under PR 10's tightened
        per-shard upper bounds, including at ~1e10 coordinate magnitudes
        where the ``_MAGNITUDE_SLACK`` term dominates float rounding.  The
        bound comes straight from the skipped shard's (now much tighter)
        leaf bounds — tighter must never mean "below a missing row's true
        score"."""
        for scale in (1.0, 1e10):
            data = _dataset(seed=21) * scale
            clock = FakeClock()
            engine = _engine(data, _policy(failure_threshold=3, clock=clock))
            rng = np.random.default_rng(3)
            queries = [
                SDQuery.simple(
                    point=rng.uniform(0, scale, size=NUM_DIMS),
                    repulsive=REPULSIVE,
                    attractive=ATTRACTIVE,
                    k=5,
                    alpha=rng.uniform(0.1, 1.0, size=2),
                    beta=rng.uniform(0.1, 1.0, size=2),
                )
                for _ in range(6)
            ]
            plane = FaultPlane([FaultRule("shard.probe", key=2)], seed=13)
            try:
                with faults.fault_plane(plane):
                    for query in queries:
                        result = engine.query(query)
                        _assert_sound(result, query, data)
                        assert {s for s, _ in result.coverage.skipped} == {2}
                _assert_drained(engine)
            finally:
                engine.close()

    def test_intermittent_storm_availability_is_total(self):
        """A flaky shard (45% probe failure) never errors a request: retries
        recover most answers bit-identically, the rest degrade soundly."""
        data = _dataset(seed=5)
        engine = _engine(
            data, _policy(failure_threshold=10_000)  # isolate retry/degrade
        )
        oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
        queries = _queries(seed=2, count=40)
        plane = FaultPlane(
            [FaultRule("shard.probe", rate=0.45, key=1)], seed=11
        )
        served = degraded = 0
        try:
            with faults.fault_plane(plane):
                for query in queries:
                    result = engine.query(query)  # never raises: availability
                    served += 1
                    if result.degraded:
                        degraded += 1
                        _assert_sound(result, query, data)
                    else:
                        expect = oracle.query(query)
                        assert result.row_ids == expect.row_ids
                        assert result.scores == expect.scores
            assert served == len(queries)
            assert plane.total_injections() > 0
            assert degraded < served  # retries recovered at least some storms
            _assert_drained(engine)
        finally:
            engine.close()

    def test_same_seed_replays_the_same_storm(self):
        data = _dataset(seed=5)

        def run(seed: int):
            engine = _engine(data, _policy(failure_threshold=10_000))
            plane = FaultPlane(
                [FaultRule("shard.probe", rate=0.4, key=1)], seed=seed
            )
            try:
                with faults.fault_plane(plane):
                    outcomes = tuple(
                        engine.query(q).degraded for q in _queries(3, 12)
                    )
                return outcomes, plane.total_injections()
            finally:
                engine.close()

        assert run(21) == run(21)

    def test_without_policy_faults_propagate_failfast(self):
        """The legacy contract: no resilience policy, no degradation."""
        data = _dataset()
        engine = _engine(data, policy=None)
        plane = FaultPlane([FaultRule("shard.probe", key=0)])
        try:
            with faults.fault_plane(plane):
                with pytest.raises(InjectedFault):
                    engine.query(_queries(4, 1)[0])
            _assert_drained(engine)
            result = engine.query(_queries(4, 1)[0])  # serves again, cleanly
            assert not result.degraded
        finally:
            engine.close()

    def test_nontransient_fault_always_raises(self):
        """``transient=False`` models a bug: the policy must not paper over it."""
        data = _dataset()
        engine = _engine(data, _policy())
        plane = FaultPlane([FaultRule("shard.probe", key=1, transient=False)])
        try:
            with faults.fault_plane(plane):
                with pytest.raises(InjectedFault):
                    engine.query(_queries(5, 1)[0])
            _assert_drained(engine)
        finally:
            engine.close()

    def test_kernel_faults_are_retried_like_probe_faults(self):
        """"batch.kernel" fires inside the shard's kernel; one transient blip
        is absorbed by the retry budget and the answer stays bit-identical."""
        data = _dataset(seed=9)
        engine = _engine(data, _policy())
        plane = FaultPlane([FaultRule("batch.kernel", times=1)])
        query = _queries(6, 1)[0]
        try:
            with faults.fault_plane(plane):
                result = engine.query(query)
            assert not result.degraded
            assert engine.serve_stats["retries"] == 1
            expect = SequentialScan(data, REPULSIVE, ATTRACTIVE).query(query)
            assert result.row_ids == expect.row_ids
            assert result.scores == expect.scores
            _assert_drained(engine)
        finally:
            engine.close()

    def test_slow_shard_delay_faults_do_not_change_answers(self):
        data = _dataset(seed=9)
        engine = _engine(data, _policy())
        plane = FaultPlane(
            [FaultRule("shard.probe", action="delay", delay_seconds=0.001, key=2)]
        )
        query = _queries(7, 1)[0]
        try:
            with faults.fault_plane(plane):
                result = engine.query(query)
            expect = SequentialScan(data, REPULSIVE, ATTRACTIVE).query(query)
            assert not result.degraded
            assert result.row_ids == expect.row_ids
        finally:
            engine.close()


# ---------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_starved_deadline_degrades_with_full_skip_coverage(self):
        data = _dataset()
        engine = _engine(data, _policy())
        queries = np.asarray([q.point for q in _queries(8, 1)])
        try:
            # Entry check passes, the round-boundary check sees it expired.
            deadline = Deadline(0.015, clock=SteppingClock(step=0.01))
            batch = engine.batch_query(queries, k=5, deadline=deadline)
            result = batch.results[0]
            assert result.degraded
            assert result.matches == []
            reasons = {reason for _, reason in result.coverage.skipped}
            assert reasons == {"deadline"}
            assert result.coverage.covered_fraction == 0.0
            _assert_drained(engine)
        finally:
            engine.close()

    def test_starved_deadline_without_degradation_raises(self):
        data = _dataset()
        engine = _engine(data, policy=None)
        queries = np.asarray([q.point for q in _queries(8, 1)])
        try:
            with pytest.raises(DeadlineExceeded):
                engine.batch_query(queries, k=5, deadline=Deadline(0.0))
            _assert_drained(engine)
        finally:
            engine.close()


# ------------------------------------------------------------- epoch storms
class TestEpochStorms:
    def test_pin_fault_leaks_nothing_and_serving_resumes(self):
        data = _dataset()
        engine = _engine(data, _policy())
        query = _queries(9, 1)[0]
        plane = FaultPlane([FaultRule("epoch.pin", times=1)])
        try:
            with faults.fault_plane(plane):
                with pytest.raises(InjectedFault):
                    engine.query(query)
            _assert_drained(engine)
            assert not engine.query(query).degraded
        finally:
            engine.close()

    def test_pin_storm_never_leaks_partial_cuts(self):
        """Random pin failures mid-cut (topology pinned, some shard views
        pinned) must roll every already-taken pin back."""
        data = _dataset()
        engine = _engine(data, _policy())
        queries = _queries(10, 20)
        plane = FaultPlane([FaultRule("epoch.pin", rate=0.3)], seed=13)
        survived = 0
        try:
            with faults.fault_plane(plane):
                for query in queries:
                    try:
                        engine.query(query)
                        survived += 1
                    except InjectedFault:
                        pass
            assert 0 < survived < len(queries)  # the storm actually bit
            _assert_drained(engine)
        finally:
            engine.close()

    def test_publish_fault_fails_the_write_not_the_readers(self):
        data = _dataset()
        engine = _engine(data, _policy())
        query = _queries(11, 1)[0]
        plane = FaultPlane([FaultRule("epoch.publish", times=1)])
        try:
            before = engine.query(query)
            with faults.fault_plane(plane):
                with pytest.raises(InjectedFault):
                    engine.insert(np.full(NUM_DIMS, 0.5), row_id=90_000)
                # Readers are untouched: the failed publish never became
                # current, so serving continues from the previous epoch.
                assert engine.query(query).row_ids == before.row_ids
            engine.insert(np.full(NUM_DIMS, 0.51), row_id=90_001)
            assert 90_001 in engine.query(
                SDQuery.simple(
                    point=np.full(NUM_DIMS, 0.51),
                    repulsive=REPULSIVE,
                    attractive=ATTRACTIVE,
                    k=3,
                    alpha=(1e-9, 1e-9),
                    beta=(1.0, 1.0),
                )
            ).row_ids
            _assert_drained(engine)
        finally:
            engine.close()


# ---------------------------------------------------------- serving front end
class TestServingUnderFaults:
    def test_coalescer_flush_fault_fails_the_batch_not_the_server(self):
        data = _dataset()
        index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        query = _queries(12, 1)[0]
        plane = FaultPlane([FaultRule("coalescer.flush", times=1)])

        async def scenario():
            coalescer = TickCoalescer(index, tick_seconds=None)
            with faults.fault_plane(plane):
                doomed = asyncio.ensure_future(coalescer.submit(query))
                await asyncio.sleep(0)
                await coalescer.flush()
                with pytest.raises(InjectedFault):
                    await doomed
                # Same plane still installed, budget spent: the server lives.
                healthy = asyncio.ensure_future(coalescer.submit(query))
                await asyncio.sleep(0)
                await coalescer.flush()
                served = await healthy
            await coalescer.close()
            return served

        served = asyncio.run(scenario())
        expect = SequentialScan(data, REPULSIVE, ATTRACTIVE).query(query)
        assert served.result.row_ids == expect.row_ids
        report = index.query_session().epochs.leak_report()
        assert report["pinned_readers"] == 0

    def test_degraded_answers_are_never_cached(self):
        data = _dataset()
        clock = FakeClock()
        engine = _engine(data, _policy(failure_threshold=10_000, clock=clock))
        query = _queries(13, 1)[0]
        plane = FaultPlane([FaultRule("shard.probe", key=1)])

        async def scenario():
            cache = ResultCache(capacity=16)
            coalescer = TickCoalescer(engine, tick_seconds=None, cache=cache)
            with faults.fault_plane(plane):
                first = asyncio.ensure_future(coalescer.submit(query))
                await asyncio.sleep(0)
                await coalescer.flush()
                second = asyncio.ensure_future(coalescer.submit(query))
                await asyncio.sleep(0)
                await coalescer.flush()
                a, b = await first, await second
            await coalescer.close()
            return a, b, cache.stats(), coalescer.stats()

        try:
            a, b, cache_stats, co_stats = asyncio.run(scenario())
            assert a.degraded and b.degraded
            # The second identical query was *served*, not replayed from the
            # cache: partial answers must never outlive the fault that made
            # them (the epoch key would still match after shard recovery).
            assert not b.cached
            assert cache_stats["hits"] == 0
            assert co_stats["degraded_served"] == 2
            _assert_drained(engine)
        finally:
            engine.close()

    def test_embedded_server_storm_availability(self):
        """The ISSUE acceptance shape: a single-shard storm through the full
        submit -> coalesce -> degrade path, every request answered."""
        from repro.serving.server import SDQueryServer, ServingConfig

        data = _dataset(seed=23)
        engine = _engine(data, _policy(failure_threshold=10_000))
        oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
        queries = _queries(seed=14, count=30)
        plane = FaultPlane(
            [FaultRule("shard.probe", rate=0.4, key=1)], seed=29
        )

        async def scenario():
            outcomes = []
            async with SDQueryServer(engine, ServingConfig(tick_seconds=0.0)) as server:
                with faults.fault_plane(plane):
                    for query in queries:
                        served = await server.submit(
                            query.point,
                            k=query.k,
                            alpha=query.alpha,
                            beta=query.beta,
                        )
                        outcomes.append(served)
            return outcomes

        try:
            outcomes = asyncio.run(scenario())
            assert len(outcomes) == len(queries)  # availability: all answered
            degraded = 0
            for query, served in zip(queries, outcomes):
                if served.result.degraded:
                    degraded += 1
                    _assert_sound(served.result, query, data)
                else:
                    expect = oracle.query(query)
                    assert served.result.row_ids == expect.row_ids
                    assert served.result.scores == expect.scores
            assert plane.total_injections() > 0
            _assert_drained(engine)
        finally:
            engine.close()


# ----------------------------------------------------- chaos with mutations
class TestChaosWithWriters:
    def test_storm_over_readers_and_writers_stays_sound(self):
        """Fault storm + concurrent mutation: every reader's answer is judged
        against its own pinned cut — bit-identical when whole, sound when
        degraded — and nothing leaks once the threads drain."""
        data = _dataset(seed=31, rows=300)
        engine = _engine(data, _policy(failure_threshold=10_000))
        plane = FaultPlane(
            [FaultRule("shard.probe", rate=0.25, key=1)], seed=37
        )
        errors: list = []
        stop = threading.Event()

        def writer(wid: int) -> None:
            rng = np.random.default_rng(1000 + wid)
            try:
                for step in range(40):
                    row = 50_000 + wid * 1_000 + step
                    engine.insert(rng.uniform(0, 1, size=NUM_DIMS), row_id=row)
                    if step % 3 == 0:
                        engine.delete(row)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader(rid: int) -> None:
            try:
                for it in range(8):
                    queries = _queries(seed=100 * rid + it, count=2, k=4)
                    with engine.snapshot() as snap:
                        rows, matrix = snap.frozen()
                        row_ids = [int(r) for r in rows]
                        for query in queries:
                            result = snap.query(query)
                            if result.degraded:
                                _assert_sound(
                                    result, query, matrix, row_ids=row_ids
                                )
                            else:
                                expect = SequentialScan(
                                    matrix,
                                    REPULSIVE,
                                    ATTRACTIVE,
                                    row_ids=row_ids,
                                ).query(query)
                                assert result.row_ids == expect.row_ids
                                assert result.scores == expect.scores
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,), name=f"chaos-writer-{w}")
            for w in range(2)
        ] + [
            threading.Thread(target=reader, args=(r,), name=f"chaos-reader-{r}")
            for r in range(3)
        ]
        try:
            with faults.fault_plane(plane):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            alive = [t.name for t in threads if t.is_alive()]
            assert not alive, f"deadlocked threads: {alive}"
            assert not errors, f"thread failures: {errors[:3]}"
            assert plane.total_injections() > 0
            _assert_drained(engine)
        finally:
            engine.close()


# ------------------------------------------------------- durability under raise
class TestDurabilityFaults:
    def test_wal_append_synced_fault_poisons_but_recovery_is_exact(self, tmp_path):
        """A fault after the record is durable but before it is acknowledged:
        the live index refuses further writes (it is ahead of what it can
        prove journaled) and recovery from disk is exact."""
        from repro.core.persistence import DurableIndex

        data = _dataset(seed=41, rows=60)
        engine = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(engine, tmp_path / "dur")
        rng = np.random.default_rng(43)
        for _ in range(5):
            durable.insert(rng.uniform(0, 1, size=NUM_DIMS))
        plane = FaultPlane([FaultRule("wal.append.synced", times=1)])
        with faults.fault_plane(plane):
            with pytest.raises(InjectedFault):
                durable.insert(rng.uniform(0, 1, size=NUM_DIMS))
        with pytest.raises(RuntimeError, match="poisoned"):
            durable.insert(rng.uniform(0, 1, size=NUM_DIMS))
        durable.close()

        recovered = DurableIndex.recover(tmp_path / "dur")
        # The faulted record had hit stable storage before the injection, so
        # this recovery deterministically keeps it — an unacknowledged write
        # may legitimately survive; it must never corrupt the prefix.
        assert recovered.last_recovery["recovered_lsn"] == 6
        store = {row: data[row] for row in range(len(data))}
        replay = np.random.default_rng(43)
        for step in range(6):
            store[len(data) + step] = replay.uniform(0, 1, size=NUM_DIMS)
        rows = sorted(store)
        oracle = SequentialScan(
            np.asarray([store[row] for row in rows], dtype=float),
            REPULSIVE,
            ATTRACTIVE,
            row_ids=rows,
        )
        probe = np.random.default_rng(99).random((3, NUM_DIMS))
        expect = oracle.batch_query(probe, k=5)
        got = recovered.batch_query(probe, k=5)
        for j in range(3):
            assert got[j].row_ids == expect[j].row_ids
            assert got[j].scores == expect[j].scores
        recovered.close()

    def test_checkpoint_manifest_fault_keeps_the_old_recovery_root(self, tmp_path):
        """"snapshot.manifest.before" kills a checkpoint mid-stream: CURRENT
        never flips, so recovery replays the old snapshot plus the full WAL
        and a later checkpoint succeeds."""
        from repro.core.persistence import DurableIndex

        data = _dataset(seed=47, rows=60)
        engine = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(engine, tmp_path / "dur")
        rng = np.random.default_rng(53)
        acked = [rng.uniform(0, 1, size=NUM_DIMS) for _ in range(6)]
        for point in acked[:3]:
            durable.insert(point)
        durable.checkpoint()
        for point in acked[3:]:
            durable.insert(point)
        plane = FaultPlane([FaultRule("snapshot.manifest.before", times=1)])
        with faults.fault_plane(plane):
            with pytest.raises(InjectedFault):
                durable.checkpoint()
        # The failed checkpoint is invisible: mutations continue, and a clean
        # checkpoint afterwards becomes the new recovery root.
        durable.insert(np.full(NUM_DIMS, 0.25), row_id=70_000)
        durable.checkpoint()
        durable.close()

        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.point(70_000) is not None
        store = {row: data[row] for row in range(len(data))}
        for step, point in enumerate(acked):
            store[len(data) + step] = point
        store[70_000] = np.full(NUM_DIMS, 0.25)
        rows = sorted(store)
        oracle = SequentialScan(
            np.asarray([store[row] for row in rows], dtype=float),
            REPULSIVE,
            ATTRACTIVE,
            row_ids=rows,
        )
        probe = np.random.default_rng(61).random((3, NUM_DIMS))
        expect = oracle.batch_query(probe, k=5)
        got = recovered.batch_query(probe, k=5)
        for j in range(3):
            assert got[j].row_ids == expect[j].row_ids
            assert got[j].scores == expect[j].scores
        recovered.close()

    @pytest.mark.parametrize(
        "point", ["wal.rotate.written", "wal.rotate.replaced", "wal.rotate.synced"]
    )
    def test_failed_rotation_never_loses_an_acknowledged_write(self, tmp_path, point):
        """A checkpoint whose WAL rotation raises after the CURRENT flip.

        Before the rename the old log stays live, so the next write is
        acknowledged and recovered.  After it the rename may not be durable:
        the wrapper is poisoned and refuses the write rather than acknowledge
        one that a log it no longer owns would lose."""
        from repro.core.persistence import DurableIndex

        data = _dataset(seed=59, rows=60)
        engine = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(engine, tmp_path / "dur")
        store = {row: data[row] for row in range(len(data))}
        rng = np.random.default_rng(67)
        for _ in range(4):
            point_in = rng.uniform(0, 1, size=NUM_DIMS)
            store[durable.insert(point_in)] = point_in
        plane = FaultPlane([FaultRule(point, times=1)])
        with faults.fault_plane(plane):
            with pytest.raises(InjectedFault):
                durable.checkpoint()
        late = np.full(NUM_DIMS, 0.5)
        try:
            durable.insert(late, row_id=80_000)
            acknowledged = True
        except RuntimeError as exc:
            assert "poisoned" in str(exc)
            acknowledged = False
        durable.close()

        recovered = DurableIndex.recover(tmp_path / "dur")
        if acknowledged:
            store[80_000] = late
        assert len(recovered) == len(store)  # an acknowledged write survives
        rows = sorted(store)
        oracle = SequentialScan(
            np.asarray([store[row] for row in rows], dtype=float),
            REPULSIVE,
            ATTRACTIVE,
            row_ids=rows,
        )
        probe = np.random.default_rng(71).random((3, NUM_DIMS))
        expect = oracle.batch_query(probe, k=5)
        got = recovered.batch_query(probe, k=5)
        for j in range(3):
            assert got[j].row_ids == expect[j].row_ids
            assert got[j].scores == expect[j].scores
        # Only a failure before the rename leaves the wrapper writable.
        assert acknowledged == (point == "wal.rotate.written")
        # The recovered store checkpoints and rotates cleanly again.
        recovered.insert(np.full(NUM_DIMS, 0.25), row_id=90_000)
        recovered.checkpoint()
        recovered.close()
        again = DurableIndex.recover(tmp_path / "dur")
        assert again.point(90_000) is not None
        again.close()


# ------------------------------------------------------- compaction faults
class TestCompactionFaults:
    """LSM structure-op faults (``compact.flush`` / ``compact.merge``).

    Structure maintenance is answer-invariant, so its faults must fail at
    most the writer that triggered them: the already-published mutation
    stays visible, no level is ever half-built, and a clean retry folds the
    backlog.  Background mode turns the same faults into stored failures
    surfaced on the next write — reads never see any of it.
    """

    def _flat(self, rows: int = 60, **kwargs):
        data = _dataset(seed=71, rows=rows)
        kwargs.setdefault("flush_rows", 8)
        kwargs.setdefault("fanout", 2)
        kwargs.setdefault("background_compaction", False)
        index = SDIndex.build(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, **kwargs
        )
        return data, index

    def _assert_exact(self, index) -> None:
        with index.snapshot() as snapshot:
            rows, matrix = snapshot.frozen()
        oracle = SequentialScan(
            matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows]
        )
        for query in _queries(73, 3):
            got = index.query(query)
            want = oracle.query(query)
            assert got.row_ids == want.row_ids
            assert got.scores == want.scores

    def test_flush_fault_fails_the_writer_not_the_world(self):
        data, index = self._flat()
        session = index._aggregator.serving_session()
        rng = np.random.default_rng(79)
        plane = FaultPlane([FaultRule("compact.flush", times=1)])
        with faults.fault_plane(plane):
            with pytest.raises(InjectedFault):
                # Trips the flush threshold; the inline flush faults.
                index.bulk_insert(rng.random((12, NUM_DIMS)))
        # The insert itself was published before maintenance ran, so it is
        # visible; the faulted flush left the delta pending, nothing torn.
        structure = session.structure()
        assert structure["delta_live"] == 12
        self._assert_exact(index)
        assert index.flush() is True  # clean retry folds the backlog
        assert session.structure()["delta_live"] == 0
        self._assert_exact(index)
        assert session.epochs.leak_report()["pinned_readers"] == 0

    def test_merge_fault_leaves_level_structure_intact(self):
        data, index = self._flat(flush_rows=100)
        session = index._aggregator.serving_session()
        rng = np.random.default_rng(83)
        index.bulk_insert(rng.random((6, NUM_DIMS)))
        index.flush()
        index.bulk_insert(rng.random((9, NUM_DIMS)))
        index.flush()
        seqs = [lvl["seq"] for lvl in session.structure()["levels"]]
        assert len(seqs) == 3
        plane = FaultPlane([FaultRule("compact.merge", times=1)])
        with faults.fault_plane(plane):
            with pytest.raises(InjectedFault):
                index.compact(seqs)
        # The faulted merge published nothing: same levels, same seqs.
        assert [lvl["seq"] for lvl in session.structure()["levels"]] == seqs
        self._assert_exact(index)
        assert index.compact(seqs) == tuple(seqs)
        assert len(session.structure()["levels"]) == 1
        self._assert_exact(index)
        assert session.epochs.leak_report()["pinned_readers"] == 0

    def test_background_compaction_storm_stays_available_and_exact(self):
        data, index = self._flat(flush_rows=6, background_compaction=True)
        session = index._aggregator.serving_session()
        rng = np.random.default_rng(89)
        plane = FaultPlane(
            [
                FaultRule("compact.flush", rate=0.5),
                FaultRule("compact.merge", rate=0.5),
            ],
            seed=17,
        )
        surfaced = 0
        with faults.fault_plane(plane):
            for step in range(30):
                try:
                    # The insert may surface a *previous* background
                    # maintenance failure — the write still applied.
                    index.bulk_insert(rng.random((4, NUM_DIMS)))
                except RuntimeError:
                    surfaced += 1
                if step % 10 == 9:
                    self._assert_exact(index)
            try:
                index.quiesce_maintenance()
            except RuntimeError:
                surfaced += 1
            assert plane.hits.get("compact.flush", 0) > 0  # the storm bit
        assert surfaced > 0
        # Once the plane lifts, maintenance catches up and nothing leaked.
        index.quiesce_maintenance()
        index.lsm_maintain()
        assert session.structure()["delta_live"] < 6
        self._assert_exact(index)
        assert session.epochs.leak_report()["pinned_readers"] == 0
