"""Concurrent serve-while-mutate stress and regression suite (DESIGN.md §6).

The acceptance scenario of the epoch subsystem: reader threads continuously
pin snapshots and answer queries while writer threads hammer the same engine
with interleaved inserts, deletes and rebalances.  Every pinned read is
checked **bit-identically** against a frozen oracle built from the very epoch
the reader pinned (a sequential scan over ``snapshot.frozen()``), so any torn
read, stale bound or wrong prune fails loudly.  After the storm, every epoch
manager must have drained: no leaked pins, no unreclaimed epochs.

Also hosts the executor-lifecycle and rebalance-race regression tests of the
same PR, plus the fully-emptied-session regressions.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.core.topk import TopKIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4

NUM_READERS = 4
NUM_WRITERS = 2
#: Per-writer mutation floor; 2 writers x 510 > the 1,000-mutation acceptance bar.
WRITER_OPS = 510
JOIN_TIMEOUT = 180.0


def _run_storm(engine, *, initial_rows: int, seed: int):
    """Drive NUM_WRITERS mutators + NUM_READERS snapshot-checking readers."""
    errors = []
    checks = [0] * NUM_READERS
    mutations = [0] * NUM_WRITERS
    writers_done = threading.Event()
    barrier = threading.Barrier(NUM_READERS + NUM_WRITERS)

    # Disjoint ownership: writer w owns initial rows with row % NUM_WRITERS == w
    # and allocates fresh ids from a private range, so two writers never race
    # to delete the same row (the engine serializes them; the *test* must not
    # double-book victims).
    def writer(wid: int) -> None:
        try:
            rng = np.random.default_rng(seed * 1000 + wid)
            owned = [row for row in range(initial_rows) if row % NUM_WRITERS == wid]
            next_id = 1_000_000 * (wid + 1)
            barrier.wait()
            while mutations[wid] < WRITER_OPS:
                roll = rng.random()
                if roll < 0.35 and len(owned) > 8:
                    victim = owned.pop(int(rng.integers(len(owned))))
                    engine.delete(victim)
                    mutations[wid] += 1
                elif roll < 0.45 and len(owned) > 16:
                    count = int(rng.integers(2, 6))
                    victims = [
                        owned.pop(int(rng.integers(len(owned)))) for _ in range(count)
                    ]
                    engine.bulk_delete(victims)
                    mutations[wid] += count
                elif roll < 0.75:
                    engine.insert(rng.random(NUM_DIMS), row_id=next_id)
                    owned.append(next_id)
                    next_id += 1
                    mutations[wid] += 1
                else:
                    count = int(rng.integers(2, 8))
                    ids = list(range(next_id, next_id + count))
                    engine.bulk_insert(rng.random((count, NUM_DIMS)), row_ids=ids)
                    owned.extend(ids)
                    next_id += count
                    mutations[wid] += count
                if isinstance(engine, ShardedIndex) and mutations[wid] % 200 < 2:
                    engine.maybe_rebalance()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
            writers_done.set()

    def reader(rid: int) -> None:
        try:
            rng = np.random.default_rng(seed * 7000 + rid)
            barrier.wait()
            while not writers_done.is_set() or checks[rid] == 0:
                points = rng.random((3, NUM_DIMS))
                ks = rng.choice(np.asarray([1, 5, 10]), size=3)
                alphas = rng.uniform(0.05, 1.0, size=(3, len(REPULSIVE)))
                betas = rng.uniform(0.05, 1.0, size=(3, len(ATTRACTIVE)))
                with engine.snapshot() as snap:
                    batch = snap.batch_query(points, k=ks, alpha=alphas, beta=betas)
                    rows, matrix = snap.frozen()
                # The linearizability-style check: the answer must be
                # bit-identical to a scan over exactly the pinned population.
                oracle = SequentialScan(
                    matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows]
                ).batch_query(points, k=ks, alpha=alphas, beta=betas)
                for j in range(3):
                    assert batch[j].row_ids == oracle[j].row_ids, (
                        f"reader {rid} diverged from its pinned epoch at check "
                        f"{checks[rid]} query {j}"
                    )
                    assert batch[j].scores == oracle[j].scores
                checks[rid] += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(w,), name=f"writer-{w}")
        for w in range(NUM_WRITERS)
    ] + [
        threading.Thread(target=reader, args=(r,), name=f"reader-{r}")
        for r in range(NUM_READERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads[:NUM_WRITERS]:
        thread.join(timeout=JOIN_TIMEOUT)
    writers_done.set()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    alive = [thread.name for thread in threads if thread.is_alive()]
    assert not alive, f"deadlocked threads: {alive}"
    assert not errors, f"thread failures: {errors[:3]}"
    assert sum(mutations) >= 1000
    assert all(count > 0 for count in checks)
    return sum(checks)


def _assert_drained(engine: ShardedIndex) -> None:
    """No leaked epochs anywhere once every reader released its snapshot."""
    topology = engine._topology.leak_report()
    assert topology["pinned_readers"] == 0
    assert topology["live_epochs"] == 1
    for shard in engine._shards:
        report = shard.serving_session().epochs.leak_report()
        assert report["pinned_readers"] == 0, report
        assert report["live_epochs"] == 1, report


@pytest.mark.stress
@pytest.mark.parametrize(
    "num_shards,partitioner", [(2, "range"), (4, "hash")]
)
def test_sharded_storm_every_read_matches_its_pinned_epoch(num_shards, partitioner):
    rng = np.random.default_rng(20260729 + num_shards)
    data = rng.random((800, NUM_DIMS))
    engine = ShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=num_shards,
        partitioner=partitioner,
    )
    try:
        _run_storm(engine, initial_rows=800, seed=num_shards)
        _assert_drained(engine)
        # The engine still serves correctly after the storm.
        with engine.snapshot() as snap:
            rows, matrix = snap.frozen()
        points = rng.random((2, NUM_DIMS))
        expected = SequentialScan(
            matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows]
        ).batch_query(points, k=5)
        batch = engine.batch_query(points, k=5)
        for j in range(2):
            assert batch[j].row_ids == expected[j].row_ids
    finally:
        engine.close()


@pytest.mark.stress
def test_flat_storm_every_read_matches_its_pinned_epoch():
    rng = np.random.default_rng(77)
    data = rng.random((600, NUM_DIMS))
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    _run_storm(index, initial_rows=600, seed=9)
    report = index.query_session().epochs.leak_report()
    assert report["pinned_readers"] == 0
    assert report["live_epochs"] == 1


@pytest.mark.stress
def test_legacy_queries_racing_a_writer_build_exact_pair_trees():
    """The first legacy query builds the pair trees while a writer runs: each
    write lands either in the live rows the build reads or as a patch on the
    built trees.  Every legacy answer matches a scan over the population it
    ran against, and afterwards each tree holds exactly the live rows."""
    rng = np.random.default_rng(61)
    data = rng.random((400, NUM_DIMS))
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    aggregator = index.aggregator
    store = dict(enumerate(data))  # the writer's own record of the live rows
    errors = []
    answered = [0, 0]
    writer_done = threading.Event()
    start = threading.Barrier(3)

    def writer():
        try:
            wrng = np.random.default_rng(62)
            owned = list(range(400))
            start.wait(timeout=JOIN_TIMEOUT)
            for step in range(600):
                if step % 3 == 0:
                    victim = owned.pop(int(wrng.integers(len(owned))))
                    index.delete(victim)
                    del store[victim]
                else:
                    block = wrng.random((3 if step % 7 == 0 else 1, NUM_DIMS))
                    rows = index.bulk_insert(block)
                    owned.extend(rows)
                    store.update(zip(rows, block))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            writer_done.set()

    def reader(rid: int):
        try:
            qrng = np.random.default_rng(63 + rid)
            start.wait(timeout=JOIN_TIMEOUT)
            while not writer_done.is_set():
                point = qrng.random(NUM_DIMS)
                if rid == 0:
                    # Plain legacy queries: the aggregator's own locking
                    # must order the tree build against the writer.
                    index.query(point, k=5, engine="legacy")
                    answered[rid] += 1
                    continue
                # Checked legacy queries: pin the population the answer ran
                # against by holding the (reentrant) write lock around both.
                with aggregator.write_lock:
                    got = index.query(point, k=5, engine="legacy")
                    rows, matrix = aggregator.live_population()
                scan = SequentialScan(matrix, REPULSIVE, ATTRACTIVE, row_ids=rows.tolist())
                expected = scan.batch_query(point[None, :], k=5).results[0]
                assert [m.score for m in got.matches] == [m.score for m in expected.matches]
                answered[rid] += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    # Three threads: more than a 2-core host has cores.
    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(rid,)) for rid in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive()
    finally:
        writer_done.set()
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert all(answered)
    rows = sorted(store)
    matrix = np.asarray([store[row] for row in rows])
    for tree_index, (rep, att) in zip(aggregator._pair_indexes, aggregator.pairing.pairs):
        assert sorted(tree_index.tree.iter_points()) == [
            (row, float(store[row][att]), float(store[row][rep])) for row in rows
        ]
    scan = SequentialScan(matrix, REPULSIVE, ATTRACTIVE, row_ids=rows)
    points = rng.random((8, NUM_DIMS))
    expected = scan.batch_query(points, k=6)
    for point, want in zip(points, expected.results):
        got = index.query(point, k=6, engine="legacy")
        assert [m.score for m in got.matches] == [m.score for m in want.matches]
    index.close()


class TestExecutorLifecycle:
    """Satellite: close() idempotence, serve-after-close, exception masking."""

    def _engine(self, **kwargs):
        data = np.random.default_rng(3).random((120, NUM_DIMS))
        return ShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2, **kwargs
        )

    def test_close_is_idempotent(self):
        engine = self._engine()
        engine.batch_query(np.random.default_rng(4).random((2, NUM_DIMS)), k=3)
        engine.close()
        engine.close()
        assert engine.closed

    def test_serve_after_close_raises_instead_of_resurrecting(self):
        engine = self._engine()
        point = np.random.default_rng(5).random(NUM_DIMS)
        engine.query(point, k=3)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.query(point, k=3)
        with pytest.raises(RuntimeError, match="closed"):
            engine.batch_query(point[None, :], k=3)
        with pytest.raises(RuntimeError, match="closed"):
            engine.snapshot()
        assert engine._executor is None

    def test_open_snapshot_refuses_to_serve_after_close(self):
        # Must raise regardless of shard count / parallelism — the closed
        # check cannot live only on the parallel-executor path.
        data = np.random.default_rng(7).random((40, NUM_DIMS))
        engine = ShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=1,
            parallel=False,
        )
        snap = engine.snapshot()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            snap.batch_query(data[:2], k=2)
        snap.close()

    def test_reads_survive_concurrent_topology_reads(self):
        """Regression: unpinned len()/skew()/stats() racing a rebalance must
        never observe a reclaimed topology epoch."""
        rng = np.random.default_rng(13)
        data = rng.random((200, NUM_DIMS))
        engine = ShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        )
        errors = []
        done = threading.Event()

        def monitor():
            try:
                while not done.is_set():
                    assert len(engine) >= 0
                    assert engine.skew() >= 1.0
                    assert engine.num_shards == 2
                    engine.stats()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=monitor) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(15):
                engine.rebalance()
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, errors
        engine.close()

    def test_exit_does_not_mask_body_exceptions(self):
        with pytest.raises(ValueError, match="boom"):
            with self._engine() as engine:
                engine.query(np.random.default_rng(6).random(NUM_DIMS), k=2)
                raise ValueError("boom")
        assert engine.closed

    def test_probe_exception_propagates_unmasked(self):
        engine = self._engine(parallel=True)
        try:
            # Fail one shard's execution path: the original error type and
            # message must surface from the parallel collection, not a
            # secondary cancellation/shutdown error.
            session = engine.shard(0).serving_session()

            def explode(*_args, **_kwargs):
                raise RuntimeError("shard 0 exploded")

            session._execute = explode
            with pytest.raises(RuntimeError, match="shard 0 exploded"):
                engine.batch_query(
                    np.random.default_rng(8).random((4, NUM_DIMS)), k=50
                )
        finally:
            engine.close()


class TestRebalanceRace:
    """Satellite: a probe launched pre-rebalance keeps its pinned topology."""

    def test_blocking_probe_survives_concurrent_rebalance(self):
        rng = np.random.default_rng(11)
        data = rng.random((300, NUM_DIMS))
        engine = ShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            partitioner="range",
        )
        try:
            points = rng.random((3, NUM_DIMS))
            expected = engine.batch_query(points, k=7)
            old_sessions = [shard.serving_session() for shard in engine._shards]

            started = threading.Event()
            release = threading.Event()
            originals = [session._execute for session in old_sessions]

            def gate(session, original):
                def gated(state, spec, lower_bounds, label, **kwargs):
                    started.set()
                    assert release.wait(timeout=60), "probe gate never released"
                    return original(state, spec, lower_bounds, label, **kwargs)

                return gated

            for session, original in zip(old_sessions, originals):
                session._execute = gate(session, original)

            result_holder = {}

            def probe():
                result_holder["batch"] = engine.batch_query(points, k=7)

            thread = threading.Thread(target=probe)
            thread.start()
            assert started.wait(timeout=60), "probe never started"
            # Rebalance lands *while the probe is blocked mid-shard*.  It must
            # not deadlock, and the probe must keep reading its pinned
            # pre-rebalance topology.
            skew_inserts = rng.random((150, NUM_DIMS)) * 0.05
            engine.bulk_insert(skew_inserts)
            assert engine.rebalance() or True
            release.set()
            thread.join(timeout=120)
            assert not thread.is_alive(), "probe deadlocked against rebalance"

            batch = result_holder["batch"]
            for j in range(3):
                assert batch[j].row_ids == expected[j].row_ids
                assert batch[j].scores == expected[j].scores
            # The probe's topology epoch was released afterwards: drained.
            _assert_drained(engine)
            # Post-rebalance serving reflects the skew inserts.
            assert len(engine) == 450
            fresh = engine.batch_query(points, k=7)
            with engine.snapshot() as snap:
                rows, matrix = snap.frozen()
            oracle = SequentialScan(
                matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows]
            ).batch_query(points, k=7)
            for j in range(3):
                assert fresh[j].row_ids == oracle[j].row_ids
        finally:
            engine.close()


class TestEmptiedSessions:
    """Satellite: fully tombstoned sessions stay valid and refillable."""

    def test_flat_index_empties_and_refills(self):
        rng = np.random.default_rng(21)
        data = rng.random((24, NUM_DIMS))
        index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        index.query(data[0], k=3)  # build the serving session
        session = index.query_session()
        index.bulk_delete(list(range(24)))
        # Division-safe garbage accounting with zero live rows.
        assert np.isfinite(session.garbage_fraction())
        assert len(index.query(data[0], k=3)) == 0
        # Refill through the patch path: the empty flat view must reflatten
        # into a valid non-empty one, not trip the append RuntimeError.
        fresh = rng.random((10, NUM_DIMS))
        ids = index.bulk_insert(fresh)
        result = index.query(fresh[0], k=4)
        oracle = SequentialScan(
            fresh, REPULSIVE, ATTRACTIVE, row_ids=ids
        ).batch_query(fresh[:1], k=4)[0]
        assert result.row_ids == oracle.row_ids
        assert result.scores == oracle.scores
        index.insert(rng.random(NUM_DIMS))
        assert len(index.query(fresh[0], k=20)) == 11

    def test_one_by_one_emptying_then_single_insert(self):
        rng = np.random.default_rng(22)
        data = rng.random((12, NUM_DIMS))
        index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        index.query(data[0], k=2)
        for row in range(12):
            index.delete(row)
            assert len(index.query(data[0], k=3)) == min(11 - row, 3)
        row = index.insert(rng.random(NUM_DIMS))
        result = index.query(data[0], k=5)
        assert result.row_ids == [row]

    def test_sharded_engine_empties_and_refills(self):
        rng = np.random.default_rng(23)
        data = rng.random((40, NUM_DIMS))
        engine = ShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=4
        )
        try:
            engine.batch_query(data[:2], k=3)
            engine.bulk_delete(list(range(40)))
            assert len(engine) == 0
            assert all(len(r) == 0 for r in engine.batch_query(data[:2], k=3))
            fresh = rng.random((8, NUM_DIMS))
            ids = engine.bulk_insert(fresh)
            batch = engine.batch_query(fresh[:2], k=3)
            oracle = SequentialScan(
                fresh, REPULSIVE, ATTRACTIVE, row_ids=ids
            ).batch_query(fresh[:2], k=3)
            for j in range(2):
                assert batch[j].row_ids == oracle[j].row_ids
                assert batch[j].scores == oracle[j].scores
        finally:
            engine.close()

    def test_topk_flat_view_empties_and_refills(self):
        rng = np.random.default_rng(24)
        data = rng.random((16, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        index.query(0.5, 0.5, k=3)  # build the flat view
        for row in range(16):
            index.delete(row)
        assert len(index.query(0.5, 0.5, k=3)) == 0
        row = index.insert(0.25, 0.75)
        result = index.query(0.5, 0.5, k=3)
        assert result.row_ids == [row]
