"""The layered read path: each level's read constants and its two kernels.

A level's :class:`~repro.core.batch.SessionState` fills its read constants
(the collapsed pair bounds, the magnitude, the live positions) once, on
first read; a tombstoned successor shares the first two and recomputes the
third.  :meth:`~repro.core.lsm.LsmSession._execute` scores the delta and
every level of at most ``_scan_rows`` live rows brute force, and runs the
filter-and-verify kernel on the rest under one pooled threshold.  Most
tier-1 engines are small enough that every level of theirs is scanned, so
the tests here patch the cutoff to keep the kernel's layered path covered.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core import batch
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.lsm import LsmSession
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4
KS = (1, 5, 25)

#: Cutoffs that send every level to the kernel, and every level to the scan.
ALL_KERNEL = 0
ALL_SCAN = 10**9


def scan_rows(monkeypatch, cutoff: int) -> None:
    monkeypatch.setattr(LsmSession, "_scan_rows", property(lambda self: cutoff))


def sessions(engine):
    if isinstance(engine, ShardedIndex):
        return [engine.shard(s).serving_session() for s in range(engine.num_shards)]
    return [engine.query_session()]


def oracle(engine) -> SequentialScan:
    with engine.snapshot() as snap:
        rows, matrix = snap.frozen()
    return SequentialScan(matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows])


def assert_exact(engine, points, alpha=None, beta=None):
    """Batches and single queries equal the scan, bit for bit, for every k;
    returns the batch answers."""
    scan = oracle(engine)
    answers = []
    for k in KS:
        want = scan.batch_query(points, k=k, alpha=alpha, beta=beta)
        got = engine.batch_query(points, k=k, alpha=alpha, beta=beta)
        for j, point in enumerate(points):
            single = engine.query(
                point,
                k=k,
                alpha=None if alpha is None else alpha[j],
                beta=None if beta is None else beta[j],
            )
            for result in (got[j], single):
                assert result.row_ids == want[j].row_ids
                assert result.scores == want[j].scores
        answers.append([(result.row_ids, result.scores) for result in got])
    return answers


def stormed(sharded: bool, seed: int = 11):
    """Several levels, a tombstone in each level and a non-empty delta (in
    every shard of a 3-shard engine)."""
    rng = np.random.default_rng(seed)
    data = rng.random((420, NUM_DIMS))
    options = dict(flush_rows=16, fanout=8, background_compaction=False)
    if sharded:
        engine = ShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=3, **options
        )
        inserts = 160
    else:
        engine = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE, **options)
        inserts = 56
    for point in rng.random((inserts, NUM_DIMS)):
        engine.insert(point)
    for session in sessions(engine):
        for level in session._world.levels:
            engine.delete(int(level.state.live_row_ids()[0]))
    for session in sessions(engine):
        layout = session.structure()
        assert len(layout["levels"]) >= 3 and layout["delta_live"] > 0
        assert all(level["tombstoned"] for level in layout["levels"])
    return engine


@pytest.mark.parametrize("sharded", [False, True], ids=["sdindex", "sharded"])
def test_kernel_and_scan_paths_give_the_same_answers(monkeypatch, sharded):
    engine = stormed(sharded)
    rng = np.random.default_rng(12)
    points = rng.random((6, NUM_DIMS))
    alpha = rng.random((6, len(REPULSIVE))) + 0.1
    beta = rng.random((6, len(ATTRACTIVE))) + 0.1
    try:
        answers = {}
        for cutoff in (ALL_KERNEL, ALL_SCAN):
            scan_rows(monkeypatch, cutoff)
            answers[cutoff] = assert_exact(engine, points) + assert_exact(
                engine, points, alpha, beta
            )
        assert answers[ALL_KERNEL] == answers[ALL_SCAN]
    finally:
        engine.close()


def test_the_scan_yields_to_the_deadline_between_queries(monkeypatch):
    """A budget that runs out inside the scan stops it at a query boundary,
    as the kernel's verify loop does."""
    scan_rows(monkeypatch, ALL_SCAN)
    engine = stormed(False)
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    try:
        points = np.random.default_rng(18).random((4, NUM_DIMS))
        with pytest.raises(DeadlineExceeded):
            engine.query_session().run(points, k=5, deadline=Deadline(2.5, clock=clock))
        # Reads: the budget's start, the world's check, queries 0 and 1.
        assert now[0] == 4.0
    finally:
        engine.close()


def test_the_cutoff_is_one_flush_and_two_tiers_of_merges():
    index = SDIndex.build(
        np.random.default_rng(13).random((50, NUM_DIMS)),
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        flush_rows=16,
        fanout=3,
    )
    assert index.query_session()._scan_rows == 16 * 3**2
    default = SDIndex.build(
        np.random.default_rng(13).random((50, NUM_DIMS)),
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
    )
    assert default.query_session()._scan_rows == 4096
    index.close()
    default.close()


def test_constants_fill_on_first_read_and_a_successor_shares_the_bounds(tmp_path):
    index = SDIndex.build(
        np.random.default_rng(14).random((300, NUM_DIMS)),
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
    )
    index.save(tmp_path / "snap")
    loaded = SDIndex.load(tmp_path / "snap")
    for engine in (index, loaded):
        # Nothing is filled at build or restore.
        state = engine.query_session()._world.levels[0].state
        assert state._constants == {} and state._live_positions is None
    loaded.close()

    session = index.query_session()
    state = session._world.levels[0].state
    index.batch_query(np.random.default_rng(15).random((3, NUM_DIMS)), k=4)
    index.batch_query(np.random.default_rng(15).random((3, NUM_DIMS)), k=4)
    collapsed = state.collapsed_pairs()
    magnitude = state.magnitude()
    live = state.live_positions()
    assert state.collapsed_pairs() is collapsed
    assert state.live_positions() is live
    assert not live.flags.writeable

    index.delete(int(state.rows[live[5]]))
    successor = session._world.levels[0].state
    assert successor is not state
    assert successor.collapsed_pairs() is collapsed
    assert successor.magnitude() == magnitude
    # Live positions are the successor's own, computed on its first read.
    assert successor._live_positions is None
    positions = successor.live_positions()
    np.testing.assert_array_equal(positions, np.flatnonzero(successor.live))
    assert live[5] not in positions and len(positions) == len(live) - 1
    assert state.live_positions() is live
    index.close()


@pytest.mark.parametrize("layered", [False, True], ids=["flat", "layered"])
def test_deleting_the_sample_and_the_extreme_row_keeps_answers_exact(monkeypatch, layered):
    """The inherited magnitude and collapsed bounds still count the dead
    rows, and the seed sample is drawn afresh from the live ones."""
    monkeypatch.setattr(batch, "_SEED_POOL", 16)
    scan_rows(monkeypatch, ALL_KERNEL)
    rng = np.random.default_rng(16)
    index = SDIndex.build(
        rng.random((300, NUM_DIMS)), repulsive=REPULSIVE, attractive=ATTRACTIVE
    )
    index.set_auto_compaction(False)
    if layered:
        for point in rng.random((20, NUM_DIMS)):
            index.insert(point)
    points = rng.random((5, NUM_DIMS))
    assert_exact(index, points)
    state = index.query_session()._world.levels[0].state
    magnitude = state.magnitude()
    live = state.live_positions()
    sampled = state.rows[live[batch._seed_sample(len(live), batch._SEED_POOL)]]
    extreme = state.rows[int(np.argmax(np.abs(state.matrix).max(axis=1)))]
    assert np.abs(state.matrix).max() == magnitude
    deleted = sorted({int(row) for row in sampled} | {int(extreme)})
    index.bulk_delete(deleted)
    successor = index.query_session()._world.levels[0].state
    assert successor.tombstoned == len(deleted)
    assert successor.magnitude() == magnitude
    assert_exact(index, points)
    index.close()


@pytest.mark.stress
def test_concurrent_first_reads_of_a_new_state_are_exact(monkeypatch):
    """Eight readers make the first read of each fresh state at once: each
    fills the constants or reads another's, and every answer is exact."""
    scan_rows(monkeypatch, ALL_KERNEL)
    rng = np.random.default_rng(17)
    index = SDIndex.build(
        rng.random((2000, NUM_DIMS)),
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        flush_rows=64,
        background_compaction=False,
    )
    points = rng.random((4, NUM_DIMS))
    seen: list = []
    try:
        for step in range(4):
            for point in rng.random((70, NUM_DIMS)):
                index.insert(point)
            index.delete(int(index.query_session()._world.levels[0].state.rows[step]))
            states = [level.state for level in index.query_session()._world.levels]
            fresh = [state for state in states if not any(state is old for old in seen)]
            assert len(fresh) >= 2
            assert all(state._live_positions is None for state in fresh)
            want = oracle(index).batch_query(points, k=5)
            barrier = threading.Barrier(8)
            answers = [None] * 8

            def read(i):
                barrier.wait()
                answers[i] = index.batch_query(points, k=5)

            readers = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join()
            for got in answers:
                for j in range(len(points)):
                    assert got[j].row_ids == want[j].row_ids
                    assert got[j].scores == want[j].scores
            assert all(state._live_positions is not None for state in fresh)
            seen.extend(fresh)
    finally:
        index.close()


@pytest.mark.parametrize("pool", [64, 512, 1024])
def test_the_seed_sample_needs_no_dedup(pool):
    """Evenly spaced indices over ``n`` rows, at most ``n`` of them, never
    repeat: the sample equals its ``np.unique``."""
    for n in range(1, 5001):
        sample = batch._seed_sample(n, pool)
        old = np.unique(np.linspace(0, n - 1, min(n, pool)).astype(np.int64))
        assert np.array_equal(sample, old), n
