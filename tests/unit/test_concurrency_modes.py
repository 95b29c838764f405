"""Unit tests for copy-on-write publication and the snapshot view surfaces.

The multi-threaded behavior is exercised by the stress suite; these tests pin
down the single-threaded contracts: updates stay exact while every one
publishes a successor epoch, and the snapshot views expose their
lifecycle/metadata correctly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.aggregate import SubproblemAggregator
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.core.top1 import Top1Index
from repro.core.topk import TopKIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


def _oracle(store, points, k):
    rows = sorted(store)
    return SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    ).batch_query(points, k=k)


def test_flat_updates_stay_exact():
    rng = np.random.default_rng(31)
    data = rng.random((120, 4))
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    store = {row: data[row] for row in range(120)}
    points = rng.random((3, 4))
    index.batch_query(points, k=4)  # build the session
    for step in range(40):
        if step % 3 == 0 and len(store) > 10:
            victim = sorted(store)[step % len(store)]
            index.delete(victim)
            del store[victim]
        else:
            point = rng.random(4)
            store[index.insert(point)] = point
    batch = index.batch_query(points, k=4)
    expected = _oracle(store, points, 4)
    for j in range(3):
        assert batch[j].row_ids == expected[j].row_ids
        assert batch[j].scores == expected[j].scores
    # Every update publishes a copy-on-write successor epoch.
    session = index.query_session()
    assert session.epochs.published > 1 + session.reflattens


def test_sharded_updates_stay_exact():
    rng = np.random.default_rng(32)
    data = rng.random((150, 4))
    engine = ShardedIndex(
        data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=3
    )
    try:
        points = rng.random((3, 4))
        pinned = engine.snapshot()  # builds every shard's session
        built = [
            engine.shard(s).serving_session().epochs.published for s in range(3)
        ]
        store = {row: data[row] for row in range(150)}
        for row in range(0, 30):
            engine.delete(row)
            del store[row]
        fresh = rng.random((20, 4))
        for row, point in zip(engine.bulk_insert(fresh), fresh):
            store[row] = point
        batch = engine.batch_query(points, k=5)
        expected = _oracle(store, points, 5)
        for j in range(3):
            assert batch[j].row_ids == expected[j].row_ids
            assert batch[j].scores == expected[j].scores
        # Each shard published successors; the pinned views saw none of them.
        for s in range(3):
            assert engine.shard(s).serving_session().epochs.published > built[s]
        old = pinned.batch_query(points, k=5)
        original = _oracle({row: data[row] for row in range(150)}, points, 5)
        for j in range(3):
            assert old[j].row_ids == original[j].row_ids
            assert old[j].scores == original[j].scores
        pinned.close()
    finally:
        engine.close()


def test_topk_updates_publish_fresh_flat_views():
    """A TopKIndex write clones the flat view and publishes the clone, so a
    view pinned before the write keeps answering its own population."""
    rng = np.random.default_rng(33)
    data = rng.random((80, 2))
    index = TopKIndex(data[:, 0], data[:, 1])
    with index.snapshot() as snap:
        before = snap.query(0.4, 0.6, k=4)
        flat_before = index.flat_session()
        published = index.flat_epochs.published
        # Far away in the repulsive y and level in the attractive x: the new
        # point is every query's top-1; the old top-1 is then deleted.
        new_row = index.insert(0.4, 10.0)
        index.delete(before.row_ids[0])
        assert index.flat_session() is not flat_before
        assert index.flat_epochs.published == published + 2
        again = snap.query(0.4, 0.6, k=4)
        assert again.row_ids == before.row_ids
        assert again.scores == before.scores
    streams = index.query(0.4, 0.6, k=4, strategy="streams")
    flat = index.query(0.4, 0.6, k=4)
    assert flat.row_ids[0] == new_row
    assert before.row_ids[0] not in flat.row_ids
    assert flat.row_ids == streams.row_ids
    assert flat.scores == streams.scores


class TestSnapshotSurfaces:
    def test_session_snapshot_lifecycle_and_guards(self):
        rng = np.random.default_rng(35)
        data = rng.random((60, 4))
        index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        session = index.query_session()
        snap = session.snapshot()
        assert not snap.closed
        assert snap.version == session.epochs.version
        assert len(snap) == 60
        assert snap.num_live == 60
        result = snap.run_one(
            __import__("repro.core.query", fromlist=["SDQuery"]).SDQuery.simple(
                data[0], REPULSIVE, ATTRACTIVE, k=3
            )
        )
        assert len(result) == 3
        assert snap.data_magnitude() > 0
        bounds = snap.upper_bounds(data[:2], k=1)
        assert bounds.shape == (2,)
        samples = snap.sample_scores(data[:2], pool=16, k=1)
        assert samples.shape[0] == 2
        snap.close()
        snap.close()  # idempotent
        assert snap.closed
        with pytest.raises(RuntimeError, match="closed"):
            snap.run(data[:1], k=1)

    def test_sdindex_snapshot_query_shapes(self):
        rng = np.random.default_rng(36)
        data = rng.random((50, 4))
        index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        with index.snapshot() as snap:
            by_point = snap.query(data[3], k=2)
            assert len(by_point) == 2
            assert len(snap) == 50
            with pytest.raises(ValueError, match="k is required"):
                snap.query(data[3])
            rows, matrix = snap.frozen()
            assert list(rows) == list(range(50))
            assert matrix.shape == (50, 4)
        assert snap.version == index.query_session().epochs.version

    def test_sharded_snapshot_metadata_and_guards(self):
        rng = np.random.default_rng(37)
        data = rng.random((90, 4))
        engine = ShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=3
        )
        try:
            snap = engine.snapshot()
            assert snap.topology_version == engine.topology_version
            assert len(snap.versions) == 3
            assert len(snap) == 90
            assert list(snap.live_row_ids()) == list(range(90))
            single = snap.query(data[5], k=2)
            assert len(single) == 2
            snap.close()
            snap.close()
            with pytest.raises(RuntimeError, match="closed"):
                snap.batch_query(data[:2], k=1)
        finally:
            engine.close()

    def test_sharded_snapshot_versions_flip_on_write_and_rebalance(self):
        """A write bumps only its shard's version; a rebalance publishes a new
        topology.  A snapshot pinned before both keeps its versions and its
        rows, and answers from them."""
        rng = np.random.default_rng(41)
        data = rng.random((120, 4))
        engine = ShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            partitioner="range",
        )
        try:
            old = engine.snapshot()
            topology, versions = old.topology_version, old.versions
            row = engine.insert(np.full(4, 0.5))
            target = engine.shard_of(row)
            with engine.snapshot() as snap:
                assert snap.topology_version == topology
                changed = [s for s in range(2) if snap.versions[s] != versions[s]]
                assert changed == [target]
            # Crowd the top of the range dimension, then refit the ranges.
            skewed = rng.random((60, 4))
            skewed[:, 2] = rng.uniform(0.95, 1.0, size=60)
            engine.bulk_insert(skewed)
            assert engine.rebalance()
            with engine.snapshot() as snap:
                assert snap.topology_version > topology
                assert len(snap) == 181
            assert (old.topology_version, old.versions) == (topology, versions)
            assert len(old) == 120
            got = old.batch_query(data[:3], k=4)
            expect = SequentialScan(data, REPULSIVE, ATTRACTIVE).batch_query(
                data[:3], k=4
            )
            for mine, theirs in zip(got.results, expect.results):
                assert mine.row_ids == theirs.row_ids
                assert mine.scores == theirs.scores
            old.close()
            assert engine._topology.leak_report()["pinned_readers"] == 0
        finally:
            engine.close()

    def test_topk_snapshot_guards_and_query(self):
        rng = np.random.default_rng(38)
        data = rng.random((70, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        with index.snapshot() as snap:
            assert len(snap) == 70
            assert snap.version == index.flat_epochs.version
            one = snap.query(0.5, 0.5, k=4, alpha=0.8, beta=1.2)
            direct = index.query(0.5, 0.5, k=4, alpha=0.8, beta=1.2)
            assert one.row_ids == direct.row_ids
            assert one.scores == direct.scores
        snap.close()
        with pytest.raises(RuntimeError, match="closed"):
            snap.batch_query([0.5], [0.5], 1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_top1_snapshot_matches_live_and_is_cached(self, k):
        rng = np.random.default_rng(39)
        data = rng.random((60, 2))
        index = Top1Index(data[:, 0], data[:, 1], k=k)
        first = index.snapshot()
        second = index.snapshot()
        # No mutation in between: the frozen view is built once and shared.
        assert first.version == second.version
        assert len(first) == 60
        live = index.query(0.4, 0.6)
        pinned = first.query(0.4, 0.6)
        assert pinned.row_ids == live.row_ids
        assert pinned.scores == live.scores
        batch = first.batch_query([0.4, 0.2], [0.6, 0.8])
        for j, (qx, qy) in enumerate([(0.4, 0.6), (0.2, 0.8)]):
            assert batch[j].row_ids == index.query(qx, qy).row_ids
        version_before = index.version
        index.insert(0.5, 0.5)
        assert index.version > version_before
        third = index.snapshot()
        assert third.version > first.version
        first.close()
        second.close()
        second.close()
        third.close()
        report = index.view_epochs.leak_report()
        assert report["pinned_readers"] == 0
        assert report["live_epochs"] == 1

    def test_aggregator_version_and_lock_surface(self):
        rng = np.random.default_rng(40)
        aggregator = SubproblemAggregator(
            rng.random((20, 4)), repulsive=REPULSIVE, attractive=ATTRACTIVE
        )
        version = aggregator.version
        aggregator.insert(rng.random(4))
        assert aggregator.version == version + 1
        with aggregator.write_lock:
            aggregator.delete(0)
        assert aggregator.version == version + 2
        with aggregator.snapshot() as snap:
            assert snap.num_live == 20
