"""Property tests for the epoch snapshot layer (DESIGN.md section 6).

Two contracts, each under hypothesis-driven interleavings:

* **Frozen-copy bit-identity.**  A pinned snapshot's answers must equal — in
  row ids *and* bit-level scores — a sequential scan over a frozen copy of the
  index taken at pin time, no matter which mutations (single/bulk insert,
  single/bulk delete, rebalances on the sharded engine) land afterwards.
* **Refcount drain.**  After an arbitrary interleaving of pin / release /
  publish operations, every retired epoch whose readers released it must be
  reclaimed: ``live_epochs`` returns to 1 and no pins leak.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialScan
from repro.core.epoch import EpochManager
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)

MUTATIONS = ("insert", "bulk_insert", "delete", "bulk_delete")


def _apply_mutations(engine, rng, ops, live, next_row):
    """Apply a random mutation list to any engine with the update surface."""
    for op in ops:
        if op == "insert":
            engine.insert(rng.random(4), row_id=next_row)
            live.append(next_row)
            next_row += 1
        elif op == "bulk_insert":
            count = int(rng.integers(2, 8))
            ids = list(range(next_row, next_row + count))
            engine.bulk_insert(rng.random((count, 4)), row_ids=ids)
            live.extend(ids)
            next_row += count
        elif op == "delete":
            if len(live) > 1:
                victim = live.pop(int(rng.integers(len(live))))
                engine.delete(victim)
        elif op == "bulk_delete":
            if len(live) > 4:
                count = int(rng.integers(2, min(len(live) - 1, 6)))
                victims = [live.pop(int(rng.integers(len(live)))) for _ in range(count)]
                engine.bulk_delete(victims)
    return next_row


def _assert_snapshot_matches_frozen(snapshot_query, frozen_rows, frozen_matrix, rng):
    points = rng.random((4, 4))
    ks = rng.choice(np.asarray([1, 3, 7]), size=4)
    alphas = rng.uniform(0.05, 1.0, size=(4, len(REPULSIVE)))
    betas = rng.uniform(0.05, 1.0, size=(4, len(ATTRACTIVE)))
    got = snapshot_query(points, ks, alphas, betas)
    oracle = SequentialScan(
        frozen_matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in frozen_rows]
    ).batch_query(points, k=ks, alpha=alphas, beta=betas)
    for j in range(4):
        assert got[j].row_ids == oracle[j].row_ids
        assert got[j].scores == oracle[j].scores


class TestFrozenCopyBitIdentity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=12),
    )
    def test_flat_snapshot_ignores_later_mutations(self, seed, ops):
        rng = np.random.default_rng(seed)
        data = rng.random((60, 4))
        index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        live = list(range(60))
        with index.snapshot() as snap:
            rows, matrix = snap.frozen()
            _apply_mutations(index, rng, ops, live, 60)
            _assert_snapshot_matches_frozen(
                lambda p, k, a, b: snap.batch_query(p, k=k, alpha=a, beta=b),
                rows,
                matrix,
                rng,
            )
        session = index.query_session()
        report = session.epochs.leak_report()
        assert report["pinned_readers"] == 0
        assert report["live_epochs"] == 1

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=10),
        num_shards=st.sampled_from([2, 3]),
        rebalance=st.booleans(),
    )
    def test_sharded_snapshot_ignores_later_mutations(
        self, seed, ops, num_shards, rebalance
    ):
        rng = np.random.default_rng(seed)
        data = rng.random((60, 4))
        engine = ShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=num_shards,
            partitioner="range" if seed % 2 else "hash",
        )
        live = list(range(60))
        try:
            with engine.snapshot() as snap:
                rows, matrix = snap.frozen()
                _apply_mutations(engine, rng, ops, live, 60)
                if rebalance:
                    engine.rebalance()
                _assert_snapshot_matches_frozen(
                    lambda p, k, a, b: snap.batch_query(p, k=k, alpha=a, beta=b),
                    rows,
                    matrix,
                    rng,
                )
            report = engine._topology.leak_report()
            assert report["pinned_readers"] == 0
            assert report["live_epochs"] == 1
            for shard in engine._shards:
                session = shard.serving_session()
                shard_report = session.epochs.leak_report()
                assert shard_report["pinned_readers"] == 0
                assert shard_report["live_epochs"] == 1
        finally:
            engine.close()


class TestRefcountDrain:
    @settings(max_examples=60, deadline=None)
    @given(
        moves=st.lists(
            st.sampled_from(["pin", "release", "publish"]), min_size=1, max_size=40
        )
    )
    def test_arbitrary_interleavings_drain_to_zero(self, moves):
        manager = EpochManager()
        manager.publish(0)
        outstanding = []
        for step, move in enumerate(moves):
            if move == "pin":
                outstanding.append(manager.pin())
            elif move == "release" and outstanding:
                outstanding.pop(len(outstanding) // 2).release()
            elif move == "publish":
                manager.publish(step + 1)
            # Invariant: a live epoch is either current or still pinned.
            assert manager.live_epochs <= 2 + len(outstanding)
            assert manager.pinned_readers == len(outstanding)
        for pin in outstanding:
            pin.release()
        report = manager.leak_report()
        assert report["pinned_readers"] == 0
        assert report["live_epochs"] == 1
        assert report["reclaimed"] == report["published"] - 1
        # The surviving epoch is the current one and still holds its state.
        assert manager.current_state() is not None
