"""Property tests for the shard-routing invariants of the sharded engine.

Three invariants, each over random data, shard counts and both partitioners:

* **Exactly-one-shard.**  Every live row is owned by exactly one shard — the
  shard aggregators partition the row-id space, the router's assignment map
  agrees with the owners, and inserts/deletes keep it that way.
* **No tombstone leakage.**  Deleting a row tombstones it only in the owning
  shard's maintained session; sessions of other shards never accumulate
  tombstones for rows they do not own.
* **Rebalance preservation.**  ``rebalance()`` may move rows between shards
  but must preserve the full result set bit-for-bit, and reduce skew when the
  layout was skewed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex, ShardRouter

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


def _build(seed: int, num_rows: int, num_shards: int, partitioner: str) -> ShardedIndex:
    data = np.random.default_rng(seed).random((num_rows, 4))
    return ShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=num_shards,
        partitioner=partitioner,
    )


def _live_rows_per_shard(engine: ShardedIndex):
    return [
        set(engine.shard(s).live_population()[0].tolist())
        for s in range(engine.num_shards)
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.integers(10, 200),
    num_shards=st.sampled_from([1, 2, 4, 8]),
    partitioner=st.sampled_from(["hash", "range"]),
)
def test_every_row_lives_in_exactly_one_shard(seed, num_rows, num_shards, partitioner):
    engine = _build(seed, num_rows, num_shards, partitioner)
    rng = np.random.default_rng(seed + 1)
    # Mutate: some inserts and deletes on top of the build.
    inserted = engine.bulk_insert(rng.random((17, 4)))
    engine.delete(inserted[3])
    engine.bulk_delete([inserted[5], inserted[8]])

    shard_rows = _live_rows_per_shard(engine)
    union = set().union(*shard_rows)
    total = sum(len(rows) for rows in shard_rows)
    assert total == len(union), "a row appears in more than one shard"
    assert total == len(engine)
    assignments = engine.router.assignments()
    assert set(assignments) == union
    for shard, rows in enumerate(shard_rows):
        for row in rows:
            assert assignments[row] == shard


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_shards=st.sampled_from([2, 4]),
    partitioner=st.sampled_from(["hash", "range"]),
)
def test_tombstones_never_leak_across_shards(seed, num_shards, partitioner):
    engine = _build(seed, 120, num_shards, partitioner)
    # Materialize every shard's serving session so deletions must patch them.
    engine.batch_query(np.random.default_rng(seed).random((2, 4)), k=1)
    rng = np.random.default_rng(seed + 1)
    victims = [int(r) for r in rng.choice(sorted(engine.router.assignments()),
                                          size=25, replace=False)]
    owners = {row: engine.router.shard_of(row) for row in victims}
    engine.bulk_delete(victims)

    deleted_per_shard = {s: 0 for s in range(engine.num_shards)}
    for row, owner in owners.items():
        deleted_per_shard[owner] += 1
    for s in range(engine.num_shards):
        stats = engine.shard(s).serving_session().maintenance_stats()
        assert stats["patched_deletes"] == deleted_per_shard[s], (
            f"shard {s} tombstoned {stats['patched_deletes']} rows but owns "
            f"{deleted_per_shard[s]} of the deleted ones"
        )
        # The deleted rows must be gone from the owner and never present elsewhere.
        live = set(engine.shard(s).live_population()[0].tolist())
        assert live.isdisjoint(victims)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_shards=st.sampled_from([2, 4, 8]),
    partitioner=st.sampled_from(["hash", "range"]),
)
def test_rebalance_preserves_the_result_set(seed, num_shards, partitioner):
    engine = _build(seed, 150, num_shards, partitioner)
    rng = np.random.default_rng(seed + 2)
    # Skew the layout: a burst of inserts concentrated in one value region.
    burst = rng.random((120, 4))
    burst[:, ATTRACTIVE[0]] = 0.95 + 0.05 * burst[:, ATTRACTIVE[0]]
    engine.bulk_insert(burst)

    points = rng.random((8, 4))
    ks = rng.choice(np.asarray([1, 10]), size=8)
    before = engine.batch_query(points, k=ks)
    total_before = len(engine)
    assignments_before = engine.router.assignments()

    engine.rebalance()

    assert len(engine) == total_before
    assert set(engine.router.assignments()) == set(assignments_before)
    after = engine.batch_query(points, k=ks)
    for mine, theirs in zip(after, before):
        assert mine.row_ids == theirs.row_ids
        assert mine.scores == theirs.scores


def test_range_rebalance_reduces_skew():
    """A concentrated insert storm skews range shards; rebalance restores balance."""
    engine = _build(seed=7, num_rows=200, num_shards=4, partitioner="range")
    rng = np.random.default_rng(8)
    burst = rng.random((400, 4))
    burst[:, ATTRACTIVE[0]] = 0.9 + 0.1 * burst[:, ATTRACTIVE[0]]
    engine.bulk_insert(burst)
    skew_before = engine.skew()
    assert skew_before > engine.rebalance_threshold
    assert engine.maybe_rebalance()
    assert engine.skew() < skew_before
    assert engine.skew() <= 1.5
    # A balanced engine does not rebalance again.
    assert not engine.maybe_rebalance()


def test_sharded_results_bit_identical_to_flat_engine():
    """The acceptance matrix: k in {1, 10}, shard counts {1, 2, 4, 8}."""
    data = np.random.default_rng(3).random((2000, 4))
    flat = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    rng = np.random.default_rng(4)
    points = rng.random((20, 4))
    for k in (1, 10):
        expected = flat.batch_query(points, k=k)
        for num_shards in (1, 2, 4, 8):
            for partitioner in ("hash", "range"):
                engine = ShardedIndex(
                    data,
                    repulsive=REPULSIVE,
                    attractive=ATTRACTIVE,
                    num_shards=num_shards,
                    partitioner=partitioner,
                )
                batch = engine.batch_query(points, k=k)
                for mine, theirs in zip(batch, expected):
                    assert mine.row_ids == theirs.row_ids
                    assert mine.scores == theirs.scores
                engine.close()


def test_empty_range_engine_grows_from_nothing():
    """A range layout built over no data must accept inserts and rebalance later."""
    engine = ShardedIndex(
        np.empty((0, 4)),
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=4,
        partitioner="range",
    )
    rng = np.random.default_rng(0)
    engine.bulk_insert(rng.random((200, 4)))
    # Everything routed to shard 0 until a rebalance fits quantile boundaries.
    assert engine.shard_sizes()[0] == 200
    query = rng.random((4, 4))
    expected = SDIndex.build(
        np.asarray([engine.point(r) for r in sorted(engine.router.assignments())]),
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
    ).batch_query(query, k=10)
    assert engine.rebalance()
    assert engine.skew() <= 1.5
    batch = engine.batch_query(query, k=10)
    for mine, theirs in zip(batch, expected):
        assert mine.row_ids == theirs.row_ids
        assert mine.scores == theirs.scores


def test_hash_rebalance_disperses_delete_skew():
    """Rebalancing a hash layout reshuffles the salt, so skew actually drops."""
    engine = _build(seed=5, num_rows=400, num_shards=4, partitioner="hash")
    # Concentrate deletes in two shards to skew the layout.
    victims = [
        row
        for row, shard in sorted(engine.router.assignments().items())
        if shard in (1, 2)
    ][:180]
    engine.bulk_delete(victims)
    skew_before = engine.skew()
    assert skew_before > 1.5
    points = np.random.default_rng(6).random((5, 4))
    before = engine.batch_query(points, k=10)
    assert engine.rebalance()
    assert engine.skew() < skew_before
    after = engine.batch_query(points, k=10)
    for mine, theirs in zip(after, before):
        assert mine.row_ids == theirs.row_ids
        assert mine.scores == theirs.scores


def test_bit_identity_survives_magnitude_skew_across_shards():
    """Cross-shard seeded thresholds must stay admissible when one shard's
    coordinates dwarf another's (the slack is scaled by the global magnitude)."""
    rng = np.random.default_rng(11)
    data = rng.random((3000, 4))
    # Range-partitioned dimension spans [0, 1e10]: the top shard's sample
    # scores carry absolute rounding error far above the small shard's ulps.
    data[:, ATTRACTIVE[0]] *= 1e10
    flat = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    points = rng.random((25, 4))
    points[:, ATTRACTIVE[0]] *= 1e10
    for k in (1, 10):
        expected = flat.batch_query(points, k=k)
        for partitioner in ("range", "hash"):
            engine = ShardedIndex(
                data,
                repulsive=REPULSIVE,
                attractive=ATTRACTIVE,
                num_shards=4,
                partitioner=partitioner,
            )
            batch = engine.batch_query(points, k=k)
            for mine, theirs in zip(batch, expected):
                assert mine.row_ids == theirs.row_ids
                assert mine.scores == theirs.scores
            engine.close()


def test_router_rejects_bad_configuration():
    with pytest.raises(ValueError):
        ShardRouter(0)
    with pytest.raises(ValueError):
        ShardRouter(2, partitioner="modulo")
    with pytest.raises(ValueError):
        ShardRouter(2, partitioner="range")  # range_dim required
    router = ShardRouter(4, partitioner="hash")
    with pytest.raises(KeyError):
        router.shard_of(42)


def test_deleted_row_ids_cannot_be_reused():
    engine = _build(seed=1, num_rows=50, num_shards=2, partitioner="hash")
    engine.delete(10)
    with pytest.raises(ValueError):
        engine.insert(np.zeros(4), row_id=10)
    with pytest.raises(ValueError):
        engine.insert(np.zeros(4), row_id=11)  # still present
    with pytest.raises(KeyError):
        engine.delete(10)  # already gone
