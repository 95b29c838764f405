"""Unit tests for the LSM maintenance layer (``repro.core.lsm``).

Covers the copy-on-write :class:`DeltaState`, flush/compact structure
transitions and their counters, the size-tiered planning policy, the
delta-absorbed-delete accounting regression (deletes that never reach a
level must not count as level garbage), the inline hard-cap relief valve,
the durability takeover (``auto_compaction=False``) contract, and the
no-stop-the-world guarantee: the default write path never reflattens.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.lsm import DeltaState, LsmSession, LsmWorld
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex

pytestmark = pytest.mark.lsm

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4


def build_index(rows: int = 40, seed: int = 7, **kwargs) -> SDIndex:
    rng = np.random.default_rng(seed)
    data = rng.random((rows, NUM_DIMS))
    kwargs.setdefault("flush_rows", 8)
    kwargs.setdefault("fanout", 2)
    kwargs.setdefault("background_compaction", False)
    return SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE, **kwargs)


def session_of(index: SDIndex) -> LsmSession:
    return index._aggregator.serving_session()


def check_against_oracle(index: SDIndex, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    with index.snapshot() as snapshot:
        rows, matrix = snapshot.frozen()
    oracle = SequentialScan(
        matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows]
    )
    for point in rng.random((4, NUM_DIMS)):
        query = SDQuery.simple(
            point=point, repulsive=REPULSIVE, attractive=ATTRACTIVE, k=5
        )
        got = index.query(query)
        want = oracle.query(query)
        assert got.row_ids == want.row_ids
        assert got.scores == want.scores


class TestDeltaState:
    def scored(self):
        return set(REPULSIVE) | set(ATTRACTIVE)

    def test_empty(self):
        delta = DeltaState.empty(NUM_DIMS, self.scored())
        assert delta.num_live == 0
        assert delta.dead == 0
        assert list(delta.locate_live(np.asarray([5], dtype=np.int64))) == [-1]

    def test_inserts_are_copy_on_write(self):
        empty = DeltaState.empty(NUM_DIMS, self.scored())
        rows = np.asarray([10, 3], dtype=np.int64)
        matrix = np.asarray([[0.1] * NUM_DIMS, [0.2] * NUM_DIMS])
        grown = empty.with_inserts(rows, matrix)
        assert empty.num_live == 0 and len(empty.rows) == 0
        assert grown.num_live == 2
        assert grown.dead == 0
        # Sorted lookup structures cover the new rows.
        at = grown.locate_live(np.asarray([3, 10, 11], dtype=np.int64))
        assert at[0] == 1 and at[1] == 0 and at[2] == -1
        for dim in self.scored():
            np.testing.assert_array_equal(
                grown.columns_by_dim[dim], matrix[:, dim]
            )

    def test_deletes_clear_bits_without_mutating_parent(self):
        empty = DeltaState.empty(NUM_DIMS, self.scored())
        rows = np.asarray([1, 2, 3], dtype=np.int64)
        grown = empty.with_inserts(rows, np.zeros((3, NUM_DIMS)))
        shrunk = grown.with_deletes(np.asarray([1], dtype=np.int64))
        assert grown.num_live == 3  # parent untouched
        assert shrunk.num_live == 2
        assert shrunk.dead == 1
        assert shrunk.locate_live(np.asarray([2], dtype=np.int64))[0] == -1
        # Arrays are shared, only the mask is copied.
        assert shrunk.rows is grown.rows
        assert shrunk.matrix is grown.matrix


class TestSessionRouting:
    def test_default_session_is_lsm(self):
        index = build_index()
        assert isinstance(session_of(index), LsmSession)

    def test_build_options_reach_the_session(self):
        index = build_index(flush_rows=12, fanout=3)
        session = session_of(index)
        assert (session.flush_rows, session.fanout, session.background) == (
            12,
            3,
            False,
        )

    def test_uncached_session_is_lsm_with_same_options(self):
        index = build_index(flush_rows=12, fanout=3)
        session = index._aggregator.session(cached=False)
        assert isinstance(session, LsmSession)
        assert session is not session_of(index)
        assert (session.flush_rows, session.fanout) == (12, 3)
        # A second session absorbs the same writes as the serving one.
        index.bulk_insert(np.random.default_rng(4).random((5, NUM_DIMS)))
        assert session.structure()["delta_live"] == 5
        assert session.structure() == session_of(index).structure()

    def test_shard_sessions_are_lsm_with_forwarded_options(self):
        from repro.core.sharding import ShardedIndex

        data = np.random.default_rng(7).random((40, NUM_DIMS))
        engine = ShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            flush_rows=12,
            fanout=3,
            background_compaction=False,
        )
        try:
            for s in range(2):
                session = engine.shard(s).serving_session()
                assert isinstance(session, LsmSession)
                assert (session.flush_rows, session.fanout) == (12, 3)
                assert session.background is False
        finally:
            engine.close()


class TestFlushAndCompact:
    def test_initial_world_is_single_level(self):
        index = build_index(rows=20)
        structure = session_of(index).structure()
        assert len(structure["levels"]) == 1
        assert structure["levels"][0]["live"] == 20
        assert structure["delta_live"] == 0

    def test_flush_folds_delta_into_new_level(self):
        index = build_index(rows=20, flush_rows=100)
        session = session_of(index)
        index.bulk_insert(np.random.default_rng(1).random((5, NUM_DIMS)))
        assert session.structure()["delta_live"] == 5
        assert index.flush() is True
        structure = session.structure()
        assert structure["delta_live"] == 0
        assert [lvl["live"] for lvl in structure["levels"]] == [20, 5]
        assert session.flushes == 1
        # Empty delta: nothing to flush, nothing published.
        assert index.flush() is False
        assert session.flushes == 1
        check_against_oracle(index)

    def test_compact_merges_named_levels_and_keeps_others(self):
        index = build_index(rows=20, flush_rows=100)
        session = session_of(index)
        rng = np.random.default_rng(2)
        index.bulk_insert(rng.random((4, NUM_DIMS)))
        index.flush()
        index.bulk_insert(rng.random((6, NUM_DIMS)))
        index.flush()
        seqs = [lvl["seq"] for lvl in session.structure()["levels"]]
        assert len(seqs) == 3
        merged = index.compact(seqs[1:])
        assert merged == tuple(seqs[1:])
        structure = session.structure()
        assert len(structure["levels"]) == 2
        # The untouched level keeps its seq identity.
        assert structure["levels"][0]["seq"] == seqs[0]
        assert {lvl["live"] for lvl in structure["levels"]} == {20, 10}
        assert session.compactions == 1
        check_against_oracle(index)

    def test_compact_single_clean_level_is_a_noop(self):
        index = build_index(rows=12)
        session = session_of(index)
        seqs = [lvl["seq"] for lvl in session.structure()["levels"]]
        assert index.compact(seqs) is None
        assert session.compactions == 0

    def test_tombstone_only_compaction_drops_garbage(self):
        index = build_index(rows=16, flush_rows=100)
        session = session_of(index)
        # Stay under the 25 % garbage trigger so the auto compactor does not
        # collect before we do (3 dead / 13 live).
        index.bulk_delete([0, 1, 2])
        structure = session.structure()
        assert structure["levels"][0]["tombstoned"] == 3
        seqs = [lvl["seq"] for lvl in structure["levels"]]
        assert index.compact(seqs) == tuple(seqs)
        structure = session.structure()
        assert structure["levels"][0]["tombstoned"] == 0
        assert structure["levels"][0]["live"] == 13
        check_against_oracle(index)

    def test_garbage_trigger_compacts_automatically(self):
        index = build_index(rows=16, flush_rows=100)
        session = session_of(index)
        # 6 dead / 10 live crosses the 25 % garbage threshold: the inline
        # auto compactor collects immediately — the reflatten threshold is
        # one compaction trigger among several.
        index.bulk_delete(list(range(6)))
        structure = session.structure()
        assert structure["levels"][0]["tombstoned"] == 0
        assert structure["levels"][0]["live"] == 10
        assert session.compactions == 1
        check_against_oracle(index)

    def test_maintenance_stats_expose_layout_and_counters(self):
        index = build_index(rows=20)
        session = session_of(index)  # materialize before the churn
        index.bulk_insert(np.random.default_rng(5).random((30, NUM_DIMS)))
        stats = session.maintenance_stats()
        for key in (
            "levels",
            "delta_rows",
            "delta_live",
            "flushes",
            "compactions",
            "delta_absorbed_deletes",
        ):
            assert key in stats
        assert stats["flushes"] >= 1  # inline auto maintenance ran


class TestAutoMaintenance:
    def test_inline_auto_flush_triggers_at_threshold(self):
        index = build_index(rows=10, flush_rows=4)
        session = session_of(index)
        index.bulk_insert(np.random.default_rng(4).random((9, NUM_DIMS)))
        structure = session.structure()
        assert structure["delta_live"] < 4
        assert session.flushes >= 1
        check_against_oracle(index)

    def test_size_tiered_policy_bounds_level_count(self):
        index = build_index(rows=16, flush_rows=4, fanout=2)
        session = session_of(index)  # materialize before the churn
        rng = np.random.default_rng(6)
        for _ in range(20):
            index.bulk_insert(rng.random((5, NUM_DIMS)))
        structure = session.structure()
        # 20 flushes without merging would leave ~21 levels; the tiered
        # policy keeps the count logarithmic in the data size.
        assert len(structure["levels"]) <= 8
        assert session.flushes >= 10
        assert session.compactions >= 1
        check_against_oracle(index)

    def test_takeover_disables_scheduling(self):
        index = build_index(rows=10, flush_rows=4)
        session = session_of(index)
        index.set_auto_compaction(False)
        index.bulk_insert(np.random.default_rng(8).random((12, NUM_DIMS)))
        assert session.structure()["delta_live"] == 12
        assert session.flushes == 0
        # The explicit surface still works and reports ops in apply order.
        ops = index.lsm_maintain()
        assert ops and ops[0] == ("flush",)
        assert session.structure()["delta_live"] == 0
        check_against_oracle(index)

    def test_hard_cap_flushes_inline_while_compactor_busy(self):
        index = build_index(rows=10, flush_rows=4, background_compaction=True)
        session = session_of(index)
        gate = threading.Event()
        busy = threading.Thread(target=gate.wait, daemon=True)
        busy.start()
        try:
            # Pose as an in-flight compactor that has fallen behind.
            session._compactor = busy
            index.bulk_insert(
                np.random.default_rng(9).random((40, NUM_DIMS))
            )  # >= 8 * flush_rows
            assert session.structure()["delta_live"] == 0
            assert session.flushes >= 1
        finally:
            gate.set()
            busy.join()
            session._compactor = None
        check_against_oracle(index)

    def test_no_reflatten_on_default_write_path(self):
        """The tentpole guarantee: no stop-the-world rebuilds under churn."""
        index = build_index(rows=60, flush_rows=8)
        session = session_of(index)
        rng = np.random.default_rng(10)
        next_row = 60
        for _ in range(30):
            index.bulk_insert(
                rng.random((6, NUM_DIMS)),
                row_ids=list(range(next_row, next_row + 6)),
            )
            next_row += 6
            with index.snapshot() as snapshot:
                live_rows, _ = snapshot.frozen()
            victims = rng.choice(live_rows, size=4, replace=False)
            index.bulk_delete([int(r) for r in victims])
        assert session.reflattens == 0
        assert session.flushes > 0
        check_against_oracle(index)

    def test_churn_leaks_no_epochs(self):
        index = build_index(rows=30, flush_rows=4)
        session = session_of(index)
        rng = np.random.default_rng(11)
        for step in range(12):
            index.bulk_insert(rng.random((5, NUM_DIMS)))
            index.query(
                SDQuery.simple(
                    point=rng.random(NUM_DIMS),
                    repulsive=REPULSIVE,
                    attractive=ATTRACTIVE,
                    k=3,
                )
            )
        index.quiesce_maintenance()
        assert session.epochs.live_epochs == 1
        assert session.epochs.pinned_readers == 0


class TestDeltaAbsorbedDeletes:
    """Regression: a delete absorbed by the delta is not garbage.

    Counting an insert+delete round trip as one ``appended`` plus one
    ``tombstoned`` (a net-zero row) would inflate ``garbage_fraction`` and
    trigger spurious compactions.  The LSM world must count such a row in
    *neither* backlog.
    """

    def test_absorbed_delete_adds_no_level_garbage(self):
        index = build_index(rows=20, flush_rows=100)
        session = session_of(index)
        rows = list(range(100, 108))
        index.bulk_insert(
            np.random.default_rng(12).random((8, NUM_DIMS)), row_ids=rows
        )
        index.bulk_delete(rows[:5])
        assert session.delta_absorbed_deletes == 5
        world = session._world
        assert world.tombstoned == 0  # never reached a level
        assert world.appended == 3  # only the still-live delta rows pend
        # 3 pending rows over 23 live — the five dead rows contribute nothing.
        assert world.garbage_fraction() == pytest.approx(3 / 23)

    def test_fully_dead_delta_flushes_to_nothing(self):
        index = build_index(rows=10, flush_rows=100)
        session = session_of(index)
        rows = [50, 51, 52]
        index.bulk_insert(
            np.random.default_rng(13).random((3, NUM_DIMS)), row_ids=rows
        )
        index.bulk_delete(rows)
        levels_before = len(session.structure()["levels"])
        assert index.flush() is True  # drops the dead arrays
        structure = session.structure()
        assert len(structure["levels"]) == levels_before
        assert structure["delta_rows"] == 0
        check_against_oracle(index)

    def test_absorbed_deletes_do_not_trigger_garbage_compaction(self):
        index = build_index(rows=20, flush_rows=1000)
        session = session_of(index)
        rng = np.random.default_rng(14)
        # Insert+delete churn confined to the delta: no level ever gains a
        # tombstone, so the garbage-collection trigger must stay silent.
        for i in range(50):
            row = 1000 + i
            index.insert(rng.random(NUM_DIMS), row_id=row)
            index.delete(row)
        assert session.delta_absorbed_deletes == 50
        assert session.compactions == 0
        assert session._world.tombstoned == 0


class TestLsmWorldAggregates:
    def test_world_surface_matches_population(self):
        index = build_index(rows=25, flush_rows=6)
        rng = np.random.default_rng(15)
        index.bulk_insert(rng.random((10, NUM_DIMS)), row_ids=list(range(25, 35)))
        index.bulk_delete([0, 1, 2])
        world = session_of(index)._world
        assert isinstance(world, LsmWorld)
        assert world.num_live == 32
        ids = world.live_row_ids()
        assert len(ids) == 32 and len(np.unique(ids)) == 32
        assert world.live_matrix().shape == (32, NUM_DIMS)
        assert world.level(-1) is None
