"""The delta's append buffers, the cached maintenance plan and the size tiers.

Covers :class:`repro.core.lsm.DeltaState` over shared append buffers (tip
appends, copies out of a non-tip value, the sorted-id rule, mask copies on
delete), a restored delta (plain and ``mmap``) taking inserts, a failed
delete leaving every buffer as it was, the level-derived maintenance
plan kept on the world against a fresh plan, the integer size
tiers centred on powers of the fanout, and a reader pinning snapshots while
a writer appends (``stress``).
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.lsm import DeltaState, Level, LsmWorld, _tier
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex

pytestmark = pytest.mark.lsm

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4
SCORED = set(REPULSIVE) | set(ATTRACTIVE)


def build_index(rows: int = 40, seed: int = 7, **kwargs) -> SDIndex:
    data = np.random.default_rng(seed).random((rows, NUM_DIMS))
    kwargs.setdefault("flush_rows", 1000)
    kwargs.setdefault("fanout", 2)
    kwargs.setdefault("background_compaction", False)
    return SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE, **kwargs)


def session_of(index: SDIndex):
    return index._aggregator.serving_session()


def grow(delta: DeltaState, ids, rng) -> DeltaState:
    ids = np.asarray(ids, dtype=np.int64)
    return delta.with_inserts(ids, rng.random((len(ids), NUM_DIMS)))


def contents(delta: DeltaState):
    """Copies of everything a reader of ``delta`` can see."""
    return (
        delta.rows.copy(),
        delta.matrix.copy(),
        delta.live.copy(),
        delta.num_live,
        delta.sorted_rows.copy(),
        delta.row_order.copy(),
        {dim: column.copy() for dim, column in delta.columns_by_dim.items()},
    )


def assert_contents(delta: DeltaState, expected) -> None:
    rows, matrix, live, num_live, sorted_rows, row_order, columns = expected
    np.testing.assert_array_equal(delta.rows, rows)
    np.testing.assert_array_equal(delta.matrix, matrix)
    np.testing.assert_array_equal(delta.live, live)
    assert delta.num_live == num_live
    np.testing.assert_array_equal(delta.sorted_rows, sorted_rows)
    np.testing.assert_array_equal(delta.row_order, row_order)
    for dim, column in columns.items():
        np.testing.assert_array_equal(delta.columns_by_dim[dim], column)


def assert_consistent(delta: DeltaState) -> None:
    """Every array of one value describes the same rows."""
    n = len(delta.rows)
    assert len(delta.matrix) == len(delta.live) == len(delta.sorted_rows) == n
    assert len(delta.row_order) == n
    np.testing.assert_array_equal(delta.sorted_rows, delta.rows[delta.row_order])
    assert (np.diff(delta.sorted_rows) > 0).all()
    assert int(delta.live.sum()) == delta.num_live
    for dim in SCORED:
        np.testing.assert_array_equal(delta.columns_by_dim[dim], delta.matrix[:, dim])
    at = delta.locate_live(delta.rows)
    np.testing.assert_array_equal(at >= 0, delta.live)
    np.testing.assert_array_equal(at[delta.live], np.flatnonzero(delta.live))


def assert_matches_oracle(index: SDIndex, seed: int = 3) -> None:
    with index.snapshot() as snapshot:
        rows, matrix = snapshot.frozen()
    oracle = SequentialScan(matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows])
    for point in np.random.default_rng(seed).random((4, NUM_DIMS)):
        query = SDQuery.simple(point=point, repulsive=REPULSIVE, attractive=ATTRACTIVE, k=5)
        got, want = index.query(query), oracle.query(query)
        assert got.row_ids == want.row_ids
        assert got.scores == want.scores


class TestAppendBuffers:
    def test_tip_appends_in_place_and_pinned_prefixes_never_change(self):
        rng = np.random.default_rng(1)
        delta = DeltaState.empty(NUM_DIMS, SCORED)
        held = []
        for row in range(300):  # past several doublings
            delta = grow(delta, [row], rng)
            if row % 37 == 0:
                held.append((delta, contents(delta)))
        data = delta.buffers[0]
        grown = grow(delta, [300], rng)
        assert grown.buffers[0] is data  # the tip appended in place
        assert np.shares_memory(grown.rows, delta.rows)
        for value, expected in held:
            assert_contents(value, expected)
            assert_consistent(value)
        assert_consistent(grown)

    def test_an_extension_of_a_non_tip_value_copies_out(self):
        rng = np.random.default_rng(2)
        parent = grow(DeltaState.empty(NUM_DIMS, SCORED), [1, 2, 3], rng)
        first = grow(parent, [4], rng)
        expected = contents(first)
        second = grow(parent, [5], rng)  # parent is no longer its buffer's tip
        assert second.buffers[0] is not first.buffers[0]
        assert not np.shares_memory(second.rows, first.rows)
        assert_contents(first, expected)
        assert list(second.rows) == [1, 2, 3, 5]
        assert_consistent(second)

    def test_out_of_order_ids_resort_into_fresh_arrays(self):
        rng = np.random.default_rng(3)
        ascending = grow(DeltaState.empty(NUM_DIMS, SCORED), [10, 20, 30], rng)
        expected = contents(ascending)
        below = grow(ascending, [15], rng)
        assert ascending.buffers[0] is below.buffers[0]  # rows still append
        assert below.buffers[2] is not ascending.buffers[2]  # sorted ids do not
        assert list(below.sorted_rows) == [10, 15, 20, 30]
        assert_contents(ascending, expected)
        # After the re-sort, ids above every delta id extend it in place again.
        above = grow(below, [40, 41], rng)
        assert above.buffers[2] is below.buffers[2]
        unsorted_batch = grow(above, [50, 45], rng)
        assert unsorted_batch.buffers[2] is not above.buffers[2]
        for value in (below, above, unsorted_batch):
            assert_consistent(value)

    def test_a_delete_copies_the_mask_and_later_appends_use_the_copy(self):
        rng = np.random.default_rng(4)
        grown = grow(DeltaState.empty(NUM_DIMS, SCORED), [1, 2, 3], rng)
        expected = contents(grown)
        shrunk = grown.with_deletes(np.asarray([1], dtype=np.int64))
        assert shrunk.rows is grown.rows and shrunk.matrix is grown.matrix
        assert shrunk.buffers[1] is not grown.buffers[1]
        after = grow(shrunk, [4], rng)
        assert after.buffers[0] is grown.buffers[0]  # ids and matrix still shared
        assert after.buffers[1] is shrunk.buffers[1]  # appends go to the copied mask
        assert list(after.live) == [True, False, True, True]
        assert_contents(grown, expected)
        assert_consistent(after)


class TestRestoredDelta:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_a_restored_delta_takes_inserts(self, tmp_path, mmap):
        index = build_index()
        rng = np.random.default_rng(5)
        index.bulk_insert(rng.random((6, NUM_DIMS)), row_ids=[100, 101, 102, 103, 104, 105])
        index.delete(102)
        index.save(tmp_path / "snap")
        index.close()
        loaded = SDIndex.load(tmp_path / "snap", mmap=mmap)
        restored = session_of(loaded)._world.delta
        assert restored.buffers == (None, None, None)
        expected = contents(restored)
        loaded.delete(104)  # a mask copy of the loaded mask
        loaded.insert(rng.random(NUM_DIMS), row_id=106)  # above every delta id
        loaded.insert(rng.random(NUM_DIMS), row_id=99)  # below them: a re-sort
        assert_contents(restored, expected)  # the loaded arrays were not written
        delta = session_of(loaded)._world.delta
        assert list(delta.rows) == [100, 101, 102, 103, 104, 105, 106, 99]
        assert delta.num_live == 6
        assert_consistent(delta)
        assert_matches_oracle(loaded)
        loaded.close()


class TestFailedDeleteLeavesBuffers:
    def test_buffers_stay_byte_identical_and_the_next_insert_appends(self):
        index = build_index()
        rng = np.random.default_rng(6)
        index.bulk_insert(rng.random((5, NUM_DIMS)), row_ids=[200, 201, 202, 203, 204])
        session = session_of(index)
        world = session._world
        buffers = world.delta.buffers
        before = [[array.tobytes() for array in buffer.arrays] for buffer in buffers]
        lengths = [buffer.length for buffer in buffers]
        with pytest.raises(KeyError, match="row id 999999 not present"):
            # 201 lives in the delta, 3 in the level: neither may be touched.
            index.bulk_delete([201, 3, 999999])
        assert session._world is world
        assert [[a.tobytes() for a in b.arrays] for b in buffers] == before
        assert [buffer.length for buffer in buffers] == lengths
        index.insert(rng.random(NUM_DIMS), row_id=205)
        assert session._world.delta.buffers == buffers  # appended in place
        assert list(session._world.delta.rows) == [200, 201, 202, 203, 204, 205]
        assert_matches_oracle(index)
        index.close()


def stub_level(seq: int, live: int, tombstoned: int = 0) -> Level:
    return Level(seq, SimpleNamespace(num_live=live, tombstoned=tombstoned))


class TestCachedPlan:
    @pytest.mark.parametrize("fanout", [2, 3, 4])
    def test_the_cached_plan_equals_a_fresh_plan(self, fanout):
        session = session_of(build_index(flush_rows=8, fanout=fanout))
        rng = np.random.default_rng(fanout)
        seqs = iter(range(10, 10_000))
        levels = tuple(stub_level(next(seqs), int(rng.integers(1, 400))) for _ in range(3))
        world = LsmWorld(levels, SimpleNamespace(num_live=0, dead=0))
        for _step in range(600):
            live, dead = (int(count) for count in rng.integers(0, 10, size=2))
            delta = SimpleNamespace(num_live=live, dead=dead)
            op = rng.integers(5)
            if op == 1:  # a delete tombstones one level
                i = int(rng.integers(len(levels)))
                old = levels[i]
                live = max(old.state.num_live - 1, 0)
                level = stub_level(old.seq, live, old.state.tombstoned + 1)
                levels = levels[:i] + (level,) + levels[i + 1 :]
            elif op == 2:  # a flush adds a level
                levels = levels + (stub_level(next(seqs), int(rng.integers(1, 12))),)
            elif op == 3 and len(levels) > 1:  # a merge replaces some levels
                merged = [int(i) for i in rng.choice(len(levels), 2, replace=False)]
                size = sum(levels[i].state.num_live for i in merged)
                levels = tuple(
                    level for i, level in enumerate(levels) if i not in merged
                ) + (stub_level(next(seqs), size),)
            # op 0 (or 3 on one level): an insert's successor keeps the levels;
            # op 4: the same levels in a new world.
            if levels is world.levels and op != 4:
                world = world.with_delta(delta)
            else:
                world = LsmWorld(levels, delta)
            cached = session._plan_maintenance(world)
            assert world.level_plan is not None or session._flush_due(world)
            assert session._plan_maintenance(LsmWorld(world.levels, delta)) == cached

    def test_an_insert_does_not_rederive_the_plan(self, monkeypatch):
        index = build_index(flush_rows=1000)
        session = session_of(index)
        index.insert(np.full(NUM_DIMS, 0.5), row_id=500)
        derived = []
        pick = type(session)._pick_tier_merge
        monkeypatch.setattr(
            type(session), "_pick_tier_merge",
            lambda self, levels: derived.append(levels) or pick(self, levels),
        )
        for row in range(501, 511):
            index.insert(np.full(NUM_DIMS, 0.25), row_id=row)
        index.delete(505)  # delta-resident: the levels tuple is kept
        assert derived == []
        index.delete(3)  # level-resident: a new levels tuple
        assert len(derived) == 1
        index.close()


class TestTiers:
    def test_flushes_of_254_to_256_rows_share_a_tier(self):
        session = session_of(build_index(flush_rows=256, fanout=4))
        assert _tier(254, 4) == _tier(255, 4) == _tier(256, 4) == 4
        levels = tuple(stub_level(seq, live) for seq, live in enumerate([254, 255, 256, 256], 1))
        assert session._pick_tier_merge(levels) == (1, 2, 3, 4)

    @pytest.mark.parametrize("fanout", [2, 3, 4, 10])
    def test_exact_powers_land_in_their_own_tier(self, fanout):
        session = session_of(build_index(flush_rows=8, fanout=fanout))
        for tier in range(1, 16):
            power = fanout**tier
            assert _tier(power, fanout) == tier
            # One level of the power and fanout - 1 of the power below it are
            # two tiers: nothing merges until a tier holds fanout levels.
            levels = (stub_level(1, power),) + tuple(
                stub_level(seq, power // fanout) for seq in range(2, fanout + 1)
            )
            assert session._pick_tier_merge(levels) is None
            same = tuple(stub_level(seq, power) for seq in range(1, fanout + 1))
            assert session._pick_tier_merge(same) == tuple(range(1, fanout + 1))

    @pytest.mark.parametrize("fanout", [2, 3, 4, 10])
    def test_tier_boundaries_sit_at_half_powers(self, fanout):
        assert _tier(0, fanout) == _tier(1, fanout) == 0
        for size in range(1, 5000):
            tier = _tier(size, fanout)
            # fanout**(tier - 1/2) <= size < fanout**(tier + 1/2), squared.
            assert size * size < fanout ** (2 * tier + 1)
            assert tier == 0 or size * size >= fanout ** (2 * tier - 1)


class TestShardedDelete:
    def engine(self):
        from repro.core.sharding import ShardedIndex

        data = np.random.default_rng(9).random((60, NUM_DIMS))
        return ShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            flush_rows=1000,
            fanout=2,
            background_compaction=False,
        )

    def test_each_shard_looks_an_id_up_at_most_once(self, monkeypatch):
        from repro.core import lsm

        engine = self.engine()
        searched = []
        locate = lsm._locate_live
        def counted(sorted_rows, *rest):
            searched.append(id(sorted_rows))
            return locate(sorted_rows, *rest)

        monkeypatch.setattr(lsm, "_locate_live", counted)
        owners = engine.assignments()[1]
        for row in (int(np.flatnonzero(owners == 0)[0]), int(np.flatnonzero(owners == 1)[0])):
            searched.clear()
            engine.delete(row)
            # The delta and the one level of each shard searched, each once.
            assert len(searched) == len(set(searched)) <= 4
        searched.clear()
        victims = [int(r) for r in engine.assignments()[0][:10]]
        engine.bulk_delete(victims)
        assert len(searched) == len(set(searched)) <= 4
        assert_sharded_matches_oracle(engine)
        engine.close()

    def test_a_bad_id_deletes_nothing_on_any_shard(self):
        engine = self.engine()
        rows, owners = engine.assignments()
        victims = [int(rows[owners == 0][0]), int(rows[owners == 1][0]), 777, 778]
        worlds = [engine.shard(s).serving_session()._world for s in range(2)]
        with pytest.raises(KeyError, match="row id 777 not present"):
            engine.bulk_delete(victims)
        assert [engine.shard(s).serving_session()._world for s in range(2)] == worlds
        with pytest.raises(KeyError, match="row id 778 not present"):
            engine.delete(778)
        engine.close()

    def test_a_lookup_older_than_the_world_is_made_again(self):
        engine = self.engine()
        shard = engine.shard(0)
        session = shard.serving_session()
        shard.bulk_insert(np.random.default_rng(1).random((3, NUM_DIMS)), row_ids=[900, 901, 902])
        session.flush()
        row = int(session._world.levels[0].state.rows[0])
        lookup, found = session.locate_deletes(np.asarray([row], dtype=np.int64))
        assert found.all()
        session.compact()  # a compactor publishes between lookup and apply
        merged = session.structure()
        assert len(merged["levels"]) == 1
        shard._delete_live(np.asarray([row], dtype=np.int64), lookup)
        after = session.structure()
        # The compacted layout stands, with the row tombstoned in it.
        assert len(after["levels"]) == 1
        assert after["levels"][0]["tombstoned"] == 1
        assert not engine.locate([row])[0] >= 0
        assert_sharded_matches_oracle(engine)
        engine.close()


def assert_sharded_matches_oracle(engine) -> None:
    with engine.snapshot() as snapshot:
        rows, matrix = snapshot.frozen()
    oracle = SequentialScan(matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows])
    queries = np.random.default_rng(4).random((4, NUM_DIMS))
    got, want = engine.batch_query(queries, k=5), oracle.batch_query(queries, k=5)
    for a, b in zip(got.results, want.results):
        assert [(m.row_id, m.score) for m in a.matches] == [(m.row_id, m.score) for m in b.matches]


@pytest.mark.stress
def test_a_reader_pinning_while_the_writer_appends_sees_a_consistent_prefix():
    index = build_index(rows=200, flush_rows=64, fanout=2)
    rng = np.random.default_rng(8)
    points = {}
    script = []
    for step in range(1500):
        row = 10_000 + step if step % 7 else 500 - step // 7  # some ids below the rest
        points[row] = rng.random(NUM_DIMS)
        script.append(row)
    done = threading.Event()
    pinned = []
    errors = []

    def read():
        try:
            while not done.is_set() and len(pinned) < 400:
                snapshot = index.snapshot()
                world = snapshot._view.state
                assert_consistent(world.delta)
                for row, vector in zip(world.delta.rows, world.delta.matrix):
                    np.testing.assert_array_equal(vector, points[int(row)])
                pinned.append((snapshot, world.delta, contents(world.delta), snapshot.frozen()))
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # hand the interpreter over often
    readers = [threading.Thread(target=read) for _ in range(2)]  # with the writer, 3 > 2 cores
    for reader in readers:
        reader.start()
    try:
        for i, row in enumerate(script):
            index.insert(points[row], row_id=row)
            if i % 5 == 4:
                index.delete(script[i - 2])
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not errors, errors[0]
    assert len({len(delta.rows) for _snapshot, delta, _contents, _frozen in pinned}) > 1
    for snapshot, delta, expected, (rows, matrix) in pinned:
        assert_contents(delta, expected)
        again_rows, again_matrix = snapshot.frozen()
        np.testing.assert_array_equal(again_rows, rows)
        np.testing.assert_array_equal(again_matrix, matrix)
        snapshot.close()
    assert_matches_oracle(index)
    index.close()
