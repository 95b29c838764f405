"""The row store: each engine's published LSM world is the only row record.

Three contracts are pinned here:

* **No per-row Python objects.**  A built or a loaded engine holds a number
  of Python heap blocks that does not grow with its row count: which rows
  exist, and where, lives in the world's numpy arrays, and retired ids live
  in a sorted int64 array.
* **The id contract survives every structure change.**  A deleted id stays
  unclaimable after the compaction that drops its tombstone, after
  save/load, after WAL recovery and after a rebalance; an id above the
  high-water mark is fresh; a rejected batch claims nothing.
* **Finite coordinates only.**  Every build and write entry point rejects
  NaN and infinite coordinates before it claims an id or journals a record.
"""

from __future__ import annotations

import gc
import math
import sys
import threading

import numpy as np
import pytest

from repro import SDIndex, Top1Index, TopKIndex
from repro.core.persistence import DurableIndex
from repro.core.sharding import ShardedIndex

REPULSIVE = [0, 1]
ATTRACTIVE = [2, 3]


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 4))


def _held_blocks(make):
    """``(engine, blocks)``: the Python heap blocks ``make()``'s engine holds."""
    gc.collect()
    before = sys.getallocatedblocks()
    engine = make()
    gc.collect()
    return engine, sys.getallocatedblocks() - before


def _sharded(data: np.ndarray) -> ShardedIndex:
    return ShardedIndex(data, REPULSIVE, ATTRACTIVE, num_shards=2)


# ------------------------------------------------------------ allocation tripwire
class TestNoPerRowObjects:
    """At 20k and 80k rows the held block counts must stay flat (a per-row
    dict or set would add 2-3 blocks for each of the 60k extra rows)."""

    SIZES = (20_000, 80_000)
    #: Allowed growth over the 60k extra rows: far below one block per row.
    SLACK = 500

    def _assert_flat(self, make):
        make(1_000).close()  # warm imports and module-level caches
        held = []
        for n in self.SIZES:
            engine, blocks = _held_blocks(lambda: make(n))
            held.append(blocks)
            engine.close()
            del engine
        assert held[1] - held[0] < self.SLACK, held

    def test_built_sdindex(self):
        self._assert_flat(lambda n: SDIndex.build(_data(n), REPULSIVE, ATTRACTIVE))

    def test_loaded_sdindex(self, tmp_path):
        for n in (1_000,) + self.SIZES:
            SDIndex.build(_data(n), REPULSIVE, ATTRACTIVE).save(tmp_path / str(n))
        self._assert_flat(lambda n: SDIndex.load(tmp_path / str(n)))

    def test_built_sharded(self):
        self._assert_flat(lambda n: _sharded(_data(n)))

    @pytest.mark.parametrize("mmap", [False, True])
    def test_loaded_sharded(self, tmp_path, mmap):
        for n in (1_000,) + self.SIZES:
            engine = _sharded(_data(n))
            engine.bulk_delete(np.arange(0, n, 7))  # retired ids ride along
            engine.save(tmp_path / str(n))
            engine.close()
        self._assert_flat(lambda n: ShardedIndex.load(tmp_path / str(n), mmap=mmap))


# ------------------------------------------------------------------ id contract
def _assert_retired(engine, row_id: int) -> None:
    with pytest.raises(ValueError, match="was deleted"):
        engine.insert(np.full(4, 0.5), row_id=row_id)
    with pytest.raises(KeyError, match="not present"):
        engine.delete(row_id)


class TestIdContract:
    def test_deleted_id_survives_the_compaction_that_drops_it(self):
        index = SDIndex.build(
            _data(2_000), REPULSIVE, ATTRACTIVE, flush_rows=64, background_compaction=False
        )
        index.bulk_insert(_data(300, seed=1))
        index.bulk_delete([5, 2_100])
        index.compact()
        structure = index.query_session().structure()
        stored = sum(level["rows"] for level in structure["levels"])
        assert stored + structure["delta_rows"] == len(index) == 2_298  # no tombstones left
        _assert_retired(index, 5)
        _assert_retired(index, 2_100)
        with pytest.raises(KeyError, match="was deleted"):
            index.point(5)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_deleted_id_survives_save_and_load(self, tmp_path, mmap):
        index = SDIndex.build(_data(1_000), REPULSIVE, ATTRACTIVE)
        index.delete(7)
        index.insert(np.full(4, 0.25), row_id=5_000)
        index.delete(5_000)
        index.save(tmp_path / "snap")
        loaded = SDIndex.load(tmp_path / "snap", mmap=mmap)
        try:
            _assert_retired(loaded, 7)
            _assert_retired(loaded, 5_000)
            # The high-water mark is restored too: auto ids continue past it.
            assert loaded.insert(np.full(4, 0.5)) == 5_001
        finally:
            loaded.close()

    def test_deleted_id_survives_recovery(self, tmp_path):
        durable = DurableIndex.create(
            SDIndex.build(_data(1_000), REPULSIVE, ATTRACTIVE), tmp_path / "db"
        )
        durable.delete(3)  # in the snapshot after the checkpoint below
        durable.checkpoint()
        durable.delete(4)  # replayed from the WAL
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "db")
        try:
            _assert_retired(recovered.engine, 3)
            _assert_retired(recovered.engine, 4)
            assert len(recovered) == 998
        finally:
            recovered.close()

    def test_deleted_id_survives_rebalance(self, tmp_path):
        engine = ShardedIndex(_data(600), REPULSIVE, ATTRACTIVE, num_shards=3)
        engine.bulk_delete([10, 11, 12])
        engine.rebalance()
        for row_id in (10, 11, 12):
            _assert_retired(engine, row_id)
        # Deletes after the rebalance find each row in the shard holding it.
        rows, shards = engine.assignments()
        victims = rows[:40]
        engine.bulk_delete(victims)
        assert len(engine) == 600 - 3 - 40
        assert not np.isin(victims, engine.assignments()[0]).any()
        engine.save(tmp_path / "snap")
        loaded = ShardedIndex.load(tmp_path / "snap")
        try:
            _assert_retired(loaded, 10)
            _assert_retired(loaded, int(victims[0]))
        finally:
            loaded.close()
            engine.close()

    @pytest.mark.parametrize("sharded", [False, True])
    def test_ids_above_the_high_water_mark_are_fresh(self, sharded):
        data = _data(500)
        engine = (
            ShardedIndex(data, REPULSIVE, ATTRACTIVE, num_shards=2)
            if sharded
            else SDIndex.build(data, REPULSIVE, ATTRACTIVE)
        )
        assert engine.insert(np.full(4, 0.5), row_id=10_000) == 10_000
        assert engine.bulk_insert(_data(3, seed=2), row_ids=[20_000, 10_001, 15_000]) == [
            20_000,
            10_001,
            15_000,
        ]
        assert engine.insert(np.full(4, 0.5)) == 20_001
        # Below the mark, an id never used is still claimable.
        assert engine.insert(np.full(4, 0.5), row_id=600) == 600
        with pytest.raises(ValueError, match="already present"):
            engine.insert(np.full(4, 0.5), row_id=15_000)
        assert np.array_equal(engine.point(15_000), _data(3, seed=2)[2])

    @pytest.mark.parametrize("sharded", [False, True])
    def test_rejected_batch_claims_nothing(self, sharded):
        data = _data(500)
        engine = (
            ShardedIndex(data, REPULSIVE, ATTRACTIVE, num_shards=2)
            if sharded
            else SDIndex.build(data, REPULSIVE, ATTRACTIVE)
        )
        engine.delete(3)
        for bad_ids, message in (
            ([900, 3], "was deleted"),
            ([901, 4], "already present"),
            ([902, 902], "unique"),
        ):
            with pytest.raises(ValueError, match=message):
                engine.bulk_insert(_data(2, seed=3), row_ids=bad_ids)
        poisoned = _data(2, seed=3)
        poisoned[1, 2] = math.nan
        with pytest.raises(ValueError, match="finite"):
            engine.bulk_insert(poisoned, row_ids=[903, 904])
        assert len(engine) == 499
        assert engine.bulk_insert(_data(2, seed=4), row_ids=[900, 903]) == [900, 903]
        assert engine.insert(np.full(4, 0.5)) == 904

    @pytest.mark.parametrize("sharded", [False, True])
    def test_build_keeps_its_own_copy_of_the_row_ids(self, tmp_path, sharded):
        data = _data(1_000)
        ids = np.arange(1_000, dtype=np.int64) * 3 + 7
        engine = (
            ShardedIndex(data, REPULSIVE, ATTRACTIVE, num_shards=2, row_ids=ids)
            if sharded
            else SDIndex.build(data, REPULSIVE, ATTRACTIVE, row_ids=ids)
        )
        queries = _data(8, seed=5)

        def answers(target):
            return [
                [(m.row_id, m.score) for m in target.query(q, k=5).matches] for q in queries
            ]

        expected = answers(engine)
        ids[:] = ids[::-1] + 1  # the caller reuses its array
        assert answers(engine) == expected
        assert np.array_equal(engine.point(7), data[0])
        engine.delete(10)  # data[1]
        engine.insert(np.full(4, 0.5), row_id=10_000)
        # A merge rewrites the levels from their stored ids.
        if sharded:
            for s in range(2):
                engine.shard(s).lsm_compact()
        else:
            engine.compact()
        expected = answers(engine)
        assert len(engine) == 1_000
        engine.save(tmp_path / "snap")
        loaded = (ShardedIndex if sharded else SDIndex).load(tmp_path / "snap")
        try:
            assert answers(loaded) == expected
            assert np.array_equal(loaded.point(3 * 999 + 7), data[999])
            _assert_retired(loaded, 10)
        finally:
            loaded.close()
            engine.close()


# --------------------------------------------------------- finite coordinates
NON_FINITE = [
    [math.nan, 0.5, 0.5, 0.5],
    [0.5, math.inf, 0.5, 0.5],
    [0.5, 0.5, -math.inf, 0.5],
]


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_sdindex_rejects_them_everywhere(self, bad):
        data = _data(2_000)
        poisoned = data.copy()
        poisoned[17] = bad
        with pytest.raises(ValueError, match="finite"):
            SDIndex.build(poisoned, REPULSIVE, ATTRACTIVE)
        index = SDIndex.build(data, REPULSIVE, ATTRACTIVE)
        with pytest.raises(ValueError, match="finite"):
            index.insert(bad)
        with pytest.raises(ValueError, match="finite"):
            index.bulk_insert([[0.5] * 4, bad])
        assert len(index) == 2_000
        # Nothing was claimed: the next auto id follows the build.
        assert index.insert([0.5] * 4) == 2_000
        query = [0.3] * 4
        got = index.query(query, k=1)
        want = index.query(query, k=1, engine="legacy")
        assert got.row_ids == want.row_ids and got.scores == want.scores

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_sharded_rejects_them(self, bad):
        data = _data(400)
        poisoned = data.copy()
        poisoned[3] = bad
        with pytest.raises(ValueError, match="finite"):
            ShardedIndex(poisoned, REPULSIVE, ATTRACTIVE, num_shards=2)
        engine = ShardedIndex(data, REPULSIVE, ATTRACTIVE, num_shards=2)
        with pytest.raises(ValueError, match="finite"):
            engine.insert(bad)
        with pytest.raises(ValueError, match="finite"):
            engine.bulk_insert([[0.5] * 4, bad])
        assert len(engine) == 400
        assert engine.insert([0.5] * 4) == 400
        engine.close()

    @pytest.mark.parametrize("x, y", [(math.nan, 0.5), (0.5, math.inf)])
    def test_two_dimensional_indexes_reject_them(self, x, y):
        rng = np.random.default_rng(5)
        xs, ys = rng.random(300), rng.random(300)
        for cls in (TopKIndex, Top1Index):
            with pytest.raises(ValueError, match="finite"):
                cls(np.append(xs, x), np.append(ys, y))
            index = cls(xs, ys)
            with pytest.raises(ValueError, match="finite"):
                index.insert(x, y)
            assert len(index) == 300
        topk = TopKIndex(xs, ys)
        result = topk.query(0.3, 0.3, k=3)
        assert len(result) == 3

    def test_durable_writes_journal_nothing(self, tmp_path):
        durable = DurableIndex.create(
            SDIndex.build(_data(300), REPULSIVE, ATTRACTIVE), tmp_path / "db"
        )
        try:
            lsn = durable.end_lsn
            with pytest.raises(ValueError, match="finite"):
                durable.insert([math.nan, 0.5, 0.5, 0.5])
            with pytest.raises(ValueError, match="finite"):
                durable.bulk_insert([[0.5, 0.5, math.inf, 0.5]])
            assert durable.end_lsn == lsn
        finally:
            durable.close()


# ------------------------------------------------------------ unlocked readers
@pytest.mark.stress
def test_unlocked_lookups_see_every_acknowledged_write():
    """``point()`` reads the world and the retired ids without the write
    lock.  While a writer deletes 3,000 rows one at a time (folding the
    retired tail into its sorted array twice) and inserts fresh ones, with
    background compaction on, readers must find every acknowledged delete
    reported "was deleted", every untouched and acknowledged-insert row with
    its own vector, and never a count above the writer's."""
    data = _data(5_000)
    index = SDIndex.build(data, REPULSIVE, ATTRACTIVE, flush_rows=64)
    inserted = _data(600, seed=9)
    progress = {"deleted": 0, "inserted": 0}
    done = threading.Event()
    errors = []

    def writer() -> None:
        try:
            for row in range(3_000):
                index.delete(row)
                progress["deleted"] = row + 1
                if row % 5 == 0:
                    k = row // 5
                    index.insert(inserted[k], row_id=10_000 + k)
                    progress["inserted"] = k + 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    def reader(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            while not done.is_set():
                deleted, added = progress["deleted"], progress["inserted"]
                if deleted:
                    row = int(rng.integers(deleted))
                    with pytest.raises(KeyError, match="was deleted"):
                        index.point(row)
                row = int(rng.integers(4_000, 5_000))
                assert np.array_equal(index.point(row), data[row])
                if added:
                    k = int(rng.integers(added))
                    assert np.array_equal(index.point(10_000 + k), inserted[k])
                assert len(index) <= 5_000 - deleted + progress["inserted"] + 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    index.quiesce_maintenance()
    assert len(index) == 5_000 - 3_000 + 600
    index.close()
