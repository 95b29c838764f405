"""Regression tests for bound/refinement edge cases (PR 10, satellite 2).

Every test here targets a path where the seeded k-th lower bound can
legitimately loosen to ``-inf`` — an empty live set, a verify pool smaller
than ``k``, an all-tombstone delta, a layered world with fewer live rows
than requested — or where a failure mid-mutation could leave counters
drifted.  A loosened threshold must degrade to a *correct* full scan, never
to a wrong answer, and a failed mutation must leave every stat untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.batch import _VERIFY_POOL
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex

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


def oracle_of(index: SDIndex) -> SequentialScan:
    with index.snapshot() as snapshot:
        rows, matrix = snapshot.frozen()
    return SequentialScan(
        matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows]
    )


def make_query(seed: int, k: int) -> SDQuery:
    rng = np.random.default_rng(seed)
    return SDQuery.simple(
        point=rng.random(NUM_DIMS), repulsive=REPULSIVE, attractive=ATTRACTIVE, k=k
    )


def assert_matches_oracle(index: SDIndex, k: int, seeds=(1, 2, 3)) -> None:
    oracle = oracle_of(index)
    for seed in seeds:
        query = make_query(seed, k)
        got = index.query(query)
        want = oracle.query(query)
        assert got.row_ids == want.row_ids
        assert got.scores == want.scores


class TestEmptyLiveSet:
    """``n_live == 0``: seeding finds nothing, the threshold is -inf, and the
    engine must return an empty result instead of tripping on empty pools."""

    @pytest.mark.parametrize("layout", ["collected", "tombstoned", "delta"])
    def test_query_after_deleting_everything(self, layout):
        """Each empty world answers empty: the garbage compaction collected
        the only level away, the level stays fully tombstoned (scheduling
        off), or the dead rows also sit in the delta."""
        index = build_index(rows=12, flush_rows=100)
        session = index.query_session()
        victims = list(range(12))
        if layout == "tombstoned":
            index.set_auto_compaction(False)
        elif layout == "delta":
            rng = np.random.default_rng(5)
            victims += index.bulk_insert(rng.random((6, NUM_DIMS)))
        index.bulk_delete(victims)
        structure = session.structure()
        assert structure["delta_live"] == 0
        if layout == "tombstoned":
            assert [lvl["tombstoned"] for lvl in structure["levels"]] == [12]
        else:
            assert structure["levels"] == []
        assert structure["delta_rows"] == (6 if layout == "delta" else 0)
        result = index.query(make_query(0, k=5))
        assert list(result.row_ids) == []
        assert list(result.scores) == []

    def test_batch_query_after_deleting_everything(self):
        index = build_index(rows=10)
        index.bulk_delete(list(range(10)))
        results = index.batch_query([make_query(s, k=3) for s in range(4)])
        for result in results:
            assert list(result.row_ids) == []


class TestLargeK:
    """``k_eff > _VERIFY_POOL``: the refine head must widen with k instead of
    silently truncating the verified candidate set at the pool size."""

    def test_k_beyond_verify_pool_matches_oracle(self):
        rows = 4 * _VERIFY_POOL
        index = build_index(rows=rows)
        assert_matches_oracle(index, k=_VERIFY_POOL + 40)

    def test_k_beyond_verify_pool_lsm(self):
        rows = 4 * _VERIFY_POOL
        index = build_index(rows=rows, flush_rows=64)
        # Build layers so the pooled-sample threshold path runs.
        rng = np.random.default_rng(11)
        index.bulk_insert(rng.random((80, NUM_DIMS)), row_ids=range(rows, rows + 80))
        assert_matches_oracle(index, k=_VERIFY_POOL + 10)


class TestAllTombstoneDelta:
    """A delta whose every row is tombstoned holds zero live rows but still
    participates in bound pooling; it must contribute nothing, not -inf."""

    def test_query_with_dead_delta(self):
        index = build_index(rows=30, flush_rows=1000)  # inserts stay in delta
        session = index._aggregator.serving_session()  # build before mutating
        rng = np.random.default_rng(5)
        extra = list(range(30, 42))
        index.bulk_insert(rng.random((len(extra), NUM_DIMS)), row_ids=extra)
        index.bulk_delete(extra)  # delta is now all tombstones
        structure = session.structure()
        assert structure["delta_rows"] > 0
        assert structure["delta_live"] == 0
        assert_matches_oracle(index, k=7)


class TestPoolSmallerThanK:
    """Layered worlds with fewer live rows than ``k``: every source must be
    visited (no bound-ordered skip can fire while the pool is short)."""

    def test_k_exceeds_total_live_rows(self):
        index = build_index(rows=20, flush_rows=4)
        rng = np.random.default_rng(9)
        index.bulk_insert(rng.random((3, NUM_DIMS)), row_ids=[100, 101, 102])
        index.bulk_delete(list(range(0, 10)))
        oracle = oracle_of(index)
        query = make_query(4, k=50)  # > 13 live rows
        got = index.query(query)
        want = oracle.query(query)
        assert got.row_ids == want.row_ids
        assert got.scores == want.scores
        assert len(got.row_ids) == 13


class TestSeedPoolValidation:
    """A non-positive seed pool would disable pruning for every query while
    still returning correct-looking answers — reject it at construction."""

    @pytest.mark.parametrize("bad", [0, -1, -1024])
    def test_non_positive_seed_pool_rejected(self, bad):
        index = build_index(rows=8)
        with pytest.raises(ValueError, match="seed_pool"):
            index._aggregator.session(seed_pool=bad, cached=False)

    def test_seed_pool_of_one_is_legal(self):
        index = build_index(rows=8)
        session = index._aggregator.session(seed_pool=1, cached=False)
        oracle = oracle_of(index)
        query = make_query(2, k=3)
        got = session.run_one(query)
        want = oracle.query(query)
        assert got.row_ids == want.row_ids
        assert got.scores == want.scores


class TestFailedDeleteLeavesCountersUntouched:
    """``apply_bulk_delete`` raising KeyError must not publish a world *or*
    move ``delta_absorbed_deletes``/``patched_deletes`` (counter drift bug)."""

    def test_keyerror_rolls_back_all_accounting(self):
        index = build_index(rows=16, flush_rows=1000)
        session = index._aggregator.serving_session()  # build before mutating
        rng = np.random.default_rng(3)
        index.bulk_insert(rng.random((4, NUM_DIMS)), row_ids=[200, 201, 202, 203])
        assert session.structure()["delta_live"] == 4  # 200 lives in the delta
        before_stats = session.maintenance_stats()
        before_live = session.structure()["delta_live"]
        with pytest.raises(KeyError):
            # 200 is delta-live, 999999 exists nowhere: the partial delete
            # must not leak into counters or the published world.
            session.apply_bulk_delete(np.asarray([200, 999999], dtype=np.int64))
        after_stats = session.maintenance_stats()
        assert after_stats["delta_absorbed_deletes"] == before_stats["delta_absorbed_deletes"]
        assert session.patched_deletes == before_stats.get("patched_deletes", session.patched_deletes)
        assert session.structure()["delta_live"] == before_live
        # Row 200 is still live and queryable.
        assert_matches_oracle(index, k=5, seeds=(1,))
