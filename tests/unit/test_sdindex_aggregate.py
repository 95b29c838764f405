"""Unit tests for the SDIndex facade and the subproblem aggregator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import SubproblemAggregator
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex
from tests.conftest import assert_same_scores, oracle_topk


class TestSDIndexConstruction:
    def test_build_and_basic_query(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        result = index.query(small_4d_dataset[0], k=5)
        assert len(result) == 5
        assert len(index) == len(small_4d_dataset)

    def test_rejects_non_matrix_data(self):
        with pytest.raises(ValueError):
            SDIndex.build(np.zeros(10), repulsive=[0], attractive=[1])

    def test_rejects_overlapping_roles(self, small_4d_dataset):
        with pytest.raises(ValueError):
            SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[1, 2])

    def test_rejects_out_of_range_dimension(self, small_4d_dataset):
        with pytest.raises(ValueError):
            SDIndex.build(small_4d_dataset, repulsive=[0], attractive=[7])

    def test_rejects_empty_roles(self, small_4d_dataset):
        with pytest.raises(ValueError):
            SDIndex.build(small_4d_dataset, repulsive=[], attractive=[])

    def test_accepts_angle_list(self, small_4d_dataset):
        index = SDIndex.build(
            small_4d_dataset, repulsive=[0, 1], attractive=[2, 3], angles=[0, 45, 90]
        )
        assert index.stats().num_angles == 3

    def test_pairing_property(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        assert len(index.pairing.pairs) == 2

    def test_rejects_duplicate_row_ids(self, small_4d_dataset):
        row_ids = list(range(len(small_4d_dataset)))
        row_ids[-1] = row_ids[0]
        with pytest.raises(ValueError, match="row ids must be unique"):
            SDIndex.build(
                small_4d_dataset, repulsive=[0, 1], attractive=[2, 3], row_ids=row_ids
            )

    def test_sharded_build_rejects_duplicate_row_ids(self, small_4d_dataset):
        row_ids = list(range(len(small_4d_dataset)))
        row_ids[-1] = row_ids[0]
        with pytest.raises(ValueError, match="row ids must be unique"):
            SDIndex.build_sharded(
                small_4d_dataset,
                repulsive=[0, 1],
                attractive=[2, 3],
                num_shards=2,
                row_ids=row_ids,
            )


class TestSDIndexQueries:
    def test_query_with_sdquery_object(self, small_4d_dataset, rng):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        for _ in range(5):
            query = SDQuery.simple(rng.random(4), [0, 1], [2, 3], k=6,
                                   alpha=rng.uniform(0.1, 2, 2), beta=rng.uniform(0.1, 2, 2))
            assert_same_scores(index.query(query), oracle_topk(small_4d_dataset, query))

    def test_query_with_raw_point(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        result = index.query([0.5, 0.5, 0.5, 0.5], k=3, alpha=[1.0, 2.0], beta=[0.5, 0.5])
        query = SDQuery.simple([0.5] * 4, [0, 1], [2, 3], k=3, alpha=[1.0, 2.0], beta=[0.5, 0.5])
        assert_same_scores(result, oracle_topk(small_4d_dataset, query))

    def test_raw_point_requires_k(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        with pytest.raises(ValueError):
            index.query([0.5] * 4)

    def test_rejects_mixing_query_object_and_k(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        query = SDQuery.simple([0.5] * 4, [0, 1], [2, 3], k=1)
        with pytest.raises(ValueError):
            index.query(query, k=5)

    def test_rejects_role_mismatch(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        query = SDQuery.simple([0.5] * 4, [0], [1], k=1)
        with pytest.raises(ValueError):
            index.query(query)

    def test_2d_dataset(self, small_2d_dataset, rng):
        index = SDIndex.build(small_2d_dataset, repulsive=[1], attractive=[0])
        for _ in range(5):
            query = SDQuery.simple(rng.random(2), [1], [0], k=4)
            assert_same_scores(index.query(query), oracle_topk(small_2d_dataset, query))

    def test_unpaired_dimensions(self, rng):
        data = rng.random((300, 5))
        index = SDIndex.build(data, repulsive=[0, 1, 2], attractive=[3, 4])
        for _ in range(5):
            query = SDQuery.simple(rng.random(5), [0, 1, 2], [3, 4], k=5)
            assert_same_scores(index.query(query), oracle_topk(data, query))

    def test_point_access(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        assert np.allclose(index.point(3), small_4d_dataset[3])


class TestSDIndexUpdates:
    def test_insert_then_query(self, small_4d_dataset, rng):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        extra = rng.random((30, 4))
        for point in extra:
            index.insert(point)
        full = np.vstack([small_4d_dataset, extra])
        assert len(index) == len(full)
        query = SDQuery.simple(rng.random(4), [0, 1], [2, 3], k=8)
        assert_same_scores(index.query(query), oracle_topk(full, query))

    def test_delete_then_query(self, small_4d_dataset, rng):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        removed = [0, 5, 17, 100]
        for row in removed:
            index.delete(row)
        remaining = np.delete(small_4d_dataset, removed, axis=0)
        query = SDQuery.simple(rng.random(4), [0, 1], [2, 3], k=6)
        assert_same_scores(index.query(query), oracle_topk(remaining, query))

    def test_insert_wrong_dimensionality(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        with pytest.raises(ValueError):
            index.insert([1.0, 2.0])

    def test_delete_unknown_row(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        with pytest.raises(KeyError):
            index.delete(99999)

    def test_deleted_row_id_not_reusable(self, small_4d_dataset):
        index = SDIndex.build(small_4d_dataset, repulsive=[0, 1], attractive=[2, 3])
        index.delete(3)
        with pytest.raises((ValueError, KeyError)):
            index.point(3)

    def test_updates_with_leftover_columns(self, rng):
        data = rng.random((200, 3))
        index = SDIndex.build(data, repulsive=[0, 1], attractive=[2])
        index.delete(0)
        new_row = index.insert(rng.random(3))
        assert new_row not in (0,)
        live = np.vstack([data[1:], index.point(new_row)])
        query = SDQuery.simple(rng.random(3), [0, 1], [2], k=4)
        assert_same_scores(index.query(query), oracle_topk(live, query))

    @pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
    def test_rejected_bulk_insert_claims_no_row_id(self, rng, sharded):
        """A bulk insert rejected on one id inserts nothing and leaves the
        auto-assign high-water mark where it was."""
        build = SDIndex.build_sharded if sharded else SDIndex.build
        index = build(rng.random((101, 4)), repulsive=[0, 1], attractive=[2, 3])
        index.delete(3)
        with pytest.raises(ValueError, match="already present"):
            index.bulk_insert(rng.random((2, 4)), row_ids=[5000, 7])
        with pytest.raises(ValueError, match="was deleted"):
            index.bulk_insert(rng.random((2, 4)), row_ids=[6000, 3])
        assert len(index) == 100
        assert index.insert(rng.random(4)) == 101
        assert index.bulk_insert(rng.random((2, 4))) == [102, 103]
        index.close()


class TestAggregatorInternals:
    def test_stats_aggregate_pair_indexes(self, small_4d_dataset):
        aggregator = SubproblemAggregator(small_4d_dataset, [0, 1], [2, 3])
        stats = aggregator.stats()
        assert stats.name == "sd-index"
        assert stats.num_points == len(small_4d_dataset)
        assert stats.memory_bytes > 0

    def test_row_ids_respected(self, rng):
        data = rng.random((50, 4))
        rows = list(range(500, 550))
        aggregator = SubproblemAggregator(data, [0, 1], [2, 3], row_ids=rows)
        query = SDQuery.simple([0.5] * 4, [0, 1], [2, 3], k=3)
        result = aggregator.query(query)
        assert all(500 <= row < 550 for row in result.row_ids)

    def test_rejects_misaligned_row_ids(self, rng):
        with pytest.raises(ValueError):
            SubproblemAggregator(rng.random((10, 4)), [0, 1], [2, 3], row_ids=[1, 2])

    def test_candidate_counters_populated(self, small_4d_dataset):
        aggregator = SubproblemAggregator(small_4d_dataset, [0, 1], [2, 3])
        query = SDQuery.simple([0.5] * 4, [0, 1], [2, 3], k=5)
        result = aggregator.query(query)
        assert result.candidates_examined >= result.full_evaluations >= len(result)
        assert result.full_evaluations < len(small_4d_dataset)


class TestRowStoreChurn:
    def test_deleted_inserts_leave_no_stored_vectors(self):
        """Insert/delete cycles keep no vector of a deleted row: the Python
        heap blocks the engine holds do not grow with the 60k rows that came
        and went, ``len`` stays exact and a deleted id stays unclaimable."""
        import gc
        import sys

        from repro.baselines import SequentialScan

        rng = np.random.default_rng(41)
        index = SDIndex.build(rng.random((50_000, 4)), repulsive=[0, 1], attractive=[2, 3])
        aggregator = index.aggregator
        index.query(rng.random(4), k=5)
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(3):
            ids = index.bulk_insert(rng.random((20_000, 4)))
            index.bulk_delete(ids)
        first, last = ids[0], ids[-1]
        del ids  # the returned id list is the caller's, not the engine's
        index.quiesce_maintenance()
        gc.collect()
        assert sys.getallocatedblocks() - before < 2_000
        assert len(index) == 50_000
        with pytest.raises(ValueError, match="was deleted"):
            index.insert(rng.random(4), row_id=first)
        with pytest.raises(KeyError):
            index.delete(last)
        index.bulk_delete(list(range(10)))
        assert len(index) == 49_990
        rows, matrix = aggregator.live_population()
        assert len(rows) == 49_990
        oracle = SequentialScan(matrix, [0, 1], [2, 3], row_ids=rows.tolist())
        queries = rng.random((8, 4))
        for got, want in zip(
            index.batch_query(queries, k=10).results,
            oracle.batch_query(queries, k=10).results,
        ):
            assert got.row_ids == want.row_ids
            assert got.scores == want.scores
