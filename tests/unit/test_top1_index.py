"""Unit tests for the apriori-k region index (repro.core.top1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.geometry import Angle
from repro.core.query import SDQuery
from repro.core.top1 import Top1Index
from tests.conftest import assert_same_scores, oracle_topk


def make_query(qx, qy, k=1, alpha=1.0, beta=1.0):
    return SDQuery.simple([qx, qy], repulsive=[1], attractive=[0], k=k, alpha=alpha, beta=beta)


class TestConstruction:
    def test_empty_index(self):
        index = Top1Index([], [], k=1)
        assert len(index) == 0
        result = index.query(0.5, 0.5)
        assert len(result) == 0

    def test_single_point(self):
        index = Top1Index([0.5], [0.5], k=1)
        result = index.query(0.0, 0.0)
        assert result.row_ids == [0]
        assert result.scores[0] == pytest.approx(0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            Top1Index([0.0], [0.0], k=0)

    def test_rejects_duplicate_row_ids(self):
        with pytest.raises(ValueError):
            Top1Index([0.0, 1.0], [0.0, 1.0], row_ids=[5, 5])

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            Top1Index([0.0, 1.0], [0.0])

    def test_from_weights_scales_scores(self, small_2d_dataset):
        x, y = small_2d_dataset[:, 0], small_2d_dataset[:, 1]
        index = Top1Index.from_weights(x, y, alpha=2.0, beta=0.5, k=1)
        result = index.query(0.5, 0.5)
        expected = oracle_topk(small_2d_dataset, make_query(0.5, 0.5, alpha=2.0, beta=0.5))
        assert_same_scores(result, expected)


class TestQueryCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_oracle_unit_weights(self, small_2d_dataset, rng, k):
        x, y = small_2d_dataset[:, 0], small_2d_dataset[:, 1]
        index = Top1Index(x, y, k=k)
        for _ in range(25):
            qx, qy = rng.random(2)
            result = index.query(qx, qy, k=k)
            expected = oracle_topk(small_2d_dataset, make_query(qx, qy, k=k))
            assert_same_scores(result, expected)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 3.0), (2.5, 0.3), (0.1, 0.1)])
    def test_matches_oracle_weighted(self, small_2d_dataset, rng, alpha, beta):
        x, y = small_2d_dataset[:, 0], small_2d_dataset[:, 1]
        index = Top1Index.from_weights(x, y, alpha=alpha, beta=beta, k=3)
        for _ in range(15):
            qx, qy = rng.random(2)
            result = index.query(qx, qy, k=3)
            expected = oracle_topk(small_2d_dataset, make_query(qx, qy, k=3, alpha=alpha, beta=beta))
            assert_same_scores(result, expected)

    def test_query_outside_data_range(self, small_2d_dataset):
        x, y = small_2d_dataset[:, 0], small_2d_dataset[:, 1]
        index = Top1Index(x, y, k=1)
        for qx, qy in [(-10.0, 0.5), (10.0, 0.5), (0.5, -10.0), (0.5, 10.0)]:
            result = index.query(qx, qy)
            expected = oracle_topk(small_2d_dataset, make_query(qx, qy))
            assert_same_scores(result, expected)

    def test_k_larger_than_built_k_rejected(self, small_2d_dataset):
        index = Top1Index(small_2d_dataset[:, 0], small_2d_dataset[:, 1], k=2)
        with pytest.raises(ValueError):
            index.query(0.5, 0.5, k=3)

    def test_k_smaller_than_built_k_allowed(self, small_2d_dataset):
        index = Top1Index(small_2d_dataset[:, 0], small_2d_dataset[:, 1], k=4)
        result = index.query(0.5, 0.5, k=2)
        expected = oracle_topk(small_2d_dataset, make_query(0.5, 0.5, k=2))
        assert_same_scores(result, expected)

    def test_duplicate_points(self):
        x = [0.2, 0.2, 0.8, 0.8]
        y = [0.3, 0.3, 0.9, 0.9]
        index = Top1Index(x, y, k=2)
        result = index.query(0.2, 0.3, k=2)
        data = np.column_stack([x, y])
        expected = oracle_topk(data, make_query(0.2, 0.3, k=2))
        assert_same_scores(result, expected)


class TestUpdates:
    def test_insert_then_query_matches_rebuilt_oracle(self, rng):
        base = rng.random((200, 2))
        index = Top1Index(base[:, 0], base[:, 1], k=1)
        extra = rng.random((50, 2))
        for i, (px, py) in enumerate(extra):
            index.insert(px, py, row_id=1000 + i)
        full = np.vstack([base, extra])
        for _ in range(10):
            qx, qy = rng.random(2)
            result = index.query(qx, qy)
            expected = oracle_topk(full, make_query(qx, qy))
            assert_same_scores(result, expected)

    def test_insert_rejects_duplicate_row(self, small_2d_dataset):
        index = Top1Index(small_2d_dataset[:, 0], small_2d_dataset[:, 1], k=1)
        with pytest.raises(ValueError):
            index.insert(0.5, 0.5, row_id=0)

    def test_insert_auto_assigns_row_id(self, small_2d_dataset):
        index = Top1Index(small_2d_dataset[:, 0], small_2d_dataset[:, 1], k=1)
        new_row = index.insert(0.5, 0.5)
        assert new_row == len(small_2d_dataset)

    def test_delete_owner_forces_correct_answers(self, rng):
        data = rng.random((150, 2))
        index = Top1Index(data[:, 0], data[:, 1], k=1)
        # Delete the current best answer for some query and re-check correctness.
        qx, qy = 0.5, 0.5
        best = index.query(qx, qy).row_ids[0]
        index.delete(best)
        remaining_rows = [i for i in range(len(data)) if i != best]
        remaining = data[remaining_rows]
        expected = oracle_topk(remaining, make_query(qx, qy))
        assert_same_scores(index.query(qx, qy), expected)

    def test_delete_unknown_row_raises(self, small_2d_dataset):
        index = Top1Index(small_2d_dataset[:, 0], small_2d_dataset[:, 1], k=1)
        with pytest.raises(KeyError):
            index.delete(10_000)

    def test_mixed_updates_k_greater_than_one(self, rng):
        data = rng.random((120, 2))
        index = Top1Index(data[:, 0], data[:, 1], k=3)
        live = {i: data[i] for i in range(len(data))}
        next_row = len(data)
        for step in range(120):
            if rng.random() < 0.6 or len(live) < 10:
                point = rng.random(2)
                index.insert(point[0], point[1], row_id=next_row)
                live[next_row] = point
                next_row += 1
            else:
                victim = int(rng.choice(list(live)))
                index.delete(victim)
                del live[victim]
        rows = list(live)
        matrix = np.array([live[r] for r in rows])
        for _ in range(5):
            qx, qy = rng.random(2)
            expected = oracle_topk(matrix, make_query(qx, qy, k=3))
            assert_same_scores(index.query(qx, qy, k=3), expected)


class TestNonFiniteQueries:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_every_entry_point_rejects(self, small_2d_dataset, value, k):
        """The envelope (k = 1) and k-list lookups would return an arbitrary
        row for a non-finite coordinate; every front door refuses it."""
        index = Top1Index(small_2d_dataset[:, 0], small_2d_dataset[:, 1], k=k)
        with index.snapshot() as snap:
            for reader in (index, snap):
                for qx, qy in ((value, 0.5), (0.5, value)):
                    with pytest.raises(ValueError, match="query coordinates must be finite"):
                        reader.query(qx, qy)
                    with pytest.raises(ValueError, match="query coordinates must be finite"):
                        reader.batch_query([0.2, qx], [0.5, qy])


class TestStats:
    def test_stats_fields(self, small_2d_dataset):
        index = Top1Index(small_2d_dataset[:, 0], small_2d_dataset[:, 1], k=1)
        stats = index.stats()
        assert stats.name == "sd-top1"
        assert stats.num_points == len(small_2d_dataset)
        assert stats.num_regions > 0
        assert stats.memory_bytes > 0
        assert stats.build_seconds is not None

    def test_region_count_is_linear(self, rng):
        """Claim 5 / storage bound: at most 2n regions for k=1."""
        data = rng.random((500, 2))
        index = Top1Index(data[:, 0], data[:, 1], k=1)
        lower, upper = index.envelope_layers()
        assert len(lower[0]) <= len(data)
        assert len(upper[0]) <= len(data)

    def test_klists_storage_bound(self, rng):
        """The apriori-k structure stores O(k n) region entries."""
        data = rng.random((300, 2))
        k = 4
        index = Top1Index(data[:, 0], data[:, 1], k=k)
        structures = index.region_structures()
        assert len(structures) == 4
        for structure in structures.values():
            assert structure.num_regions() <= len(data) + 1
