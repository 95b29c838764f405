"""Unit tests for the runtime-k 2D index (repro.core.topk)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import faults
from repro.core.angles import AngleGrid
from repro.core.query import SDQuery
from repro.core.topk import TopKIndex
from repro.faults import FaultPlane, FaultRule, InjectedFault
from tests.conftest import assert_same_scores, oracle_topk

NON_FINITE = [math.nan, math.inf, -math.inf]


def make_query(qx, qy, k=5, alpha=1.0, beta=1.0):
    return SDQuery.simple([qx, qy], repulsive=[1], attractive=[0], k=k, alpha=alpha, beta=beta)


@pytest.fixture
def index_and_data(small_2d_dataset):
    index = TopKIndex(
        small_2d_dataset[:, 0],
        small_2d_dataset[:, 1],
        angle_grid=AngleGrid.default(),
        branching=4,
        leaf_capacity=8,
    )
    return index, small_2d_dataset


class TestQueries:
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_matches_oracle_unit_weights(self, index_and_data, rng, k):
        index, data = index_and_data
        for _ in range(10):
            qx, qy = rng.random(2)
            result = index.query(qx, qy, k=k)
            assert_same_scores(result, oracle_topk(data, make_query(qx, qy, k=k)))

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.2, 1.7), (3.0, 0.1), (1.0, 0.0001)])
    def test_matches_oracle_arbitrary_weights(self, index_and_data, rng, alpha, beta):
        index, data = index_and_data
        for _ in range(10):
            qx, qy = rng.random(2)
            result = index.query(qx, qy, k=7, alpha=alpha, beta=beta)
            assert_same_scores(result, oracle_topk(data, make_query(qx, qy, 7, alpha, beta)))

    def test_claim6_strategy_matches_streams(self, index_and_data, rng):
        index, data = index_and_data
        for _ in range(15):
            qx, qy = rng.random(2)
            alpha, beta = rng.uniform(0.05, 2.0, size=2)
            streams = index.query(qx, qy, k=6, alpha=alpha, beta=beta, strategy="streams")
            claim6 = index.query(qx, qy, k=6, alpha=alpha, beta=beta, strategy="claim6")
            assert_same_scores(claim6, streams)
            assert_same_scores(streams, oracle_topk(data, make_query(qx, qy, 6, alpha, beta)))

    def test_indexed_angle_queries(self, index_and_data, rng):
        """Queries whose angle coincides with an indexed angle (exact bounds path)."""
        index, data = index_and_data
        for degrees in (0.0, 22.5, 45.0, 67.5, 90.0):
            angle = np.radians(degrees)
            alpha, beta = np.cos(angle), np.sin(angle)
            alpha = max(alpha, 1e-9)
            beta = max(beta, 1e-9)
            qx, qy = rng.random(2)
            result = index.query(qx, qy, k=4, alpha=alpha, beta=beta)
            assert_same_scores(result, oracle_topk(data, make_query(qx, qy, 4, alpha, beta)))

    def test_k_larger_than_dataset(self, rng):
        data = rng.random((20, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        result = index.query(0.5, 0.5, k=100)
        assert len(result) == 20

    def test_k_must_be_positive(self, index_and_data):
        index, _ = index_and_data
        with pytest.raises(ValueError):
            index.query(0.5, 0.5, k=0)

    def test_unknown_strategy_rejected(self, index_and_data):
        index, _ = index_and_data
        with pytest.raises(ValueError):
            index.query(0.5, 0.5, k=1, strategy="magic")

    def test_iter_best_is_monotone(self, index_and_data, rng):
        index, _ = index_and_data
        qx, qy = rng.random(2)
        scores = [score for _, score in zip(range(60), _drop_rows(index.iter_best(qx, qy, 1.0, 0.7)))]
        assert scores == sorted(scores, reverse=True)

    def test_iter_best_enumerates_every_point(self, rng):
        data = rng.random((100, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        rows = [row for row, _ in index.iter_best(0.5, 0.5)]
        assert sorted(rows) == list(range(100))

    def test_results_carry_points_and_ids(self, index_and_data):
        index, data = index_and_data
        result = index.query(0.5, 0.5, k=3)
        for match in result:
            assert match.point == pytest.approx(tuple(data[match.row_id]))


def _drop_rows(iterator):
    for _, score in iterator:
        yield score


class TestUpdates:
    def test_insert_changes_answers(self, rng):
        data = rng.random((100, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        # A point far above everything is the unique best for a pure-repulsive query.
        new_row = index.insert(0.5, 50.0)
        result = index.query(0.5, 0.0, k=1, alpha=1.0, beta=1e-9)
        assert result.row_ids == [new_row]

    def test_delete_changes_answers(self, rng):
        data = rng.random((100, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        best = index.query(0.5, 0.5, k=1).row_ids[0]
        index.delete(best)
        assert best not in index.query(0.5, 0.5, k=5).row_ids

    def test_update_stream_against_oracle(self, rng):
        data = rng.random((150, 2))
        index = TopKIndex(data[:, 0], data[:, 1], leaf_capacity=8, branching=4)
        live = {i: data[i] for i in range(len(data))}
        next_row = len(data)
        for step in range(200):
            if rng.random() < 0.55 or len(live) < 20:
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
        for _ in range(10):
            qx, qy = rng.random(2)
            alpha, beta = rng.uniform(0.1, 2.0, size=2)
            expected = oracle_topk(matrix, make_query(qx, qy, 5, alpha, beta))
            assert_same_scores(index.query(qx, qy, 5, alpha, beta), expected)

    def test_rebuild_preserves_answers(self, rng):
        data = rng.random((200, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        before = index.query(0.3, 0.7, k=10)
        index.rebuild()
        after = index.query(0.3, 0.7, k=10)
        assert_same_scores(before, after)


class TestNonFiniteQueries:
    """Every front door refuses a NaN or infinite query coordinate, as
    ``SDIndex`` does, before any strategy runs."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("strategy", ["flat", "streams", "claim6"])
    def test_query_rejects(self, index_and_data, value, strategy):
        index, _data = index_and_data
        for qx, qy in ((value, 0.5), (0.5, value)):
            with pytest.raises(ValueError, match="query coordinates must be finite"):
                index.query(qx, qy, k=3, strategy=strategy)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_batch_and_snapshot_reject(self, index_and_data, value):
        index, _data = index_and_data
        good, bad = np.array([0.2, 0.5]), np.array([0.2, value])
        with index.snapshot() as snap:
            for qx, qy in ((bad, good), (good, bad)):
                for batch_query in (index.batch_query, snap.batch_query):
                    with pytest.raises(ValueError, match="query coordinates must be finite"):
                        batch_query(qx, qy, k=3)
                with pytest.raises(ValueError, match="query coordinates must be finite"):
                    snap.query(qx[1], qy[1], k=3)


class TestKernelFaults:
    def test_injected_kernel_fault_surfaces_then_clears(self, rng):
        """Flat reads run the shared level kernel, so its fault point fires
        on every front door; once the plane is gone the answers are exact."""
        data = rng.random((400, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        plane = FaultPlane([FaultRule("batch.kernel", transient=False)])
        with index.snapshot() as snap:
            with faults.fault_plane(plane):
                for read in (
                    lambda: index.query(0.3, 0.6, k=5),
                    lambda: index.batch_query([0.3, 0.7], [0.6, 0.2], k=5),
                    lambda: snap.query(0.3, 0.6, k=5),
                ):
                    with pytest.raises(InjectedFault):
                        read()
            assert plane.stats()["injections"] == {"batch.kernel": 3}
        for qx, qy in ((0.3, 0.6), (0.7, 0.2)):
            flat = index.query(qx, qy, k=5)
            streams = index.query(qx, qy, k=5, strategy="streams")
            assert flat.row_ids == streams.row_ids
            assert flat.scores == streams.scores


class TestStats:
    def test_stats_name_and_counts(self, index_and_data):
        index, data = index_and_data
        stats = index.stats()
        assert stats.name == "sd-topk"
        assert stats.num_points == len(data)
        assert stats.num_angles == 5

    def test_len(self, index_and_data):
        index, data = index_and_data
        assert len(index) == len(data)
