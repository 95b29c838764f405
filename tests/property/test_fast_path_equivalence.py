"""Property tests for the flattened-array single-query fast path.

The fast path (``SDIndex.query`` default, ``TopKIndex`` ``"flat"`` strategy)
must return bit-identical scores to the legacy threshold traversal and to the
``SequentialScan`` oracle, and must stay exact while the cached query session
absorbs interleaved ``insert``/``delete``/``bulk_insert``/``bulk_delete``
sequences — including across flushes and merges.  Row-id equality with the legacy path is guarded by the usual
boundary-tie check (the legacy traversal resolves an exact tie at the k-th
boundary by traversal order, the fast path by row id); on the continuous
seeded datasets ties do not occur and the tests assert unconditionally.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialScan
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex
from repro.core.topk import TopKIndex
from repro.data.generators import generate_dataset
from tests.conftest import assert_same_scores
from tests.property.test_batch_equivalence import _boundary_is_unambiguous

coordinate = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False)
weight = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)
point4d = st.tuples(coordinate, coordinate, coordinate, coordinate)


def _oracle(data, rows, query):
    matrix = np.asarray(data, dtype=float)
    return SequentialScan(matrix, query.repulsive, query.attractive, row_ids=rows).query(query)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("distribution", ["uniform", "clustered", "anticorrelated"])
    @pytest.mark.parametrize("roles", [((0, 1), (2, 3)), ((0, 1, 2), (3,)), ((0,), (1, 2, 3))])
    def test_fast_matches_legacy_and_oracle_seeded(self, distribution, roles):
        repulsive, attractive = roles
        data = generate_dataset(distribution, 500, 4, seed=17).matrix
        index = SDIndex.build(data, repulsive=repulsive, attractive=attractive)
        rng = np.random.default_rng(18)
        for k in (1, 3, 8):
            query = SDQuery.simple(rng.random(4), repulsive, attractive, k=k,
                                   alpha=rng.uniform(0.1, 2, len(repulsive)),
                                   beta=rng.uniform(0.1, 2, len(attractive)))
            fast = index.query(query)
            legacy = index.query(query, engine="legacy")
            oracle = _oracle(data, list(range(len(data))), query)
            assert fast.scores == legacy.scores
            assert fast.scores == oracle.scores
            assert fast.row_ids == oracle.row_ids
            assert fast.row_ids == legacy.row_ids

    @settings(max_examples=25, deadline=None)
    @given(
        points=st.lists(point4d, min_size=2, max_size=40),
        query_point=point4d,
        k=st.integers(min_value=1, max_value=7),
        weights=st.tuples(weight, weight, weight, weight),
    )
    def test_fast_matches_legacy_hypothesis(self, points, query_point, k, weights):
        data = np.array(points, dtype=float)
        index = SDIndex.build(data, repulsive=[0, 1], attractive=[2, 3],
                              branching=3, leaf_capacity=4)
        query = SDQuery.simple(list(query_point), repulsive=[0, 1], attractive=[2, 3],
                               k=k, alpha=weights[:2], beta=weights[2:])
        fast = index.query(query)
        legacy = index.query(query, engine="legacy")
        assert fast.scores == legacy.scores
        if _boundary_is_unambiguous(data, query):
            assert fast.row_ids == legacy.row_ids

    def test_fast_path_prunes(self):
        data = generate_dataset("uniform", 4000, 4, seed=3).matrix
        index = SDIndex.build(data, repulsive=[0, 1], attractive=[2, 3])
        result = index.query(data[7], k=5)
        assert result.algorithm == "sd-index/fast"
        assert 0 < result.full_evaluations < len(data)

    def test_unknown_engine_rejected(self):
        data = np.random.default_rng(0).random((50, 4))
        index = SDIndex.build(data, repulsive=[0, 1], attractive=[2, 3])
        with pytest.raises(ValueError):
            index.query(data[0], k=1, engine="magic")


class TestSessionMaintenance:
    def test_interleaved_updates_patch_in_place(self):
        rng = np.random.default_rng(41)
        base = rng.random((400, 4))
        index = SDIndex.build(base, repulsive=[0, 1], attractive=[2, 3])
        session = index.query_session()
        live = {i: base[i] for i in range(len(base))}
        for step in range(120):
            if rng.random() < 0.5 or len(live) < 50:
                point = rng.random(4)
                live[index.insert(point)] = point
            else:
                victim = int(rng.choice(list(live)))
                index.delete(victim)
                del live[victim]
            if step % 20 == 0:
                rows = list(live)
                matrix = np.array([live[r] for r in rows])
                query = SDQuery.simple(rng.random(4), [0, 1], [2, 3], k=6,
                                       alpha=rng.uniform(0.1, 2, 2),
                                       beta=rng.uniform(0.1, 2, 2))
                fast = index.query(query)
                legacy = index.query(query, engine="legacy")
                oracle = _oracle(matrix, rows, query)
                assert fast.scores == legacy.scores == oracle.scores
                assert fast.row_ids == oracle.row_ids
        # Whatever flushes and merges the 120 updates triggered, every answer
        # above was exact and the session was never *stale*.
        stats = session.maintenance_stats()
        assert stats["patched_inserts"] + stats["patched_deletes"] > 0

    def test_bulk_insert_and_bulk_delete_match_loop_semantics(self):
        rng = np.random.default_rng(42)
        base = rng.random((200, 4))
        index = SDIndex.build(base, repulsive=[0, 1], attractive=[2, 3])
        session = index.query_session()
        extra = rng.random((60, 4))
        ids = index.bulk_insert(extra)
        assert ids == list(range(200, 260))
        assert len(index) == 260
        index.bulk_delete(list(range(0, 40)))
        assert len(index) == 220
        assert session.patched_inserts == 60 and session.patched_deletes == 40

        rows = list(range(40, 260))
        matrix = np.vstack([base[40:], extra])
        query = SDQuery.simple(rng.random(4), [0, 1], [2, 3], k=9)
        fast = index.query(query)
        oracle = _oracle(matrix, rows, query)
        assert fast.scores == oracle.scores
        assert fast.row_ids == oracle.row_ids
        # Against a from-scratch rebuild, the batch engines agree exactly.
        rebuilt = SDIndex.build(matrix, repulsive=[0, 1], attractive=[2, 3], row_ids=rows)
        expected = rebuilt.query(query)
        assert fast.scores == expected.scores
        assert fast.row_ids == expected.row_ids

    @pytest.mark.parametrize("roles", [((0, 1, 2), (3,)), ((0,), (1, 2, 3))])
    def test_flushed_levels_keep_leftover_columns_sorted(self, roles):
        """Same-gap, descending-valued inserts must reach every level's
        leftover sorted columns in sorted order, through a flush and a merge,
        or every searchsorted probe afterwards sees an unsorted array and the
        fast path silently drops true answers."""
        repulsive, attractive = roles
        rng = np.random.default_rng(46)
        # A deliberate value gap in every dimension around (0.4, 0.6).
        base = rng.random((300, 4))
        base = np.where((base > 0.4) & (base < 0.6), base - 0.4, base)
        index = SDIndex.build(
            base, repulsive=repulsive, attractive=attractive,
            flush_rows=2, fanout=2, background_compaction=False,
        )
        session = index.query_session()
        # Two batches landing inside the gap in descending order; the second
        # fills the delta past flush_rows and folds all three into a level.
        index.bulk_insert(np.full((1, 4), 0.52))
        index.bulk_insert(np.vstack([np.full(4, 0.55), np.full(4, 0.48)]))
        rows = list(range(303))
        matrix = np.vstack([base, np.full((1, 4), 0.52),
                            np.full((1, 4), 0.55), np.full((1, 4), 0.48)])
        for expected_levels in (2, 1):
            world = session.epochs.current_state()
            assert len(world.levels) == expected_levels
            assert world.delta.num_live == 0
            for level in world.levels:
                assert level.state.col_values, "roles leave no leftover column"
                for dim, values in level.state.col_values.items():
                    assert np.all(np.diff(values) >= 0), f"column {dim} unsorted"
            for target in (0.47, 0.50, 0.53, 0.56):
                query = SDQuery.simple([target] * 4, repulsive, attractive, k=3)
                fast = index.query(query)
                oracle = _oracle(matrix, rows, query)
                assert fast.scores == oracle.scores
                legacy = index.query(query, engine="legacy")
                assert fast.scores == legacy.scores
            index.compact()

    def test_garbage_threshold_triggers_compaction_and_stays_exact(self, monkeypatch):
        from repro.core import lsm

        def churn():
            """15 inserts, then 15 deletes of level rows, on a fresh index."""
            rng = np.random.default_rng(44)
            base = rng.random((150, 4))
            index = SDIndex.build(
                base, repulsive=[0, 1], attractive=[2, 3], background_compaction=False
            )
            live = {i: base[i] for i in range(len(base))}
            for _ in range(15):
                point = rng.random(4)
                live[index.insert(point)] = point
            for victim in range(15):
                index.delete(victim)
                del live[victim]
            return index, live, rng

        # The stock 25% threshold leaves 15 tombstones among ~150 live rows.
        index, _live, _rng = churn()
        session = index.query_session()
        assert session.compactions == 0
        assert [lvl["tombstoned"] for lvl in session.structure()["levels"]] == [15]
        index.close()

        # At 5%, the 8th level tombstone crosses 5% of the ~157 live rows.
        monkeypatch.setattr(lsm, "_REFLATTEN_THRESHOLD", 0.05)
        index, live, rng = churn()
        session = index.query_session()
        assert session.compactions == 1
        assert session.reflattens == 0
        structure = session.structure()
        assert [lvl["tombstoned"] for lvl in structure["levels"]] == [7]
        assert structure["delta_live"] == 15  # inserts stay below flush_rows
        rows = list(live)
        matrix = np.array([live[r] for r in rows])
        points = rng.random((5, 4))
        batch = session.run(points, k=4)
        oracle = SequentialScan(matrix, [0, 1], [2, 3], row_ids=rows).batch_query(points, k=4)
        for j in range(5):
            assert batch[j].row_ids == oracle[j].row_ids
            assert batch[j].scores == oracle[j].scores
        # ...and the session keeps absorbing writes after the compaction.
        patched_before = session.patched_inserts
        index.insert(rng.random(4))
        assert session.patched_inserts == patched_before + 1

    def test_bulk_insert_validation(self):
        rng = np.random.default_rng(43)
        index = SDIndex.build(rng.random((30, 4)), repulsive=[0, 1], attractive=[2, 3])
        with pytest.raises(ValueError):
            index.bulk_insert(rng.random((3, 2)))
        with pytest.raises(ValueError):
            index.bulk_insert(rng.random((2, 4)), row_ids=[100, 100])
        with pytest.raises(ValueError):
            index.bulk_insert(rng.random((2, 4)), row_ids=[5, 200])  # 5 exists
        with pytest.raises(KeyError):
            index.bulk_delete([5, 9999])
        # Failed validation must not have mutated anything.
        assert len(index) == 30
        index.query(rng.random(4), k=3)

    def test_empty_index_grows_through_patches(self):
        index = SDIndex.build(np.empty((0, 4)), repulsive=[0, 1], attractive=[2, 3])
        assert len(index.query([0.5] * 4, k=3)) == 0
        rng = np.random.default_rng(45)
        points = rng.random((20, 4))
        index.bulk_insert(points)
        query = SDQuery.simple(rng.random(4), [0, 1], [2, 3], k=4)
        fast = index.query(query)
        oracle = _oracle(points, list(range(20)), query)
        assert fast.scores == oracle.scores
        assert fast.row_ids == oracle.row_ids


class TestTopKFlatFastPath:
    def test_flat_matches_streams_and_oracle(self):
        rng = np.random.default_rng(51)
        data = rng.random((600, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        for _ in range(10):
            qx, qy = rng.random(2)
            alpha, beta = rng.uniform(0.05, 2.0, size=2)
            flat = index.query(qx, qy, k=6, alpha=alpha, beta=beta)
            streams = index.query(qx, qy, k=6, alpha=alpha, beta=beta, strategy="streams")
            assert flat.algorithm == "sd-topk/flat"
            # Bit-identical to the streams strategy (same normalized-then-
            # scaled arithmetic); the raw-weight oracle differs by ulps.
            assert flat.scores == streams.scores
            assert flat.row_ids == streams.row_ids
            query = SDQuery.simple([qx, qy], [1], [0], k=6, alpha=alpha, beta=beta)
            assert_same_scores(flat, _oracle(data, list(range(len(data))), query))

    def test_flat_view_is_patched_across_updates(self):
        rng = np.random.default_rng(52)
        data = rng.random((300, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        index.query(0.5, 0.5, k=3)  # builds the flat view
        live = {i: tuple(data[i]) for i in range(len(data))}
        for step in range(40):
            if step % 2 == 0:
                x, y = rng.random(2)
                live[index.insert(x, y)] = (x, y)
            else:
                victim = int(rng.choice(list(live)))
                index.delete(victim)
                del live[victim]
        assert index.session_reflattens == 0
        rows = list(live)
        matrix = np.array([live[r] for r in rows])
        qx, qy = rng.random(2)
        flat = index.query(qx, qy, k=8)
        streams = index.query(qx, qy, k=8, strategy="streams")
        assert flat.scores == streams.scores
        assert flat.row_ids == streams.row_ids
        query = SDQuery.simple([qx, qy], [1], [0], k=8)
        assert_same_scores(flat, _oracle(matrix, rows, query))

    def test_degenerate_weights_fall_back(self):
        rng = np.random.default_rng(53)
        data = rng.random((100, 2))
        index = TopKIndex(data[:, 0], data[:, 1])
        # alpha == 0 is legal for the streams merge but not the batch kernels.
        result = index.query(0.5, 0.5, k=3, alpha=0.0, beta=1.0)
        assert len(result) == 3
