"""Execution states are built straight from arrays, never through a tree.

Each pair's flat view comes from a stable x sort plus :func:`bulk_leaf_sizes`
(:meth:`_FlatTree.from_sorted`).  These tests pin it to the flattened
bulk-loaded :class:`ProjectionTree` array for array, and a tripwire checks
that no serving build path — build, flush, merge, reflatten, WAL replay,
sharded build and rebalance — constructs a tree, while the legacy engine
still does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialScan
from repro.core.angles import AngleGrid
from repro.core.batch import _FlatTree
from repro.core.persistence import DurableIndex
from repro.core.projection_tree import ProjectionTree, bulk_leaf_sizes
from repro.core.sdindex import SDIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
ANGLES = tuple(AngleGrid.default())

#: Every array of a flat view, plus the leaf count.
FLAT_FIELDS = (
    "rows",
    "x",
    "y",
    "live",
    "leaf_of_pos",
    "leaf_bounds",
    "leaf_min_x",
    "leaf_max_x",
    "leaf_min_y",
    "leaf_max_y",
    "grid_cos",
    "grid_sin",
    "grid_rad",
)


def direct_flat(rows, x, y, branching, leaf_capacity) -> _FlatTree:
    by_x = np.argsort(x, kind="stable")
    sizes = bulk_leaf_sizes(len(rows), branching, leaf_capacity)
    return _FlatTree.from_sorted(ANGLES, rows[by_x], x[by_x], y[by_x], sizes)


def tree_flat(rows, x, y, branching, leaf_capacity) -> _FlatTree:
    tree = ProjectionTree(
        x,
        y,
        angles=ANGLES,
        branching=branching,
        leaf_capacity=leaf_capacity,
        row_ids=rows.tolist(),
    )
    return _FlatTree(tree)


def assert_same_flat(got: _FlatTree, want: _FlatTree) -> None:
    assert got.num_leaves == want.num_leaves
    assert got.angles == want.angles
    for name in FLAT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def tied_points(n: int, distinct: int, seed: int):
    """``n`` points whose x takes at most ``distinct`` values (ties when fewer)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, distinct, n).astype(float)
    y = rng.random(n)
    rows = rng.permutation(3 * n)[:n].astype(np.int64)
    return rows, x, y


class TestFlatViewEquality:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 3000),
        branching=st.integers(2, 16),
        leaf_capacity=st.integers(1, 64),
        distinct=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_direct_view_equals_the_flattened_tree(
        self, n, branching, leaf_capacity, distinct, seed
    ):
        rows, x, y = tied_points(n, distinct, seed)
        assert_same_flat(
            direct_flat(rows, x, y, branching, leaf_capacity),
            tree_flat(rows, x, y, branching, leaf_capacity),
        )

    def test_fifty_thousand_rows_two_thousand_leaves(self):
        rng = np.random.default_rng(50_000)
        x, y = rng.random(50_000), rng.random(50_000)
        rows = np.arange(50_000, dtype=np.int64)
        got = direct_flat(rows, x, y, 8, 32)
        assert got.num_leaves == 2048
        assert_same_flat(got, tree_flat(rows, x, y, 8, 32))

    def test_rejects_the_trees_invalid_shapes(self):
        with pytest.raises(ValueError, match="branching"):
            bulk_leaf_sizes(10, 1, 4)
        with pytest.raises(ValueError, match="leaf capacity"):
            bulk_leaf_sizes(10, 4, 0)
        assert len(bulk_leaf_sizes(0, 8, 32)) == 0


# ------------------------------------------------------------------ tripwire
@pytest.fixture
def no_trees(monkeypatch):
    """Make constructing any :class:`ProjectionTree` fail the test."""

    def tripwire(self, *args, **kwargs):
        raise AssertionError("a projection tree was built")

    monkeypatch.setattr(ProjectionTree, "__init__", tripwire)


def points(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 4))


def assert_matches_scan(engine, seed: int = 5) -> None:
    """Bit-identical to a :class:`SequentialScan` over the live rows."""
    with engine.snapshot() as snap:
        rows, matrix = snap.frozen()
    oracle = SequentialScan(matrix, REPULSIVE, ATTRACTIVE, row_ids=[int(r) for r in rows])
    queries = points(seed, 12)
    want = oracle.batch_query(queries, k=7)
    got = engine.batch_query(queries, k=7)
    for a, b in zip(got.results, want.results):
        assert a.row_ids == b.row_ids
        assert a.scores == b.scores


def build(n: int = 3000, **options) -> SDIndex:
    options.setdefault("background_compaction", False)
    return SDIndex.build(points(1, n), repulsive=REPULSIVE, attractive=ATTRACTIVE, **options)


class TestNoTreeOnTheServingPath:
    def test_build(self, no_trees):
        index = build()
        assert_matches_scan(index)
        assert index.query(points(2, 1)[0], k=4).row_ids

    def test_flush_and_compact(self, no_trees):
        index = build(flush_rows=10_000)
        index.bulk_insert(points(3, 400))
        index.bulk_delete(list(range(0, 3000, 7)))
        assert index.flush()
        index.bulk_insert(points(4, 300))
        assert index.flush()
        assert index.compact() is not None
        assert index.maintenance_stats()["levels"] == 1
        assert_matches_scan(index)

    def test_reflatten(self, no_trees):
        index = build()
        index.bulk_insert(points(6, 200))
        index.refresh_session()
        assert index.maintenance_stats()["reflattens"] == 1
        assert_matches_scan(index)

    def test_recover_replays_flush_and_compact_records(self, no_trees, tmp_path):
        index = build(flush_rows=10_000)
        durable = DurableIndex.create(index, tmp_path / "dur")
        durable.bulk_insert(points(7, 300))
        durable.bulk_delete(list(range(0, 3000, 5)))
        assert durable.flush()
        durable.bulk_insert(points(8, 200))
        assert durable.flush()
        assert durable.compact() is not None
        expected = durable.batch_query(points(9, 10), k=6)
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.last_recovery["replayed"] == 6
        assert recovered.engine.maintenance_stats()["levels"] == 1
        got = recovered.batch_query(points(9, 10), k=6)
        for a, b in zip(got.results, expected.results):
            assert a.row_ids == b.row_ids
            assert a.scores == b.scores
        assert_matches_scan(recovered.engine)
        recovered.close()

    def test_sharded_build_and_rebalance(self, no_trees):
        engine = SDIndex.build_sharded(
            points(10, 4000),
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=3,
            partitioner="range",
            background_compaction=False,
        )
        try:
            engine.bulk_insert(points(11, 1500) * 0.1)  # a hot range: skew
            assert engine.rebalance()
            assert_matches_scan(engine)
        finally:
            engine.close()

    def test_legacy_queries_still_build_trees(self, no_trees):
        index = build(300)
        with pytest.raises(AssertionError, match="projection tree was built"):
            index.query(points(12, 1)[0], k=3, engine="legacy")
