"""Property tests: tightened upper bounds stay admissible at extreme scales.

PR 10 tightened the verification bounds end-to-end (refined bound grid, leaf
second-pass box bounds, exact-pair-0 re-pruning, pooled sample-seeded
thresholds — see DESIGN.md, "The bound hierarchy").  Every tightening must
remain *admissible*: no true top-k member may ever be pruned.  The risky
regime is large coordinate magnitudes (~1e10), where one float rounding step
is ~1e-6 absolute and the ``_MAGNITUDE_SLACK`` term in the pruning threshold
is what absorbs it.  Hypothesis drives weights and magnitudes across the
flat, LSM-layered and sharded engines; the process engine — too expensive to
fork per example — gets a deterministic large-scale case.

Scores are asserted bit-identical to the sequential-scan oracle; row ids are
asserted only when the k-th/(k+1)-th boundary is unambiguous (an exact tie
there makes the retained set legitimately path-dependent).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialScan
from repro.core.query import SDQuery, sd_scores
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4

#: Coordinate scales spanning the benign regime up to the slack-dominated one.
SCALES = (1.0, 1e6, 1e10)

weight = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)


def _data_and_queries(seed: int, rows: int, scale: float):
    rng = np.random.default_rng(seed)
    data = (rng.random((rows, NUM_DIMS)) - 0.25) * scale
    points = (rng.random((4, NUM_DIMS)) - 0.25) * scale
    return data, points


def _queries(points, ks, alphas, betas):
    return [
        SDQuery.simple(
            point=point,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            k=int(k),
            alpha=list(alphas),
            beta=list(betas),
        )
        for point, k in zip(points, ks)
    ]


def _boundary_is_unambiguous(data, query) -> bool:
    scores = np.sort(sd_scores(data, query))[::-1]
    if query.k >= len(scores):
        return True
    gap = scores[query.k - 1] - scores[query.k]
    return gap > 1e-9 * max(1.0, abs(scores[query.k - 1]))


def _assert_no_topk_member_pruned(engine, data, queries, row_ids=None) -> None:
    oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE, row_ids=row_ids)
    for query in queries:
        got = engine.query(query)
        want = oracle.query(query)
        assert got.scores == want.scores, (got.scores, want.scores)
        if _boundary_is_unambiguous(data, query):
            assert got.row_ids == want.row_ids


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rows=st.integers(min_value=8, max_value=120),
    scale=st.sampled_from(SCALES),
    ks=st.tuples(*[st.integers(min_value=1, max_value=9)] * 4),
    alphas=st.tuples(weight, weight),
    betas=st.tuples(weight, weight),
)
def test_flat_engine_admissible_at_scale(seed, rows, scale, ks, alphas, betas):
    data, points = _data_and_queries(seed, rows, scale)
    engine = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    queries = _queries(points, ks, alphas, betas)
    _assert_no_topk_member_pruned(engine, data, queries)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rows=st.integers(min_value=20, max_value=120),
    scale=st.sampled_from(SCALES),
    ks=st.tuples(*[st.integers(min_value=1, max_value=9)] * 4),
    alphas=st.tuples(weight, weight),
    betas=st.tuples(weight, weight),
)
def test_lsm_layered_engine_admissible_at_scale(seed, rows, scale, ks, alphas, betas):
    """Layered worlds: delta + levels, pooled sample thresholds, bound-ordered
    source visits — the cross-source pruning must never drop a true member."""
    data, points = _data_and_queries(seed, rows, scale)
    rng = np.random.default_rng(seed + 1)
    engine = SDIndex.build(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        flush_rows=max(4, rows // 4),
        fanout=2,
        background_compaction=False,
    )
    engine.query(_queries(points, ks, alphas, betas)[0])  # build the session
    # Mutate into a genuinely layered world: inserts into the delta, deletes
    # spread across levels.
    extra_ids = list(range(rows, rows + rows // 2 + 1))
    engine.bulk_insert(
        (rng.random((len(extra_ids), NUM_DIMS)) - 0.25) * scale, row_ids=extra_ids
    )
    victims = sorted(rng.choice(rows, size=rows // 5 + 1, replace=False).tolist())
    engine.bulk_delete(victims)
    with engine.snapshot() as snapshot:
        live_rows, matrix = snapshot.frozen()
    queries = _queries(points, ks, alphas, betas)
    _assert_no_topk_member_pruned(
        engine, matrix, queries, row_ids=[int(r) for r in live_rows]
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rows=st.integers(min_value=12, max_value=120),
    scale=st.sampled_from(SCALES),
    num_shards=st.sampled_from([2, 4]),
    partitioner=st.sampled_from(["hash", "range"]),
    ks=st.tuples(*[st.integers(min_value=1, max_value=9)] * 4),
    alphas=st.tuples(weight, weight),
    betas=st.tuples(weight, weight),
)
def test_sharded_engine_admissible_at_scale(
    seed, rows, scale, num_shards, partitioner, ks, alphas, betas
):
    """Cross-shard pooled thresholds + per-shard tightened bounds: a sample
    from one shard must never prune another shard's true top-k member."""
    data, points = _data_and_queries(seed, rows, scale)
    engine = ShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=num_shards,
        partitioner=partitioner,
    )
    try:
        queries = _queries(points, ks, alphas, betas)
        _assert_no_topk_member_pruned(engine, data, queries)
    finally:
        engine.close()


def test_process_engine_admissible_at_magnitude_scale():
    """One deterministic pass through the multi-process engine at 1e10 scale
    (fork-per-example is too heavy for hypothesis)."""
    from repro.core.procserving import ProcessShardedIndex

    data, points = _data_and_queries(seed=1234, rows=300, scale=1e10)
    oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
    with ProcessShardedIndex(
        data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
    ) as engine:
        got = engine.batch_query(points, k=7)
        want = oracle.batch_query(points, k=7)
        for mine, theirs in zip(got.results, want.results):
            assert [(m.row_id, m.score) for m in mine.matches] == [
                (m.row_id, m.score) for m in theirs.matches
            ]
