"""Differential fuzz harness: every execution engine must agree exactly.

Hypothesis drives random interleavings of ``insert`` / ``delete`` /
``bulk_insert`` / ``bulk_delete`` / query operations against five engines at
once:

* the legacy threshold traversal (``SDIndex.query(..., engine="legacy")``),
* the flattened-session fast path of the same index (single and batched),
* :class:`repro.core.sharding.ShardedIndex` at 1, 2, 4 and 8 shards (hash and
  range partitioning),
* a :class:`SequentialScan` oracle rebuilt from a plain dict of live rows.

All engines must return *identical* ``(score, row_id)`` answers — bit-equal
floats, same ids, same order.  Hypothesis chooses only the shape of the
interleaving (which ops, when to query) plus a seed; the actual coordinates
come from a ``numpy`` generator under that seed, so points are continuous
random values and exact score ties (where the legacy traversal's tie-break
legitimately differs) have probability zero.

A deterministic long-run variant drives 1,000 interleaved updates through the
same five-way comparison at periodic checkpoints — the acceptance scenario of
the sharded serving engine.

Every engine runs its LSM sessions with a deliberately tiny ``flush_rows``
so the fuzzed populations actually layer into multiple levels: the merged delta + levels read path, mid-stream
flushes and level merges are all inside the exact-agreement envelope.  An
explicit ``compact`` rule forces flush/merge at hypothesis-chosen points, and
a WAL-journaled :class:`DurableIndex` member verifies that durability-driven
maintenance (structure ops journaled per mutation) never perturbs an answer.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialScan
from repro.core.persistence import DurableIndex
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4
SHARD_COUNTS = (1, 2, 4, 8)
#: Tiny flush threshold so fuzz-sized populations layer into real LSM levels;
#: inline (non-background) maintenance keeps each interleaving deterministic.
LSM_OPTIONS = dict(flush_rows=24, fanout=2, background_compaction=False)


class Harness:
    """One flat index, four sharded engines and a dict-backed oracle in lockstep.

    ``durable=True`` adds a WAL-journaled member; such a harness must be
    ``close()``d (its log and snapshot directory).
    """

    def __init__(self, seed: int, initial_rows: int, durable: bool = False) -> None:
        self.rng = np.random.default_rng(seed)
        data = self.rng.random((initial_rows, NUM_DIMS))
        self.store = {row: data[row].copy() for row in range(initial_rows)}
        self.flat = SDIndex.build(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, **LSM_OPTIONS
        )
        self.sharded = [
            ShardedIndex(
                data,
                repulsive=REPULSIVE,
                attractive=ATTRACTIVE,
                num_shards=num_shards,
                # Cover both partitioners across the fleet.
                partitioner="range" if num_shards in (2, 8) else "hash",
                **LSM_OPTIONS,
            )
            for num_shards in SHARD_COUNTS
        ]
        self.durable = None
        self._durable_dir = None
        if durable:
            # A WAL-journaled member: the wrapper claims maintenance
            # scheduling from the engine and journals every flush/compact it
            # drives, so the fuzz also covers durability-owned structure ops.
            self._durable_dir = tempfile.mkdtemp(prefix="sdfuzz-durable-")
            engine = SDIndex.build(
                data, repulsive=REPULSIVE, attractive=ATTRACTIVE, **LSM_OPTIONS
            )
            self.durable = DurableIndex.create(
                engine, self._durable_dir, fsync="os"
            )
        self.next_row = initial_rows
        #: Ids deleted so far — fodder for the delete-of-tombstone rule.
        self.deleted_rows: list = []

    def close(self) -> None:
        if self.durable is not None:
            self.durable.close()
        if self._durable_dir is not None:
            shutil.rmtree(self._durable_dir, ignore_errors=True)

    @property
    def _mutable_engines(self) -> list:
        extra = [self.durable] if self.durable is not None else []
        return [*self.sharded, *extra]

    # ------------------------------------------------------------------ ops
    def insert(self) -> None:
        vector = self.rng.random(NUM_DIMS)
        row = self.next_row
        self.next_row += 1
        self.store[row] = vector
        self.flat.insert(vector, row_id=row)
        for engine in self._mutable_engines:
            engine.insert(vector, row_id=row)

    def bulk_insert(self, count: int) -> None:
        matrix = self.rng.random((count, NUM_DIMS))
        rows = list(range(self.next_row, self.next_row + count))
        self.next_row += count
        for row, vector in zip(rows, matrix):
            self.store[row] = vector
        self.flat.bulk_insert(matrix, row_ids=rows)
        for engine in self._mutable_engines:
            engine.bulk_insert(matrix, row_ids=rows)

    def delete(self) -> None:
        if len(self.store) <= 1:
            return
        row = int(self.rng.choice(sorted(self.store)))
        del self.store[row]
        self.flat.delete(row)
        for engine in self._mutable_engines:
            engine.delete(row)
        self.deleted_rows.append(row)

    def bulk_delete(self, count: int) -> None:
        live = sorted(self.store)
        count = min(count, max(len(live) - 1, 0))
        if count == 0:
            return
        rows = [int(r) for r in self.rng.choice(live, size=count, replace=False)]
        for row in rows:
            del self.store[row]
        self.flat.bulk_delete(rows)
        for engine in self._mutable_engines:
            engine.bulk_delete(rows)
        self.deleted_rows.extend(rows)

    def compact(self) -> None:
        """Force LSM structure maintenance at a fuzz-chosen point.

        Flushes the mutable delta and runs a policy-chosen level merge on the
        flat engine (and, when present, through the durable wrapper's
        journaled paths).  Structure ops must never change an answer, so no
        comparison happens here — the next ``check_queries`` sees the world
        re-layered.  The sharded engines run the same maintenance inline via
        their per-shard auto compaction.
        """
        self.flat.flush()
        self.flat.compact()
        if self.durable is not None:
            self.durable.flush()
            self.durable.compact()

    def delete_invalid(self) -> None:
        """The unified contract for bad deletes, checked across every engine.

        Deleting an unknown id or an already-tombstoned id must raise
        ``KeyError`` with the same message on the legacy/flat ``SDIndex`` and
        on every sharded engine, and must leave the population untouched —
        including when the bad id hides inside a ``bulk_delete`` batch (the
        batch must be rejected atomically).
        """
        targets = [self.next_row + 1_000_000]  # never allocated
        if self.deleted_rows:
            targets.append(self.deleted_rows[-1])  # tombstoned earlier
        engines = (
            [("flat", self.flat)]
            + [(f"sharded/{engine.num_shards}", engine) for engine in self.sharded]
            + ([("durable", self.durable)] if self.durable is not None else [])
        )
        live = sorted(self.store)
        for target in targets:
            for label, engine in engines:
                try:
                    engine.delete(target)
                except KeyError as exc:
                    assert f"row id {target} not present" in str(exc), (
                        f"{label} raised a different message: {exc}"
                    )
                else:
                    raise AssertionError(f"{label} delete({target}) did not raise")
                if live:
                    try:
                        engine.bulk_delete([live[0], target])
                    except KeyError:
                        pass
                    else:
                        raise AssertionError(
                            f"{label} bulk_delete with bad id did not raise"
                        )
        self.check_population()

    # ------------------------------------------------------------------ checks
    def oracle(self) -> SequentialScan:
        rows = sorted(self.store)
        return SequentialScan(
            np.asarray([self.store[row] for row in rows], dtype=float),
            REPULSIVE,
            ATTRACTIVE,
            row_ids=rows,
        )

    def check_queries(self, num_queries: int = 3) -> None:
        points = self.rng.random((num_queries, NUM_DIMS))
        ks = self.rng.choice(np.asarray([1, 3, 10]), size=num_queries)
        alphas = self.rng.uniform(0.05, 1.0, size=(num_queries, len(REPULSIVE)))
        betas = self.rng.uniform(0.05, 1.0, size=(num_queries, len(ATTRACTIVE)))
        oracle = self.oracle()
        expected = oracle.batch_query(points, k=ks, alpha=alphas, beta=betas)
        flat_batch = self.flat.batch_query(points, k=ks, alpha=alphas, beta=betas)
        shard_batches = [
            engine.batch_query(points, k=ks, alpha=alphas, beta=betas)
            for engine in self.sharded
        ]
        durable_batch = (
            self.durable.batch_query(points, k=ks, alpha=alphas, beta=betas)
            if self.durable is not None
            else None
        )
        for j in range(num_queries):
            reference = expected[j]
            spec_query = SDQuery.simple(
                point=points[j],
                repulsive=REPULSIVE,
                attractive=ATTRACTIVE,
                k=int(ks[j]),
                alpha=alphas[j],
                beta=betas[j],
            )
            fast = self.flat.query(spec_query)
            legacy = self.flat.query(spec_query, engine="legacy")
            for label, result in (
                ("flat/batch", flat_batch[j]),
                ("flat/fast", fast),
                ("flat/legacy", legacy),
                *(
                    (f"sharded/{engine.num_shards}", batch[j])
                    for engine, batch in zip(self.sharded, shard_batches)
                ),
                *(
                    [("durable", durable_batch[j])]
                    if durable_batch is not None
                    else []
                ),
            ):
                assert result.row_ids == reference.row_ids, (
                    f"{label} rows diverged at query {j}: "
                    f"{result.row_ids} != {reference.row_ids}"
                )
                assert result.scores == reference.scores, (
                    f"{label} scores diverged at query {j}: "
                    f"{result.scores} != {reference.scores}"
                )

    def check_population(self) -> None:
        assert len(self.flat) == len(self.store)
        for engine in self._mutable_engines:
            assert len(engine) == len(self.store)
        self.check_epochs()

    def check_epochs(self) -> None:
        """Maintenance must never leak an epoch or strand a reader pin."""
        sessions = [self.flat._aggregator.serving_session()]
        if self.durable is not None:
            sessions.append(self.durable._engine._aggregator.serving_session())
        for session in sessions:
            assert session.epochs.live_epochs == 1, (
                f"leaked epochs: {session.epochs.live_epochs} live"
            )
            assert session.epochs.pinned_readers == 0


OPS = (
    "insert",
    "bulk_insert",
    "delete",
    "bulk_delete",
    "delete_invalid",
    "compact",
    "query",
)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    initial_rows=st.integers(16, 80),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=25),
)
def test_fuzzed_interleavings_agree(seed, initial_rows, ops):
    harness = Harness(seed, initial_rows, durable=True)
    try:
        harness.check_queries()
        for op in ops:
            if op == "insert":
                harness.insert()
            elif op == "bulk_insert":
                harness.bulk_insert(int(harness.rng.integers(2, 12)))
            elif op == "delete":
                harness.delete()
            elif op == "bulk_delete":
                harness.bulk_delete(int(harness.rng.integers(2, 8)))
            elif op == "delete_invalid":
                harness.delete_invalid()
            elif op == "compact":
                harness.compact()
            else:
                harness.check_queries()
        harness.check_population()
        harness.check_queries()
    finally:
        harness.close()


def test_thousand_interleaved_updates_stay_identical():
    """The acceptance scenario: 1,000 fuzzed updates, periodic five-way checks.

    With ``flush_rows=24`` a thousand updates over a 400-row world drive
    dozens of flushes and level merges (explicit ones injected every ~150
    updates on top of the inline schedule) — the long-run LSM regression.
    """
    harness = Harness(seed=20260729, initial_rows=400, durable=True)
    try:
        rng = np.random.default_rng(99)
        updates = 0
        while updates < 1000:
            op = rng.integers(0, 4)
            if op == 0:
                harness.insert()
                updates += 1
            elif op == 1:
                count = int(rng.integers(5, 40))
                harness.bulk_insert(count)
                updates += count
            elif op == 2:
                harness.delete()
                updates += 1
            else:
                count = int(rng.integers(5, 25))
                before = len(harness.store)
                harness.bulk_delete(count)
                updates += before - len(harness.store)
            if updates % 150 < 5:
                harness.compact()
            if updates % 100 < 5:
                harness.check_queries(num_queries=2)
                harness.delete_invalid()
        harness.check_population()
        harness.check_queries(num_queries=5)
    finally:
        harness.close()


def test_writes_after_mid_stream_rebalance_and_checkpoint_agree_exactly():
    """Rebalances and a checkpoint mid-stream, then more writes, stay exact.

    Every sharded member rebalances (range layouts refit their quantiles,
    hash layouts reshuffle under a new salt) and the durable member
    checkpoints, which truncates the WAL it journals to; the inserts that
    follow land under the new layouts.  Answers must stay bit-identical to
    the flat engine and the sequential-scan oracle throughout, including the
    ``(-score, row_id)`` tie-break order.
    """
    harness = Harness(seed=20260808, initial_rows=120, durable=True)
    try:
        harness.check_queries()
        rng = np.random.default_rng(7)
        for step in range(12):
            op = step % 4
            if op == 0:
                harness.bulk_insert(int(rng.integers(5, 20)))
            elif op == 1:
                harness.delete()
            elif op == 2:
                harness.insert()
            else:
                harness.bulk_delete(int(rng.integers(2, 8)))
            if step % 3 == 0:
                harness.check_queries(num_queries=2)
        harness.delete_invalid()
        moved = [engine.rebalance() for engine in harness.sharded]
        assert any(moved), "no rebalance moved a row; the scenario tests nothing"
        harness.durable.checkpoint()
        harness.check_queries(num_queries=3)
        harness.bulk_insert(10)
        harness.check_queries(num_queries=3)
        harness.check_population()
    finally:
        harness.close()
