"""A state machine over a durable ``SDIndex``: the delta, maintenance and recovery.

Random interleavings of single inserts (ascending ids and out-of-order
explicit ids), bulk inserts, deletes of delta-resident rows, of
level-resident rows and of ids that are not live, explicit flushes and
merges, pinned and released snapshots, checkpoints and simulated crashes
run against ``DurableIndex(SDIndex)`` with ``flush_rows=8``, ``fanout=2``
and no background compaction.  After every step:

* every pinned snapshot's ``frozen()`` population and answers are what
  they were when it was pinned;
* the live population equals a dict model of the acknowledged writes;
* answers are bit-identical to a ``SequentialScan`` of the model;
* after each recovery, ``structure()`` and the answers equal those of the
  engine that crashed.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.baselines import SequentialScan
from repro.core.persistence import DurableIndex
from repro.core.sdindex import SDIndex

pytestmark = pytest.mark.lsm

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4
INITIAL_ROWS = 24
QUERIES = np.random.default_rng(11).random((3, NUM_DIMS))
K = 5
MAX_PINS = 3

#: A point drawn from a seed: distinct points, so no score ties at the k-th
#: boundary make row ids ambiguous.
points = st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).random(NUM_DIMS))


def answers(engine):
    """``(row_id, score)`` per match, per query: the bit-identity currency."""
    result = engine.batch_query(QUERIES, k=K)
    return [[(m.row_id, m.score) for m in r.matches] for r in result.results]


class DurableDeltaMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="sd-state-machine-"))
        data = np.random.default_rng(5).random((INITIAL_ROWS, NUM_DIMS))
        engine = SDIndex.build(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            flush_rows=8,
            fanout=2,
            background_compaction=False,
        )
        self.durable = DurableIndex.create(engine, self.root / "durable", fsync="os")
        self.model = {row: data[row] for row in range(INITIAL_ROWS)}
        self.deleted = set()
        self.holes = []  # ids below the highest id, never used
        self.max_id = INITIAL_ROWS - 1
        self.pins = []

    # ------------------------------------------------------------ helpers
    def _session(self):
        return self.durable.query_session()

    def _delta_live(self):
        delta = self._session()._world.delta
        return sorted(int(row) for row in delta.rows[delta.live])

    def _level_live(self):
        in_delta = set(self._delta_live())
        return sorted(row for row in self.model if row not in in_delta)

    # -------------------------------------------------------------- writes
    @rule(point=points)
    def insert_auto_id(self, point):
        row = self.durable.insert(point)
        assert row == self.max_id + 1
        self.max_id = row
        self.model[row] = point

    @rule(point=points, gap=st.integers(1, 4))
    def insert_above_with_gap(self, point, gap):
        row = self.max_id + gap
        self.holes.extend(range(self.max_id + 1, row))
        self.durable.insert(point, row_id=row)
        self.max_id = row
        self.model[row] = point

    @precondition(lambda self: self.holes)
    @rule(point=points, data=st.data())
    def insert_out_of_order(self, point, data):
        row = self.holes.pop(data.draw(st.integers(0, len(self.holes) - 1)))
        self.durable.insert(point, row_id=row)
        self.model[row] = point

    @rule(batch=st.lists(points, min_size=1, max_size=6), shuffle=st.booleans())
    def bulk_insert(self, batch, shuffle):
        ids = list(range(self.max_id + 1, self.max_id + 1 + len(batch)))
        if shuffle:
            ids.reverse()
        assert self.durable.bulk_insert(np.asarray(batch), row_ids=ids) == ids
        self.max_id += len(batch)
        self.model.update(zip(ids, batch))

    @precondition(lambda self: self._delta_live())
    @rule(data=st.data())
    def delete_delta_row(self, data):
        row = data.draw(st.sampled_from(self._delta_live()))
        self.durable.delete(row)
        del self.model[row]
        self.deleted.add(row)

    @precondition(lambda self: len(self._level_live()) > 1)
    @rule(data=st.data())
    def delete_level_row(self, data):
        row = data.draw(st.sampled_from(self._level_live()))
        self.durable.delete(row)
        del self.model[row]
        self.deleted.add(row)

    @rule(data=st.data())
    def delete_missing_id(self, data):
        missing = sorted(self.deleted) + [self.max_id + 100]
        row = data.draw(st.sampled_from(missing))
        world = self._session()._world
        with pytest.raises(KeyError, match=f"row id {row} "):
            self.durable.delete(row)
        assert self._session()._world is world

    # --------------------------------------------------------- maintenance
    @rule()
    def flush(self):
        self.durable.flush()

    @rule()
    def compact(self):
        self.durable.compact()

    @rule()
    def checkpoint(self):
        self.durable.checkpoint()

    # ------------------------------------------------------------ readers
    @precondition(lambda self: len(self.pins) < MAX_PINS)
    @rule()
    def pin(self):
        snapshot = self.durable.snapshot()
        self.pins.append((snapshot, snapshot.frozen(), answers(snapshot)))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def release(self, data):
        snapshot, _frozen, _answers = self.pins.pop(
            data.draw(st.integers(0, len(self.pins) - 1))
        )
        snapshot.close()

    # ------------------------------------------------------------ recovery
    @rule()
    def crash_and_recover(self):
        for snapshot, _frozen, _answers in self.pins:
            snapshot.close()
        self.pins = []
        crashed = self.durable
        structure = crashed.query_session().structure()
        before = answers(crashed)
        crashed.wal.sync()
        crashed.wal.close()  # a crash: no clean engine shutdown
        self.durable = DurableIndex.recover(self.root / "durable", fsync="os")
        crashed.engine.close()
        assert self._session().structure() == structure
        assert answers(self.durable) == before

    # ---------------------------------------------------------- invariants
    @invariant()
    def pinned_snapshots_do_not_move(self):
        for snapshot, (rows, matrix), pinned_answers in self.pins:
            again_rows, again_matrix = snapshot.frozen()
            np.testing.assert_array_equal(again_rows, rows)
            np.testing.assert_array_equal(again_matrix, matrix)
            assert answers(snapshot) == pinned_answers

    @invariant()
    def population_equals_the_model(self):
        with self.durable.snapshot() as snapshot:
            rows, matrix = snapshot.frozen()
        assert rows.tolist() == sorted(self.model)
        np.testing.assert_array_equal(
            matrix, np.asarray([self.model[row] for row in sorted(self.model)])
        )

    @invariant()
    def answers_equal_a_sequential_scan(self):
        rows = sorted(self.model)
        scan = SequentialScan(
            np.asarray([self.model[row] for row in rows]),
            REPULSIVE,
            ATTRACTIVE,
            row_ids=rows,
        )
        assert answers(self.durable) == answers(scan)

    def teardown(self):
        for snapshot, _frozen, _answers in self.pins:
            snapshot.close()
        self.durable.close()
        shutil.rmtree(self.root, ignore_errors=True)


TestDurableDelta = DurableDeltaMachine.TestCase
TestDurableDelta.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
