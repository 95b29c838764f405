"""LSM-structured session maintenance (DESIGN.md section 11).

Patching one flattened world per update costs O(n) splices on the write path
and, once garbage crosses a threshold, an O(n log n) stop-the-world reflatten
that will not survive sustained write traffic.  Each aggregator's one query
session therefore keeps its state as a small log-structured merge hierarchy:

* **Delta.**  A bounded mutable :class:`DeltaState` absorbs every insert as a
  plain array append (no tree, no sorted-column splices) and every delete of a
  not-yet-flushed row as a mask clear on a copied mask.  Its values are
  prefixes of shared append buffers: an insert writes past the published
  length and publishes the longer prefix, which a reader pinned on the shorter
  one never sees, so readers pin immutable values exactly as before.
* **Levels.**  Immutable :class:`Level`\\ s each wrap one frozen
  :class:`~repro.core.batch.SessionState` — today's flattened execution state,
  mmap-able through the PR 5 snapshot format.  A delete of a level-resident
  row copies only that level's validity mask.
* **Compaction.**  :meth:`LsmSession.flush` folds the delta into a fresh
  level; :meth:`LsmSession.compact` merges levels.  Both build aside and
  publish through the session's :class:`~repro.core.epoch.EpochManager`, so a
  pinned reader never observes a half-compacted world — the same protocol as
  ``rebalance()``.  The policy is size-tiered (merge a tier once it holds
  ``fanout`` levels); a 25 %-tombstone threshold is the garbage-collection
  trigger.

**Exactness.**  Scores depend only on coordinates, so a row scores
bit-identically no matter which level holds it.  Queries brute-force the
delta and the small levels in each query's own term order, seed one global
k-th-best lower bound from those matches and samples of the large levels
(the cross-shard pattern of :mod:`repro.core.sharding`), run the unchanged
filter-and-verify kernels on each large level under that bound, and merge
under the ``(-score, row_id)`` tie-break — bit-identical to
``SequentialScan`` by the same argument that makes sharded serving exact.
"""

from __future__ import annotations

import atexit
import math
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.core import batch
from repro.core.batch import (
    BatchQuerySpec,
    QuerySession,
    SessionState,
    _column_magnitude,
    _prune_bound,
    select_topk,
)
from repro.core.deadline import Deadline
from repro.core.results import BatchResult, Match, TopKResult

__all__ = ["DeleteLookup", "DeltaState", "Level", "LsmWorld", "LsmSession"]

#: Delta occupancy (live rows) that schedules a flush.
_FLUSH_ROWS = 256

#: Levels per size tier before the tier is merged.
_FANOUT = 4

#: Inline-flush relief valve: if the background compactor falls this far
#: behind, the writer flushes synchronously to bound delta memory.
_HARD_CAP_FACTOR = 8

#: Level tombstones, as a fraction of the live rows, past which maintenance
#: merges every level to drop them; the projection tree's own
#: ``rebuild_threshold``.
_REFLATTEN_THRESHOLD = 0.25

#: Longest wait, per thread, for an in-flight compactor at interpreter exit.
_EXIT_JOIN_SECONDS = 30.0

#: The background compactor threads not yet collected.
_COMPACTORS: "weakref.WeakSet[threading.Thread]" = weakref.WeakSet()

#: Set at interpreter exit: no compactor starts and ``maintain`` stops
#: between structure ops.
_EXITING = threading.Event()


@atexit.register
def _join_compactors() -> None:
    """Stop scheduling maintenance, then let in-flight compactors finish.

    Compactors are daemon threads, so nothing else waits for them: one still
    inside a merge while the interpreter finalizes is torn down mid-call,
    which can abort the process.  Each finishes its current op and stops.
    """
    _EXITING.set()
    for thread in list(_COMPACTORS):
        thread.join(_EXIT_JOIN_SECONDS)


_FP_FLUSH = faults.declare_fault_point(
    "compact.flush",
    "LSM delta flush: folding the mutable delta into a fresh immutable level",
)
_FP_MERGE = faults.declare_fault_point(
    "compact.merge",
    "LSM level merge: building a merged level aside before the epoch flip",
)


def _tier(size: int, fanout: int) -> int:
    """The size tier of a level of ``size`` live rows: tier ``t`` holds the
    sizes in ``[fanout**(t - 1/2), fanout**(t + 1/2))``.

    Centred on the powers of the fanout, so that a full flush
    (``flush_rows``, 4**4 at the defaults) and one that lost a few rows to
    deletes share a tier.  Integers only, comparing ``size**2`` with odd
    powers of the fanout: a float log misplaces exact powers
    (``int(math.log(1000, 10)) == 2``).
    """
    square = max(size, 1) ** 2
    tier, bound = 0, fanout
    while square >= bound:
        tier += 1
        bound *= fanout * fanout
    return tier


def _locate_live(sorted_rows, row_order, live, ids):
    """Positions of ``ids`` where present *and* live, else -1 (vectorized)."""
    if len(sorted_rows) == 0:
        return np.full(len(ids), -1, dtype=np.int64)
    at = np.minimum(sorted_rows.searchsorted(ids), len(sorted_rows) - 1)
    positions = row_order[at]
    return np.where((sorted_rows[at] == ids) & live[positions], positions, -1)


#: Rows a delta's first append buffer holds; each outgrown buffer doubles.
_DELTA_CAPACITY = 64


class _AppendBuffer:
    """Arrays that successive published deltas share as prefixes.

    ``length`` is how far the arrays have been written.  The published
    value whose arrays end there is the buffer's *tip*, and only an
    extension of the tip writes in place: it fills the rows past
    ``length`` and publishes the longer prefix.  Anything else copies its
    prefix into a fresh buffer first, so no prefix a reader holds is ever
    written again.  Arrays are column-major, so each column of a 2-d one
    is a contiguous view.
    """

    __slots__ = ("arrays", "length")

    def __init__(self, prefix: Sequence[np.ndarray], capacity: int) -> None:
        length = len(prefix[0])
        self.arrays = []
        for values in prefix:
            array = np.empty((capacity,) + values.shape[1:], dtype=values.dtype, order="F")
            array[:length] = values
            self.arrays.append(array)
        self.length = length

    @staticmethod
    def capacity_for(rows: int) -> int:
        """The buffer size for ``rows``: the smallest doubling that holds them."""
        capacity = _DELTA_CAPACITY
        while capacity < rows:
            capacity *= 2
        return capacity

    @classmethod
    def tip(
        cls, buffer: Optional["_AppendBuffer"], prefix: Sequence[np.ndarray], grown: int
    ) -> "_AppendBuffer":
        """A buffer to write rows ``len(prefix[0]):grown`` of, marked written
        to ``grown``: ``buffer`` itself when ``prefix`` (a value's views of
        it) is its tip and ``grown`` rows fit, else a fresh copy of
        ``prefix``."""
        if buffer is None or buffer.length != len(prefix[0]) or grown > len(buffer.arrays[0]):
            buffer = cls(prefix, cls.capacity_for(grown))
        buffer.length = grown
        return buffer


class DeltaState:
    """One immutable published value of the mutable delta.

    Row ids, a matrix and a validity mask; the per-dimension columns let
    the shared scoring kernels (:meth:`QuerySession._score_one`,
    ``_score_block``) read a delta exactly like a
    :class:`~repro.core.batch.SessionState`.  ``num_live`` counts rows that
    have not been deleted again while still delta-resident — a
    delta-absorbed delete simply drops out of the live count instead of
    being double-counted as level garbage.

    Every array is a ``[:len(rows)]`` view of an :class:`_AppendBuffer`,
    made once when the value is built: one buffer holds the ids and the
    matrix (column-major, so each column is a contiguous view of it), one
    the mask and one the sorted ids and their row order.  An insert
    appends in place to each buffer its parent is the tip of, so its cost
    does not grow with the delta, and a pinned reader's shorter views
    never change.  A delete copies the mask into a fresh
    buffer and shares the other views.  Ids above every delta id, which is
    what auto-assigned ids are, extend the sorted ids in place; any other id
    re-sorts them into a fresh buffer.  A value built from bare arrays (an
    empty delta, a restored one) owns no buffer and copies out on its first
    insert, so read-only (``mmap``) arrays are never written.
    """

    __slots__ = (
        "rows",
        "matrix",
        "live",
        "num_live",
        "sorted_rows",
        "row_order",
        "columns_by_dim",
        "buffers",
    )

    def __init__(
        self,
        rows,
        matrix,
        live,
        num_live,
        sorted_rows,
        row_order,
        columns_by_dim,
        buffers: Tuple[Optional[_AppendBuffer], ...] = (None, None, None),
    ):
        self.rows = rows
        self.matrix = matrix
        self.live = live
        self.num_live = num_live
        self.sorted_rows = sorted_rows
        self.row_order = row_order
        self.columns_by_dim = columns_by_dim
        #: The ``(data, mask, order)`` buffers the views above are prefixes of.
        self.buffers = buffers

    @classmethod
    def empty(cls, num_dims: int, scored_dims) -> "DeltaState":
        return cls(
            rows=np.empty(0, dtype=np.int64),
            matrix=np.empty((0, num_dims), dtype=float),
            live=np.empty(0, dtype=bool),
            num_live=0,
            sorted_rows=np.empty(0, dtype=np.int64),
            row_order=np.empty(0, dtype=np.int64),
            columns_by_dim={dim: np.empty(0, dtype=float) for dim in scored_dims},
        )

    def with_inserts(self, row_ids: np.ndarray, matrix: np.ndarray) -> "DeltaState":
        data, mask, order = self.buffers
        length = len(self.rows)
        grown = length + len(row_ids)
        data = _AppendBuffer.tip(data, (self.rows, self.matrix), grown)
        ids_buffer, matrix_buffer = data.arrays
        ids_buffer[length:grown] = row_ids
        matrix_buffer[length:grown] = matrix
        rows, full = ids_buffer[:grown], matrix_buffer[:grown]
        mask = _AppendBuffer.tip(mask, (self.live,), grown)
        mask.arrays[0][length:grown] = True
        if (length == 0 or row_ids[0] > self.sorted_rows[-1]) and (
            len(row_ids) == 1 or bool((row_ids[1:] > row_ids[:-1]).all())
        ):
            order = _AppendBuffer.tip(order, (self.sorted_rows, self.row_order), grown)
            sorted_buffer, order_buffer = order.arrays
            sorted_buffer[length:grown] = row_ids
            order_buffer[length:grown] = np.arange(length, grown)
        else:
            # Never in place: readers hold views of the old sorted prefix.
            resorted = np.argsort(rows, kind="stable")
            order = _AppendBuffer((rows[resorted], resorted), len(ids_buffer))
            sorted_buffer, order_buffer = order.arrays
        return DeltaState(
            rows=rows,
            matrix=full,
            live=mask.arrays[0][:grown],
            num_live=self.num_live + len(row_ids),
            sorted_rows=sorted_buffer[:grown],
            row_order=order_buffer[:grown],
            columns_by_dim={dim: full[:, dim] for dim in self.columns_by_dim},
            buffers=(data, mask, order),
        )

    def with_deletes(self, positions: np.ndarray) -> "DeltaState":
        data, _mask, order = self.buffers
        length = len(self.live)
        mask = _AppendBuffer((self.live,), _AppendBuffer.capacity_for(length))
        live = mask.arrays[0][:length]
        live[positions] = False
        return DeltaState(
            rows=self.rows,
            matrix=self.matrix,
            live=live,
            num_live=self.num_live - len(positions),
            sorted_rows=self.sorted_rows,
            row_order=self.row_order,
            columns_by_dim=self.columns_by_dim,
            buffers=(data, mask, order),
        )

    def locate_live(self, ids: np.ndarray) -> np.ndarray:
        """Delta positions of ``ids`` where present and live, else -1."""
        return _locate_live(self.sorted_rows, self.row_order, self.live, ids)

    def live_positions(self) -> np.ndarray:
        return np.flatnonzero(self.live)

    def magnitude(self) -> float:
        """Largest absolute scored coordinate, dead rows included."""
        return _column_magnitude(self.columns_by_dim)

    @property
    def dead(self) -> int:
        return len(self.rows) - self.num_live


class Level:
    """One immutable level: a frozen execution state tagged with its seq.

    A delete of a level-resident row replaces the level with a successor
    sharing every array but a copied validity mask, so the ``seq`` names the
    level's row population across those mask-only successors — which is what
    lets a compactor reconcile tombstones that landed mid-merge, and what the
    WAL's compact records refer to on replay.
    """

    __slots__ = ("seq", "state")

    def __init__(self, seq: int, state: SessionState) -> None:
        self.seq = seq
        self.state = state

    def with_tombstones(self, positions: np.ndarray) -> "Level":
        return Level(self.seq, self.state.with_tombstones(positions))

    def locate_live(self, ids: np.ndarray) -> np.ndarray:
        state = self.state
        return _locate_live(state.sorted_rows, state.row_order, state.live, ids)


class LsmWorld:
    """One published epoch of an LSM session: immutable levels plus a delta.

    Exposes the aggregate surface the epoch machinery and read views expect
    from an execution state (``num_live``, ``garbage_fraction``,
    ``live_row_ids``/``live_matrix``, ``appended``/``tombstoned``), so
    :class:`~repro.core.batch.SessionSnapshot` pins a world exactly like a
    flat state.

    ``garbage_fraction`` counts the pending delta (rows not yet folded into a
    level) plus level-resident tombstones.  A delta-absorbed delete removes
    its row from the pending count and adds **nothing** to the tombstone
    count — the row never reached a level, so there is no level garbage to
    collect for it.
    """

    __slots__ = ("levels", "delta", "level_plan")

    def __init__(
        self, levels: Tuple[Level, ...], delta: DeltaState, level_plan: Optional[Tuple] = None
    ) -> None:
        self.levels = tuple(levels)
        self.delta = delta
        #: What maintenance planning derives from ``levels`` alone
        #: (:meth:`LsmSession._level_plan`), filled by the first plan.
        self.level_plan = level_plan

    def with_delta(self, delta: DeltaState) -> "LsmWorld":
        """The successor holding ``delta`` and these same levels, and so
        what was already derived from them."""
        return LsmWorld(self.levels, delta, self.level_plan)

    # ------------------------------------------------------------- aggregates
    @property
    def num_live(self) -> int:
        return sum(level.state.num_live for level in self.levels) + self.delta.num_live

    @property
    def appended(self) -> int:
        """Rows pending in the delta (the flush backlog)."""
        return self.delta.num_live

    @property
    def tombstoned(self) -> int:
        """Dead rows still occupying level arrays (the merge backlog)."""
        return sum(level.state.tombstoned for level in self.levels)

    def garbage_fraction(self) -> float:
        return (self.appended + self.tombstoned) / max(self.num_live, 1)

    def live_row_ids(self) -> np.ndarray:
        parts = [level.state.live_row_ids() for level in self.levels]
        parts.append(self.delta.rows[self.delta.live])
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def live_matrix(self) -> np.ndarray:
        parts = [level.state.live_matrix() for level in self.levels]
        parts.append(self.delta.matrix[self.delta.live])
        return np.vstack(parts)

    def live_mask(self, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` are live rows of this world (vectorized)."""
        found = self.delta.locate_live(ids) >= 0
        for level in self.levels:
            if found.all():
                break
            found |= level.locate_live(ids) >= 0
        return found

    def point(self, row_id: int) -> Optional[np.ndarray]:
        """The coordinates of a live row, or None if it is not live here."""
        ids = np.array([row_id], dtype=np.int64)
        for level in self.levels:
            at = level.locate_live(ids)[0]
            if at >= 0:
                return level.state.matrix[at]
        at = self.delta.locate_live(ids)[0]
        return self.delta.matrix[at] if at >= 0 else None

    def level(self, seq: int) -> Optional[Level]:
        for candidate in self.levels:
            if candidate.seq == seq:
                return candidate
        return None

    def describe(self) -> Dict[str, object]:
        """Structure summary (tests and ``maintenance_stats`` read this)."""
        return {
            "levels": [
                {
                    "seq": level.seq,
                    "rows": len(level.state.rows),
                    "live": level.state.num_live,
                    "tombstoned": level.state.tombstoned,
                }
                for level in self.levels
            ],
            "delta_rows": len(self.delta.rows),
            "delta_live": self.delta.num_live,
        }


class DeleteLookup:
    """One lookup of a delete (:meth:`LsmSession.locate_deletes`).

    Its positions hold only in ``world``, the world it read, so it is
    published only while that world is current.
    """

    __slots__ = ("world", "successor", "absorbed")

    def __init__(self, world: LsmWorld, successor: LsmWorld, absorbed: int):
        self.world = world
        #: ``world`` with the ids found live tombstoned.
        self.successor = successor
        #: How many of them the delta held.
        self.absorbed = absorbed


class LsmSession(QuerySession):
    """A :class:`QuerySession` whose epochs hold layered :class:`LsmWorld`\\ s.

    The one session each aggregator builds with itself and owns for its whole
    life.  The read surface (``run``/``snapshot``/``upper_bounds``/
    ``sample_scores``) is the base class's; this class runs its per-level
    kernels over every source of a world and adds the aggregator patch
    surface (``apply_*``).  Writers append to the delta or copy one validity
    mask — never a sorted-column splice, never a reflatten — and publish the
    successor world copy-on-write.  Maintenance happens through
    :meth:`flush`/:meth:`compact`, driven either by the owning aggregator's
    post-write trigger (inline or on a short-lived background thread) or
    explicitly by a durability wrapper that journals each structure op
    (``auto_compaction=False``).
    """

    def __init__(
        self,
        aggregator,
        population: Tuple[np.ndarray, np.ndarray],
        flush_rows: int = _FLUSH_ROWS,
        fanout: int = _FANOUT,
        background: bool = True,
    ) -> None:
        if flush_rows < 1:
            raise ValueError("flush_rows must be >= 1")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.flush_rows = int(flush_rows)
        self.fanout = int(fanout)
        self.background = bool(background)
        #: False once a durability wrapper takes over maintenance scheduling
        #: (it must journal every flush/compact in apply order).
        self.auto_compaction = True
        self.flushes = 0
        self.compactions = 0
        #: Deletes absorbed by the delta (satellite regression: these must not
        #: inflate the garbage fraction of any level).
        self.delta_absorbed_deletes = 0
        self._next_seq = 1
        self._maintain_lock = threading.Lock()
        self._compactor: Optional[threading.Thread] = None
        self._maintenance_error: Optional[BaseException] = None
        super().__init__(aggregator, population)

    # ------------------------------------------------------------------ state
    @property
    def _world(self) -> LsmWorld:
        return self.epochs.current_state()

    def _claim_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _build(self, population=None) -> None:
        """(Re)build as a single-level world over ``population`` (``(rows,
        matrix)``; by default the aggregator's live rows)."""
        aggregator = self._aggregator
        if population is None:
            population = aggregator.live_population()
        state = self._state_from_rows(*population)
        scored = set(aggregator.repulsive) | set(aggregator.attractive)
        world = LsmWorld(
            levels=(Level(self._claim_seq(), state),),
            delta=DeltaState.empty(aggregator._num_dims, scored),
        )
        self.epochs.publish(world)

    # ------------------------------------------------------------ write path
    def apply_bulk_insert(self, row_ids, matrix) -> None:
        """Absorb inserted rows into the delta: an append, no tree surgery."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        matrix = np.asarray(matrix, dtype=float)
        if len(row_ids) == 0:
            return
        world = self._world
        successor = world.with_delta(world.delta.with_inserts(row_ids, matrix))
        self.epochs.publish(successor)
        self.patched_inserts += len(row_ids)

    def locate_deletes(self, row_ids: np.ndarray) -> Tuple[DeleteLookup, np.ndarray]:
        """Look ``row_ids`` up once in the current world; publish nothing.

        Returns the lookup (the successor world with every live one of
        them tombstoned) and which of them were live.
        """
        world = self._world
        delta = world.delta
        at = delta.locate_live(row_ids)
        found = at >= 0
        absorbed = int(found.sum())
        if absorbed:
            delta = delta.with_deletes(at[found])
        levels = world.levels
        if absorbed < len(row_ids):
            for i, level in enumerate(world.levels):
                positions = level.locate_live(row_ids)
                hit = positions >= 0
                if hit.any():
                    levels = levels[:i] + (level.with_tombstones(positions[hit]),) + levels[i + 1 :]
                    found |= hit
                    if found.all():
                        break
        successor = world.with_delta(delta) if levels is world.levels else LsmWorld(levels, delta)
        return DeleteLookup(world, successor, absorbed), found

    def apply_bulk_delete(self, row_ids, located: Optional[DeleteLookup] = None) -> None:
        """Clear delta bits or copy the owning level's validity mask.

        The one lookup of a delete, and its validation: if any id is not a
        live row, raises ``KeyError`` naming the first such id and publishes
        nothing.  ``located`` is a lookup of exactly these ids that found
        them all (:meth:`locate_deletes`); it is published as is while its
        world is still current, and looked up again if a compactor
        published in between.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0:
            return
        if located is None or located.world is not self._world:
            located, found = self.locate_deletes(row_ids)
            if not found.all():
                raise KeyError(f"row id {int(row_ids[np.argmin(found)])} not present")
        self.epochs.publish(located.successor)
        # Counters only move once the successor world is actually published;
        # a KeyError above must leave every stat exactly where it was.
        self.delta_absorbed_deletes += located.absorbed
        self.patched_deletes += len(row_ids)

    # ------------------------------------------------------------ maintenance
    def _flush_due(self, world: LsmWorld) -> bool:
        delta = world.delta
        return delta.num_live >= self.flush_rows or delta.dead >= self.flush_rows

    def _pick_tier_merge(self, levels: Tuple[Level, ...]) -> Optional[Tuple[int, ...]]:
        """Size-tiered pick: the smallest tier holding >= fanout levels."""
        tiers: Dict[int, List[Level]] = {}
        for level in levels:
            tiers.setdefault(_tier(level.state.num_live, self.fanout), []).append(level)
        for tier in sorted(tiers):
            members = tiers[tier]
            if len(members) >= self.fanout:
                return tuple(level.seq for level in members)
        return None

    def _level_plan(self, world: LsmWorld) -> Tuple:
        """``(tier merge, level tombstones, level live rows)`` of ``world``.

        Derived once per levels tuple and kept on the world, as one
        immutable value that a successor keeping the levels (an insert's, a
        delta-resident delete's, :meth:`LsmWorld.with_delta`) inherits.
        Planners that race (a writer and the background compactor) at
        worst derive it twice, and it lives exactly as long as the worlds
        that hold it.
        """
        plan = world.level_plan
        if plan is None:
            levels = world.levels
            plan = (
                self._pick_tier_merge(levels),
                sum(level.state.tombstoned for level in levels),
                sum(level.state.num_live for level in levels),
            )
            world.level_plan = plan
        return plan

    def _plan_maintenance(self, world: LsmWorld):
        """The next due structure op, or None: flush first, then merges."""
        if self._flush_due(world):
            return ("flush",)
        merge, tombstoned, level_live = self._level_plan(world)
        if merge is not None:
            return ("compact", merge)
        # Garbage collection: the reflatten threshold, as one compaction
        # trigger among several.  Only level tombstones count —
        # the delta backlog is the flush trigger's business, and a
        # delta-absorbed delete contributes to neither (its row never
        # became level garbage).
        if tombstoned > 0 and tombstoned > _REFLATTEN_THRESHOLD * max(
            level_live + world.delta.num_live, 1
        ):
            return ("compact", tuple(level.seq for level in world.levels))
        return None

    def maybe_maintain(self) -> None:
        """Post-write trigger (called by the aggregator under its write lock).

        Background mode hands the work to a short-lived compactor thread and
        only flushes inline when the delta outruns the hard cap; inline mode
        performs the due ops synchronously.  No-op once a durability wrapper
        has claimed scheduling (``auto_compaction=False``) or the interpreter
        is exiting.
        """
        error = self._maintenance_error
        if error is not None:
            self._maintenance_error = None
            raise RuntimeError("background LSM maintenance failed") from error
        if not self.auto_compaction or _EXITING.is_set():
            return
        world = self._world
        if self._plan_maintenance(world) is None:
            return
        if not self.background:
            self.maintain()
            return
        compactor = self._compactor
        if compactor is None or not compactor.is_alive():
            compactor = threading.Thread(
                target=self._background_maintain, name="lsm-compactor", daemon=True
            )
            self._compactor = compactor
            _COMPACTORS.add(compactor)
            compactor.start()
        elif world.delta.num_live >= _HARD_CAP_FACTOR * self.flush_rows:
            # The compactor is behind; bound delta memory with one inline
            # flush (cheap: O(delta)) while merges continue in background.
            self._flush_locked()

    def _background_maintain(self) -> None:
        try:
            self.maintain()
        except BaseException as error:  # surfaced on the next write
            self._maintenance_error = error

    def maintain(self) -> List[Tuple]:
        """Perform every due structure op now; returns them in apply order.

        Each entry is ``("flush",)`` or ``("compact", seqs)`` — the shape a
        durability wrapper journals as WAL records.  Serialized against
        concurrent maintenance, so explicit calls and the background thread
        never interleave half-built merges.  Stops between ops once the
        interpreter is exiting.
        """
        ops: List[Tuple] = []
        with self._maintain_lock:
            while True:
                if self._aggregator.closed or _EXITING.is_set():
                    break
                plan = self._plan_maintenance(self._world)
                if plan is None:
                    break
                if plan[0] == "flush":
                    if not self.flush():
                        break
                    ops.append(("flush",))
                else:
                    merged = self.compact(plan[1])
                    if merged is None:
                        break
                    ops.append(("compact", plan[1]))
        return ops

    def flush(self) -> bool:
        """Fold the delta into a fresh immutable level (epoch-published).

        Returns False when the delta held no rows (nothing published).  Cost
        is O(delta log delta) — one x sort per pair over the delta rows, whose
        flat views are built straight from the sorted arrays with no tree —
        under the aggregator write lock, which bounds writer stalls by the
        flush threshold instead of the dataset size.
        """
        with self._aggregator.write_lock:
            return self._flush_locked()

    def _flush_locked(self) -> bool:
        if self._aggregator.closed:
            return False
        world = self._world
        delta = world.delta
        if len(delta.rows) == 0:
            return False
        faults.fire(_FP_FLUSH)
        scored = set(self._aggregator.repulsive) | set(self._aggregator.attractive)
        fresh = DeltaState.empty(self._aggregator._num_dims, scored)
        if delta.num_live == 0:
            # Every delta row died before flushing: just drop the arrays.
            self.epochs.publish(world.with_delta(fresh))
            self.flushes += 1
            return True
        alive = delta.live_positions()
        state = self._state_from_rows(delta.rows[alive], delta.matrix[alive])
        level = Level(self._claim_seq(), state)
        self.epochs.publish(LsmWorld(world.levels + (level,), fresh))
        self.flushes += 1
        return True

    def compact(self, seqs: Optional[Sequence[int]] = None) -> Optional[Tuple[int, ...]]:
        """Merge the named levels (default: all) into one, aside then flipped.

        The merged state is built from the input levels' immutable arrays
        without holding the write lock — readers and writers keep running.
        The publish step then reconciles tombstones that landed on the inputs
        mid-merge (deletes only clear validity bits, so the merged rows are a
        superset of the survivors) and flips the world atomically.  Returns
        the input seqs actually merged, or None when fewer than two of them
        exist (with no tombstones to collect there is nothing to do).
        """
        with self._aggregator.write_lock:
            if self._aggregator.closed:
                return None
            world = self._world
            if seqs is None:
                seqs = tuple(level.seq for level in world.levels)
            wanted = tuple(int(seq) for seq in seqs)
            inputs = [level for level in world.levels if level.seq in wanted]
            if not inputs:
                return None
            if len(inputs) == 1 and inputs[0].state.tombstoned == 0:
                return None
        faults.fire(_FP_MERGE)
        # Build aside from the captured immutable inputs (no lock held).
        live_rows = np.concatenate([level.state.live_row_ids() for level in inputs])
        live_matrix = np.vstack([level.state.live_matrix() for level in inputs])
        merged = self._state_from_rows(live_rows, live_matrix) if len(live_rows) else None
        with self._aggregator.write_lock:
            if self._aggregator.closed:
                return None
            current = self._world
            survivors = tuple(
                level for level in current.levels if level.seq not in wanted
            )
            if merged is not None:
                # Reconcile deletes that landed on the inputs mid-merge: a
                # level's seq survives mask-only successors, so rows live at
                # capture but dead now are exactly the set to re-tombstone.
                now_live_parts = [
                    level.state.live_row_ids()
                    for level in current.levels
                    if level.seq in wanted
                ]
                now_live = (
                    np.concatenate(now_live_parts)
                    if now_live_parts
                    else np.empty(0, dtype=np.int64)
                )
                dead_since = np.setdiff1d(live_rows, now_live, assume_unique=True)
                level = Level(self._claim_seq(), merged)
                if len(dead_since):
                    positions = level.locate_live(dead_since)
                    level = level.with_tombstones(positions[positions >= 0])
                if level.state.num_live > 0:
                    survivors = survivors + (level,)
            self.epochs.publish(LsmWorld(survivors, current.delta))
            self.compactions += 1
        return wanted

    def quiesce(self) -> None:
        """Wait for in-flight background maintenance; re-raise its failure.

        Call without holding the aggregator write lock (the compactor needs
        it to publish).
        """
        compactor = self._compactor
        if compactor is not None and compactor is not threading.current_thread():
            compactor.join()
        error = self._maintenance_error
        if error is not None:
            self._maintenance_error = None
            raise RuntimeError("background LSM maintenance failed") from error

    # ------------------------------------------------------------------ stats
    def maintenance_stats(self) -> Dict[str, int]:
        stats = super().maintenance_stats()
        world = self._world
        stats.update(
            {
                "levels": len(world.levels),
                "delta_rows": len(world.delta.rows),
                "delta_live": world.delta.num_live,
                "flushes": self.flushes,
                "compactions": self.compactions,
                "delta_absorbed_deletes": self.delta_absorbed_deletes,
            }
        )
        return stats

    def structure(self) -> Dict[str, object]:
        """The current world's level/delta layout (tests and tools)."""
        return self._world.describe()

    # ------------------------------------------------------------- read path
    @property
    def _scan_rows(self) -> int:
        """The most live rows a level may hold and still be scored brute
        force: one flush plus the first two tiers of merges, 4,096 rows at
        the defaults.  Scoring each row of such a level costs less than the
        kernel's fixed toll; DESIGN.md section 11 says why the cutoff stops
        there."""
        return self.flush_rows * self.fanout**2

    def _sources(self, world: LsmWorld) -> List[Tuple[bool, object]]:
        """``(scanned, source)`` for every source of ``world`` with live rows.

        The levels' states in world order, then the delta.  A scanned
        source is scored brute force: the delta always, and every level of
        at most :attr:`_scan_rows` live rows.  Larger levels run the
        filter-and-verify kernel.
        """
        cutoff = self._scan_rows
        sources: List[Tuple[bool, object]] = [
            (level.state.num_live <= cutoff, level.state)
            for level in world.levels
            if level.state.num_live > 0
        ]
        if world.delta.num_live:
            sources.append((True, world.delta))
        return sources

    def _data_magnitude(self, world: LsmWorld) -> float:
        return max(
            (source.magnitude() for _scanned, source in self._sources(world)),
            default=0.0,
        )

    def _sample_scores(
        self, world: LsmWorld, spec: BatchQuerySpec, pool: int
    ) -> np.ndarray:
        parts = [
            self._source_sample_scores(source, spec, pool)
            for _scanned, source in self._sources(world)
        ]
        if not parts:
            return np.empty((len(spec), 0))
        return np.hstack(parts)

    def _upper_bounds(self, world: LsmWorld, spec: BatchQuerySpec) -> np.ndarray:
        bounds = np.full(len(spec), -math.inf)
        for scanned, source in self._sources(world):
            bound = (
                self._scan_upper_bounds(source, spec)
                if scanned
                else self._level_upper_bounds(source, spec)
            )
            bounds = np.maximum(bounds, bound)
        return bounds

    def _scan_upper_bounds(self, source, spec: BatchQuerySpec) -> np.ndarray:
        """Admissible per-query score bound over a scanned source's live rows.

        Per-dimension extremes, like the sorted-column bounds of the flat
        kernels: a repulsive dimension contributes at most its farthest
        distance, an attractive one at least its nearest.  Ulp-level term
        order differences are absorbed by the threshold-side slack
        (:func:`_prune_bound`), the same contract every other bound obeys.
        """
        aggregator = self._aggregator
        m = len(spec)
        alive = source.live_positions()
        if len(alive) == 0:
            return np.full(m, -math.inf)
        bounds = np.zeros(m)
        for i, dim in enumerate(aggregator.repulsive):
            values = source.columns_by_dim[dim][alive]
            targets = spec.points[:, dim]
            farthest = np.maximum(
                np.abs(values.min() - targets), np.abs(values.max() - targets)
            )
            bounds += spec.alpha[:, i] * farthest
        for i, dim in enumerate(aggregator.attractive):
            values = np.sort(source.columns_by_dim[dim][alive])
            targets = spec.points[:, dim]
            at = np.searchsorted(values, targets)
            nearest = np.full(m, np.inf)
            right = at < len(values)
            nearest[right] = np.abs(
                values[np.minimum(at[right], len(values) - 1)] - targets[right]
            )
            left = at > 0
            nearest[left] = np.minimum(
                nearest[left], np.abs(values[at[left] - 1] - targets[left])
            )
            bounds -= spec.beta[:, i] * nearest
        return bounds

    def _scan_topk(
        self,
        sources: Sequence,
        spec: BatchQuerySpec,
        ks_eff: np.ndarray,
        label: str,
        deadline: Optional[Deadline] = None,
    ) -> List[TopKResult]:
        """Exact brute-force top-k over the scanned sources taken together.

        Every live row is scored in its query's own term order, so scores
        are bit-identical to the sequential path's; only each query's top
        ``k`` become :class:`Match` objects.  Like the kernel, it yields to
        the deadline between queries.
        """
        m = len(spec)
        if not sources:
            return [TopKResult(matches=[], algorithm=label) for _ in range(m)]
        alive = [source.live_positions() for source in sources]
        rows = np.concatenate([source.rows[live] for source, live in zip(sources, alive)])
        owner = np.repeat(np.arange(len(sources)), [len(live) for live in alive])
        positions = np.concatenate(alive)
        results = []
        for j in range(m):
            if deadline is not None:
                deadline.check()
            scores = np.concatenate(
                [
                    self._score_one(source, live, spec, j)
                    for source, live in zip(sources, alive)
                ]
            )
            top = select_topk(scores, rows, int(ks_eff[j]))
            matches = [
                Match(
                    row_id=int(rows[i]),
                    score=float(scores[i]),
                    point=tuple(sources[owner[i]].matrix[positions[i]]),
                )
                for i in top
            ]
            results.append(
                TopKResult(
                    matches=matches,
                    candidates_examined=len(rows),
                    full_evaluations=len(rows),
                    algorithm=label,
                )
            )
        return results

    def _execute(
        self,
        world: LsmWorld,
        spec: BatchQuerySpec,
        lower_bounds,
        _label: str,
        deadline: Optional[Deadline] = None,
    ) -> BatchResult:
        """The read pipeline over one pinned world (DESIGN.md section 11).

        The scanned sources are scored first, as one block; their exact
        matches and a sample of every kernel level seed one k-th-best lower
        bound per query, under which each kernel level runs the filter and
        verify stages once.  Matches merge under the ``(-score, row_id)``
        tie-break, bit-identical to ``SequentialScan``.
        """
        # Single-level worlds with an empty delta take the flat kernels
        # verbatim — the no-write serving path is byte-for-byte the PR 1-2
        # pipeline, merged paths only pay for the layers they actually have.
        if len(world.levels) == 1 and len(world.delta.rows) == 0:
            return self._level_execute(
                world.levels[0].state, spec, lower_bounds, _label, deadline=deadline
            )
        m = len(spec)
        if m == 0:
            return BatchResult(results=[], algorithm=_label)
        total_live = world.num_live
        if total_live == 0:
            return BatchResult(
                results=[TopKResult(matches=[], algorithm=_label) for _ in range(m)],
                algorithm=_label,
            )
        if deadline is not None:
            deadline.check()
        ks_eff = np.minimum(spec.ks, total_live)
        sources = self._sources(world)
        levels = [source for scanned, source in sources if not scanned]

        # Scanned sources need no bound: scoring one costs about what
        # bounding it would.
        scan = self._scan_topk(
            [source for scanned, source in sources if scanned],
            spec,
            ks_eff,
            _label,
            deadline=deadline,
        )
        pools: List[List[Match]] = [list(result.matches) for result in scan]
        examined = np.array([result.candidates_examined for result in scan], dtype=np.int64)
        if not levels:
            return BatchResult(results=scan, algorithm=_label)

        # One global k-th-best lower bound per query, from the scanned
        # matches and a sample of each kernel level — the cross-shard
        # seeding pattern, applied per level.  It is the only seeding.
        magnitude = self._data_magnitude(world)
        for dim in set(self._aggregator.repulsive) | set(self._aggregator.attractive):
            magnitude = max(magnitude, float(np.abs(spec.points[:, dim]).max()))
        weight_scale = spec.alpha.sum(axis=1) + spec.beta.sum(axis=1)
        sampled = np.hstack(
            [self._source_sample_scores(level, spec, batch._SEED_POOL) for level in levels]
        )
        kth_lower = np.full(m, -math.inf)
        for j in range(m):
            seeds = np.concatenate([sampled[j], [match.score for match in pools[j]]])
            k_j = int(ks_eff[j])
            if len(seeds) >= k_j:
                kth_lower[j] = np.partition(seeds, len(seeds) - k_j)[len(seeds) - k_j]
        floor = (
            np.asarray(lower_bounds, dtype=float)
            if lower_bounds is not None
            else np.full(m, -math.inf)
        )

        # Bound-ordered level visitation — the cross-shard serving pattern
        # applied *within* the layered world.  Each query walks the kernel
        # levels in decreasing order of their admissible upper bounds; after
        # every round the merged pools re-tighten the global k-th lower
        # bound, so later levels run with a harder threshold or get skipped
        # outright when their bound cannot reach it.  A skipped level only
        # sheds rows scoring strictly below ``kth - slack`` — rows that can
        # never enter the global top k — so the merge stays bit-identical to
        # visiting everything.  A lone kernel level needs no visit order.
        if len(levels) == 1:
            ubs = np.full((1, m), math.inf)
        else:
            ubs = np.vstack([self._level_upper_bounds(level, spec) for level in levels])
        visit = np.argsort(-ubs, axis=0, kind="stable")
        queries = np.arange(m)
        for round_index in range(len(levels)):
            if deadline is not None:
                deadline.check()
            threshold = np.maximum(
                _prune_bound(kth_lower, weight_scale, magnitude), floor
            )
            level_of = visit[round_index]
            due = ubs[level_of, queries] >= threshold
            for p in np.unique(level_of[due]):
                members = np.flatnonzero(due & (level_of == p))
                sub_results = self._level_filter(
                    levels[p], spec.subset(members), threshold[members], magnitude,
                    _label, deadline=deadline,
                ).results
                for i, j in enumerate(members):
                    result = sub_results[i]
                    pools[int(j)].extend(result.matches)
                    examined[int(j)] += result.candidates_examined
            for j in range(m):
                pool = pools[j]
                k_j = int(ks_eff[j])
                if len(pool) >= k_j:
                    pool.sort(key=lambda match: (-match.score, match.row_id))
                    del pool[k_j:]
                    kth_lower[j] = max(kth_lower[j], pool[-1].score)

        results: List[TopKResult] = []
        for j in range(m):
            pool = pools[j]
            pool.sort(key=lambda match: (-match.score, match.row_id))
            del pool[int(ks_eff[j]) :]
            results.append(
                TopKResult(
                    matches=pool,
                    candidates_examined=int(examined[j]),
                    full_evaluations=int(examined[j]),
                    algorithm=_label,
                )
            )
        return BatchResult(results=results, algorithm=_label)
