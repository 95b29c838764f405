"""LSM-structured session maintenance (DESIGN.md section 11).

Patching one flattened world per update costs O(n) splices on the write path
and, once garbage crosses a threshold, an O(n log n) stop-the-world reflatten
that will not survive sustained write traffic.  Every query session therefore
maintains its state as a small log-structured merge hierarchy:

* **Delta.**  A bounded mutable :class:`DeltaState` absorbs every insert as a
  plain array append (no tree, no sorted-column splices) and every delete of a
  not-yet-flushed row as a mask clear.  Published copy-on-write, so readers
  pin immutable values exactly as before.
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
bit-identically no matter which level holds it.  Queries seed one global
k-th-best lower bound from samples pooled across every source (the cross-shard
pattern of :mod:`repro.core.sharding`), run the unchanged filter-and-verify
kernels per level under that bound, brute-force the delta in each query's own
term order, and merge under the ``(-score, row_id)`` tie-break — bit-identical
to ``SequentialScan`` by the same argument that makes sharded serving exact.
"""

from __future__ import annotations

import atexit
import math
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.core.batch import (
    BatchQuerySpec,
    QuerySession,
    SessionState,
    _prune_bound,
    select_topk,
)
from repro.core.deadline import Deadline
from repro.core.results import BatchResult, Match, TopKResult

__all__ = ["DeltaState", "Level", "LsmWorld", "LsmSession"]

#: Delta occupancy (live rows) that schedules a flush.
_FLUSH_ROWS = 256

#: Levels per size tier before the tier is merged.
_FANOUT = 4

#: Inline-flush relief valve: if the background compactor falls this far
#: behind, the writer flushes synchronously to bound delta memory.
_HARD_CAP_FACTOR = 8

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


def _locate_live(sorted_rows, row_order, live, ids):
    """Positions of ``ids`` where present *and* live, else -1 (vectorized)."""
    out = np.full(len(ids), -1, dtype=np.int64)
    if len(sorted_rows) == 0 or len(ids) == 0:
        return out
    at = np.searchsorted(sorted_rows, ids)
    clipped = np.minimum(at, len(sorted_rows) - 1)
    found = sorted_rows[clipped] == ids
    positions = row_order[clipped[found]]
    alive = live[positions]
    hits = np.flatnonzero(found)
    out[hits[alive]] = positions[alive]
    return out


class DeltaState:
    """One immutable published value of the mutable delta.

    Row-major append arrays plus a validity mask; the per-dimension column
    cache lets the shared scoring kernels (:meth:`QuerySession._score_one`,
    ``_score_block``) read a delta exactly like a
    :class:`~repro.core.batch.SessionState`.  ``num_live`` counts rows that
    have not been deleted again while still delta-resident — a
    delta-absorbed delete simply drops out of the live count instead of
    being double-counted as level garbage.
    """

    __slots__ = (
        "rows",
        "matrix",
        "live",
        "num_live",
        "sorted_rows",
        "row_order",
        "columns_by_dim",
    )

    def __init__(self, rows, matrix, live, num_live, sorted_rows, row_order, columns_by_dim):
        self.rows = rows
        self.matrix = matrix
        self.live = live
        self.num_live = num_live
        self.sorted_rows = sorted_rows
        self.row_order = row_order
        self.columns_by_dim = columns_by_dim

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
        rows = np.concatenate([self.rows, row_ids])
        full = np.vstack([self.matrix, matrix]) if len(self.matrix) else matrix.copy()
        live = np.concatenate([self.live, np.ones(len(row_ids), dtype=bool)])
        columns = {
            dim: np.concatenate([values, np.ascontiguousarray(matrix[:, dim])])
            for dim, values in self.columns_by_dim.items()
        }
        order = np.argsort(rows, kind="stable")
        return DeltaState(
            rows=rows,
            matrix=full,
            live=live,
            num_live=self.num_live + len(row_ids),
            sorted_rows=rows[order],
            row_order=order,
            columns_by_dim=columns,
        )

    def with_deletes(self, positions: np.ndarray) -> "DeltaState":
        live = self.live.copy()
        live[positions] = False
        return DeltaState(
            rows=self.rows,
            matrix=self.matrix,
            live=live,
            num_live=self.num_live - len(positions),
            sorted_rows=self.sorted_rows,
            row_order=self.row_order,
            columns_by_dim=self.columns_by_dim,
        )

    def locate_live(self, ids: np.ndarray) -> np.ndarray:
        """Delta positions of ``ids`` where present and live, else -1."""
        return _locate_live(self.sorted_rows, self.row_order, self.live, ids)

    def live_positions(self) -> np.ndarray:
        return np.flatnonzero(self.live)

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
        state = self.state
        live = state.live.copy()
        live[positions] = False
        successor = SessionState(
            rows=state.rows,
            matrix=state.matrix,
            live=live,
            num_live=state.num_live - len(positions),
            row_order=state.row_order,
            sorted_rows=state.sorted_rows,
            columns_by_dim=state.columns_by_dim,
            pairs=state.pairs,
            pair_leaf_of_position=state.pair_leaf_of_position,
            col_values=state.col_values,
            col_positions=state.col_positions,
            appended=state.appended,
            tombstoned=state.tombstoned + len(positions),
        )
        return Level(self.seq, successor)

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

    __slots__ = ("levels", "delta")

    def __init__(self, levels: Tuple[Level, ...], delta: DeltaState) -> None:
        self.levels = tuple(levels)
        self.delta = delta

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


class LsmSession(QuerySession):
    """A :class:`QuerySession` whose epochs hold layered :class:`LsmWorld`\\ s.

    The session every aggregator creates.  The read surface
    (``run``/``snapshot``/``upper_bounds``/``sample_scores``) is the base
    class's, applied per source; this class adds the aggregator patch surface
    (``apply_*``).  Writers append to the delta or copy one validity mask —
    never a sorted-column splice, never a reflatten — and publish the
    successor world copy-on-write.  Maintenance happens through
    :meth:`flush`/:meth:`compact`, driven either by the owning aggregator's
    post-write trigger (inline or on a short-lived background thread) or
    explicitly by a durability wrapper that journals each structure op
    (``auto_compaction=False``).
    """

    def __init__(
        self,
        aggregator,
        seed_pool: Optional[int] = None,
        reflatten_threshold: Optional[float] = None,
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
        kwargs = {}
        if seed_pool is not None:
            kwargs["seed_pool"] = seed_pool
        if reflatten_threshold is not None:
            kwargs["reflatten_threshold"] = reflatten_threshold
        super().__init__(aggregator, **kwargs)

    # ------------------------------------------------------------------ state
    @property
    def _world(self) -> LsmWorld:
        return self.epochs.current_state()

    def _claim_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _build(self) -> None:
        """(Re)build as a single-level world over the aggregator's live rows."""
        aggregator = self._aggregator
        self._generation = aggregator.mutations
        state = self._state_from_rows(*aggregator.live_population())
        scored = set(aggregator.repulsive) | set(aggregator.attractive)
        world = LsmWorld(
            levels=(Level(self._claim_seq(), state),),
            delta=DeltaState.empty(aggregator._num_dims, scored),
        )
        self.epochs.publish(world)

    # ------------------------------------------------------------ write path
    def apply_bulk_insert(self, row_ids, matrix) -> None:
        """Absorb inserted rows into the delta (O(delta), no tree surgery)."""
        self._generation = self._aggregator.mutations
        row_ids = np.asarray(row_ids, dtype=np.int64)
        matrix = np.asarray(matrix, dtype=float)
        if len(row_ids) == 0:
            return
        world = self._world
        successor = LsmWorld(world.levels, world.delta.with_inserts(row_ids, matrix))
        self.epochs.publish(successor)
        self.patched_inserts += len(row_ids)

    def apply_bulk_delete(self, row_ids) -> None:
        """Clear delta bits or copy the owning level's validity mask."""
        self._generation = self._aggregator.mutations
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0:
            return
        world = self._world
        delta = world.delta
        at = delta.locate_live(row_ids)
        in_delta = at >= 0
        absorbed = int(in_delta.sum())
        if absorbed:
            delta = delta.with_deletes(at[in_delta])
        remaining = row_ids[~in_delta]
        levels = list(world.levels)
        if len(remaining):
            resolved = np.zeros(len(remaining), dtype=bool)
            for i, level in enumerate(levels):
                positions = level.locate_live(remaining)
                hit = positions >= 0
                if hit.any():
                    levels[i] = level.with_tombstones(positions[hit])
                    resolved |= hit
                if resolved.all():
                    break
            if not resolved.all():
                missing = remaining[~resolved].tolist()
                raise KeyError(f"row ids {missing} not present in any level or delta")
        self.epochs.publish(LsmWorld(tuple(levels), delta))
        # Counters only move once the successor world is actually published;
        # a KeyError above must leave every stat exactly where it was.
        self.delta_absorbed_deletes += absorbed
        self.patched_deletes += len(row_ids)

    # ------------------------------------------------------------ maintenance
    def _flush_due(self, world: LsmWorld) -> bool:
        delta = world.delta
        return delta.num_live >= self.flush_rows or delta.dead >= self.flush_rows

    def _pick_tier_merge(self, world: LsmWorld) -> Optional[Tuple[int, ...]]:
        """Size-tiered pick: the smallest tier holding >= fanout levels."""
        tiers: Dict[int, List[Level]] = {}
        for level in world.levels:
            size = max(level.state.num_live, 1)
            tier = int(math.log(size, self.fanout)) if size > 1 else 0
            tiers.setdefault(tier, []).append(level)
        for tier in sorted(tiers):
            members = tiers[tier]
            if len(members) >= self.fanout:
                return tuple(level.seq for level in members)
        return None

    def _plan_maintenance(self, world: LsmWorld):
        """The next due structure op, or None: flush first, then merges."""
        if self._flush_due(world):
            return ("flush",)
        merge = self._pick_tier_merge(world)
        if merge is not None:
            return ("compact", merge)
        # Garbage collection: the reflatten threshold, as one compaction
        # trigger among several.  Only level tombstones count —
        # the delta backlog is the flush trigger's business, and a
        # delta-absorbed delete contributes to neither (its row never
        # became level garbage).
        tombstoned = world.tombstoned
        if tombstoned > 0 and tombstoned > self.reflatten_threshold * max(
            world.num_live, 1
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
            self.epochs.publish(LsmWorld(world.levels, fresh))
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
    def _sources(self, world: LsmWorld) -> List[SessionState]:
        return [level.state for level in world.levels if level.state.num_live > 0]

    def _data_magnitude(self, state) -> float:
        if isinstance(state, SessionState) or isinstance(state, DeltaState):
            return super()._data_magnitude(state)
        world = state
        magnitude = 0.0
        for source in self._sources(world):
            magnitude = max(magnitude, super()._data_magnitude(source))
        if world.delta.num_live:
            magnitude = max(magnitude, super()._data_magnitude(world.delta))
        return magnitude

    def _sample_scores(self, state, spec: BatchQuerySpec, pool: int) -> np.ndarray:
        if isinstance(state, SessionState) or isinstance(state, DeltaState):
            return super()._sample_scores(state, spec, pool)
        world = state
        parts = [
            super(LsmSession, self)._sample_scores(source, spec, pool)
            for source in self._sources(world)
        ]
        if world.delta.num_live:
            parts.append(super()._sample_scores(world.delta, spec, pool))
        if not parts:
            return np.empty((len(spec), 0))
        return np.hstack(parts)

    def _upper_bounds(self, state, spec: BatchQuerySpec) -> np.ndarray:
        if isinstance(state, SessionState):
            return super()._upper_bounds(state, spec)
        world = state
        bounds = np.full(len(spec), -math.inf)
        for source in self._sources(world):
            bounds = np.maximum(bounds, super()._upper_bounds(source, spec))
        if world.delta.num_live:
            bounds = np.maximum(bounds, self._delta_upper_bounds(world.delta, spec))
        return bounds

    def _delta_upper_bounds(self, delta: DeltaState, spec: BatchQuerySpec) -> np.ndarray:
        """Admissible per-query score bound over the delta's live rows.

        Per-dimension extremes, like the sorted-column bounds of the flat
        kernels: a repulsive dimension contributes at most its farthest
        distance, an attractive one at least its nearest.  Ulp-level term
        order differences are absorbed by the threshold-side slack
        (:func:`_prune_bound`), the same contract every other bound obeys.
        """
        aggregator = self._aggregator
        m = len(spec)
        alive = delta.live_positions()
        if len(alive) == 0:
            return np.full(m, -math.inf)
        bounds = np.zeros(m)
        for i, dim in enumerate(aggregator.repulsive):
            values = delta.columns_by_dim[dim][alive]
            targets = spec.points[:, dim]
            farthest = np.maximum(
                np.abs(values.min() - targets), np.abs(values.max() - targets)
            )
            bounds += spec.alpha[:, i] * farthest
        for i, dim in enumerate(aggregator.attractive):
            values = np.sort(delta.columns_by_dim[dim][alive])
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

    def _delta_topk(
        self, delta: DeltaState, spec: BatchQuerySpec, ks_eff: np.ndarray, label: str
    ) -> List[TopKResult]:
        """Exact brute-force top-k over the delta, per query term order."""
        alive = delta.live_positions()
        results = []
        for j in range(len(spec)):
            scores = self._score_one(delta, alive, spec, j)
            top = select_topk(scores, delta.rows[alive], int(ks_eff[j]))
            matches = [
                Match(
                    row_id=int(delta.rows[alive[i]]),
                    score=float(scores[i]),
                    point=tuple(delta.matrix[alive[i]]),
                )
                for i in top
            ]
            results.append(
                TopKResult(
                    matches=matches,
                    candidates_examined=len(alive),
                    full_evaluations=len(alive),
                    algorithm=label,
                )
            )
        return results

    def _execute(
        self,
        state,
        spec: BatchQuerySpec,
        lower_bounds,
        _label: str,
        deadline: Optional[Deadline] = None,
    ) -> BatchResult:
        if isinstance(state, SessionState):
            return super()._execute(state, spec, lower_bounds, _label, deadline=deadline)
        world = state
        # Single-level worlds with an empty delta take the flat kernels
        # verbatim — the no-write serving path is byte-for-byte the PR 1-2
        # pipeline, merged paths only pay for the layers they actually have.
        if len(world.levels) == 1 and len(world.delta.rows) == 0:
            return super()._execute(
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
        delta_live = world.delta.num_live

        # One global k-th-best lower bound, seeded from samples pooled across
        # every source — the cross-shard seeding pattern, applied per level.
        magnitude = self._data_magnitude(world)
        for dim in set(self._aggregator.repulsive) | set(self._aggregator.attractive):
            magnitude = max(magnitude, float(np.abs(spec.points[:, dim]).max()))
        weight_scale = spec.alpha.sum(axis=1) + spec.beta.sum(axis=1)
        pooled = self._sample_scores(world, spec, self._seed_pool)
        pool = pooled.shape[1]
        kth_lower = np.full(m, -math.inf)
        for j in range(m):
            k_j = int(ks_eff[j])
            if pool >= k_j:
                kth_lower[j] = np.partition(pooled[j], pool - k_j)[pool - k_j]
        floor = (
            np.asarray(lower_bounds, dtype=float)
            if lower_bounds is not None
            else np.full(m, -math.inf)
        )

        # Bound-ordered source visitation — the cross-shard serving pattern
        # applied *within* the layered world.  Each query walks the sources
        # (levels, then the delta as a pseudo-source) in decreasing order of
        # their admissible upper bounds; after every round the merged pools
        # re-tighten the global k-th lower bound, so later sources run with a
        # harder threshold or get skipped outright when their bound cannot
        # reach it.  A skipped source only sheds rows scoring strictly below
        # ``kth - slack`` — rows that can never enter the global top k — so
        # the merge stays bit-identical to visiting everything.
        probes: List[Tuple[str, object]] = [("level", source) for source in sources]
        if delta_live:
            probes.append(("delta", world.delta))
        num_probes = len(probes)
        ubs = np.vstack(
            [
                super(LsmSession, self)._upper_bounds(source, spec)
                if kind == "level"
                else self._delta_upper_bounds(source, spec)
                for kind, source in probes
            ]
        )
        visit = np.argsort(-ubs, axis=0, kind="stable")
        pools: List[List[Match]] = [[] for _ in range(m)]
        examined = np.zeros(m, dtype=np.int64)
        for round_index in range(num_probes):
            if deadline is not None:
                deadline.check()
            threshold = np.maximum(
                _prune_bound(kth_lower, weight_scale, magnitude), floor
            )
            probe_of = visit[round_index]
            for p in range(num_probes):
                members = np.flatnonzero((probe_of == p) & (ubs[p] >= threshold))
                if len(members) == 0:
                    continue
                kind, source = probes[p]
                sub_spec = spec.subset(members)
                if kind == "level":
                    sub_results = super()._execute(
                        source, sub_spec, threshold[members], _label,
                        deadline=deadline,
                    ).results
                else:
                    sub_results = self._delta_topk(
                        source, sub_spec, ks_eff[members], _label
                    )
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
