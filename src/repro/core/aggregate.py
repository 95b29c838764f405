"""Threshold aggregation of 2D and 1D subproblems (Section 5 of the paper).

The general SD-Query over ``m`` dimensions is decomposed by
:mod:`repro.core.pairing` into:

* one 2D subproblem per (repulsive, attractive) dimension pair, served by a
  :class:`repro.core.topk.TopKIndex` over those two columns, and
* one 1D subproblem per leftover dimension, served by a sorted column explored
  farthest-first (repulsive) or nearest-first (attractive).

Each subproblem yields points in non-increasing order of its *partial score*
(its term of Equation 10).  The aggregator pulls from the subproblem streams in
round-robin fashion, fully evaluates every newly seen point by random access, and
stops as soon as the k-th best full score reaches the threshold formed by summing
the most recent partial score of every stream — the same stopping rule as the
Threshold Algorithm, but over coarser (two-dimensional) subproblems, which is
where the paper's speed-up over TA comes from.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.angles import AngleGrid
from repro.core.lsm import _FANOUT, _FLUSH_ROWS, LsmSession
from repro.core.pairing import DimensionPairing, pair_dimensions
from repro.core.projection_tree import require_finite, require_unique
from repro.core.query import SDQuery, make_fast_scorer, sd_score
from repro.core.results import Match, TopKResult
from repro.core.topk import TopKIndex
from repro.substrates.bidirectional import FarthestFirstExplorer, NearestFirstExplorer
from repro.substrates.heaps import BoundedMaxHeap
from repro.substrates.sorted_column import SortedColumn

__all__ = ["RetiredIds", "SubproblemAggregator", "as_row_ids", "claim_row_ids"]

#: Length at which the tail of :class:`RetiredIds` folds into its sorted main
#: array: a delete copies at most this many ids, not every retired one.
_RETIRED_TAIL = 1024


def as_row_ids(row_ids) -> np.ndarray:
    """Row ids as a 1-d int64 array (no copy when they already are one)."""
    if not isinstance(row_ids, (np.ndarray, list, tuple, range)):
        row_ids = list(row_ids)
    ids = np.asarray(row_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("row ids must be a 1-d sequence")
    return ids


class RetiredIds:
    """Every deleted row id: such ids are never claimable again.

    A sorted int64 array plus a short tail that deletes append to and that
    folds into the array at ``_RETIRED_TAIL`` ids, so a single delete never
    copies the whole record.  Mutated under the owner's write lock; a fold
    swaps the array before the tail and readers read the tail first, so an
    unlocked reader never misses an id.
    """

    __slots__ = ("_main", "_tail")

    def __init__(self, ids: Optional[np.ndarray] = None) -> None:
        self._main = np.sort(np.asarray([] if ids is None else ids, dtype=np.int64))
        self._tail = self._main[:0]

    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` have been retired."""
        found = np.isin(ids, self._tail)
        main = self._main
        if len(main):
            at = np.minimum(np.searchsorted(main, ids), len(main) - 1)
            found |= main[at] == ids
        return found

    def add(self, ids: np.ndarray) -> None:
        """Retire ``ids`` (unique, none of them retired yet)."""
        tail = np.concatenate([self._tail, ids])
        if len(tail) >= _RETIRED_TAIL:
            self._main, tail = np.sort(np.concatenate([self._main, tail])), tail[:0]
        self._tail = tail

    def array(self) -> np.ndarray:
        """Every retired id, ascending."""
        return np.sort(np.concatenate([self._main, self._tail]))


def claim_row_ids(
    row_ids, count: int, max_row_id: int, retired: RetiredIds, live_mask
) -> np.ndarray:
    """The row-id claim policy shared by the aggregator and the sharded engine.

    ``None`` auto-assigns ``count`` ids past the high-water mark
    ``max_row_id``.  Explicit ids must align with the points and be unique;
    deleted ids are never reusable (their physical copies may still sit in
    level arrays) and live ids (``live_mask``) cannot be claimed twice.  An
    id above the high-water mark was never present, so it skips both
    lookups.  Every id is checked before any is returned, so a rejected
    batch claims nothing; callers then advance their own high-water mark
    once, with the returned ids.
    """
    if row_ids is None:
        return np.arange(max_row_id + 1, max_row_id + 1 + count, dtype=np.int64)
    ids = as_row_ids(row_ids)
    if len(ids) != count:
        raise ValueError("row_ids must align with the points")
    if count > 1:
        require_unique(ids)
    seen = ids[ids <= max_row_id]
    if len(seen):
        deleted = retired.contains(seen)
        taken = deleted | live_mask(seen)
        if taken.any():
            first = int(np.argmax(taken))
            if deleted[first]:
                raise ValueError(
                    f"row id {int(seen[first])} was deleted and cannot be reused"
                )
            raise ValueError(f"row id {int(seen[first])} already present")
    return ids


class _PairStream:
    """Adapter turning a 2D index's best-first iterator into a partial-score stream."""

    def __init__(self, index: TopKIndex, qx: float, qy: float, alpha: float, beta: float) -> None:
        self._iterator = index.iter_best(qx, qy, alpha=alpha, beta=beta)
        self.last_partial = math.inf
        self.exhausted = False

    def pull(self) -> Optional[Tuple[int, float]]:
        try:
            row, partial = next(self._iterator)
        except StopIteration:
            self.exhausted = True
            self.last_partial = -math.inf
            return None
        self.last_partial = partial
        return row, partial


class _ColumnStream:
    """Adapter over a 1D explorer producing signed partial scores."""

    def __init__(self, explorer, weight: float, attractive: bool) -> None:
        self._explorer = explorer
        self._weight = float(weight)
        self._attractive = attractive
        self.last_partial = math.inf
        self.exhausted = False

    def pull(self) -> Optional[Tuple[int, float]]:
        try:
            row, distance = next(self._explorer)
        except StopIteration:
            self.exhausted = True
            self.last_partial = -math.inf
            return None
        partial = -self._weight * distance if self._attractive else self._weight * distance
        self.last_partial = partial
        return row, partial


class SubproblemAggregator:
    """Answers arbitrary-dimensional SD-Queries by aggregating subproblem streams."""

    def __init__(
        self,
        data: np.ndarray,
        repulsive: Sequence[int],
        attractive: Sequence[int],
        pairing: str = "order",
        angle_grid: Optional[AngleGrid] = None,
        branching: int = 8,
        leaf_capacity: int = 32,
        row_ids: Optional[Sequence[int]] = None,
        flush_rows: Optional[int] = None,
        fanout: Optional[int] = None,
        background_compaction: bool = True,
    ) -> None:
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("data must be an (n, m) matrix")
        require_finite(matrix)
        # A private copy: the first level keeps the ids as its ``rows``.
        rows = (
            np.arange(len(matrix), dtype=np.int64)
            if row_ids is None
            else np.array(as_row_ids(row_ids))
        )
        if len(rows) != len(matrix):
            raise ValueError("row_ids must align with the data matrix")
        require_unique(rows)
        #: Serializes writers with session rebuilds and legacy traversals,
        #: which read the structures writers mutate.  Reentrant: a write may
        #: run a due flush or merge inline.
        self._write_lock = threading.RLock()
        self._num_dims = matrix.shape[1]
        self.repulsive = tuple(int(d) for d in repulsive)
        self.attractive = tuple(int(d) for d in attractive)
        self.angle_grid = angle_grid or AngleGrid.default()
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.pairing_strategy = pairing
        #: Every deleted id, build row or insert: never claimable again.
        self._retired = RetiredIds()
        #: Largest row id ever present; auto-assigned ids are this plus one
        #: (deleted ids stay unavailable, so the counter never moves back).
        self._max_row_id = int(rows.max()) if len(rows) else -1

        self.pairing: DimensionPairing = pair_dimensions(
            self.repulsive, self.attractive, strategy=pairing, data=matrix
        )
        self._column_dims = list(self.pairing.leftover_repulsive) + list(
            self.pairing.leftover_attractive
        )
        #: The legacy traversal's per-pair projection trees, leftover-dim
        #: sorted columns and row-id -> vector map.  Only ``query`` and
        #: ``stats`` read them, so nothing builds them until one of those
        #: does (:meth:`_legacy_structures`); from then on writes patch the
        #: trees and the map and drop the columns for a rebuild on next use.
        self._pair_indexes: Optional[List[TopKIndex]] = None
        self._columns: Optional[Dict[int, SortedColumn]] = None
        self._legacy_points: Optional[Dict[int, np.ndarray]] = None
        self._mutations = 0
        self._closed = False
        #: The one query session, for the aggregator's whole life: it backs
        #: the single-query fast path, ``batch_query`` and snapshots, and is
        #: built now, so the first read after a build never waits for it.
        #: Its published world is the row store: the only record of which
        #: rows exist and where they live.  The session holds the LSM
        #: options: the delta absorbs writes, immutable levels serve the
        #: bulk, a compactor folds them down (DESIGN.md section 11).
        self._serving_session: Optional[LsmSession] = LsmSession(
            self,
            (rows, matrix),
            flush_rows=_FLUSH_ROWS if flush_rows is None else flush_rows,
            fanout=_FANOUT if fanout is None else fanout,
            background=background_compaction,
        )

    # ------------------------------------------------------------------ basics
    def _world(self):
        """The serving session's published :class:`~repro.core.lsm.LsmWorld`."""
        return self.serving_session()._world

    def __len__(self) -> int:
        session = self._serving_session
        return 0 if session is None else session._world.num_live

    @property
    def version(self) -> int:
        """The aggregator's state version: the number of writes applied.

        Bumped once per write, after the session publishes it; session
        epochs published for this aggregator correspond to prefixes of this
        counter.
        """
        return self._mutations

    @property
    def write_lock(self) -> threading.RLock:
        """The writer mutex: mutations, session (re)builds and legacy
        traversals serialize on it."""
        return self._write_lock

    def point(self, row_id: int) -> np.ndarray:
        """Random access to a live point's full coordinate vector."""
        row_id = int(row_id)
        vector = self._world().point(row_id)
        if vector is not None:
            return vector
        if self._retired.contains(np.array([row_id], dtype=np.int64))[0]:
            raise KeyError(f"row id {row_id} was deleted")
        raise KeyError(f"row id {row_id} not present")

    def live_mask(self, row_ids) -> np.ndarray:
        """Which of ``row_ids`` are live rows (vectorized over the row store)."""
        return self._world().live_mask(as_row_ids(row_ids))

    def live_population(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live rows as ``(row_ids, matrix)``, in level order, delta last.

        The one assembly of the population that session rebuilds, the legacy
        structures and shard rebalances are built from, gathered from the
        serving session's world under the write lock.
        """
        with self._write_lock:
            world = self._world()
            return world.live_row_ids(), world.live_matrix()

    def _legacy_structures(self) -> Tuple[List[TopKIndex], Dict[int, SortedColumn]]:
        """The pair trees and sorted columns, built from the live rows if missing.

        Callers hold the write lock: the trees are patched in place by writers.
        """
        self._check_closed()
        if self._pair_indexes is None or self._columns is None:
            rows, matrix = self.live_population()
            if self._pair_indexes is None:
                row_ids = rows.tolist()
                self._legacy_points = dict(zip(row_ids, matrix))
                self._pair_indexes = [
                    TopKIndex(
                        x=matrix[:, att_dim],
                        y=matrix[:, rep_dim],
                        angle_grid=self.angle_grid,
                        branching=self.branching,
                        leaf_capacity=self.leaf_capacity,
                        row_ids=row_ids,
                    )
                    for rep_dim, att_dim in self.pairing.pairs
                ]
            self._columns = {
                dim: SortedColumn(matrix[:, dim], row_ids=rows) for dim in self._column_dims
            }
        return self._pair_indexes, self._columns

    # ------------------------------------------------------------------ updates
    def _apply_write(
        self, ids: np.ndarray, matrix: Optional[np.ndarray] = None, located=None
    ) -> None:
        """Apply an insert (``matrix`` given) or a delete of ``ids``.

        The session absorbs the write first: its world is the row store, so
        a write that fails to publish there (a delete of an id that is not
        live) changes nothing.  Then the version moves, built legacy
        structures are patched (the pair trees and the row map; columns are
        dropped for a rebuild on the next legacy query), deleted ids retire,
        and the session may schedule LSM maintenance — either hand the due
        flush/merge to its background compactor or, inline, perform it now
        under the already held reentrant lock.  ``located`` is the session's
        lookup of a delete's ids, when the caller has already made it.
        """
        session = self._serving_session
        if matrix is None:
            session.apply_bulk_delete(ids, located)
        else:
            session.apply_bulk_insert(ids, matrix)
        self._mutations += 1
        if self._pair_indexes is not None:
            row_ids = ids.tolist()
            for index, (rep_dim, att_dim) in zip(self._pair_indexes, self.pairing.pairs):
                if matrix is None:
                    for row_id in row_ids:
                        index.delete(row_id)
                else:
                    for row_id, vector in zip(row_ids, matrix):
                        index.insert(vector[att_dim], vector[rep_dim], row_id)
            if matrix is None:
                for row_id in row_ids:
                    del self._legacy_points[row_id]
            else:
                self._legacy_points.update(zip(row_ids, matrix))
        if self._column_dims:
            self._columns = None
        if matrix is None:
            self._retired.add(ids)
        session.maybe_maintain()

    def insert(self, point: Sequence[float], row_id: Optional[int] = None) -> int:
        """Insert one point; returns its row id.

        The query session appends it to its delta.  The pair trees are
        patched only if a legacy query or :meth:`stats` has built them; until
        then the insert touches no tree.  See :meth:`bulk_insert`.
        """
        vector = np.asarray(point, dtype=float)
        if vector.shape != (self._num_dims,):
            raise ValueError(f"point must have {self._num_dims} dimensions")
        return self.bulk_insert(vector[None, :], None if row_id is None else [row_id])[0]

    def bulk_insert(
        self, points, row_ids: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Insert many points at once; returns their row ids.

        Semantically identical to calling :meth:`insert` in a loop, but the
        whole batch is validated up front (a rejected batch inserts nothing
        and claims no id), counts as a single mutation, and the query
        session absorbs it with one vectorized delta append instead of one
        per point.  No tree is built or patched unless the legacy structures
        already exist.
        """
        # A private copy: the legacy row map may hold its rows.
        matrix = np.array(points, dtype=float)
        if matrix.size == 0:
            matrix = matrix.reshape(0, self._num_dims)
        if matrix.ndim != 2 or matrix.shape[1] != self._num_dims:
            raise ValueError(
                f"points must have shape (m, {self._num_dims}), got {matrix.shape}"
            )
        require_finite(matrix)
        with self._write_lock:
            self._check_closed()
            ids = claim_row_ids(
                row_ids, len(matrix), self._max_row_id, self._retired, self.live_mask
            )
            self._insert_claimed(ids, matrix)
            return ids.tolist()

    def _insert_claimed(self, ids: np.ndarray, matrix: np.ndarray) -> None:
        """The one insert body: finite rows under ids already claimed.

        :meth:`bulk_insert` calls it after its own claim; the sharded engine
        after claiming the ids against its own bookkeeping, which covers
        every shard's, so a shard does not validate them a second time.
        """
        with self._write_lock:
            self._check_closed()
            if len(ids):
                self._max_row_id = max(self._max_row_id, int(ids.max()))
                self._apply_write(ids, matrix)

    def delete(self, row_id: int) -> None:
        """Delete one row.

        The query session tombstones it (a delta mask or a level validity
        mask).  The pair trees are patched only if a legacy query or
        :meth:`stats` has built them.  See :meth:`bulk_delete`.
        """
        self.bulk_delete([row_id])

    def bulk_delete(self, row_ids: Sequence[int]) -> None:
        """Delete many rows at once, all or none, with one session patch.

        An id that is not live raises ``KeyError("row id N not present")``
        and deletes nothing.
        """
        ids = as_row_ids(row_ids)
        if len(ids) > 1:
            require_unique(ids)
        self._delete_live(ids)

    def _delete_live(self, ids: np.ndarray, located=None) -> None:
        """The one delete body, over unique ids.

        The session's tombstoning is the one lookup: it validates every id
        before it publishes (see :meth:`_apply_write`).  The sharded engine
        calls this with the lookup (``located``) by which it found the ids
        in this shard, so the shard does not search for them again.
        """
        with self._write_lock:
            self._check_closed()
            if len(ids):
                self._apply_write(ids, located=located)

    # ------------------------------------------------------------------ querying
    def query(self, query: SDQuery) -> TopKResult:
        """Answer an SD-Query by the threshold traversal over the subproblems.

        The legacy engine and the oracle of the fast path.  It runs under the
        write lock, because it reads the pair trees that writers patch in
        place; the first call (or :meth:`stats`) builds them.
        """
        if set(query.repulsive) != set(self.repulsive) or set(query.attractive) != set(
            self.attractive
        ):
            raise ValueError(
                "query dimension roles do not match the roles the index was built for"
            )
        with self._write_lock:
            return self._traverse(query, *self._legacy_structures())

    def _traverse(
        self,
        query: SDQuery,
        pair_indexes: List[TopKIndex],
        columns: Dict[int, SortedColumn],
    ) -> TopKResult:
        alpha_of = dict(zip(query.repulsive, query.alpha))
        beta_of = dict(zip(query.attractive, query.beta))

        streams: List = []
        for index, (rep_dim, att_dim) in zip(pair_indexes, self.pairing.pairs):
            streams.append(
                _PairStream(
                    index,
                    qx=query.point[att_dim],
                    qy=query.point[rep_dim],
                    alpha=alpha_of[rep_dim],
                    beta=beta_of[att_dim],
                )
            )
        for dim in self.pairing.leftover_repulsive:
            streams.append(
                _ColumnStream(
                    FarthestFirstExplorer(columns[dim], query.point[dim]),
                    weight=alpha_of[dim],
                    attractive=False,
                )
            )
        for dim in self.pairing.leftover_attractive:
            streams.append(
                _ColumnStream(
                    NearestFirstExplorer(columns[dim], query.point[dim]),
                    weight=beta_of[dim],
                    attractive=True,
                )
            )

        heap = BoundedMaxHeap(query.k)
        seen: set = set()
        candidates_examined = 0
        full_evaluations = 0
        fast_score = make_fast_scorer(query)
        points = self._legacy_points

        while True:
            progressed = False
            for stream in streams:
                if stream.exhausted:
                    continue
                pulled = stream.pull()
                if pulled is None:
                    continue
                progressed = True
                row, _partial = pulled
                candidates_examined += 1
                if row in seen or row not in points:
                    continue
                seen.add(row)
                score = fast_score(points[row])
                full_evaluations += 1
                heap.push(score, row)
            threshold = sum(stream.last_partial for stream in streams)
            kth = heap.kth_score()
            if kth is not None and kth >= threshold:
                break
            if not progressed:
                break

        matches = [
            Match(row_id=row, score=score, point=tuple(points[row]))
            for score, row in heap.items()
        ]
        return TopKResult(
            matches=matches,
            candidates_examined=candidates_examined,
            full_evaluations=full_evaluations,
            nodes_visited=0,
            algorithm="sd-index",
        )

    def query_fast(self, query: SDQuery) -> TopKResult:
        """Answer one SD-Query through the flattened-array fast path.

        Runs the vectorized filter-and-verify kernels over the incrementally
        maintained serving session.  Scores are bit-identical to
        :meth:`query`; an exact tie at the k-th boundary resolves by row id
        instead of traversal order.
        """
        return self.serving_session().run_one(query)

    # ------------------------------------------------------------- batch querying
    def serving_session(self):
        """The query session backing ``query_fast`` and ``batch_query``.

        Built with the aggregator (or restored with it by a load) and kept
        valid across updates by its LSM write path (delta appends, level
        tombstones, flushes and merges); no pair tree is involved.
        """
        session = self._serving_session
        if session is None:
            raise RuntimeError("aggregator is closed")
        return session

    def snapshot(self):
        """Pin the serving session's current epoch: an immutable read view.

        Returns a :class:`repro.core.batch.SessionSnapshot`; see DESIGN.md
        section 6 for the reader/writer protocol.
        """
        return self.serving_session().snapshot()

    def batch_query(self, queries, k=None, alpha=None, beta=None):
        """Answer a batch of SD-Queries with the vectorized execution engine.

        Accepts an ``(m, num_dims)`` array of query points plus ``k`` (scalar
        or per-query vector) and weights (scalar, per-dimension vector, or
        per-query ``(m, dims)`` matrix), a sequence of :class:`SDQuery`
        objects whose roles match this aggregator, or a batch workload.
        Returns a :class:`repro.core.results.BatchResult` in query order.
        """
        return self.serving_session().run(queries, k=k, alpha=alpha, beta=beta)

    # ------------------------------------------------------------- maintenance
    def lsm_maintain(self) -> List[Tuple]:
        """Run every due LSM flush/merge on the serving session, synchronously.

        Returns the structure ops performed, in apply order — each entry is
        ``("flush",)`` or ``("compact", seqs)``, the shape
        :class:`~repro.core.persistence.DurableIndex` journals as WAL records
        so ``recover()`` can replay the exact level layout.  No-op (empty
        list) once closed or when nothing is due.
        """
        session = self._serving_session
        if session is None:
            return []
        return session.maintain()

    def lsm_flush(self) -> bool:
        """Force the serving session's delta into a fresh level (False if empty)."""
        return self.serving_session().flush()

    def lsm_compact(self, seqs: Optional[Sequence[int]] = None):
        """Merge the serving session's levels (all by default); returns the seqs."""
        return self.serving_session().compact(seqs)

    def set_auto_compaction(self, enabled: bool) -> None:
        """Enable/disable self-scheduled maintenance on the serving session.

        A durability wrapper disables it so every flush/compact happens
        through :meth:`lsm_maintain` — synchronously, in journal order.
        """
        self.serving_session().auto_compaction = bool(enabled)

    def quiesce_maintenance(self) -> None:
        """Join any in-flight background compaction of the session."""
        session = self._serving_session
        if session is not None:
            session.quiesce()

    def maintenance_stats(self) -> Dict[str, int]:
        """The serving session's maintenance counters.

        The base patch/reflatten/epoch counters plus the layering counters
        (``levels``, ``delta_live``, ``flushes``, ``compactions``,
        ``delta_absorbed_deletes``).
        """
        return self.serving_session().maintenance_stats()

    # ------------------------------------------------------------------ stats
    def stats(self):
        """Aggregate statistics over all subproblem structures (an ``IndexStats``).

        Describes the paper's structures — the per-pair projection trees and
        the sorted columns — so it builds them first if no legacy query has.
        """
        from repro.core.results import IndexStats

        total_memory = 0
        total_nodes = 0
        build_seconds = 0.0
        with self._write_lock:
            pair_indexes, columns = self._legacy_structures()
            for index in pair_indexes:
                stats = index.stats()
                total_memory += stats.memory_bytes
                total_nodes += stats.num_nodes
                build_seconds += stats.build_seconds or 0.0
            for column in columns.values():
                total_memory += column.memory_bytes()
        return IndexStats(
            name="sd-index",
            num_points=len(self),
            num_nodes=total_nodes,
            branching=self.branching,
            num_angles=len(self.angle_grid),
            memory_bytes=total_memory,
            build_seconds=build_seconds,
        )

    # ---------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has torn the aggregator down."""
        return getattr(self, "_closed", False)

    def _check_closed(self) -> None:
        if self.closed:
            raise RuntimeError("aggregator is closed")

    def close(self) -> None:
        """Tear down the aggregator and release any memory-mapped snapshot.

        Idempotent.  Engines restored with ``load(..., mmap=True)`` keep the
        snapshot's data files mapped; close drops every internal reference
        to the mapped arrays (serving state, pair trees, sorted columns) and
        then releases the maps through the attached
        :class:`~repro.core.persistence.MmapGuard`, so snapshot-directory
        pruning never races an open file handle.  Pinned readers keep their
        mappings alive (and are reported through the guard's leak count)
        rather than having the pages unmapped beneath them.
        """
        if self.closed:
            return
        # Drain background compactors before taking the lock (they need it to
        # publish); a maintenance failure must not block teardown.
        try:
            self.quiesce_maintenance()
        except RuntimeError:
            pass
        with self._write_lock:
            if self.closed:
                return
            guard = getattr(self, "_mmap_guard", None)
            self._closed = True
            # Retire the published world; unpinned epochs reclaim at once,
            # pinned readers keep theirs until they unpin.
            self._serving_session.epochs.publish(None)
            self._serving_session = None
            self._pair_indexes = None
            self._columns = None
            self._legacy_points = None
        if guard is not None:
            guard.close()

    def __enter__(self) -> "SubproblemAggregator":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False
