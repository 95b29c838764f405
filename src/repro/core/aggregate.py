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
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.angles import AngleGrid
from repro.core.pairing import DimensionPairing, pair_dimensions
from repro.core.query import SDQuery, make_fast_scorer, sd_score
from repro.core.results import Match, TopKResult
from repro.core.topk import TopKIndex
from repro.substrates.bidirectional import FarthestFirstExplorer, NearestFirstExplorer
from repro.substrates.heaps import BoundedMaxHeap
from repro.substrates.sorted_column import SortedColumn

__all__ = ["SubproblemAggregator", "claim_row_ids"]


def claim_row_ids(
    row_ids: Optional[Sequence[int]], count: int, max_row_id: int, is_deleted, is_present
) -> List[int]:
    """The row-id claim policy shared by the aggregator and the sharded router.

    ``None`` auto-assigns ``count`` ids past the high-water mark
    ``max_row_id``.  Explicit ids must align with the points and be unique;
    deleted ids are never reusable (their physical copies may still sit in
    bulk arrays) and live ids cannot be claimed twice.  Every id is checked
    before any is returned, so a rejected batch claims nothing; callers then
    advance their own high-water mark once, with the returned ids.
    """
    if row_ids is None:
        ids = list(range(max_row_id + 1, max_row_id + 1 + count))
    else:
        ids = [int(r) for r in row_ids]
        if len(ids) != count:
            raise ValueError("row_ids must align with the points")
        if len(set(ids)) != len(ids):
            raise ValueError("row ids must be unique")
    for row_id in ids:
        if is_deleted(row_id):
            raise ValueError(f"row id {row_id} was deleted and cannot be reused")
        if is_present(row_id):
            raise ValueError(f"row id {row_id} already present")
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
        #: Options of the LSM sessions this aggregator creates: the delta
        #: absorbs writes, immutable levels serve the bulk, a compactor folds
        #: them down (DESIGN.md section 11).
        self._lsm_options: Dict[str, object] = {}
        if flush_rows is not None:
            self._lsm_options["flush_rows"] = int(flush_rows)
        if fanout is not None:
            self._lsm_options["fanout"] = int(fanout)
        self._lsm_options["background"] = bool(background_compaction)
        #: Serializes writers with session rebuilds and legacy traversals,
        #: which read the structures writers mutate.  Reentrant: a writer
        #: patch may trigger a rebuild.
        self._write_lock = threading.RLock()
        self._num_dims = matrix.shape[1]
        self.repulsive = tuple(int(d) for d in repulsive)
        self.attractive = tuple(int(d) for d in attractive)
        self.angle_grid = angle_grid or AngleGrid.default()
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.pairing_strategy = pairing

        rows = (
            list(range(len(matrix)))
            if row_ids is None
            else [int(r) for r in row_ids]
        )
        if len(rows) != len(matrix):
            raise ValueError("row_ids must align with the data matrix")
        self._base_rows = {row: i for i, row in enumerate(rows)}
        if len(self._base_rows) != len(rows):
            raise ValueError("row ids must be unique")
        self._base_matrix = matrix
        #: Vectors of the live inserted rows (a delete drops its entry).
        self._extra_points: Dict[int, np.ndarray] = {}
        #: Every deleted id, build row or insert: never claimable again.
        self._deleted: set = set()
        #: How many of the ``_deleted`` ids are build rows (``_base_rows``).
        self._base_deleted = 0
        #: Largest row id ever present; auto-assigned ids are this plus one
        #: (deleted ids stay unavailable, so the counter never moves back).
        self._max_row_id = max(rows) if rows else -1

        self.pairing: DimensionPairing = pair_dimensions(
            self.repulsive, self.attractive, strategy=pairing, data=matrix
        )
        self._column_dims = list(self.pairing.leftover_repulsive) + list(
            self.pairing.leftover_attractive
        )
        #: The legacy traversal's per-pair projection trees and leftover-dim
        #: sorted columns.  Only ``query`` and ``stats`` read them, so nothing
        #: builds them until one of those does (:meth:`_legacy_structures`);
        #: from then on writes patch the trees and drop the columns for a
        #: rebuild on next use.
        self._pair_indexes: Optional[List[TopKIndex]] = None
        self._columns: Optional[Dict[int, SortedColumn]] = None
        self._mutations = 0
        #: Live query sessions every update is pushed to (weak refs so
        #: abandoned sessions disappear).
        self._sessions: List[weakref.ref] = []
        self._closed = False
        #: The serving session backing the single-query fast path,
        #: ``batch_query`` and snapshots.  Built now, so the first read after
        #: a build never waits for it.
        self._serving_session = self._make_session()

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._base_rows) - self._base_deleted + len(self._extra_points)

    @property
    def mutations(self) -> int:
        """Monotone update counter; batch query sessions use it to detect staleness."""
        return self._mutations

    @property
    def version(self) -> int:
        """Alias of :attr:`mutations`: the aggregator's state version number.

        Bumped on every mutation; session epochs published for this aggregator
        correspond to prefixes of this counter.
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
        if row_id in self._deleted:
            raise KeyError(f"row id {row_id} was deleted")
        if row_id in self._extra_points:
            return self._extra_points[row_id]
        return self._base_matrix[self._base_rows[row_id]]

    def _is_present(self, row_id: int) -> bool:
        """True if ``row_id`` is a build row (live or deleted) or a live insert.

        A deleted insert is forgotten here; callers check ``_deleted`` first.
        """
        return row_id in self._base_rows or row_id in self._extra_points

    def live_population(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live rows as ``(row_ids, matrix)``: build rows first, then inserts.

        The one assembly of the population that session rebuilds, the legacy
        structures and shard rebalances are built from, vectorized over the
        row bookkeeping and read under the write lock.
        """
        with self._write_lock:
            base, extras = self._base_rows, self._extra_points
            base_rows = np.fromiter(base.keys(), dtype=np.int64, count=len(base))
            if not self._deleted and not extras:
                return base_rows, self._base_matrix
            positions = np.fromiter(base.values(), dtype=np.int64, count=len(base))
            rows = np.concatenate(
                [base_rows, np.fromiter(extras.keys(), dtype=np.int64, count=len(extras))]
            )
            deleted = np.fromiter(self._deleted, dtype=np.int64, count=len(self._deleted))
            live = ~np.isin(rows, deleted)
            # Restored engines keep deleted ids at sentinel position -1: mask
            # before gathering.
            parts = [self._base_matrix[positions[live[: len(base)]]]]
            if extras:
                inserted = np.asarray(list(extras.values()), dtype=float)
                parts.append(inserted[live[len(base) :]])
            return rows[live], np.vstack(parts)

    def _legacy_structures(self) -> Tuple[List[TopKIndex], Dict[int, SortedColumn]]:
        """The pair trees and sorted columns, built from the live rows if missing.

        Callers hold the write lock: the trees are patched in place by writers.
        """
        self._check_closed()
        if self._pair_indexes is None or self._columns is None:
            rows, matrix = self.live_population()
            if self._pair_indexes is None:
                row_ids = rows.tolist()
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
    def _register_session(self, session) -> None:
        """Track a session so every update reaches it."""
        self._sessions = [ref for ref in self._sessions if ref() is not None]
        self._sessions.append(weakref.ref(session))

    def _apply_write(self, ids: List[int], matrix: Optional[np.ndarray] = None) -> None:
        """Finish a validated insert (``matrix`` given) or delete of ``ids``.

        Built pair trees are patched; columns are dropped for a rebuild on the
        next legacy query.  Then every live session absorbs the write (dead
        weak refs are dropped) and may schedule LSM maintenance — either hand
        the due flush/merge to its background compactor or, inline, perform
        it now under the already held reentrant lock.
        """
        if self._pair_indexes is not None:
            for index, (rep_dim, att_dim) in zip(self._pair_indexes, self.pairing.pairs):
                if matrix is None:
                    for row_id in ids:
                        index.delete(row_id)
                else:
                    for row_id, vector in zip(ids, matrix):
                        index.insert(vector[att_dim], vector[rep_dim], row_id)
        if self._column_dims:
            self._columns = None
        self._mutations += 1
        id_array = np.asarray(ids, dtype=np.int64)
        alive: List[weakref.ref] = []
        for ref in self._sessions:
            session = ref()
            if session is not None:
                if matrix is None:
                    session.apply_bulk_delete(id_array)
                else:
                    session.apply_bulk_insert(id_array, matrix)
                alive.append(ref)
        self._sessions = alive
        for ref in alive:
            session = ref()
            if session is not None:
                session.maybe_maintain()

    def insert(self, point: Sequence[float], row_id: Optional[int] = None) -> int:
        """Insert one point; returns its row id.

        Live query sessions append it to their delta.  The pair trees are
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
        and claims no id), counts as a single mutation, and live query
        sessions absorb it with one vectorized delta append instead of one
        per point.  No tree is built or patched unless the legacy structures
        already exist.
        """
        # A private copy: the legacy trees may be built from it much later.
        matrix = np.array(points, dtype=float)
        if matrix.size == 0:
            matrix = matrix.reshape(0, self._num_dims)
        if matrix.ndim != 2 or matrix.shape[1] != self._num_dims:
            raise ValueError(
                f"points must have shape (m, {self._num_dims}), got {matrix.shape}"
            )
        with self._write_lock:
            self._check_closed()
            ids = claim_row_ids(
                row_ids,
                len(matrix),
                self._max_row_id,
                self._deleted.__contains__,
                self._is_present,
            )
            if not ids:
                return []
            self._max_row_id = max(self._max_row_id, max(ids))
            self._extra_points.update(zip(ids, matrix))
            self._apply_write(ids, matrix)
            return ids

    def delete(self, row_id: int) -> None:
        """Delete one row.

        Live query sessions tombstone it (a delta mask or a level validity
        mask).  The pair trees are patched only if a legacy query or
        :meth:`stats` has built them.  See :meth:`bulk_delete`.
        """
        self.bulk_delete([row_id])

    def bulk_delete(self, row_ids: Sequence[int]) -> None:
        """Delete many rows at once (validated up front, one session patch).

        Live query sessions tombstone the rows (delta mask or level validity
        mask) instead of being invalidated.
        """
        ids = [int(r) for r in row_ids]
        if len(set(ids)) != len(ids):
            raise ValueError("row ids must be unique")
        with self._write_lock:
            self._check_closed()
            for row_id in ids:
                if row_id in self._deleted or not self._is_present(row_id):
                    raise KeyError(f"row id {row_id} not present")
            if not ids:
                return
            self._deleted.update(ids)
            extras = self._extra_points
            dropped = sum(extras.pop(row_id, None) is not None for row_id in ids)
            self._base_deleted += len(ids) - dropped
            self._apply_write(ids)

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
                if row in seen or row in self._deleted:
                    continue
                seen.add(row)
                score = fast_score(self.point(row))
                full_evaluations += 1
                heap.push(score, row)
            threshold = sum(stream.last_partial for stream in streams)
            kth = heap.kth_score()
            if kth is not None and kth >= threshold:
                break
            if not progressed:
                break

        matches = [
            Match(row_id=row, score=score, point=tuple(self.point(row)))
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

    def session(self, seed_pool: Optional[int] = None, cached: bool = True):
        """A shared-traversal batch query session over the current point set.

        The session snapshots the live points (:meth:`live_population`) and
        flattens a fresh 2D projection tree per pair over them; it stays valid
        across updates because the aggregator pushes every update into it (see
        :class:`repro.core.lsm.LsmSession`).  By default
        this returns the shared serving session; pass ``cached=False`` (or a
        custom ``seed_pool``) for a private one.
        """
        if cached and seed_pool is None:
            return self.serving_session()
        return self._make_session(seed_pool)

    def _make_session(self, seed_pool: Optional[int] = None):
        """Construct a fresh LSM session (:class:`repro.core.lsm.LsmSession`)."""
        from repro.core.lsm import LsmSession

        return LsmSession(self, seed_pool=seed_pool, **self._lsm_options)

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
        """Join any in-flight background compaction across live sessions."""
        for ref in list(self._sessions):
            session = ref()
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
        snapshot's ``.npy`` files mapped; close drops every internal reference
        to the mapped arrays (serving state, pair trees, sorted columns) and
        then releases the maps through the attached
        :class:`~repro.core.persistence.MmapGuard`, so worker recycling and
        snapshot-directory pruning never race an open file handle.  A pending
        reflatten is materialized first: the rebuild copies the mapped data
        into RAM, leaving any still-pinned reader a consistent world after
        the files are gone.  Pinned readers keep their mappings alive (and
        are reported through the guard's leak count) rather than having the
        pages unmapped beneath them.
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
            session = self._serving_session
            if guard is not None and session is not None and session.needs_reflatten:
                session.reflatten()
            self._closed = True
            for ref in self._sessions:
                live = ref()
                if live is not None:
                    # Retire the published state; unpinned epochs reclaim at
                    # once, pinned readers keep theirs until they unpin.
                    live.epochs.publish(None)
            self._sessions = []
            self._serving_session = None
            self._pair_indexes = None
            self._columns = None
            self._base_matrix = np.empty((0, self._num_dims), dtype=float)
            self._base_rows = {}
            self._extra_points = {}
        if guard is not None:
            guard.close()

    def __enter__(self) -> "SubproblemAggregator":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False
