"""The public SD-Index facade.

:class:`SDIndex` is the index a library user builds once over a dataset (with a
fixed assignment of repulsive and attractive dimensions) and then queries with
arbitrary query points, ``k`` and weighting parameters.  Internally it is the
Section 5 decomposition: paired 2D projection-tree indexes plus 1D sorted columns
for leftover dimensions, aggregated with a threshold algorithm.

Example
-------
>>> import numpy as np
>>> from repro import SDIndex, SDQuery
>>> data = np.random.default_rng(0).random((1000, 4))
>>> index = SDIndex.build(data, repulsive=[0, 1], attractive=[2, 3])
>>> query = SDQuery.simple(point=data[0], repulsive=[0, 1], attractive=[2, 3], k=5)
>>> result = index.query(query)
>>> len(result)
5
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core.aggregate import SubproblemAggregator
from repro.core.angles import AngleGrid
from repro.core.query import SDQuery
from repro.core.results import IndexStats, TopKResult

__all__ = ["SDIndex", "SDIndexSnapshot"]


class SDIndex:
    """Top-k SD-Query index for datasets of arbitrary dimensionality.

    Queries can be answered one at a time (:meth:`query`) or in vectorized
    batches (:meth:`batch_query`).

    **Cached session lifecycle.**  Both paths execute on a shared
    *query session* — each dimension pair's projection-tree leaves laid out
    as leaf-aligned numpy arrays, built without the tree (see
    :class:`repro.core.batch.QuerySession` and DESIGN.md):

    * The session is built with the index and then reused;
      :meth:`query_session` returns it for direct batch use.  The legacy
      engine's per-pair projection trees are not: the first
      ``query(..., engine="legacy")`` or :meth:`stats` call builds them, and
      only from then on do updates patch them.
    * :meth:`insert`, :meth:`delete`, :meth:`bulk_insert` and
      :meth:`bulk_delete` do **not** invalidate it: it is an LSM session
      (:class:`repro.core.lsm.LsmSession`) — inserts append to a small
      mutable delta, deletes copy one level's validity mask, and every
      successor is published copy-on-write, so serving continues at full
      speed across updates.
    * Flushes fold the delta into a fresh immutable level and size-tiered
      merges keep the level count small (:meth:`flush`, :meth:`compact`,
      DESIGN.md section 11); level tombstones past a quarter of the live
      rows trigger a garbage-collecting merge — the projection tree's own
      rebuild policy.  Call :meth:`refresh_session` to rebuild the session
      from scratch eagerly.

    The single-query fast path returns scores bit-identical to the legacy
    threshold traversal, which remains available as the verification oracle
    via ``query(..., engine="legacy")``.

    Batch semantics:

    * The batch is an ``(m, num_dims)`` array of query points plus per-query
      ``k`` and weights, a sequence of :class:`SDQuery` objects, or a
      :class:`repro.workloads.workload.BatchWorkload`.  ``k`` is a scalar or an
      ``(m,)`` vector; ``alpha``/``beta`` are a scalar (all queries, all
      dimensions), a per-dimension vector shared by every query, or an
      ``(m, dims)`` matrix giving each query its own weights.
    * The result is a :class:`repro.core.results.BatchResult` whose ``j``-th
      entry is the :class:`TopKResult` of query ``j`` — ``len(batch[j])`` is
      ``min(k_j, len(index))`` and matches are ordered best-first with the
      deterministic ``(-score, row_id)`` tie-break.
    * Scores are bit-identical to :meth:`query` (same floating-point term
      order); row ids agree whenever the k-th and (k+1)-th best scores differ
      (an exact tie at the boundary is resolved by row id in the batch path
      and by traversal order in the single-query path).
    """

    def __init__(
        self,
        data: np.ndarray,
        repulsive: Sequence[int],
        attractive: Sequence[int],
        angles: Optional[Union[AngleGrid, Sequence[float]]] = None,
        branching: int = 8,
        leaf_capacity: int = 32,
        pairing: str = "order",
        row_ids: Optional[Sequence[int]] = None,
        flush_rows: Optional[int] = None,
        fanout: Optional[int] = None,
        background_compaction: bool = True,
    ) -> None:
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("data must be an (n, m) matrix of points")
        if isinstance(angles, AngleGrid):
            angle_grid = angles
        elif angles is None:
            angle_grid = AngleGrid.default()
        else:
            angle_grid = AngleGrid.from_degrees(angles)
        self.repulsive = tuple(int(d) for d in repulsive)
        self.attractive = tuple(int(d) for d in attractive)
        self.num_dims = matrix.shape[1]
        self._validate_roles()
        self._aggregator = SubproblemAggregator(
            matrix,
            repulsive=self.repulsive,
            attractive=self.attractive,
            pairing=pairing,
            angle_grid=angle_grid,
            branching=branching,
            leaf_capacity=leaf_capacity,
            row_ids=row_ids,
            flush_rows=flush_rows,
            fanout=fanout,
            background_compaction=background_compaction,
        )

    def _validate_roles(self) -> None:
        used = set(self.repulsive) | set(self.attractive)
        if len(used) != len(self.repulsive) + len(self.attractive):
            raise ValueError("repulsive and attractive dimensions must be disjoint")
        if not self.repulsive and not self.attractive:
            raise ValueError("at least one repulsive or attractive dimension is required")
        out_of_range = [d for d in used if d < 0 or d >= self.num_dims]
        if out_of_range:
            raise ValueError(f"dimension indexes out of range: {sorted(out_of_range)}")

    # ------------------------------------------------------------------ building
    @classmethod
    def build(
        cls,
        data: np.ndarray,
        repulsive: Sequence[int],
        attractive: Sequence[int],
        **kwargs,
    ) -> "SDIndex":
        """Build an index over ``data`` with the given dimension roles.

        Keyword arguments are forwarded to the constructor (``angles``,
        ``branching``, ``leaf_capacity``, ``pairing``, ``row_ids``).
        """
        return cls(data, repulsive=repulsive, attractive=attractive, **kwargs)

    @classmethod
    def build_sharded(
        cls,
        data: np.ndarray,
        repulsive: Sequence[int],
        attractive: Sequence[int],
        num_shards: int = 4,
        **kwargs,
    ):
        """Build a horizontally sharded serving engine over ``data``.

        Returns a :class:`repro.core.sharding.ShardedIndex`: the same
        ``query``/``batch_query``/update surface as :class:`SDIndex`, with rows
        hash- or range-partitioned across ``num_shards`` independent shards and
        queries served by bound-ordered shard probes.  Results are
        bit-identical to the unsharded engine.  Keyword arguments cover both
        the sharding knobs (``partitioner``, ``range_dim``, ``parallel``,
        ``rebalance_threshold``) and the per-shard index options.
        """
        from repro.core.sharding import ShardedIndex

        return ShardedIndex(
            data,
            repulsive=repulsive,
            attractive=attractive,
            num_shards=num_shards,
            **kwargs,
        )

    # ------------------------------------------------------------------ querying
    def query(
        self,
        query: Union[SDQuery, Sequence[float]],
        k: Optional[int] = None,
        alpha: Optional[Sequence[float]] = None,
        beta: Optional[Sequence[float]] = None,
        engine: str = "fast",
    ) -> TopKResult:
        """Answer an SD-Query.

        Either pass a fully specified :class:`SDQuery` (whose dimension roles must
        match the index) or pass the query point together with ``k`` and optional
        weights, and the index fills in its own dimension roles.

        ``engine`` selects the execution path: ``"fast"`` (default) runs the
        vectorized filter-and-verify kernels over the cached query session;
        ``"legacy"`` runs the original per-stream threshold aggregation.  Both
        return bit-identical scores; an exact score tie at the k-th boundary
        resolves by row id on the fast path and by traversal order on the
        legacy path.
        """
        if engine not in ("fast", "legacy"):
            raise ValueError(f"unknown engine {engine!r}; use 'fast' or 'legacy'")
        built = self._coerce_query(query, k, alpha, beta)
        if engine == "legacy":
            return self._aggregator.query(built)
        return self._aggregator.query_fast(built)

    def _coerce_query(
        self,
        query: Union[SDQuery, Sequence[float]],
        k: Optional[int],
        alpha: Optional[Sequence[float]],
        beta: Optional[Sequence[float]],
    ) -> SDQuery:
        """Normalize the two single-query call shapes (shared with snapshots)."""
        if isinstance(query, SDQuery):
            if k is not None or alpha is not None or beta is not None:
                raise ValueError("pass either an SDQuery or point/k/weights, not both")
            return query
        if k is None:
            raise ValueError("k is required when querying with a raw point")
        return SDQuery.simple(
            point=query,
            repulsive=self.repulsive,
            attractive=self.attractive,
            k=k,
            alpha=alpha,
            beta=beta,
        )

    def batch_query(
        self,
        queries,
        k=None,
        alpha=None,
        beta=None,
    ):
        """Answer many SD-Queries at once with the vectorized batch engine.

        See the class docstring for the accepted inputs and the exact result
        semantics.  For several batches against an unchanged index, hold on to
        a :meth:`query_session` instead so the shared traversal state is built
        only once.
        """
        return self._aggregator.batch_query(queries, k=k, alpha=alpha, beta=beta)

    def query_session(self, seed_pool: Optional[int] = None):
        """The shared query session (kept valid across updates by patching).

        With the default ``seed_pool`` this is the same session the
        single-query fast path and :meth:`batch_query` use; its
        ``maintenance_stats()`` expose how many updates it absorbed and its
        level layout.  Pass a custom ``seed_pool`` for a private session
        (also maintained).
        """
        return self._aggregator.session(seed_pool=seed_pool)

    def refresh_session(self) -> None:
        """Force the cached session to rebuild from the live rows now."""
        session = self._aggregator._serving_session
        if session is not None:
            session.reflatten()

    # ------------------------------------------------------------- maintenance
    def lsm_maintain(self):
        """Run due LSM flushes/merges now; returns the structure ops applied."""
        return self._aggregator.lsm_maintain()

    def flush(self) -> bool:
        """Fold the serving session's delta into a fresh immutable level."""
        return self._aggregator.lsm_flush()

    def compact(self, seqs: Optional[Sequence[int]] = None):
        """Merge the serving session's levels (all by default)."""
        return self._aggregator.lsm_compact(seqs)

    def set_auto_compaction(self, enabled: bool) -> None:
        """Toggle self-scheduled maintenance (a durability wrapper disables it)."""
        self._aggregator.set_auto_compaction(enabled)

    def quiesce_maintenance(self) -> None:
        """Join in-flight background compaction (raises its stored failure)."""
        self._aggregator.quiesce_maintenance()

    def maintenance_stats(self):
        """The serving session's maintenance counters (patches, reflattens,
        epochs, ``levels``/``flushes``/``compactions``/``delta_live``)."""
        return self._aggregator.maintenance_stats()

    def snapshot(self) -> "SDIndexSnapshot":
        """Pin the current serving epoch: a repeatable-read view of the index.

        Queries answered through the returned :class:`SDIndexSnapshot` keep
        returning the same answers no matter what ``insert``/``delete`` do
        concurrently (see DESIGN.md section 6).  Use it as a context manager,
        or ``close()`` it, to release the pinned epoch.
        """
        return SDIndexSnapshot(self, self._aggregator.snapshot())

    # ------------------------------------------------------------- persistence
    def save(self, path) -> None:
        """Write a durable snapshot of this index at ``path`` (a directory).

        The snapshot holds the flattened serving-session arrays, the
        aggregator's row bookkeeping and the build parameters, versioned and
        checksummed (DESIGN.md section 7).  Checkpointing pins the current
        serving epoch, so concurrent writers keep running while the arrays
        stream out.  Restore with :meth:`load`; wrap the index in a
        :class:`repro.core.persistence.DurableIndex` for a write-ahead log
        and crash recovery between snapshots.
        """
        from repro.core.persistence import save_engine

        save_engine(self, path)

    @classmethod
    def load(cls, path, mmap: bool = False, verify: Optional[bool] = None) -> "SDIndex":
        """Load a snapshot written by :meth:`save`.

        ``mmap=True`` memory-maps the arrays for a near-instant warm start
        (no projection tree is rebuilt: only a legacy query or :meth:`stats`
        builds the pair trees); updates after an mmap load go to the delta
        and to copied validity masks, never the mapped file.  Raises
        :class:`repro.core.persistence.SnapshotFormatError` on an unknown
        format version or a failed checksum.
        """
        from repro.core.persistence import load_engine

        return load_engine(path, mmap=mmap, verify=verify, expect="sdindex")

    # ------------------------------------------------------------------ updates
    def insert(self, point: Sequence[float], row_id: Optional[int] = None) -> int:
        """Insert a point into the index; returns its row id.

        Cached query sessions absorb it, they are not invalidated.
        """
        return self._aggregator.insert(point, row_id)

    def bulk_insert(self, points, row_ids: Optional[Sequence[int]] = None):
        """Insert many points at once (one vectorized session patch); returns ids."""
        return self._aggregator.bulk_insert(points, row_ids)

    def delete(self, row_id: int) -> None:
        """Delete a point from the index by row id (sessions tombstone it)."""
        self._aggregator.delete(row_id)

    def bulk_delete(self, row_ids: Sequence[int]) -> None:
        """Delete many rows at once (one vectorized session patch)."""
        self._aggregator.bulk_delete(row_ids)

    def __len__(self) -> int:
        return len(self._aggregator)

    def point(self, row_id: int) -> np.ndarray:
        """Random access to a stored point."""
        return self._aggregator.point(row_id)

    # ------------------------------------------------------------------ stats
    def stats(self) -> IndexStats:
        """Memory and shape statistics aggregated over the subproblem indexes."""
        return self._aggregator.stats()

    @property
    def pairing(self):
        """The dimension pairing in use (see :mod:`repro.core.pairing`)."""
        return self._aggregator.pairing

    @property
    def aggregator(self) -> SubproblemAggregator:
        """The underlying aggregator (for benchmarking and tests)."""
        return self._aggregator

    # ------------------------------------------------------------------ lifecycle
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._aggregator.closed

    def close(self) -> None:
        """Release the index's resources; idempotent.

        For an index restored with ``load(..., mmap=True)`` this drops the
        memory-mapped snapshot files (see
        :meth:`repro.core.aggregate.SubproblemAggregator.close`); afterwards
        the snapshot directory can be pruned and queries raise
        ``RuntimeError``.
        """
        guard = getattr(self, "_mmap_guard", None)
        if guard is not None and getattr(self._aggregator, "_mmap_guard", None) is None:
            # load() attaches the guard to the facade; hand it down so the
            # aggregator can materialize a pending reflatten before the maps
            # are released.
            self._aggregator._mmap_guard = guard
        self._aggregator.close()
        if guard is not None:
            guard.close()

    def __enter__(self) -> "SDIndex":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False


class SDIndexSnapshot:
    """A pinned, immutable read view of one :class:`SDIndex` serving epoch.

    Mirrors the index's query surface (:meth:`query` / :meth:`batch_query`)
    but every answer comes from the pinned epoch — concurrent writers cannot
    move it.  ``frozen()`` exposes the pinned population for oracle checks.
    """

    #: The coalescer checks this before threading a request deadline through.
    supports_deadline = True

    def __init__(self, index: SDIndex, view) -> None:
        self._index = index
        self._view = view

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the pinned epoch (idempotent)."""
        self._view.close()

    def __enter__(self) -> "SDIndexSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def version(self) -> int:
        """The pinned session epoch's version."""
        return self._view.version

    # ------------------------------------------------------------------ reading
    def __len__(self) -> int:
        return self._view.num_live

    def frozen(self):
        """The pinned population as ``(row_ids, matrix)``, sorted by row id."""
        rows = self._view.live_row_ids()
        matrix = self._view.live_matrix()
        order = np.argsort(rows, kind="stable")
        return rows[order], matrix[order]

    def query(
        self,
        query: Union[SDQuery, Sequence[float]],
        k: Optional[int] = None,
        alpha: Optional[Sequence[float]] = None,
        beta: Optional[Sequence[float]] = None,
    ) -> TopKResult:
        """Answer one SD-Query against the pinned epoch (fast engine only)."""
        return self._view.run_one(self._index._coerce_query(query, k, alpha, beta))

    def batch_query(self, queries, k=None, alpha=None, beta=None, deadline=None):
        """Answer a batch of SD-Queries against the pinned epoch."""
        return self._view.run(queries, k=k, alpha=alpha, beta=beta, deadline=deadline)
