"""Horizontally sharded serving over hash- or range-partitioned row sets.

The vectorized batch engine makes a *single* index fast: it shares one
flattened traversal across queries and its maintained query session survives
updates.  One monolithic index is still one index — every query's candidate
enumeration touches arrays proportional to the whole dataset, and every
compaction re-walks the whole population.  This module adds
the standard scale-out step for top-k serving (cf. NeedleTail's
density/locality-aware any-k serving, arxiv 1611.04705, PAPERS.md):

* **Partitioning.**  A :class:`ShardRouter` splits rows across ``K`` shards,
  either by a multiplicative hash of the row id (uniform, locality-free) or by
  range over one scored dimension (quantile boundaries fitted at build time —
  the locality-aware layout that makes bound pruning bite).  Every row lives in
  exactly one shard.  The router keeps only its rule: which shard holds a row
  is read from the shards' own row stores, so deletes route exactly even
  after a rebalance changed the rule.
* **Per-shard engines.**  Each shard owns a full
  :class:`repro.core.aggregate.SubproblemAggregator` — its own flat pair
  views, sorted columns and maintained serving session — so updates land in
  K small LSM sessions instead of one monolithic one, and a compaction
  re-walks only its own shard.
* **Bound-ordered pruned serving.**  Before touching any shard, the engine
  collects one admissible upper bound per (query, shard) from the collapsed
  flat leaf arrays (:meth:`QuerySession.upper_bounds` — O(1) pseudo-leaves, not
  a traversal).  Each query then visits shards in descending bound order;
  after every round the running global k-th best score tightens, and a shard
  whose bound misses it (minus the engine's usual float slack) is skipped
  outright.  Bounds for skipped shards are admissible, so results are
  *bit-identical* to the unsharded flat engine: identical scores, identical
  row ids, the same ``(-score, row_id)`` tie-break.
* **Parallel shard probes.**  Independent probes of one round run on a shared
  :class:`concurrent.futures.ThreadPoolExecutor` — the numpy kernels release
  the GIL, so multi-core hosts overlap shard work; merging stays in submission
  order so the answer never depends on scheduling.
* **Rebalancing.**  Skewed inserts (a hot range, a monotone key) concentrate
  rows in few shards.  :meth:`ShardedIndex.rebalance` refits the router on the
  live data (fresh quantiles for range layouts) and rebuilds the shard
  aggregators; :meth:`ShardedIndex.maybe_rebalance` does so only once the
  max/mean shard-size skew crosses a threshold.  Rebalancing preserves the
  full result set — it only moves rows.

See DESIGN.md section 5 for the policy discussion and the quickstart example
for construction.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.core.aggregate import RetiredIds, SubproblemAggregator, as_row_ids, claim_row_ids
from repro.core.batch import BatchQuerySpec, SessionSnapshot, _prune_bound
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.epoch import EpochManager
from repro.core.projection_tree import require_finite, require_unique
from repro.core.query import SDQuery
from repro.core.results import BatchResult, IndexStats, ShardCoverage, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.serving.breaker import CircuitBreaker, ResiliencePolicy

__all__ = ["ShardRouter", "ShardedIndex", "ShardedSnapshot"]

#: Fault point inside every shard probe attempt (``key`` = the integer shard
#: id), fired before the shard kernel runs — the injection surface for
#: per-shard fault storms (DESIGN.md §9).
_FP_PROBE = faults.declare_fault_point(
    "shard.probe", "one shard probe attempt in the bound-ordered serving loop"
)

#: splitmix64 stream increment and finalizer constants (Steele et al.).
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB

_UINT64_MASK = (1 << 64) - 1

#: Default max/mean shard-size skew tolerated before ``maybe_rebalance`` acts.
_DEFAULT_SKEW_THRESHOLD = 2.0


def _hash_shards(row_ids: np.ndarray, num_shards: int, salt: int = 0) -> np.ndarray:
    """Deterministic avalanche hash (splitmix64 finalizer) of each row id.

    ``salt`` selects an independent layout: a rebalance of a hash-partitioned
    index bumps it so skew accumulated by non-uniform deletes actually
    disperses.  The finalizer's full avalanche matters there — layouts under
    different salts must be uncorrelated, or the surviving (skewed) id
    population would just rotate to a new shard instead of spreading out.
    """
    with np.errstate(over="ignore"):
        z = row_ids.astype(np.uint64) + np.uint64(
            (salt * _SPLITMIX_GAMMA) & _UINT64_MASK
        )
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SPLITMIX_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MIX2)
        z = z ^ (z >> np.uint64(31))
        return (z % np.uint64(num_shards)).astype(np.int64)


class ShardRouter:
    """The rule that assigns new rows to shards.

    Two partitioners:

    ``"hash"``
        Multiplicative hash of the row id — uniform regardless of data
        distribution, no locality.
    ``"range"``
        Quantile boundaries over one scored dimension (``range_dim``), fitted
        from the build data via :meth:`refit`.  Gives shards disjoint value
        ranges, which is what lets the serving loop prune whole shards whose
        range is provably too far from a query.

    The router holds no per-row state.  A row stays in the shard the rule
    picked when it arrived, even after a :meth:`refit`; the engine finds it by
    looking it up in the shards themselves (:meth:`ShardedIndex.locate`).
    """

    def __init__(
        self,
        num_shards: int,
        partitioner: str = "hash",
        range_dim: Optional[int] = None,
        boundaries: Optional[np.ndarray] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if partitioner not in ("hash", "range"):
            raise ValueError(
                f"unknown partitioner {partitioner!r}; use 'hash' or 'range'"
            )
        if partitioner == "range" and range_dim is None:
            raise ValueError("range partitioning requires range_dim")
        self.num_shards = int(num_shards)
        self.partitioner = partitioner
        self.range_dim = None if range_dim is None else int(range_dim)
        self.boundaries = (
            None if boundaries is None else np.asarray(boundaries, dtype=float)
        )
        #: Reshuffle counter mixed into the hash (bumped by rebalances).
        self.salt = 0

    def refit(self, matrix: np.ndarray, reshuffle: bool = False) -> None:
        """Refit the partitioning rule to a data matrix.

        Range layouts take fresh quantile boundaries from the matrix.  Hash
        layouts are data-independent, so a refit only changes anything when
        ``reshuffle`` is set (a rebalance): the salt is bumped, giving a new
        uniform layout that disperses delete-induced skew.
        """
        if self.partitioner == "hash":
            if reshuffle:
                self.salt += 1
            return
        if len(matrix) == 0:
            return
        quantiles = np.arange(1, self.num_shards) / self.num_shards
        self.boundaries = np.quantile(matrix[:, self.range_dim], quantiles)

    def route(self, row_ids: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Shard of each (new) row under the current rule."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if self.num_shards == 1:
            return np.zeros(len(row_ids), dtype=np.int64)
        if self.partitioner == "hash":
            return _hash_shards(row_ids, self.num_shards, self.salt)
        if self.boundaries is None:
            # Built over empty data: no quantiles to fit yet.  Everything
            # lands in shard 0 until a rebalance refits on live rows.
            return np.zeros(len(row_ids), dtype=np.int64)
        return np.searchsorted(
            self.boundaries, matrix[:, self.range_dim], side="right"
        ).astype(np.int64)


class _ShardTopology:
    """One epoch of the sharded layout: the router plus its shard aggregators.

    Published through the engine's topology :class:`EpochManager` so a probe
    that pinned an epoch keeps a consistent (router, shards) pair even while
    :meth:`ShardedIndex.rebalance` swaps in a refitted successor.
    """

    __slots__ = ("router", "shards")

    def __init__(self, router: ShardRouter, shards: Tuple[SubproblemAggregator, ...]) -> None:
        self.router = router
        self.shards = shards


class ShardedIndex:
    """K-shard SD-Query serving engine with bound-ordered pruned fan-out.

    Construction mirrors :class:`repro.core.sdindex.SDIndex` (same dimension
    roles, same index options forwarded to every shard) plus the sharding
    knobs; :meth:`query` / :meth:`batch_query` accept the same inputs and
    return results bit-identical to the unsharded flat engine.  Updates route
    through the :class:`ShardRouter`; ``serve_stats`` records, per serving
    call, how many shard probes ran versus were pruned by the bound order.

    **Concurrency.**  Every serving call pins a consistent cut — the
    topology epoch plus one session epoch per shard — before touching any
    data, so ``insert`` / ``bulk_delete`` / :meth:`rebalance` running on other
    threads can never tear an in-flight probe (DESIGN.md section 6).  Writers
    serialize on an internal lock; :meth:`snapshot` hands the same pinned cut
    to callers that want repeatable reads across several queries.
    """

    def __init__(
        self,
        data: np.ndarray,
        repulsive: Sequence[int],
        attractive: Sequence[int],
        num_shards: int = 4,
        partitioner: str = "hash",
        range_dim: Optional[int] = None,
        rebalance_threshold: float = _DEFAULT_SKEW_THRESHOLD,
        row_ids: Optional[Sequence[int]] = None,
        resilience: Optional["ResiliencePolicy"] = None,
        **index_options,
    ) -> None:
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("data must be an (n, m) matrix of points")
        require_finite(matrix)
        self.repulsive = tuple(int(d) for d in repulsive)
        self.attractive = tuple(int(d) for d in attractive)
        self.num_dims = matrix.shape[1]
        used = set(self.repulsive) | set(self.attractive)
        if len(used) != len(self.repulsive) + len(self.attractive):
            raise ValueError("repulsive and attractive dimensions must be disjoint")
        if not used:
            raise ValueError(
                "at least one repulsive or attractive dimension is required"
            )
        if any(d < 0 or d >= self.num_dims for d in used):
            raise ValueError("dimension indexes out of range")

        rows = (
            np.arange(len(matrix), dtype=np.int64)
            if row_ids is None
            else as_row_ids(row_ids)
        )
        if len(rows) != len(matrix):
            raise ValueError("row_ids must align with the data matrix")
        require_unique(rows)

        if partitioner == "range" and range_dim is None:
            # Default to the first attractive dimension: attraction penalizes
            # distance, so range-disjoint shards are the ones bound pruning
            # can rule out.
            range_dim = (self.attractive or self.repulsive)[0]
        self.rebalance_threshold = float(rebalance_threshold)
        self._index_options = dict(index_options)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        #: Serializes writers (updates and rebalances) and the brief pin phase
        #: of snapshots, so every snapshot is a consistent cross-shard cut.
        self._write_lock = threading.RLock()
        #: Every id deleted through this engine: never claimable again.
        self._retired = RetiredIds()
        self._max_row_id = int(rows.max()) if len(rows) else -1
        self.rebalances = 0
        #: Counters of the most recent serving call: ``probes`` and ``pruned``
        #: count (query, shard) pairs probed vs skipped by the bound order;
        #: ``rounds`` counts the bound-ordered visit waves; ``skipped`` and
        #: ``retries`` count shards abandoned vs re-probed by the resilience
        #: policy.
        self.serve_stats: Dict[str, int] = {
            "probes": 0,
            "pruned": 0,
            "rounds": 0,
            "skipped": 0,
            "retries": 0,
        }

        #: Fault-domain policy (DESIGN.md §9).  ``None`` keeps the legacy
        #: fail-fast contract: no retries, no breakers, every probe error
        #: propagates, answers stay bit-identical to the flat engine.  The
        #: policy builds its own breakers, so this module never imports the
        #: serving layer at runtime.
        self.resilience = resilience
        self._breakers: Optional[List["CircuitBreaker"]] = (
            None if resilience is None else resilience.build_breakers(int(num_shards))
        )

        #: Epoch-published (router, shards) pairs; rebalance swaps whole
        #: topologies so in-flight probes never see a half-refitted router.
        self._topology = EpochManager()
        router = ShardRouter(num_shards, partitioner, range_dim)
        router.refit(matrix)
        shards = router.route(rows, matrix)
        self._topology.publish(
            _ShardTopology(
                router,
                tuple(
                    self._build_shard(rows[shards == s], matrix[shards == s])
                    for s in range(router.num_shards)
                ),
            )
        )

    # ------------------------------------------------------------------ basics
    def _build_shard(
        self, rows: np.ndarray, matrix: np.ndarray
    ) -> SubproblemAggregator:
        return SubproblemAggregator(
            matrix.reshape(len(rows), self.num_dims),
            repulsive=self.repulsive,
            attractive=self.attractive,
            row_ids=rows,
            **self._index_options,
        )

    @property
    def router(self) -> ShardRouter:
        """The current topology's router (swapped wholesale by rebalances).

        Read atomically: a rebalance racing this read may reclaim the old
        topology *epoch*, but the returned topology object stays intact for
        the holder.
        """
        return self._topology.current_state().router

    @property
    def _shards(self) -> Tuple[SubproblemAggregator, ...]:
        """The current topology's shard aggregators (atomic unpinned read)."""
        return self._topology.current_state().shards

    @property
    def topology_version(self) -> int:
        """Version of the current shard topology (bumped by rebalances)."""
        return self._topology.version

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def shard_sizes(self) -> List[int]:
        """Live rows per shard."""
        return [len(shard) for shard in self._shards]

    def skew(self) -> float:
        """Max shard size over the balanced (mean) size; 1.0 is perfect balance."""
        sizes = self.shard_sizes()
        total = sum(sizes)
        if total == 0:
            return 1.0
        return max(sizes) / (total / self.num_shards)

    def locate(self, row_ids) -> np.ndarray:
        """The shard holding each of ``row_ids``, or -1 where it is not live.

        Read from the shards' own row stores (vectorized per shard): the
        router keeps no per-row map.
        """
        ids = as_row_ids(row_ids)
        where = np.full(len(ids), -1, dtype=np.int64)
        for s, shard in enumerate(self._shards):
            where[shard.live_mask(ids)] = s
        return where

    def shard_of(self, row_id: int) -> int:
        """The shard a live row lives in (``KeyError`` if it is not live)."""
        where = int(self.locate([row_id])[0])
        if where < 0:
            raise KeyError(f"row id {row_id} not present")
        return where

    def assignments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every live row id, ascending, and the shard that holds it."""
        rows = [shard._world().live_row_ids() for shard in self._shards]
        owners = np.repeat(np.arange(len(rows), dtype=np.int64), [len(r) for r in rows])
        merged = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        order = np.argsort(merged, kind="stable")
        return merged[order], owners[order]

    def point(self, row_id: int) -> np.ndarray:
        """Random access to a live point's full coordinate vector."""
        return self._shards[self.shard_of(row_id)].point(row_id)

    def shard(self, index: int) -> SubproblemAggregator:
        """Direct access to one shard's aggregator (tests and benchmarks)."""
        return self._shards[index]

    # ------------------------------------------------------------------ updates
    def _claim_row_ids(self, row_ids: Optional[Sequence[int]], count: int) -> np.ndarray:
        """Validate every id first, then advance the high-water mark once."""
        ids = claim_row_ids(
            row_ids,
            count,
            self._max_row_id,
            self._retired,
            lambda seen: self.locate(seen) >= 0,
        )
        if len(ids):
            self._max_row_id = max(self._max_row_id, int(ids.max()))
        return ids

    def insert(self, point: Sequence[float], row_id: Optional[int] = None) -> int:
        """Insert a point; the router picks its shard.  Returns the row id."""
        vector = np.array(point, dtype=float)  # private: a legacy row map may keep it
        if vector.shape != (self.num_dims,):
            raise ValueError(f"point must have {self.num_dims} dimensions")
        require_finite(vector)
        with self._write_lock:
            ids = self._claim_row_ids(None if row_id is None else [row_id], 1)
            block = vector[None, :]
            shard = int(self.router.route(ids, block)[0])
            self._shards[shard]._insert_claimed(ids, block)
            return int(ids[0])

    def bulk_insert(
        self, points, row_ids: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Insert many points at once (one bulk patch per touched shard)."""
        matrix = np.asarray(points, dtype=float)
        if matrix.size == 0:
            matrix = matrix.reshape(0, self.num_dims)
        if matrix.ndim != 2 or matrix.shape[1] != self.num_dims:
            raise ValueError(
                f"points must have shape (m, {self.num_dims}), got {matrix.shape}"
            )
        require_finite(matrix)
        with self._write_lock:
            ids = self._claim_row_ids(row_ids, len(matrix))
            if not len(ids):
                return []
            shards = self.router.route(ids, matrix)
            for s in range(self.num_shards):
                members = shards == s
                if members.any():
                    self._shards[s]._insert_claimed(ids[members], matrix[members])
            return ids.tolist()

    def delete(self, row_id: int) -> None:
        """Delete a row from the shard it lives in.

        Raises ``KeyError("row id N not present")`` for an unknown or
        already-deleted id — the same contract as the flat engines.
        """
        self.bulk_delete([row_id])

    def bulk_delete(self, row_ids: Sequence[int]) -> None:
        """Delete many rows at once (one bulk patch per touched shard).

        Every id is validated before any shard publishes, so a bad id
        cannot half-apply the batch.  Each shard looks up, once, only the
        ids no earlier shard holds, and its owning session publishes that
        same lookup (:meth:`LsmSession.locate_deletes`).
        """
        ids = as_row_ids(row_ids)
        if len(ids) > 1:
            require_unique(ids)
        with self._write_lock:
            pending = np.arange(len(ids))
            lookups = []
            for s, shard in enumerate(self._shards):
                if not len(pending):
                    break
                lookup, found = shard.serving_session().locate_deletes(ids[pending])
                if found.any():
                    lookups.append((s, ids[pending[found]], lookup))
                    pending = pending[~found]
            if len(pending):
                raise KeyError(f"row id {int(ids[pending[0]])} not present")
            for s, members, lookup in lookups:
                self._shards[s]._delete_live(members, lookup)
                self._retired.add(members)

    # --------------------------------------------------------------- rebalance
    def rebalance(self) -> bool:
        """Refit the router on the live data and rebuild every shard.

        Returns True when any row moved.  The result set is preserved exactly
        — rows only change shards — so serving answers are unchanged.

        The refitted router and the rebuilt shard aggregators are prepared on
        the side and published as a *new topology epoch* in one atomic swap:
        a probe launched before the rebalance keeps serving off the topology
        it pinned, so it can never read a half-refitted router or a shard
        list that no longer matches its bounds.
        """
        with self._write_lock:
            old_router = self.router
            populations = [shard.live_population() for shard in self._shards]
            row_array = np.concatenate([rows for rows, _ in populations])
            order = np.argsort(row_array, kind="stable")
            row_array = row_array[order]
            matrix = np.vstack([points for _, points in populations])[order]
            # Every row lives in the shard it is assigned to.
            before = np.repeat(
                np.arange(len(populations)), [len(rows) for rows, _ in populations]
            )[order]
            router = ShardRouter(
                old_router.num_shards,
                old_router.partitioner,
                old_router.range_dim,
                boundaries=old_router.boundaries,
            )
            router.salt = old_router.salt
            router.refit(matrix, reshuffle=True)
            shards = router.route(row_array, matrix)
            moved = bool((before != shards).any())
            topology = _ShardTopology(
                router,
                tuple(
                    self._build_shard(row_array[shards == s], matrix[shards == s])
                    for s in range(router.num_shards)
                ),
            )
            self._topology.publish(topology)
            self.rebalances += 1
            return moved

    def maybe_rebalance(self) -> bool:
        """Rebalance only if the shard-size skew exceeds the threshold."""
        with self._write_lock:
            if self.skew() > self.rebalance_threshold:
                return self.rebalance()
            return False

    # ------------------------------------------------------------------ serving
    def query(
        self,
        query: Union[SDQuery, Sequence[float]],
        k: Optional[int] = None,
        alpha: Optional[Sequence[float]] = None,
        beta: Optional[Sequence[float]] = None,
    ) -> TopKResult:
        """Answer one SD-Query across all shards (same inputs as ``SDIndex.query``)."""
        spec = self._coerce_single(query, k, alpha, beta)
        return self._serve(spec).results[0]

    def _coerce_single(
        self,
        query: Union[SDQuery, Sequence[float]],
        k: Optional[int],
        alpha: Optional[Sequence[float]],
        beta: Optional[Sequence[float]],
    ) -> BatchQuerySpec:
        """Normalize the single-query call shapes to a one-element spec."""
        if isinstance(query, SDQuery):
            if k is not None or alpha is not None or beta is not None:
                raise ValueError("pass either an SDQuery or point/k/weights, not both")
            built = query
        else:
            if k is None:
                raise ValueError("k is required when querying with a raw point")
            built = SDQuery.simple(
                point=query,
                repulsive=self.repulsive,
                attractive=self.attractive,
                k=k,
                alpha=alpha,
                beta=beta,
            )
        return BatchQuerySpec.coerce(
            self.repulsive, self.attractive, self.num_dims, [built]
        )

    def batch_query(
        self, queries, k=None, alpha=None, beta=None, deadline=None
    ) -> BatchResult:
        """Answer a batch of SD-Queries (same inputs as ``SDIndex.batch_query``)."""
        spec = BatchQuerySpec.coerce(
            self.repulsive,
            self.attractive,
            self.num_dims,
            queries,
            k=k,
            alpha=alpha,
            beta=beta,
        )
        return self._serve(spec, deadline=deadline)

    def _executor_instance(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError(
                "ShardedIndex is closed; its probe executor cannot be restarted"
            )
        if self._executor is None:
            # One thread per shard: a round probes each shard at most once.
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_shards, thread_name_prefix="shard-probe"
            )
        return self._executor

    def close(self) -> None:
        """Shut down the probe executor and refuse further serving (idempotent).

        Safe to call any number of times; after the first call every
        :meth:`query`/:meth:`batch_query`/:meth:`snapshot` raises
        ``RuntimeError`` instead of silently resurrecting a new executor.
        """
        self._closed = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        guard = getattr(self, "_mmap_guard", None)
        if guard is not None and not guard.closed:
            # An mmap-restored topology: tear down the per-shard aggregators
            # (each drops its sessions' epoch states) and retire the topology
            # epoch, then release the snapshot file mappings.
            topology = self._topology.current_state()
            if topology is not None:
                for shard in topology.shards:
                    shard.close()
            self._topology.publish(None)
            guard.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *_exc) -> bool:
        # Never mask an exception propagating out of the ``with`` body: close
        # only tears down the executor (it does not raise on pending probe
        # failures) and we explicitly decline to suppress.
        self.close()
        return False

    # ----------------------------------------------------------------- snapshots
    def snapshot(self) -> "ShardedSnapshot":
        """Pin a consistent cross-shard cut: topology plus one epoch per shard.

        The pin phase is **optimistic and lock-free**: pin the topology and
        every shard session, then validate that nothing published meanwhile —
        if every pinned epoch is still current at validation time, all of
        them were current *simultaneously*, so the cut is a single point in
        time.  On contention (a writer published mid-pin) the pins are
        dropped and the phase retries; after a few collisions it falls back
        to the writer lock for a guaranteed cut.  Readers therefore never
        wait behind a long writer critical section — in particular, serving
        continues at full speed through a multi-second :meth:`rebalance`.

        Use the returned :class:`ShardedSnapshot` as a context manager (or
        ``close()`` it) to release the pinned epochs for reclamation.
        """
        if self._closed:
            raise RuntimeError("ShardedIndex is closed")
        for _attempt in range(5):
            snap = self._try_pin_cut()
            if snap is not None:
                return snap
        with self._write_lock:
            # Writers are excluded, so the pinned epochs cannot move mid-pin.
            snap = self._try_pin_cut()
            if snap is None:  # pragma: no cover - excluded writers cannot race
                raise RuntimeError("snapshot pin failed under the writer lock")
            return snap

    def _try_pin_cut(self) -> Optional["ShardedSnapshot"]:
        """One optimistic pin attempt; None when a writer raced the pins."""
        epoch = self._topology.pin()
        views: List[SessionSnapshot] = []
        try:
            sessions = [shard.serving_session() for shard in epoch.state.shards]
            for session in sessions:
                views.append(session.snapshot())
            consistent = self._topology.version == epoch.version and all(
                session.epochs.version == view.version
                for session, view in zip(sessions, views)
            )
        except BaseException:
            for view in views:
                view.close()
            epoch.release()
            raise
        if consistent:
            return ShardedSnapshot(self, epoch, views)
        for view in views:
            view.close()
        epoch.release()
        return None

    def _serve(
        self, spec: BatchQuerySpec, deadline: Optional[Deadline] = None
    ) -> BatchResult:
        """Serve one batch against a freshly pinned snapshot."""
        if self._closed:
            raise RuntimeError("ShardedIndex is closed")
        with self.snapshot() as snap:
            return self._serve_snapshot(snap, spec, deadline=deadline)

    def breaker_stats(self) -> Optional[List[Dict[str, object]]]:
        """Per-shard circuit-breaker counters (None without a resilience policy)."""
        if self._breakers is None:
            return None
        return [breaker.stats() for breaker in self._breakers]

    def _serve_snapshot(
        self,
        snap: "ShardedSnapshot",
        spec: BatchQuerySpec,
        deadline: Optional[Deadline] = None,
    ) -> BatchResult:
        """The serving loop: bound-ordered shard visits with global pruning.

        Runs entirely against the snapshot's pinned session views, so
        concurrent mutation (including a rebalance publishing a new topology)
        cannot shift bounds, masks or row sets mid-flight.

        With a :class:`~repro.serving.breaker.ResiliencePolicy` installed,
        transient probe failures are retried with jittered backoff, shards
        behind an open breaker are refused without probing, and — under
        ``degrade=True`` — any shard that still cannot be covered (fault,
        open breaker, or exhausted ``deadline``) is *skipped*: the answer
        comes back ``degraded=True`` with a :class:`ShardCoverage` whose
        ``score_bound`` (the max admissible upper bound over the skipped
        shards) bounds every row the answer could possibly be missing.  That
        bound is sound even for rows *pruned* in healthy shards by a
        threshold seeded from a skipped shard's samples: if the seeded k-th
        lower bound exceeds the covered data's true k-th score, the sample
        that raised it lives in a skipped shard, so the skipped shard's
        upper bound dominates it — and therefore every pruned row too.
        """
        if self._closed:
            # Uniform with _serve: a pinned snapshot outliving close() still
            # refuses to serve, whether or not the probe executor is reached.
            raise RuntimeError("ShardedIndex is closed")
        if deadline is not None:
            deadline.check()
        m = len(spec)
        label = "sd-sharded/batch"
        if m == 0:
            return BatchResult(results=[], algorithm=label)
        views = snap.views
        num_shards = len(views)
        total_live = sum(view.num_live for view in views)
        if total_live == 0:
            return BatchResult(
                results=[TopKResult(matches=[], algorithm=label) for _ in range(m)],
                algorithm=label,
            )
        ks_global = np.minimum(spec.ks, total_live)

        # One admissible upper bound per (shard, query), from the collapsed
        # flat leaf arrays of each pinned view.
        ubs = np.vstack([view.upper_bounds(spec) for view in views])
        # Per-query shard visit order, best bound first (stable: equal bounds
        # keep shard order, so serving is deterministic).
        order = np.argsort(-ubs, axis=0, kind="stable")

        # Slack scale for the shard-skip test, matching the engine's pruning
        # slack so an exact tie at the k-th boundary never skips its shard.
        weight_scale = spec.alpha.sum(axis=1) + spec.beta.sum(axis=1)
        magnitude = 0.0
        for view in views:
            magnitude = max(magnitude, view.data_magnitude())
        for dim in self.repulsive + self.attractive:
            magnitude = max(magnitude, float(np.abs(spec.points[:, dim]).max()))

        pools: List[List] = [[] for _ in range(m)]
        examined = np.zeros(m, dtype=np.int64)
        probes = pruned = rounds = 0
        policy = self.resilience
        breakers = self._breakers
        degrade = policy is not None and policy.degrade
        #: ``(shard, j) -> reason`` for every query/shard pair left uncovered.
        skipped: Dict[Tuple[int, int], str] = {}
        retries = 0

        # Seed a *global* per-query lower bound on the k-th best score from a
        # cross-shard sample, so far shards can be pruned before any probe and
        # every probe starts with a tight enumeration threshold.  Sample
        # scores are real point scores up to ulp-level term-order differences,
        # which the engine's pruning slack absorbs — admissible.
        kth_lower = np.full(m, -math.inf)
        sample_pool = max(64, 1024 // num_shards)
        samples = np.hstack(
            [view.sample_scores(spec, sample_pool) for view in views]
        )
        pool_size = samples.shape[1]
        for j in range(m):
            k_j = int(ks_global[j])
            if pool_size >= k_j:
                kth_lower[j] = np.partition(samples[j], pool_size - k_j)[
                    pool_size - k_j
                ]

        for r in range(num_shards):
            skip_below = _prune_bound(kth_lower, weight_scale, magnitude)
            if deadline is not None and deadline.expired:
                # Budget gone at a round boundary: everything still standing
                # (visitable and not prunable) becomes an explicit skip under
                # degradation, or the deadline propagates.
                if not degrade:
                    raise DeadlineExceeded(deadline.budget)
                for j in range(m):
                    for rr in range(r, num_shards):
                        shard = int(order[rr, j])
                        if not np.isfinite(ubs[shard, j]):
                            continue
                        if ubs[shard, j] < skip_below[j]:
                            pruned += 1
                            continue
                        skipped[(shard, j)] = "deadline"
                break
            tasks: Dict[int, List[int]] = {}
            for j in range(m):
                shard = int(order[r, j])
                if not np.isfinite(ubs[shard, j]):
                    continue  # empty shard: nothing to probe or to count
                if ubs[shard, j] < skip_below[j]:
                    pruned += 1
                    continue
                tasks.setdefault(shard, []).append(j)
            if not tasks:
                break
            rounds += 1
            probes += sum(len(js) for js in tasks.values())

            def probe(shard: int, js: List[int]):
                faults.fire(_FP_PROBE, key=shard)
                members = np.asarray(js, dtype=np.int64)
                # skip_below already carries the pruning slack at the *global*
                # magnitude, so a shard with small coordinates cannot
                # under-slack a bound seeded from another shard's samples.
                return views[shard].run(
                    spec.subset(members),
                    lower_bounds=skip_below[members],
                    deadline=deadline,
                    _label=label,
                )

            def attempt(shard: int, js: List[int]):
                """One shard's covered attempt: ``("ok", batch)`` or ``("skip", reason)``.

                Applies the breaker gate, the bounded retry budget and the
                deadline; with ``degrade=False`` (or no policy) the failure
                propagates instead of returning a skip.
                """
                nonlocal retries
                breaker = breakers[shard] if breakers is not None else None
                last_exc: Optional[BaseException] = None

                def give_up(reason: str):
                    if degrade:
                        return ("skip", reason)
                    if reason == "breaker_open":
                        from repro.serving.breaker import BreakerOpen

                        raise BreakerOpen(breaker.name, breaker.retry_after())
                    if reason == "deadline":
                        raise DeadlineExceeded(deadline.budget)
                    raise last_exc

                attempts = policy.max_attempts if policy is not None else 1
                for attempt_no in range(attempts):
                    if deadline is not None and deadline.expired:
                        return give_up("deadline")
                    if breaker is not None and not breaker.allow():
                        return give_up("breaker_open")
                    try:
                        batch = probe(shard, js)
                    except DeadlineExceeded:
                        # Not the shard's fault: no breaker verdict, just
                        # return the half-open trial slot if one was taken.
                        if breaker is not None:
                            breaker.record_cancel()
                        return give_up("deadline")
                    except BaseException as exc:  # noqa: BLE001
                        if breaker is not None:
                            breaker.record_failure()
                        if policy is None or not policy.is_transient(exc):
                            raise
                        last_exc = exc
                        if attempt_no + 1 < attempts:
                            retries += 1
                            if policy.retry is not None:
                                pause = policy.retry.backoff(attempt_no)
                                if deadline is not None:
                                    pause = min(pause, deadline.remaining())
                                if pause > 0:
                                    policy.sleep(pause)
                        continue
                    if breaker is not None:
                        breaker.record_success()
                    return ("ok", batch)
                return give_up("fault")

            ordered = sorted(tasks.items())
            # A round with one probe runs it inline; more share the pool.
            if len(ordered) > 1:
                executor = self._executor_instance()
                futures = [
                    (shard, js, executor.submit(attempt, shard, js))
                    for shard, js in ordered
                ]
                # Collect every future even if one fails: cancel what has not
                # started, then re-raise the *first* probe error so a failing
                # probe is never masked by a secondary shutdown error.
                outcomes = []
                error: Optional[BaseException] = None
                for shard, js, future in futures:
                    if error is None:
                        try:
                            outcomes.append((shard, js, future.result()))
                        except BaseException as exc:  # noqa: BLE001
                            error = exc
                    else:
                        future.cancel()
                if error is not None:
                    raise error
            else:
                outcomes = [
                    (shard, js, attempt(shard, js)) for shard, js in ordered
                ]

            batches = []
            for shard, js, (status, payload) in outcomes:
                if status == "ok":
                    batches.append((js, payload))
                else:
                    for j in js:
                        skipped[(shard, j)] = payload

            # Merge in fixed shard order so results never depend on scheduling.
            for js, batch in batches:
                for j, result in zip(js, batch.results):
                    pools[j].extend(result.matches)
                    examined[j] += result.candidates_examined
                    pools[j].sort()
                    del pools[j][int(ks_global[j]) :]
                    if len(pools[j]) >= int(ks_global[j]):
                        kth_lower[j] = max(kth_lower[j], pools[j][-1].score)

        self.serve_stats = {
            "probes": probes,
            "pruned": pruned,
            "rounds": rounds,
            "skipped": len(skipped),
            "retries": retries,
        }
        results = []
        for j in range(m):
            skips = tuple(
                sorted(
                    (shard, reason)
                    for (shard, jj), reason in skipped.items()
                    if jj == j
                )
            )
            coverage: Optional[ShardCoverage] = None
            if skips:
                uncovered = {shard for shard, _ in skips}
                coverage = ShardCoverage(
                    total=num_shards,
                    probed=tuple(
                        s for s in range(num_shards) if s not in uncovered
                    ),
                    skipped=skips,
                    score_bound=max(float(ubs[shard, j]) for shard, _ in skips),
                )
            results.append(
                TopKResult(
                    matches=pools[j],
                    candidates_examined=int(examined[j]),
                    full_evaluations=int(examined[j]),
                    algorithm="sd-sharded",
                    degraded=coverage is not None,
                    coverage=coverage,
                )
            )
        return BatchResult(results=results, algorithm=label)

    # ------------------------------------------------------------- persistence
    def save(self, path) -> None:
        """Write a durable snapshot of the whole sharded engine at ``path``.

        The root manifest records the router (partitioner, boundaries and
        salt) and the engine bookkeeping; every shard streams its own
        sub-snapshot (``shard-<s>/`` with its own data file and manifest,
        whose world says which rows the shard holds), captured as one
        consistent cut under the writer lock with per-shard epochs pinned —
        writers resume while the arrays stream.
        """
        from repro.core.persistence import save_engine

        save_engine(self, path)

    @classmethod
    def load(cls, path, mmap: bool = False, verify: Optional[bool] = None) -> "ShardedIndex":
        """Load a snapshot written by :meth:`save` (``mmap=True`` maps arrays)."""
        from repro.core.persistence import load_engine

        return load_engine(path, mmap=mmap, verify=verify, expect="sharded")

    # ------------------------------------------------------------------ stats
    def stats(self) -> IndexStats:
        """Aggregate statistics over every shard."""
        total_memory = 0
        total_nodes = 0
        build_seconds = 0.0
        for shard in self._shards:
            stats = shard.stats()
            total_memory += stats.memory_bytes
            total_nodes += stats.num_nodes
            build_seconds += stats.build_seconds or 0.0
        return IndexStats(
            name="sd-sharded",
            num_points=len(self),
            num_nodes=total_nodes,
            memory_bytes=total_memory,
            build_seconds=build_seconds,
        )


class ShardedSnapshot:
    """A pinned, consistent cross-shard read view of a :class:`ShardedIndex`.

    Holds the topology epoch plus one pinned session epoch per shard — all
    taken under the engine's writer lock, so the cut is a single point in
    time.  Queries answered through the snapshot are repeatable: concurrent
    inserts, deletes and rebalances cannot change the answers until the
    snapshot is closed and a new one pinned.
    """

    #: The coalescer checks this before threading a request deadline through.
    supports_deadline = True

    def __init__(self, engine: ShardedIndex, topology_epoch, views: List[SessionSnapshot]) -> None:
        self._engine = engine
        self._topology_epoch = topology_epoch
        self._views = views
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release every pinned epoch (idempotent)."""
        if not self._closed:
            self._closed = True
            for view in self._views:
                view.close()
            self._topology_epoch.release()

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def views(self) -> List[SessionSnapshot]:
        """The pinned per-shard session views, in shard order."""
        if self._closed:
            raise RuntimeError("sharded snapshot is closed")
        return self._views

    @property
    def topology_version(self) -> int:
        """The pinned topology epoch's version."""
        return self._topology_epoch.version

    @property
    def versions(self) -> Tuple[int, ...]:
        """Per-shard session epoch versions of this cut."""
        return tuple(view.version for view in self.views)

    # ------------------------------------------------------------------ reading
    def __len__(self) -> int:
        return sum(view.num_live for view in self.views)

    def live_row_ids(self) -> np.ndarray:
        """All live row ids across the pinned shards, sorted ascending."""
        parts = [view.live_row_ids() for view in self.views]
        merged = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return np.sort(merged)

    def frozen(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pinned population as ``(row_ids, matrix)``, sorted by row id.

        This is the frozen oracle the stress tests score against: a reader
        that pinned this snapshot must get answers bit-identical to a
        sequential scan over exactly these rows.
        """
        row_parts = [view.live_row_ids() for view in self.views]
        matrix_parts = [view.live_matrix() for view in self.views]
        if not row_parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, self._engine.num_dims), dtype=float),
            )
        rows = np.concatenate(row_parts)
        matrix = np.concatenate(matrix_parts) if len(rows) else np.empty(
            (0, self._engine.num_dims), dtype=float
        )
        # kind="stable": duplicate/equal keys must never reorder rows across
        # platforms, or the bit-identical fuzz oracles would drift.
        order = np.argsort(rows, kind="stable")
        return rows[order], matrix[order]

    def query(
        self,
        query: Union[SDQuery, Sequence[float]],
        k: Optional[int] = None,
        alpha: Optional[Sequence[float]] = None,
        beta: Optional[Sequence[float]] = None,
    ) -> TopKResult:
        """Answer one SD-Query against the pinned cut."""
        spec = self._engine._coerce_single(query, k, alpha, beta)
        return self._engine._serve_snapshot(self, spec).results[0]

    def batch_query(
        self, queries, k=None, alpha=None, beta=None, deadline=None
    ) -> BatchResult:
        """Answer a batch of SD-Queries against the pinned cut."""
        spec = BatchQuerySpec.coerce(
            self._engine.repulsive,
            self._engine.attractive,
            self._engine.num_dims,
            queries,
            k=k,
            alpha=alpha,
            beta=beta,
        )
        return self._engine._serve_snapshot(self, spec, deadline=deadline)
