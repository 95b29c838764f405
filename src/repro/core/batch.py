"""Vectorized batch query execution with shared-traversal query sessions.

Answering SD-Queries one at a time pays the full Python dispatch cost of the
threshold aggregation per query: every projection-stream pull is an interpreter
heap operation and every candidate row is scored individually.  When a service
answers many queries at once (the batch-serving workload), most of that work is
redundant — queries share the index structures, the angle grid and, for queries
with similar weight vectors, even the useful part of the tree traversal.  This
module amortizes it:

* **Shared traversal.**  Each 2D dimension pair is laid out once per
  execution state as leaf-aligned numpy arrays (live rows, coordinates and
  per-leaf, per-angle intercept bounds) over the leaves a bulk-loaded
  projection tree would have, built from the points without the tree
  (:meth:`_FlatTree.from_sorted`).  Queries whose
  projection angle falls in the same bracket of the angle grid form an *angular
  partition*; the bound resolution onto the bracketing indexed angles (the
  linear interpolation of :class:`repro.core.projection_tree._BoundResolver`)
  is evaluated for a whole partition in one kernel.
* **Vectorized kernels.**  Query angles, per-leaf score bounds, sorted-column
  probes (nearest/farthest distances and candidate ranges via
  ``np.searchsorted``) and exact candidate scoring each run as single numpy
  operations over all queries, or all candidates of one query, instead of
  per-row Python.
* **Filter-and-verify exactness.**  A seeded sample of the dataset gives every
  query ``j`` a lower bound ``L_j`` on its k-th best score.  A point can only
  enter the answer of query ``j`` if the admissible upper bound of its leaf in
  the enumeration subproblem, plus the maximum possible contribution of every
  other subproblem, reaches ``L_j`` — all other leaves are pruned without being
  read.  Survivors are scored with the exact Equation 3 kernel (same
  floating-point term order as :func:`repro.core.query.make_fast_scorer`, so
  scores are bit-identical to the sequential path) and the top ``k`` are
  selected with the deterministic ``(-score, row_id)`` tie-break.

* **Tightened verification.**  The seeded bound alone over-fetches (leaf bounds
  are coarse, and summing per-pair leaf bounds assumes one point is best in
  every pair's leaf at once).  Before exact scoring the engine first swaps
  each survivor's summed-leaf bound for a *tight* bound — the first pair's
  exact partial score plus the remaining pairs' leaf bounds (stage 2a) —
  then exact-scores the best few candidates *by tight bound*, tightens the
  pruning threshold to their exact k-th best, and re-prunes the rest
  (stage 2b).  The leaf bounds themselves come from a refined *bound grid*
  (``_BOUND_GRID_REFINE``) elementwise-min'd with a per-leaf second-pass box
  bound at the exact query angle.  DESIGN.md's "The bound hierarchy" section
  walks each layer and its admissibility argument; the net over-fetch versus
  the sequential oracle is ~1.2x, CI-gated at 2.5
  (``REPRO_BENCH_BATCH_MAX_OVERFETCH``).
* **Maintained sessions.**  A :class:`QuerySession` is not a throw-away
  snapshot: the owning aggregator pushes every ``insert``/``delete``/
  ``bulk_insert``/``bulk_delete`` into its live sessions, which are
  :class:`repro.core.lsm.LsmSession`\\ s — a mutable delta over immutable
  levels, each level one :class:`SessionState` these kernels execute against
  (DESIGN.md section 11).

This makes the flattened arrays the primary execution substrate: the ``m = 1``
fast path of ``SDIndex.query`` runs through the same kernels and stays
bit-identical in score to the legacy threshold traversal, which remains
available as the oracle (``engine="legacy"``).

Exactness note: the single-query threshold algorithm resolves an exact score
tie *at the k-th boundary* in favor of whichever row its traversal surfaced
first; the batch engine resolves the same tie by the smaller row id.  For every
query whose k-th and (k+1)-th best scores differ — in particular any workload
on continuous random data — the two paths return identical row ids and
bit-identical scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.core.angles import refine_angles
from repro.core.deadline import Deadline
from repro.core.epoch import EpochManager
from repro.core.geometry import Angle
from repro.core.projection_tree import bulk_leaf_sizes
from repro.core.query import SDQuery
from repro.core.results import BatchResult, Match, TopKResult

#: Fault point at batch-kernel dispatch: fires once per level the
#: filter-and-verify kernel runs on (``QuerySession._level_filter``) before
#: it enumerates a candidate, so an injected raise or stall models a stuck
#: kernel without ever producing a torn result (DESIGN.md §9).
_FP_KERNEL = faults.declare_fault_point(
    "batch.kernel", "batch kernel dispatch over one pinned session state"
)

__all__ = ["BatchQuerySpec", "QuerySession", "SessionSnapshot", "SessionState"]

# Bounds are stored per angle as (max w_a, min w_a, max w_b, min w_b); keep the
# same order as repro.core.projection_tree.
_MAX_A, _MIN_A, _MAX_B, _MIN_B = range(4)

#: Matches the exact-angle tolerance of ``_BoundResolver``.
_ANGLE_TOLERANCE = 1e-12

#: Matches the component snap tolerance of :class:`repro.core.geometry.Angle`.
_SNAP_TOLERANCE = 1e-12

#: Number of sampled rows used to seed the per-query pruning bound.  Every
#: kernel, the LSM session's pooled seeding included, reads it from this
#: module at call time, so patching it here reaches every engine.
_SEED_POOL = 1024

#: Relative slack subtracted from the pruning bound so float rounding in the
#: bound interpolation can never drop a boundary candidate.  Pruning with a
#: slightly lower bound only admits extra candidates; exactness is unaffected.
_PRUNE_SLACK = 1e-9

#: Additional slack per unit of ``weight * coordinate magnitude``.  The bound
#: arithmetic subtracts intercepts of that magnitude, so its rounding error is
#: a few ulps of it — e.g. ~2e-6 absolute at coordinates around 1e10 — which a
#: purely score-relative slack would miss.  A few hundred ulps of headroom
#: keeps pruning admissible at any magnitude while staying far too small to
#: hurt pruning power.
_MAGNITUDE_SLACK = 1e-12

#: Verification stage: when more candidates than ``max(_VERIFY_POOL, 4k)``
#: survive the seeded filter, exact-score only that many best-by-bound first,
#: tighten the threshold to their exact k-th best and re-prune before the full
#: verify pass.  Cuts the over-fetch of the coarse leaf bounds by ~10x.
_VERIFY_POOL = 64

#: Bound-grid refinement factor: every bracket of the partition grid is
#: subdivided into this many arcs for the *stored* per-leaf bounds (see
#: :func:`repro.core.angles.refine_angles` and DESIGN.md's bound-hierarchy
#: section).  A finer bound grid shrinks the interpolation cone of
#: :func:`leaf_score_bounds` — the dominant over-fetch term — at a pure
#: memory cost (``4 * num_angles`` floats per leaf); the partition grid that
#: shapes the projection trees is untouched, so refinement never rebuilds.
_BOUND_GRID_REFINE = 4

#: Leaves per block when per-leaf bounds are reduced from the points: the
#: intercept temporaries span one block's points, never the whole pair.
_BOUND_BLOCK_LEAVES = 64


def _refine_candidates(
    positions: np.ndarray,
    bounds: np.ndarray,
    k_eff: int,
    score_fn,
    weight_scale: float,
    magnitude: float,
) -> Tuple[np.ndarray, Optional[float], int]:
    """Second-stage filter: tighten the pruning bound with a few exact scores.

    ``bounds`` must be admissible per-candidate upper bounds aligned with
    ``positions``.  Exact-scores the best ``max(_VERIFY_POOL, 4k)`` candidates
    by bound; their k-th best exact score is a valid lower bound on the true
    k-th best, so re-pruning against it (minus the usual float slack) keeps
    every possible answer — including exact ties at the boundary — while
    dropping most of the seeded stage's over-fetch.  Returns the surviving
    positions, the tightened threshold (None when the candidate set was small
    enough to skip refinement) and the number of head candidates scored.
    """
    limit = max(_VERIFY_POOL, 4 * k_eff)
    if len(positions) <= limit:
        return positions, None, 0
    head = np.argpartition(-bounds, limit - 1)[:limit]
    head_scores = score_fn(positions[head])
    kth = np.partition(head_scores, limit - k_eff)[limit - k_eff]
    refined = _prune_bound(
        np.asarray([kth]), np.asarray([weight_scale]), magnitude
    )[0]
    return positions[bounds >= refined], float(refined), limit


def _prune_bound(
    kth_lower_bound: np.ndarray,
    weight_scale: np.ndarray,
    magnitude: float,
) -> np.ndarray:
    """The pruning threshold: the seeded k-th best score minus float slack.

    ``weight_scale`` is each query's total weight mass and ``magnitude`` the
    largest absolute coordinate involved; their product bounds the scale of
    the intercept arithmetic whose rounding the slack must absorb.
    """
    finite = np.where(np.isfinite(kth_lower_bound), kth_lower_bound, 0.0)
    slack = _PRUNE_SLACK * (1.0 + np.abs(finite))
    slack = slack + _MAGNITUDE_SLACK * weight_scale * magnitude
    return kth_lower_bound - slack


def _seed_sample(n_live: int, pool: int) -> np.ndarray:
    """``min(n_live, pool)`` evenly spaced indices into ``n_live`` live rows.

    Strictly increasing as it stands: with at most ``n_live`` points over
    ``[0, n_live - 1]`` the spacing is at least 1, so truncation never
    repeats an index.
    """
    return np.linspace(0, n_live - 1, min(n_live, int(pool))).astype(np.int64)


def _column_magnitude(columns_by_dim: Dict[int, np.ndarray]) -> float:
    """Largest absolute value over the scored columns (0.0 when empty)."""
    magnitude = 0.0
    for column in columns_by_dim.values():
        if len(column):
            magnitude = max(magnitude, float(np.abs(column).max()))
    return magnitude


def _seeded_threshold(
    score_sample,
    ks_eff: np.ndarray,
    n_live: int,
    weight_scale: np.ndarray,
    magnitude: float,
) -> np.ndarray:
    """Per-query pruning thresholds from an evenly spaced seed sample.

    ``score_sample(positions)`` must return the ``(m, pool)`` exact scores of
    the sampled positions, at most ``_SEED_POOL`` of them.  Each query's k-th
    best seed score is a lower bound on its true k-th best, loosened by
    :func:`_prune_bound`'s float slack so pruning stays admissible.  Shared
    by :meth:`QuerySession.run` and :func:`batch_topk_2d` so the two engines
    can never drift apart here.
    """
    sample = _seed_sample(n_live, _SEED_POOL)
    seed_scores = score_sample(sample)
    pool = len(sample)
    kth_lower = np.full(len(ks_eff), -math.inf)
    for j in range(len(ks_eff)):
        k_j = int(ks_eff[j])
        if pool >= k_j:
            kth_lower[j] = np.partition(seed_scores[j], pool - k_j)[pool - k_j]
    return _prune_bound(kth_lower, weight_scale, magnitude)


def select_topk(scores: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best entries by ``(-score, row_id)``.

    Keeps every tie of the k-th score in play before the final deterministic
    sort, so the selection never depends on ``argpartition``'s arbitrary
    ordering of equal keys.
    """
    count = len(scores)
    k = min(k, count)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    negated = -scores
    if count > k:
        kth_value = np.partition(negated, k - 1)[k - 1]
        keep = np.flatnonzero(negated <= kth_value)
        order = np.lexsort((rows[keep], negated[keep]))
        return keep[order[:k]]
    order = np.lexsort((rows, negated))
    return order[:k]


def _coerce_ks(k, num_queries: int) -> np.ndarray:
    """Normalize ``k`` to a validated per-query ``(m,)`` vector of ints >= 1."""
    ks = np.asarray(k, dtype=np.int64)
    if ks.ndim == 0:
        ks = np.full(num_queries, int(ks), dtype=np.int64)
    elif ks.shape != (num_queries,):
        raise ValueError(f"k must be a scalar or an (m,) vector, got shape {ks.shape}")
    if np.any(ks < 1):
        raise ValueError("every k must be >= 1")
    return ks


def coerce_point_batch(qx, qy, k) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize ``(qx, qy, k)`` for the 2D batch entry points.

    Shared by :func:`batch_topk_2d` and ``Top1Index.batch_query`` so the two
    front doors validate identically.  Returns 1-d ``qx``/``qy`` arrays and a
    per-query ``ks`` vector (``k`` scalars broadcast; every k must be >= 1).
    """
    qx = np.atleast_1d(np.asarray(qx, dtype=float))
    qy = np.atleast_1d(np.asarray(qy, dtype=float))
    if qx.shape != qy.shape or qx.ndim != 1:
        raise ValueError("qx and qy must be 1-d arrays of equal length")
    return qx, qy, _coerce_ks(k, len(qx))


def _normalized_components(
    alpha: np.ndarray, beta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``Angle.from_weights``: ``(cos, sin, scale)`` with snapping."""
    scale = np.hypot(alpha, beta)
    cos = alpha / scale
    sin = beta / scale
    snap_cos = np.abs(cos) < _SNAP_TOLERANCE
    snap_sin = np.abs(sin) < _SNAP_TOLERANCE
    cos = np.where(snap_cos, 0.0, np.where(snap_sin, 1.0, cos))
    sin = np.where(snap_cos, 1.0, np.where(snap_sin, 0.0, sin))
    return cos, sin, scale


# --------------------------------------------------------------------- queries
def _weight_matrix(
    values, num_queries: int, width: int, name: str
) -> np.ndarray:
    """Normalize a weight argument to a positive ``(m, width)`` float matrix."""
    if values is None:
        return np.ones((num_queries, width), dtype=float)
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        array = np.full((num_queries, width), float(array))
    elif array.ndim == 1:
        if array.shape[0] != width:
            raise ValueError(
                f"{name} must have {width} entries per query, got {array.shape[0]}"
            )
        array = np.broadcast_to(array, (num_queries, width)).copy()
    elif array.ndim == 2:
        if array.shape != (num_queries, width):
            raise ValueError(
                f"{name} must have shape ({num_queries}, {width}), got {array.shape}"
            )
    else:
        raise ValueError(f"{name} must be a scalar, vector or (m, {width}) matrix")
    if not np.all(np.isfinite(array)) or np.any(array <= 0.0):
        raise ValueError(f"{name} weights must be finite and > 0")
    return array


def _reorder_columns(
    weights: np.ndarray, from_dims: Sequence[int], to_dims: Sequence[int]
) -> np.ndarray:
    """Reorder per-dimension weight columns from one dimension order to another."""
    if tuple(from_dims) == tuple(to_dims):
        return weights
    column_of = {dim: i for i, dim in enumerate(from_dims)}
    return weights[:, [column_of[dim] for dim in to_dims]]


@dataclass
class BatchQuerySpec:
    """A normalized batch of SD-Queries sharing one set of dimension roles.

    ``alpha``/``beta`` columns follow the order of ``repulsive``/``attractive``
    exactly, which is also the floating-point term order of the scoring kernel.
    """

    points: np.ndarray  # (m, d)
    ks: np.ndarray  # (m,)
    alpha: np.ndarray  # (m, |repulsive|)
    beta: np.ndarray  # (m, |attractive|)
    repulsive: Tuple[int, ...]
    attractive: Tuple[int, ...]
    #: Per-query (repulsive, attractive) dimension orders when queries declared
    #: their roles in a different order than the index; None means every query
    #: uses the index order.  Exact scoring accumulates terms in each query's
    #: own order so batch scores stay bit-identical to the sequential path.
    orders: Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = None

    def __len__(self) -> int:
        return len(self.points)

    def term_order(self, j: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The (repulsive, attractive) term order of query ``j``."""
        if self.orders is None:
            return self.repulsive, self.attractive
        return self.orders[j]

    def order_groups(self) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], np.ndarray]:
        """Query indices grouped by term-order signature (usually one group)."""
        if self.orders is None:
            return {
                (self.repulsive, self.attractive): np.arange(len(self), dtype=np.int64)
            }
        grouped: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[int]] = {}
        for j, order in enumerate(self.orders):
            grouped.setdefault(order, []).append(j)
        return {
            order: np.asarray(members, dtype=np.int64)
            for order, members in grouped.items()
        }

    @classmethod
    def coerce(
        cls,
        repulsive: Sequence[int],
        attractive: Sequence[int],
        num_dims: int,
        queries,
        k=None,
        alpha=None,
        beta=None,
    ) -> "BatchQuerySpec":
        """Build a spec from an ``(m, d)`` array, SDQuery sequence or batch workload.

        * ``(m, d)`` array: ``k`` is required; ``alpha``/``beta`` may be scalars,
          per-dimension vectors or ``(m, dims)`` matrices.
        * sequence of :class:`SDQuery`: roles must match; per-query ``k`` and
          weights are taken from the queries (``k``/``alpha``/``beta`` must be
          omitted).
        * an object with ``points``/``ks``/``alphas``/``betas`` attributes (a
          :class:`repro.workloads.workload.BatchWorkload`).
        """
        repulsive = tuple(int(d) for d in repulsive)
        attractive = tuple(int(d) for d in attractive)
        if hasattr(queries, "points") and hasattr(queries, "ks"):
            workload = queries
            if k is not None or alpha is not None or beta is not None:
                raise ValueError("pass either a batch workload or k/weights, not both")
            if set(workload.repulsive) != set(repulsive) or set(
                workload.attractive
            ) != set(attractive):
                raise ValueError(
                    "workload dimension roles do not match the index roles"
                )
            points = np.asarray(workload.points, dtype=float)
            if points.ndim != 2 or points.shape[1] != num_dims:
                raise ValueError(
                    f"workload points must have shape (m, {num_dims}), got {points.shape}"
                )
            if not np.all(np.isfinite(points)):
                raise ValueError("query coordinates must be finite")
            ks = np.asarray(workload.ks, dtype=np.int64)
            if ks.shape != (len(points),):
                raise ValueError(
                    f"workload ks must have shape ({len(points)},), got {ks.shape}"
                )
            if np.any(ks < 1):
                raise ValueError("every k must be >= 1")
            raw_alphas = np.asarray(workload.alphas, dtype=float)
            raw_betas = np.asarray(workload.betas, dtype=float)
            for name, weights, width in (
                ("alpha", raw_alphas, len(repulsive)),
                ("beta", raw_betas, len(attractive)),
            ):
                if weights.shape != (len(points), width):
                    raise ValueError(
                        f"workload {name}s must have shape ({len(points)}, {width}), "
                        f"got {weights.shape}"
                    )
                if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
                    raise ValueError(f"{name} weights must be finite and > 0")
            alphas = _reorder_columns(raw_alphas, workload.repulsive, repulsive)
            betas = _reorder_columns(raw_betas, workload.attractive, attractive)
            workload_order = (
                tuple(int(d) for d in workload.repulsive),
                tuple(int(d) for d in workload.attractive),
            )
            orders = (
                None
                if workload_order == (repulsive, attractive)
                else [workload_order] * len(points)
            )
            return cls(points, ks, alphas, betas, repulsive, attractive, orders=orders)

        if not isinstance(queries, np.ndarray) and len(queries) == 0:
            return cls(
                points=np.empty((0, num_dims), dtype=float),
                ks=np.empty(0, dtype=np.int64),
                alpha=np.empty((0, len(repulsive)), dtype=float),
                beta=np.empty((0, len(attractive)), dtype=float),
                repulsive=repulsive,
                attractive=attractive,
            )
        if len(queries) and isinstance(queries[0], SDQuery):
            if k is not None or alpha is not None or beta is not None:
                raise ValueError("pass either SDQuery objects or k/weights, not both")
            points = np.empty((len(queries), num_dims), dtype=float)
            ks = np.empty(len(queries), dtype=np.int64)
            alphas = np.empty((len(queries), len(repulsive)), dtype=float)
            betas = np.empty((len(queries), len(attractive)), dtype=float)
            orders: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
            for j, query in enumerate(queries):
                if set(query.repulsive) != set(repulsive) or set(
                    query.attractive
                ) != set(attractive):
                    raise ValueError(
                        "query dimension roles do not match the index roles"
                    )
                if query.num_dims != num_dims:
                    raise ValueError(
                        f"query {j} has {query.num_dims} dimensions, expected {num_dims}"
                    )
                points[j] = query.point
                ks[j] = query.k
                alpha_of = dict(zip(query.repulsive, query.alpha))
                beta_of = dict(zip(query.attractive, query.beta))
                alphas[j] = [alpha_of[dim] for dim in repulsive]
                betas[j] = [beta_of[dim] for dim in attractive]
                orders.append((query.repulsive, query.attractive))
            if all(order == (repulsive, attractive) for order in orders):
                return cls(points, ks, alphas, betas, repulsive, attractive)
            return cls(points, ks, alphas, betas, repulsive, attractive, orders=orders)

        points = np.atleast_2d(np.asarray(queries, dtype=float))
        if points.ndim != 2 or points.shape[1] != num_dims:
            raise ValueError(
                f"query points must have shape (m, {num_dims}), got {points.shape}"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("query coordinates must be finite")
        m = len(points)
        if k is None:
            raise ValueError("k is required when querying with raw points")
        ks = _coerce_ks(k, m)
        alphas = _weight_matrix(alpha, m, len(repulsive), "alpha")
        betas = _weight_matrix(beta, m, len(attractive), "beta")
        return cls(points, ks, alphas, betas, repulsive, attractive)

    def subset(self, js) -> "BatchQuerySpec":
        """The spec restricted to the query indices ``js`` (order preserved).

        The sharded serving engine uses this to hand each shard probe only the
        queries that still need that shard, without re-validating the batch.
        """
        js = np.asarray(js, dtype=np.int64)
        return BatchQuerySpec(
            points=self.points[js],
            ks=self.ks[js],
            alpha=self.alpha[js],
            beta=self.beta[js],
            repulsive=self.repulsive,
            attractive=self.attractive,
            orders=None
            if self.orders is None
            else [self.orders[int(j)] for j in js],
        )

    def query(self, j: int) -> SDQuery:
        """Single-query view of batch member ``j`` (for oracles and tests)."""
        return SDQuery.simple(
            point=self.points[j],
            repulsive=self.repulsive,
            attractive=self.attractive,
            k=int(self.ks[j]),
            alpha=self.alpha[j],
            beta=self.beta[j],
        )


# ------------------------------------------------------------- tree flattening
class _FlatTree:
    """A projection tree's leaf partition as leaf-aligned numpy arrays.

    This is the shared-traversal state: every batch query works on the
    arrays — live rows, coordinates, per-leaf/per-angle intercept bounds and
    the position-to-leaf map used to expand surviving leaves into candidate
    positions.  ``_FlatTree(tree)`` walks a built tree once in x order (the
    :class:`~repro.core.topk.TopKIndex` path); :meth:`from_sorted` builds the
    same arrays from x-sorted points and :func:`bulk_leaf_sizes`, which is
    how every execution state is built — no tree at all.

    Only :class:`~repro.core.topk.TopKIndex` patches a flat view:
    :meth:`append_points` adds new rows by assigning them to the covering
    leaf and loosening that leaf's per-angle bounds (admissible, merely
    looser), and :meth:`tombstone_rows` marks deletions in the ``live``
    validity mask.  Both accumulate garbage that :meth:`garbage_fraction`
    reports so the index can reflatten past a threshold.  The pair views of
    an LSM level are never patched: a level's deletes clear its own validity
    mask, and its inserts land in the delta (DESIGN.md section 11).
    """

    __slots__ = (
        "angles",
        "rows",
        "x",
        "y",
        "live",
        "leaf_bounds",
        "leaf_min_x",
        "leaf_max_x",
        "leaf_min_y",
        "leaf_max_y",
        "leaf_of_pos",
        "num_leaves",
        "appended",
        "dead",
        "grid_cos",
        "grid_sin",
        "grid_rad",
        "_pos_of_row",
    )

    def __init__(self, tree) -> None:
        leaves = []
        stack = [tree._root] if tree._root is not None else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.count > 0:
                    leaves.append(node)
            else:
                stack.extend(reversed(node.children))

        tombstones = tree._tombstones
        pristine = not tombstones and tree._num_extras == 0 and all(
            not leaf.extra_rows for leaf in leaves
        )
        if pristine:
            # Bulk-loaded tree with no updates: the sorted arrays are already
            # leaf-aligned, so the flat view is zero-copy.
            self.rows = tree._rows
            self.x = tree._x
            self.y = tree._y
            sizes = [leaf.stop - leaf.start for leaf in leaves]
        else:
            tombstone_array = (
                np.fromiter(tombstones, dtype=np.int64, count=len(tombstones))
                if tombstones
                else None
            )
            row_parts: List[np.ndarray] = []
            x_parts: List[np.ndarray] = []
            y_parts: List[np.ndarray] = []
            sizes = []
            for leaf in leaves:
                part_rows: List[np.ndarray] = []
                part_x: List[np.ndarray] = []
                part_y: List[np.ndarray] = []
                if leaf.stop > leaf.start:
                    slice_rows = tree._rows[leaf.start : leaf.stop]
                    slice_x = tree._x[leaf.start : leaf.stop]
                    slice_y = tree._y[leaf.start : leaf.stop]
                    if tombstone_array is not None:
                        live = ~np.isin(slice_rows, tombstone_array)
                        slice_rows = slice_rows[live]
                        slice_x = slice_x[live]
                        slice_y = slice_y[live]
                    part_rows.append(slice_rows)
                    part_x.append(slice_x)
                    part_y.append(slice_y)
                if leaf.extra_rows:
                    keep = [
                        i
                        for i, row in enumerate(leaf.extra_rows)
                        if row not in tombstones
                    ]
                    if keep:
                        part_rows.append(
                            np.array([leaf.extra_rows[i] for i in keep], dtype=np.int64)
                        )
                        part_x.append(
                            np.array([leaf.extra_x[i] for i in keep], dtype=float)
                        )
                        part_y.append(
                            np.array([leaf.extra_y[i] for i in keep], dtype=float)
                        )
                size = sum(len(part) for part in part_rows)
                if size == 0:
                    continue
                row_parts.extend(part_rows)
                x_parts.extend(part_x)
                y_parts.extend(part_y)
                sizes.append(size)
            self.rows = (
                np.concatenate(row_parts) if row_parts else np.empty(0, dtype=np.int64)
            )
            self.x = np.concatenate(x_parts) if x_parts else np.empty(0, dtype=float)
            self.y = np.concatenate(y_parts) if y_parts else np.empty(0, dtype=float)

        self._index_leaves(tree.angles, sizes)

    @classmethod
    def from_sorted(
        cls,
        angles: Sequence[Angle],
        rows: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        sizes,
    ) -> "_FlatTree":
        """The flat view straight from x-sorted arrays and leaf sizes.

        ``rows``/``x``/``y`` are sorted by x and ``sizes`` partitions them
        into consecutive leaves — with :func:`bulk_leaf_sizes`, exactly the
        arrays ``_FlatTree(ProjectionTree(...))`` flattens a fresh bulk load
        into, without building the tree.  ``angles`` is the partition grid.
        """
        flat = cls.__new__(cls)
        flat.rows = rows
        flat.x = x
        flat.y = y
        flat._index_leaves(angles, sizes)
        return flat

    def _index_leaves(self, angles: Sequence[Angle], sizes) -> None:
        """Leaf map, bound grid, per-leaf bounds and validity mask over the
        leaf-aligned ``rows``/``x``/``y``."""
        sizes = np.asarray(sizes, dtype=np.int64)
        # The *bound grid*: the partition grid with every bracket subdivided.
        # Stored bounds are recomputed from the points on this finer grid,
        # decoupling bound resolution from the partition grid — refinement
        # costs memory, never a rebuild (DESIGN.md).
        self.angles: Tuple[Angle, ...] = refine_angles(angles, _BOUND_GRID_REFINE)
        self.num_leaves = len(sizes)
        self.leaf_of_pos = np.repeat(
            np.arange(self.num_leaves, dtype=np.int64), sizes
        )
        self.grid_cos = np.array([angle.cos for angle in self.angles])
        self.grid_sin = np.array([angle.sin for angle in self.angles])
        self.grid_rad = np.array([angle.radians for angle in self.angles])
        self._recompute_leaf_bounds(sizes)
        self.live = np.ones(len(self.rows), dtype=bool)
        self.appended = 0
        self.dead = 0
        self._pos_of_row: Optional[Dict[int, int]] = None

    def _recompute_leaf_bounds(self, sizes: np.ndarray) -> None:
        """Per-leaf bounds recomputed from the stored points on the bound grid.

        At flatten time each leaf's points occupy one contiguous segment of the
        flat arrays, so every per-angle intercept extreme — and the leaf's own
        coordinate box (``leaf_min_y``/``leaf_max_y`` feed the second-pass box
        bound of :func:`leaf_score_bounds`) — reduces over the segment starts
        in one ``reduceat`` per statistic.  Recomputing from points instead of
        copying the tree's node bounds keeps the bounds tight on the *refined*
        bound grid and sheds any looseness the tree accumulated from updates
        (tombstoned rows widen node bounds; here they are simply absent).
        The intercepts are formed and reduced ``_BOUND_BLOCK_LEAVES`` leaves
        at a time, with the same float operations as one pass over the pair.
        """
        num_angles = len(self.grid_rad)
        if self.num_leaves == 0:
            self.leaf_bounds = np.empty((0, num_angles, 4), dtype=float)
            self.leaf_min_x = np.empty(0, dtype=float)
            self.leaf_max_x = np.empty(0, dtype=float)
            self.leaf_min_y = np.empty(0, dtype=float)
            self.leaf_max_y = np.empty(0, dtype=float)
            return
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        ends = np.append(starts[1:], len(self.x))
        cos = self.grid_cos[:, None]
        sin = self.grid_sin[:, None]
        bounds = np.empty((self.num_leaves, num_angles, 4), dtype=float)
        for first in range(0, self.num_leaves, _BOUND_BLOCK_LEAVES):
            last = min(first + _BOUND_BLOCK_LEAVES, self.num_leaves)
            lo, hi = starts[first], ends[last - 1]
            cy = cos * self.y[None, lo:hi]
            sx = sin * self.x[None, lo:hi]
            wa = cy + sx
            wb = cy - sx
            local = starts[first:last] - lo
            block = bounds[first:last]
            block[:, :, _MAX_A] = np.maximum.reduceat(wa, local, axis=1).T
            block[:, :, _MIN_A] = np.minimum.reduceat(wa, local, axis=1).T
            block[:, :, _MAX_B] = np.maximum.reduceat(wb, local, axis=1).T
            block[:, :, _MIN_B] = np.minimum.reduceat(wb, local, axis=1).T
        self.leaf_bounds = bounds
        self.leaf_min_x = np.minimum.reduceat(self.x, starts)
        self.leaf_max_x = np.maximum.reduceat(self.x, starts)
        self.leaf_min_y = np.minimum.reduceat(self.y, starts)
        self.leaf_max_y = np.maximum.reduceat(self.y, starts)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def live_count(self) -> int:
        return len(self.rows) - self.dead

    # ------------------------------------------------------------ maintenance
    def append_points(self, row_ids, xs, ys) -> np.ndarray:
        """Patch new points in: assign leaves, loosen bounds, extend the arrays.

        Each point lands in the leaf whose x-range covers it (the leaves are in
        x order, so a ``searchsorted`` on the leaf upper bounds finds it); the
        leaf's x-span and per-angle intercept bounds are loosened to admit the
        point, which keeps every stored bound admissible.  Returns the leaf id
        assigned to each appended point.  Callers must not append into an
        empty flat view (``num_leaves == 0``) — reflatten instead.
        """
        if self.num_leaves == 0:
            raise RuntimeError("cannot append into an empty flat view; reflatten")
        row_ids = np.asarray(row_ids, dtype=np.int64)
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        leaves = np.clip(
            np.searchsorted(self.leaf_max_x, xs, side="left"), 0, self.num_leaves - 1
        )
        np.minimum.at(self.leaf_min_x, leaves, xs)
        np.maximum.at(self.leaf_max_x, leaves, xs)
        np.minimum.at(self.leaf_min_y, leaves, ys)
        np.maximum.at(self.leaf_max_y, leaves, ys)
        for ai in range(len(self.grid_rad)):
            wa = self.grid_cos[ai] * ys + self.grid_sin[ai] * xs
            wb = self.grid_cos[ai] * ys - self.grid_sin[ai] * xs
            np.maximum.at(self.leaf_bounds[:, ai, _MAX_A], leaves, wa)
            np.minimum.at(self.leaf_bounds[:, ai, _MIN_A], leaves, wa)
            np.maximum.at(self.leaf_bounds[:, ai, _MAX_B], leaves, wb)
            np.minimum.at(self.leaf_bounds[:, ai, _MIN_B], leaves, wb)
        if self._pos_of_row is not None:
            start = len(self.rows)
            for offset, row in enumerate(row_ids):
                self._pos_of_row[int(row)] = start + offset
        self.rows = np.concatenate([self.rows, row_ids])
        self.x = np.concatenate([self.x, xs])
        self.y = np.concatenate([self.y, ys])
        self.leaf_of_pos = np.concatenate([self.leaf_of_pos, leaves])
        self.live = np.concatenate([self.live, np.ones(len(row_ids), dtype=bool)])
        self.appended += len(row_ids)
        return leaves

    def tombstone_rows(self, row_ids) -> None:
        """Mark rows dead in the validity mask (bounds stay admissible)."""
        if self._pos_of_row is None:
            self._pos_of_row = {int(row): i for i, row in enumerate(self.rows)}
        for row in row_ids:
            position = self._pos_of_row[int(row)]
            if self.live[position]:
                self.live[position] = False
                self.dead += 1

    def garbage_fraction(self) -> float:
        """Accumulated garbage + imbalance relative to the live population.

        Saturates (divides by 1) once every row is tombstoned, so a fully
        emptied view reports huge garbage instead of dividing by zero — the
        owner reflattens it into a valid empty view on the next access.
        """
        return (self.appended + self.dead) / max(self.live_count, 1)

    def clone(self) -> "_FlatTree":
        """Copy-on-write duplicate for epoch-published maintenance.

        Shares the large append-replaced arrays (``rows``/``x``/``y``/
        ``leaf_of_pos`` are swapped wholesale by :meth:`append_points`) and
        copies exactly the ones maintenance mutates in place: the validity
        mask, the per-leaf bounds and x-spans, and the lazy id->position map.
        A reader holding the original therefore never observes the clone's
        subsequent patches.
        """
        dup = _FlatTree.__new__(_FlatTree)
        dup.angles = self.angles
        dup.rows = self.rows
        dup.x = self.x
        dup.y = self.y
        dup.live = self.live.copy()
        dup.leaf_bounds = self.leaf_bounds.copy()
        dup.leaf_min_x = self.leaf_min_x.copy()
        dup.leaf_max_x = self.leaf_max_x.copy()
        dup.leaf_min_y = self.leaf_min_y.copy()
        dup.leaf_max_y = self.leaf_max_y.copy()
        dup.leaf_of_pos = self.leaf_of_pos
        dup.num_leaves = self.num_leaves
        dup.appended = self.appended
        dup.dead = self.dead
        dup.grid_cos = self.grid_cos
        dup.grid_sin = self.grid_sin
        dup.grid_rad = self.grid_rad
        dup._pos_of_row = (
            None if self._pos_of_row is None else dict(self._pos_of_row)
        )
        return dup

    def collapsed(self) -> "_CollapsedTree":
        """A one-pseudo-leaf view aggregating every leaf's stored bounds.

        Feeding the view to :func:`leaf_score_bounds` yields an admissible
        upper bound on the 2D partial score of *any* stored point, in O(1)
        leaves per query — the whole-shard bound the sharded serving engine
        prunes with.  Tombstoned rows may loosen the aggregate (never tighten
        it), so the bound stays admissible across maintenance.
        """
        return _CollapsedTree(self)


class _CollapsedTree:
    """The aggregate of a :class:`_FlatTree`'s leaves as a single pseudo-leaf."""

    __slots__ = (
        "leaf_bounds",
        "leaf_min_x",
        "leaf_max_x",
        "leaf_min_y",
        "leaf_max_y",
        "num_leaves",
        "grid_cos",
        "grid_sin",
        "grid_rad",
    )

    def __init__(self, flat: _FlatTree) -> None:
        self.grid_cos = flat.grid_cos
        self.grid_sin = flat.grid_sin
        self.grid_rad = flat.grid_rad
        num_angles = len(flat.grid_rad)
        if flat.num_leaves == 0:
            self.num_leaves = 0
            self.leaf_bounds = np.empty((0, num_angles, 4), dtype=float)
            self.leaf_min_x = np.empty(0, dtype=float)
            self.leaf_max_x = np.empty(0, dtype=float)
            self.leaf_min_y = np.empty(0, dtype=float)
            self.leaf_max_y = np.empty(0, dtype=float)
            return
        self.num_leaves = 1
        bounds = np.empty((1, num_angles, 4), dtype=float)
        bounds[0, :, _MAX_A] = flat.leaf_bounds[:, :, _MAX_A].max(axis=0)
        bounds[0, :, _MIN_A] = flat.leaf_bounds[:, :, _MIN_A].min(axis=0)
        bounds[0, :, _MAX_B] = flat.leaf_bounds[:, :, _MAX_B].max(axis=0)
        bounds[0, :, _MIN_B] = flat.leaf_bounds[:, :, _MIN_B].min(axis=0)
        self.leaf_bounds = bounds
        self.leaf_min_x = np.asarray([flat.leaf_min_x.min()])
        self.leaf_max_x = np.asarray([flat.leaf_max_x.max()])
        self.leaf_min_y = np.asarray([flat.leaf_min_y.min()])
        self.leaf_max_y = np.asarray([flat.leaf_max_y.max()])
        # Every reader of a level state shares its collapsed views.
        for array in (
            bounds, self.leaf_min_x, self.leaf_max_x, self.leaf_min_y, self.leaf_max_y
        ):
            array.setflags(write=False)


def leaf_score_bounds(
    flat: _FlatTree,
    alpha: np.ndarray,
    beta: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
) -> np.ndarray:
    """Admissible per-leaf upper bounds on the weighted 2D partial score.

    Returns an ``(m, num_leaves)`` array: entry ``(j, l)`` bounds
    ``alpha_j*|y - qy_j| - beta_j*|x - qx_j|`` over every live point of leaf
    ``l``.  Queries are grouped by angular partition (the bracketing indexed
    angles of the grid) and each partition resolves the stored per-angle bounds
    in one kernel — the batched equivalent of ``_BoundResolver``.

    The weighted intercepts ``W_a = a*y + b*x`` and ``W_b = a*y - b*x`` are
    linear in ``(a, b)``, so writing ``(a, b)`` as a non-negative combination
    of the bracketing indexed angle vectors turns the stored normalized bounds
    into admissible weighted bounds.  The partial score of any point is then
    bounded by the best of the four projection-stream expressions, each applied
    only to leaves that can hold points on its side of the query axis (the
    vectorized form of ``ProjectionStream._eligible_node``).
    """
    m = len(alpha)
    bounds = flat.leaf_bounds
    ub = np.full((m, flat.num_leaves), math.inf)
    if flat.num_leaves == 0:
        return ub
    grid_cos = flat.grid_cos
    grid_sin = flat.grid_sin
    grid_rad = flat.grid_rad
    num_angles = len(grid_rad)

    cos, sin, _scale = _normalized_components(alpha, beta)
    theta = np.arctan2(sin, cos)
    positions = np.searchsorted(grid_rad, theta)

    groups: Dict[Tuple[int, int], List[int]] = {}
    for j in range(m):
        i = int(positions[j])
        if i < num_angles and abs(grid_rad[i] - theta[j]) <= _ANGLE_TOLERANCE:
            key = (i, i)
        elif i > 0 and abs(grid_rad[i - 1] - theta[j]) <= _ANGLE_TOLERANCE:
            key = (i - 1, i - 1)
        else:
            lower = min(max(i - 1, 0), num_angles - 2)
            key = (lower, lower + 1)
        groups.setdefault(key, []).append(j)

    for (lower, upper), members in groups.items():
        js = np.asarray(members, dtype=np.int64)
        a = alpha[js]
        b = beta[js]
        if lower == upper:
            lam = np.hypot(a, b)[:, None]
            wa_max = lam * bounds[:, lower, _MAX_A][None, :]
            wa_min = lam * bounds[:, lower, _MIN_A][None, :]
            wb_max = lam * bounds[:, lower, _MAX_B][None, :]
            wb_min = lam * bounds[:, lower, _MIN_B][None, :]
        else:
            det = grid_cos[lower] * grid_sin[upper] - grid_sin[lower] * grid_cos[upper]
            lam_l = np.maximum((a * grid_sin[upper] - b * grid_cos[upper]) / det, 0.0)[
                :, None
            ]
            lam_u = np.maximum((grid_cos[lower] * b - grid_sin[lower] * a) / det, 0.0)[
                :, None
            ]
            wa_max = (
                lam_l * bounds[:, lower, _MAX_A][None, :]
                + lam_u * bounds[:, upper, _MAX_A][None, :]
            )
            wa_min = (
                lam_l * bounds[:, lower, _MIN_A][None, :]
                + lam_u * bounds[:, upper, _MIN_A][None, :]
            )
            wb_max = (
                lam_l * bounds[:, lower, _MAX_B][None, :]
                + lam_u * bounds[:, upper, _MAX_B][None, :]
            )
            wb_min = (
                lam_l * bounds[:, lower, _MIN_B][None, :]
                + lam_u * bounds[:, upper, _MIN_B][None, :]
            )
        aqy = (a * qy[js])[:, None]
        bqx = (b * qx[js])[:, None]
        # Left formulas (W_a for lower, W_b for upper) only bound points with
        # x <= qx; right formulas the mirror image.  Mask each expression to
        # the leaves that can hold eligible points.
        left = flat.leaf_min_x[None, :] <= qx[js][:, None]
        right = flat.leaf_max_x[None, :] >= qx[js][:, None]
        left_lower = np.where(left, wa_max - bqx - aqy, -math.inf)
        right_lower = np.where(right, wb_max + bqx - aqy, -math.inf)
        right_upper = np.where(right, aqy + bqx - wa_min, -math.inf)
        left_upper = np.where(left, aqy - bqx - wb_min, -math.inf)
        ub[js] = np.maximum(
            np.maximum(left_lower, right_lower),
            np.maximum(right_upper, left_upper),
        )
    # Leaf second pass: intersect with the exact-angle *box bound* from each
    # leaf's own coordinate extrema — ``alpha * max |y - qy|`` over the leaf's
    # y-range minus ``beta * dist(qx, x-range)``.  Unlike the interpolated
    # intercept bounds above it pays no angle-grid resolution error at all;
    # it is loose only in the other coordinate's correlation.  Both are
    # admissible upper bounds on the same partial score, so their minimum is
    # too (admissibility argument: DESIGN.md, bound hierarchy).
    far_y = np.maximum(
        np.abs(flat.leaf_min_y[None, :] - qy[:, None]),
        np.abs(flat.leaf_max_y[None, :] - qy[:, None]),
    )
    gap_x = np.maximum(
        0.0,
        np.maximum(
            flat.leaf_min_x[None, :] - qx[:, None],
            qx[:, None] - flat.leaf_max_x[None, :],
        ),
    )
    np.minimum(ub, alpha[:, None] * far_y - beta[:, None] * gap_x, out=ub)
    return ub


# ------------------------------------------------------------------- sessions
class SessionState:
    """The frozen execution state of one LSM level.

    Everything the vectorized kernels read lives here: the level's row ids
    and coordinate matrix, the validity mask, the per-pair flat views
    (with their per-leaf bounds), the sorted-column arrays and the
    id->position maps.  A state is never mutated once published: readers
    pin it (inside an LSM level) through the session's
    :class:`~repro.core.epoch.EpochManager` and execute entirely against it,
    so writers preparing the next state can never tear a read.  A delete
    replaces the level's state with a successor that copies only ``live``
    and counts the dead row in ``tombstoned`` (:meth:`with_tombstones`).

    **Read constants.**  What every read of the level would otherwise
    recompute — each pair's collapsed bound, the level's magnitude and its
    live positions — is filled lazily, once, by the first read that needs
    it (never at build or restore: the flat path needs no collapsed bound).
    Each is a pure function of the state's immutable arrays, so two readers
    racing to fill one merely compute it twice.  The collapsed bounds and
    the magnitude read only arrays a tombstoned successor shares, and dead
    rows only loosen them, so the successor shares them too; its live
    positions are its own, recomputed on its first read.
    """

    __slots__ = (
        "rows",
        "matrix",
        "live",
        "num_live",
        "row_order",
        "sorted_rows",
        "columns_by_dim",
        "pairs",
        "pair_leaf_of_position",
        "col_values",
        "col_positions",
        "tombstoned",
        "_constants",
        "_live_positions",
    )

    def __init__(
        self,
        rows: np.ndarray,
        matrix: np.ndarray,
        live: np.ndarray,
        num_live: int,
        row_order: np.ndarray,
        sorted_rows: np.ndarray,
        columns_by_dim: Dict[int, np.ndarray],
        pairs: List[Tuple[int, int, _FlatTree]],
        pair_leaf_of_position: List[np.ndarray],
        col_values: Dict[int, np.ndarray],
        col_positions: Dict[int, np.ndarray],
        tombstoned: int = 0,
    ) -> None:
        self.rows = rows
        self.matrix = matrix
        self.live = live
        self.num_live = num_live
        self.row_order = row_order
        self.sorted_rows = sorted_rows
        self.columns_by_dim = columns_by_dim
        self.pairs = pairs
        self.pair_leaf_of_position = pair_leaf_of_position
        self.col_values = col_values
        self.col_positions = col_positions
        self.tombstoned = tombstoned
        #: ``"collapsed"`` and ``"magnitude"``, shared with every successor.
        self._constants: Dict[str, object] = {}
        self._live_positions: Optional[np.ndarray] = None

    def with_tombstones(self, positions: np.ndarray) -> "SessionState":
        """The successor with ``positions`` dead: a copied mask, shared arrays
        and shared collapsed bounds and magnitude."""
        live = self.live.copy()
        live[positions] = False
        successor = SessionState(
            rows=self.rows,
            matrix=self.matrix,
            live=live,
            num_live=self.num_live - len(positions),
            row_order=self.row_order,
            sorted_rows=self.sorted_rows,
            columns_by_dim=self.columns_by_dim,
            pairs=self.pairs,
            pair_leaf_of_position=self.pair_leaf_of_position,
            col_values=self.col_values,
            col_positions=self.col_positions,
            tombstoned=self.tombstoned + len(positions),
        )
        successor._constants = self._constants
        return successor

    def live_positions(self) -> np.ndarray:
        """Positions of the live rows, ascending (filled on first read)."""
        positions = self._live_positions
        if positions is None:
            positions = np.flatnonzero(self.live)
            positions.setflags(write=False)
            self._live_positions = positions
        return positions

    def collapsed_pairs(self) -> Tuple["_CollapsedTree", ...]:
        """Each pair's :meth:`_FlatTree.collapsed` view (filled on first read)."""
        collapsed = self._constants.get("collapsed")
        if collapsed is None:
            collapsed = tuple(flat.collapsed() for _rep, _att, flat in self.pairs)
            self._constants["collapsed"] = collapsed
        return collapsed

    def magnitude(self) -> float:
        """Largest absolute scored coordinate, dead rows included (filled on
        first read)."""
        magnitude = self._constants.get("magnitude")
        if magnitude is None:
            magnitude = _column_magnitude(self.columns_by_dim)
            self._constants["magnitude"] = magnitude
        return magnitude

    def live_row_ids(self) -> np.ndarray:
        """Row ids alive in this epoch (frozen-oracle support for tests)."""
        return self.rows[self.live]

    def live_matrix(self) -> np.ndarray:
        """Coordinates of the live rows, aligned with :meth:`live_row_ids`."""
        return self.matrix[self.live]


class QuerySession:
    """Shared-traversal batch execution over one :class:`SubproblemAggregator`.

    A session snapshots the aggregator's live point set and lays out one
    flat view per dimension pair over it, straight from the sorted arrays
    with no projection tree (:meth:`_state_from_rows`); any number of
    batches (or single queries, via
    :meth:`run_one`) can then be answered against the shared state with
    :meth:`run`.

    This class is the read side: the vectorized kernels over one level's
    :class:`SessionState` (``_level_*``, ``_source_*``; :meth:`_level_execute`
    seeds its own threshold, :meth:`_level_filter` takes one) and the epoch
    manager readers pin.  Its subclass :class:`repro.core.lsm.LsmSession`,
    the one session each aggregator owns, publishes layered worlds of such
    levels plus a delta.  It supplies :meth:`_build`, the ``apply_*`` write
    surface and the world-level ``_execute``/``_upper_bounds``/
    ``_sample_scores``/``_data_magnitude`` that :meth:`run` and the bound
    queries call, each of which runs these kernels per level.

    **Concurrency.**  Published states are immutable (DESIGN.md section 6):
    every update builds a successor copy-on-write and publishes it
    atomically, so readers that pinned an epoch — via :meth:`snapshot` or
    implicitly per :meth:`run` — are immune to concurrent writers.
    """

    def __init__(
        self,
        aggregator,
        population: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        self._aggregator = aggregator
        #: Epoch manager of the published execution states; readers pin, the
        #: writer (the owning aggregator's patch path) publishes.
        self.epochs = EpochManager()
        #: Lifetime maintenance counters (survive reflattening).
        self.reflattens = 0
        self.patched_inserts = 0
        self.patched_deletes = 0
        self._build(population)

    # ------------------------------------------------------------------ state
    @property
    def _state(self) -> SessionState:
        """The current (most recently published) execution state.

        Read atomically through the epoch manager: a publish racing this read
        may reclaim the *epoch*, but the returned state object itself is
        immutable and stays valid for the holder.
        """
        return self.epochs.current_state()

    def _build(self, population=None) -> None:
        """(Re)build and publish the execution state (the subclass's job)."""
        raise NotImplementedError

    def _state_from_rows(self, rows: np.ndarray, matrix: np.ndarray) -> SessionState:
        """Build a frozen execution state over exactly ``rows``/``matrix``.

        The one builder of an execution state: session (re)builds, flushes
        and merges all come here.  Each pair's flat view is built straight
        from the given coordinates — a stable x sort plus the bulk loader's
        leaf partition (:func:`bulk_leaf_sizes`), the arrays a fresh
        projection tree would flatten into, with no tree built — and the
        sorted columns are sorted from them too.  Nothing is read from the
        aggregator's mutable structures, so a compactor may call this
        without any lock held.
        """
        aggregator = self._aggregator
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        matrix = np.ascontiguousarray(matrix, dtype=float)
        # kind="stable" so equal keys can never reorder across platforms —
        # the bit-identical differential-fuzz guarantees depend on it.
        order = np.argsort(rows, kind="stable")
        scored_dims = set(aggregator.repulsive) | set(aggregator.attractive)
        state = SessionState(
            rows=rows,
            matrix=matrix,
            live=np.ones(len(rows), dtype=bool),
            num_live=len(rows),
            row_order=order,
            sorted_rows=rows[order],
            columns_by_dim={
                dim: np.ascontiguousarray(matrix[:, dim]) for dim in scored_dims
            },
            pairs=[],
            pair_leaf_of_position=[],
            col_values={},
            col_positions={},
        )
        angles = tuple(aggregator.angle_grid)
        sizes = bulk_leaf_sizes(len(rows), aggregator.branching, aggregator.leaf_capacity)
        for rep_dim, att_dim in aggregator.pairing.pairs:
            x = matrix[:, att_dim]
            # Snapshot position of each flat position (the rows are unique).
            by_x = np.argsort(x, kind="stable")
            flat = _FlatTree.from_sorted(
                angles, rows[by_x], x[by_x], matrix[by_x, rep_dim], sizes
            )
            state.pairs.append((rep_dim, att_dim, flat))
            # Inverse map: which leaf of this pair holds each snapshot position.
            leaf_of_position = np.empty(len(rows), dtype=np.int64)
            leaf_of_position[by_x] = flat.leaf_of_pos
            state.pair_leaf_of_position.append(leaf_of_position)
        for dim in aggregator._column_dims:
            values = np.ascontiguousarray(matrix[:, dim])
            value_order = np.argsort(values, kind="stable")
            state.col_values[dim] = values[value_order]
            state.col_positions[dim] = value_order.astype(np.int64)
        return state

    # -------------------------------------------------------------- maintenance
    def reflatten(self) -> None:
        """Rebuild the state from the live rows now (counts in ``reflattens``)."""
        with self._aggregator.write_lock:
            self.reflattens += 1
            self._build()

    def garbage_fraction(self) -> float:
        """Garbage + imbalance of the current state relative to live rows.

        Defined (saturating denominator) even when every row is tombstoned.
        """
        return self._state.garbage_fraction()

    def maintenance_stats(self) -> Dict[str, int]:
        """Counters describing how the session has been kept alive."""
        state = self._state
        return {
            "patched_inserts": self.patched_inserts,
            "patched_deletes": self.patched_deletes,
            "reflattens": self.reflattens,
            "appended_since_flatten": state.appended,
            "tombstoned_since_flatten": state.tombstoned,
            "live_rows": state.num_live,
            "epoch_version": self.epochs.version,
            "epochs_live": self.epochs.live_epochs,
        }

    # ------------------------------------------------------------------ snapshots
    def snapshot(self) -> "SessionSnapshot":
        """Pin the current epoch and return an immutable read view.

        The view answers :meth:`run`/:meth:`run_one`/bound queries against the
        pinned :class:`SessionState` no matter what writers do afterwards; use
        it as a context manager (or call ``close()``) to release the pin so
        the epoch can be reclaimed.
        """
        return SessionSnapshot(self, self.epochs.pin())

    # ------------------------------------------------------------------ helpers
    def _weight_column(self, spec: BatchQuerySpec, dim: int) -> np.ndarray:
        """The per-query weight column of a scored dimension."""
        aggregator = self._aggregator
        if dim in aggregator.repulsive:
            return spec.alpha[:, aggregator.repulsive.index(dim)]
        return spec.beta[:, aggregator.attractive.index(dim)]

    def _score_block(
        self, state: SessionState, positions: np.ndarray, spec: BatchQuerySpec
    ) -> np.ndarray:
        """Scores of the sampled positions for every query: ``(m, p)``.

        Always accumulates in index term order — the result only seeds the
        pruning bound, and ``_PRUNE_SLACK`` absorbs any ulp-level difference
        from a query's own term order.
        """
        aggregator = self._aggregator
        scores = np.zeros((len(spec), len(positions)))
        for i, dim in enumerate(aggregator.repulsive):
            values = state.columns_by_dim[dim][positions]
            scores += spec.alpha[:, i][:, None] * np.abs(
                values[None, :] - spec.points[:, dim][:, None]
            )
        for i, dim in enumerate(aggregator.attractive):
            values = state.columns_by_dim[dim][positions]
            scores -= spec.beta[:, i][:, None] * np.abs(
                values[None, :] - spec.points[:, dim][:, None]
            )
        return scores

    def _score_one(
        self, state: SessionState, positions: np.ndarray, spec: BatchQuerySpec, j: int
    ) -> np.ndarray:
        """Exact scores of candidate positions for query ``j``.

        Accumulates the weighted terms in the query's own role order — the
        exact floating-point order of
        :func:`repro.core.query.make_fast_scorer` — so each score is
        bit-identical to the sequential path's.
        """
        aggregator = self._aggregator
        rep_order, att_order = spec.term_order(j)
        scores = np.zeros(len(positions))
        for dim in rep_order:
            weight = spec.alpha[j, aggregator.repulsive.index(dim)]
            scores += weight * np.abs(
                state.columns_by_dim[dim][positions] - spec.points[j, dim]
            )
        for dim in att_order:
            weight = spec.beta[j, aggregator.attractive.index(dim)]
            scores -= weight * np.abs(
                state.columns_by_dim[dim][positions] - spec.points[j, dim]
            )
        return scores

    def _column_max_contribution(
        self, state: SessionState, dim: int, spec: BatchQuerySpec
    ) -> np.ndarray:
        """Per-query maximum contribution of one leftover 1D subproblem.

        Repulsive columns contribute at most ``alpha * farthest_distance``;
        attractive columns at most ``-beta * nearest_distance``.  Both probes
        run over all queries in one ``searchsorted``-style kernel.  The values
        may include tombstoned rows — a dead row can only move the farthest
        value out or the nearest value in, which loosens the bound admissibly.
        """
        values = state.col_values[dim]
        targets = spec.points[:, dim]
        weight = self._weight_column(spec, dim)
        if len(values) == 0:
            return np.zeros(len(spec))
        if dim in self._aggregator.repulsive:
            farthest = np.maximum(
                np.abs(values[0] - targets), np.abs(values[-1] - targets)
            )
            return weight * farthest
        positions = np.searchsorted(values, targets)
        nearest = np.full(len(targets), np.inf)
        right = positions < len(values)
        nearest[right] = np.abs(values[np.minimum(positions[right], len(values) - 1)] - targets[right])
        left = positions > 0
        nearest[left] = np.minimum(
            nearest[left], np.abs(values[positions[left] - 1] - targets[left])
        )
        return -weight * nearest

    def sample_scores(self, queries, pool: int, k=None, alpha=None, beta=None) -> np.ndarray:
        """Scores of an evenly spaced live sample against every query: ``(m, p)``.

        Accumulated in index term order (like the seeding stage of
        :meth:`run`), so each value is a real point's score up to ulp-level
        term-order differences — :func:`_prune_bound`'s slack absorbs those.
        The sharded engine pools these samples across shards to seed a *global*
        k-th best lower bound before the first probe.
        """
        spec = self._coerce_spec(queries, k=k, alpha=alpha, beta=beta)
        return self._sample_scores(self._state, spec, pool)

    def _source_sample_scores(
        self, source, spec: BatchQuerySpec, pool: int
    ) -> np.ndarray:
        """:meth:`sample_scores` over one level's state or the delta."""
        if source.num_live == 0:
            return np.empty((len(spec), 0))
        live = source.live_positions()
        return self._score_block(source, live[_seed_sample(len(live), pool)], spec)

    def data_magnitude(self) -> float:
        """Largest absolute scored coordinate in the snapshot (0.0 when empty)."""
        return self._data_magnitude(self._state)

    def upper_bounds(self, queries, k=None, alpha=None, beta=None) -> np.ndarray:
        """Admissible per-query upper bounds on any live point's total score.

        Each 2D pair contributes the bound of its *collapsed* flat tree (all
        leaves aggregated into one pseudo-leaf, see
        :meth:`_FlatTree.collapsed`), each leftover column its maximum possible
        contribution — O(1) work per pair instead of O(num_leaves).  The
        sharded serving engine orders and prunes whole shards with this bound:
        a shard whose bound misses a query's running k-th best score cannot
        hold any of that query's answers.  Returns ``-inf`` for every query
        when no live rows remain.
        """
        spec = self._coerce_spec(queries, k=k, alpha=alpha, beta=beta)
        return self._upper_bounds(self._state, spec)

    def _level_upper_bounds(
        self, state: SessionState, spec: BatchQuerySpec
    ) -> np.ndarray:
        """:meth:`upper_bounds` over one level's state."""
        m = len(spec)
        if state.num_live == 0:
            return np.full(m, -math.inf)
        ub = np.zeros(m)
        for (rep_dim, att_dim, _flat), collapsed in zip(
            state.pairs, state.collapsed_pairs()
        ):
            if collapsed.num_leaves == 0:
                return np.full(m, -math.inf)
            ub += leaf_score_bounds(
                collapsed,
                self._weight_column(spec, rep_dim),
                self._weight_column(spec, att_dim),
                spec.points[:, att_dim],
                spec.points[:, rep_dim],
            )[:, 0]
        for dim in state.col_values:
            ub += self._column_max_contribution(state, dim, spec)
        return ub

    def _coerce_spec(self, queries, k=None, alpha=None, beta=None) -> BatchQuerySpec:
        """Normalize ``queries`` to a spec (pre-built specs pass through)."""
        if isinstance(queries, BatchQuerySpec):
            if k is not None or alpha is not None or beta is not None:
                raise ValueError(
                    "pass either a BatchQuerySpec or k/weights, not both"
                )
            return queries
        aggregator = self._aggregator
        return BatchQuerySpec.coerce(
            aggregator.repulsive,
            aggregator.attractive,
            aggregator._num_dims,
            queries,
            k=k,
            alpha=alpha,
            beta=beta,
        )

    # ---------------------------------------------------------------- execution
    def run_one(self, query) -> TopKResult:
        """The ``m = 1`` fast path: one SD-Query through the batch kernels.

        This is what ``SDIndex.query`` runs by default; scores are bit-identical
        to the legacy threshold traversal (same floating-point term order) and
        ties at the k-th boundary resolve by the deterministic row-id order.
        """
        result = self.run([query], _label="sd-index/fast").results[0]
        return result

    def run(
        self,
        queries,
        k=None,
        alpha=None,
        beta=None,
        lower_bounds=None,
        deadline: Optional[Deadline] = None,
        _label: str = "sd-index/batch",
    ) -> BatchResult:
        """Answer a batch of queries against the maintained session state.

        ``queries`` may also be a pre-built :class:`BatchQuerySpec` (the
        sharded engine reuses one spec across shard probes).  ``lower_bounds``,
        when given, is a per-query array of externally derived pruning
        thresholds — lower bounds on each query's k-th best *global* score
        that the caller has already lowered by an admissible float slack (via
        :func:`_prune_bound` with a magnitude covering every data source the
        bounds were computed from; the sharded router uses the maximum over
        all shards, which this shard's local slack could understate).  Pruning
        tightens to them, so matches scoring strictly below a bound may be
        omitted from that query's result — exactly what a sharded merge wants,
        since such rows cannot enter the global top k.
        """
        # Execute against one consistent published world end to end.
        spec = self._coerce_spec(queries, k=k, alpha=alpha, beta=beta)
        return self._execute(self._state, spec, lower_bounds, _label, deadline=deadline)

    def _level_execute(
        self,
        state: SessionState,
        spec: BatchQuerySpec,
        lower_bounds,
        _label: str,
        deadline: Optional[Deadline] = None,
    ) -> BatchResult:
        """The filter-and-verify pipeline over one level's pinned state, under
        a threshold seeded from the level's own sample (the flat path and
        each shard probe); ``lower_bounds``, when given, tighten it."""
        magnitude = state.magnitude()
        threshold = np.full(len(spec), -math.inf)
        if len(spec) and state.num_live:
            for dim in state.columns_by_dim:
                magnitude = max(magnitude, float(np.abs(spec.points[:, dim]).max()))
            live_positions = state.live_positions()
            threshold = _seeded_threshold(
                lambda sample: self._score_block(state, live_positions[sample], spec),
                np.minimum(spec.ks, state.num_live),
                state.num_live,
                spec.alpha.sum(axis=1) + spec.beta.sum(axis=1),
                magnitude,
            )
            if lower_bounds is not None:
                threshold = np.maximum(threshold, np.asarray(lower_bounds, dtype=float))
        return self._level_filter(state, spec, threshold, magnitude, _label, deadline)

    def _level_filter(
        self,
        state: SessionState,
        spec: BatchQuerySpec,
        threshold: np.ndarray,
        magnitude: float,
        _label: str,
        deadline: Optional[Deadline] = None,
    ) -> BatchResult:
        """Filter and verify one level's pinned state under ``threshold``.

        ``threshold`` holds admissible per-query pruning bounds, already
        lowered by :func:`_prune_bound`'s slack; ``magnitude`` must cover
        the level's scored coordinates and the queries' (it sizes the
        verify stage's own slack).  The LSM path passes the threshold it
        pooled over every source of its world, so no level seeds twice.
        """
        faults.fire(_FP_KERNEL)
        if deadline is not None:
            deadline.check()
        m = len(spec)
        n_live = state.num_live
        if m == 0:
            return BatchResult(results=[], algorithm=_label)
        if n_live == 0:
            return BatchResult(
                results=[
                    TopKResult(matches=[], algorithm=_label)
                    for _ in range(m)
                ],
                algorithm=_label,
            )
        ks_eff = np.minimum(spec.ks, n_live)
        live_positions = state.live_positions()

        # Per-pair leaf bounds (shared traversal + per-partition resolution).
        pair_ubs: List[np.ndarray] = []
        for rep_dim, att_dim, flat in state.pairs:
            pair_ubs.append(
                leaf_score_bounds(
                    flat,
                    self._weight_column(spec, rep_dim),
                    self._weight_column(spec, att_dim),
                    spec.points[:, att_dim],
                    spec.points[:, rep_dim],
                )
            )

        column_max = {
            dim: self._column_max_contribution(state, dim, spec)
            for dim in state.col_values
        }
        weight_scale = spec.alpha.sum(axis=1) + spec.beta.sum(axis=1)

        column_total = np.zeros(m)
        for contribution in column_max.values():
            column_total = column_total + contribution

        candidates = self._enumerate_candidates(
            state, spec, pair_ubs, column_total, column_max, threshold, live_positions
        )

        results: List[TopKResult] = []
        for j in range(m):
            # Verification dominates the kernel; yield to the deadline between
            # queries so a starved budget stops the batch at a clean boundary.
            if deadline is not None:
                deadline.check()
            positions, cand_bounds = candidates[j]
            k_eff = int(ks_eff[j])
            if state.pairs and (
                len(state.pairs) + len(state.col_values) >= 2
            ) and len(positions) > max(_VERIFY_POOL, 4 * k_eff):
                # Stage 2a: per-candidate *tight* bounds.  Summing per-pair
                # leaf bounds decorrelates the pairs (the bound assumes one
                # point is simultaneously best in every pair's leaf), which
                # dominates the residual over-fetch once the leaf bounds
                # themselves are tight.  Replace the first pair's leaf bound
                # with that pair's *exact* partial score — still admissible,
                # far better correlated with the true score — so both the
                # refine head selection and the re-prune below work on bounds
                # that rank candidates nearly like their exact scores.
                rep_dim, att_dim, _flat = state.pairs[0]
                rep_w = self._weight_column(spec, rep_dim)[j]
                att_w = self._weight_column(spec, att_dim)[j]
                tight = rep_w * np.abs(
                    state.columns_by_dim[rep_dim][positions]
                    - spec.points[j, rep_dim]
                ) - att_w * np.abs(
                    state.columns_by_dim[att_dim][positions]
                    - spec.points[j, att_dim]
                )
                tight += column_total[j]
                for p in range(1, len(state.pairs)):
                    tight += pair_ubs[p][j][
                        state.pair_leaf_of_position[p][positions]
                    ]
                cand_bounds = np.minimum(cand_bounds, tight)
            # Stage 2b: tighten the threshold to the exact k-th best of the
            # best candidates by bound, then re-prune the rest against it.
            positions, refined, head_count = _refine_candidates(
                positions,
                cand_bounds,
                k_eff,
                lambda sample: self._score_one(state, sample, spec, j),
                float(weight_scale[j]),
                magnitude,
            )
            # Exact scorings performed: the refine head plus the final verify
            # pass (head survivors are rescored — bounded by max(64, 4k)).
            examined = head_count + len(positions)
            scores = self._score_one(state, positions, spec, j)
            top = select_topk(scores, state.rows[positions], k_eff)
            matches = [
                Match(
                    row_id=int(state.rows[positions[i]]),
                    score=float(scores[i]),
                    point=tuple(state.matrix[positions[i]]),
                )
                for i in top
            ]
            results.append(
                TopKResult(
                    matches=matches,
                    candidates_examined=examined,
                    full_evaluations=examined,
                    algorithm=_label,
                )
            )
        return BatchResult(results=results, algorithm=_label)

    def _enumerate_candidates(
        self,
        state: SessionState,
        spec: BatchQuerySpec,
        pair_ubs: List[np.ndarray],
        column_total: np.ndarray,
        column_max: Dict[int, np.ndarray],
        threshold: np.ndarray,
        live_positions: np.ndarray,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-query ``(positions, bounds)``, pruned by admissible point bounds.

        With 2D pairs, every snapshot position sits in exactly one leaf of each
        pair tree, so ``sum_p leaf_bound_p(point) + sum_cols col_max`` is an
        admissible upper bound on the point's total score; positions whose
        bound misses the query's pruning threshold — or that are tombstoned —
        are dropped without being scored.  Without pairs, the first sorted
        column enumerates candidates through vectorized range probes.  With no
        usable bound the candidate set degenerates to the live snapshot (the
        vectorized-scan worst case).  The returned bounds stay aligned with the
        positions so the verification stage can re-prune after tightening.
        """
        m = len(spec)
        n_total = len(state.rows)
        if state.pairs:
            candidates = []
            for j in range(m):
                bound = np.full(n_total, column_total[j])
                for p, leaf_of_position in enumerate(state.pair_leaf_of_position):
                    bound += pair_ubs[p][j][leaf_of_position]
                if not np.isfinite(threshold[j]):
                    positions = live_positions
                else:
                    positions = np.flatnonzero((bound >= threshold[j]) & state.live)
                candidates.append((positions, bound[positions]))
            return candidates

        # No 2D pairs: enumerate through the first sorted column instead
        # (vectorized range probes on the sorted values).
        pairing = self._aggregator.pairing
        if pairing.leftover_repulsive:
            dim = pairing.leftover_repulsive[0]
            repulsive = True
        else:
            dim = pairing.leftover_attractive[0]
            repulsive = False
        values = state.col_values[dim]
        column_positions = state.col_positions[dim]
        weight = self._weight_column(spec, dim)
        targets = spec.points[:, dim]
        other_max = np.zeros(m)
        for other_dim, contribution in column_max.items():
            if other_dim != dim:
                other_max = other_max + contribution
        need = threshold - other_max
        sign = 1.0 if repulsive else -1.0

        def with_bounds(positions_j, values_j, j):
            live = state.live[positions_j]
            positions_j = positions_j[live]
            bounds_j = other_max[j] + sign * weight[j] * np.abs(
                values_j[live] - targets[j]
            )
            return positions_j, bounds_j

        candidates = []
        if repulsive:
            # Keep rows with weight*|v - q| >= need: two tails of the sorted order.
            cut = need / weight
            low_stop = np.searchsorted(values, targets - cut, side="right")
            high_start = np.searchsorted(values, targets + cut, side="left")
            for j in range(m):
                if not np.isfinite(need[j]) or need[j] <= 0.0:
                    candidates.append(with_bounds(column_positions, values, j))
                else:
                    candidates.append(
                        with_bounds(
                            np.concatenate(
                                [
                                    column_positions[: low_stop[j]],
                                    column_positions[high_start[j] :],
                                ]
                            ),
                            np.concatenate(
                                [values[: low_stop[j]], values[high_start[j] :]]
                            ),
                            j,
                        )
                    )
        else:
            # Keep rows with -weight*|v - q| >= need: a window around the query.
            window = np.where(need <= 0.0, -need / weight, 0.0)
            starts = np.searchsorted(values, targets - window, side="left")
            stops = np.searchsorted(values, targets + window, side="right")
            for j in range(m):
                if not np.isfinite(need[j]) or need[j] > 0.0:
                    # Non-finite: no usable seed.  Positive: unreachable bound
                    # (the seeded k-th best already exceeds what this
                    # subproblem allows); fall back to everything to stay
                    # trivially safe.
                    candidates.append(with_bounds(column_positions, values, j))
                else:
                    candidates.append(
                        with_bounds(
                            column_positions[starts[j] : stops[j]],
                            values[starts[j] : stops[j]],
                            j,
                        )
                    )
        return candidates


class SessionSnapshot:
    """A pinned, immutable read view of one :class:`QuerySession` epoch.

    Holds one reader reference on the pinned epoch; every query method
    executes against that epoch's :class:`SessionState`, so concurrent
    ``insert``/``delete``/``rebalance`` on the owning index can never tear or
    shift the answers.  Release the pin with :meth:`close` (or use the view as
    a context manager) — until then the epoch cannot be reclaimed.
    """

    def __init__(self, session: QuerySession, epoch) -> None:
        self._session = session
        self._epoch = epoch
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the pinned epoch (idempotent)."""
        if not self._closed:
            self._closed = True
            self._epoch.release()

    def __enter__(self) -> "SessionSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def version(self) -> int:
        """The pinned epoch's version."""
        return self._epoch.version

    @property
    def state(self) -> SessionState:
        if self._closed:
            raise RuntimeError("session snapshot is closed")
        return self._epoch.state

    # ------------------------------------------------------------------ reading
    @property
    def num_live(self) -> int:
        """Live rows in the pinned epoch."""
        return self.state.num_live

    def __len__(self) -> int:
        return self.state.num_live

    def live_row_ids(self) -> np.ndarray:
        """Row ids alive in the pinned epoch (frozen-oracle support)."""
        return self.state.live_row_ids()

    def live_matrix(self) -> np.ndarray:
        """Coordinates of the pinned live rows, aligned with ``live_row_ids``."""
        return self.state.live_matrix()

    def run(
        self,
        queries,
        k=None,
        alpha=None,
        beta=None,
        lower_bounds=None,
        deadline: Optional[Deadline] = None,
        _label: str = "sd-index/snapshot",
    ) -> BatchResult:
        """Answer a batch against the pinned state (same contract as ``run``)."""
        spec = self._session._coerce_spec(queries, k=k, alpha=alpha, beta=beta)
        return self._session._execute(
            self.state, spec, lower_bounds, _label, deadline=deadline
        )

    def run_one(self, query) -> TopKResult:
        """One SD-Query against the pinned state."""
        return self.run([query]).results[0]

    def upper_bounds(self, queries, k=None, alpha=None, beta=None) -> np.ndarray:
        """Admissible per-query score upper bounds over the pinned state."""
        spec = self._session._coerce_spec(queries, k=k, alpha=alpha, beta=beta)
        return self._session._upper_bounds(self.state, spec)

    def sample_scores(self, queries, pool: int, k=None, alpha=None, beta=None) -> np.ndarray:
        """Evenly spaced live-sample scores over the pinned state."""
        spec = self._session._coerce_spec(queries, k=k, alpha=alpha, beta=beta)
        return self._session._sample_scores(self.state, spec, pool)

    def data_magnitude(self) -> float:
        """Largest absolute scored coordinate in the pinned state."""
        return self._session._data_magnitude(self.state)


# ------------------------------------------------------------------ 2D batches
def batch_topk_2d(
    index,
    qx,
    qy,
    k,
    alpha=1.0,
    beta=1.0,
    flat: Optional[_FlatTree] = None,
    label: str = "sd-topk/batch",
) -> BatchResult:
    """Vectorized batch execution for a single 2D :class:`TopKIndex`.

    Same filter-and-verify scheme as :class:`QuerySession`, specialized to one
    projection tree: flatten once, bound every leaf for every query in shared
    per-partition kernels, prune with a seeded k-th best bound, then score the
    survivors with the exact normalized-then-scaled formula of
    ``TopKIndex.iter_best`` (bit-identical scores).  ``flat`` may be the
    index's maintained flat session (``TopKIndex.flat_session``), in which case
    tombstoned rows are filtered through its validity mask; by default the
    tree is flattened fresh.
    """
    qx, qy, ks = coerce_point_batch(qx, qy, k)
    m = len(qx)
    alphas = np.array(np.broadcast_to(np.asarray(alpha, dtype=float), (m,)))
    betas = np.array(np.broadcast_to(np.asarray(beta, dtype=float), (m,)))
    for name, weights in (("alpha", alphas), ("beta", betas)):
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError(f"{name} weights must be finite and > 0")

    if flat is None:
        flat = _FlatTree(index.tree)
    n_live = flat.live_count
    if n_live == 0 or m == 0:
        return BatchResult(
            results=[TopKResult(matches=[], algorithm=label) for _ in range(m)],
            algorithm=label,
        )
    ks_eff = np.minimum(ks, n_live)
    live_positions = np.flatnonzero(flat.live)
    # Normalize per query through Angle / math.hypot — np.hypot rounds a small
    # fraction of inputs differently, which would break bit-identity with the
    # sequential path's ``iter_best`` (Angle.from_weights + math.hypot).
    cos = np.empty(m)
    sin = np.empty(m)
    scale = np.empty(m)
    for j in range(m):
        angle = Angle.from_weights(float(alphas[j]), float(betas[j]))
        cos[j] = angle.cos
        sin[j] = angle.sin
        scale[j] = math.hypot(float(alphas[j]), float(betas[j]))

    def exact_scores(positions: np.ndarray, j: int) -> np.ndarray:
        normalized = cos[j] * np.abs(flat.y[positions] - qy[j]) - sin[j] * np.abs(
            flat.x[positions] - qx[j]
        )
        return normalized * scale[j]

    magnitude = max(
        float(np.abs(flat.x).max()),
        float(np.abs(flat.y).max()),
        float(np.abs(qx).max()),
        float(np.abs(qy).max()),
    )
    threshold = _seeded_threshold(
        lambda sample: np.vstack(
            [exact_scores(live_positions[sample], j) for j in range(m)]
        ),
        ks_eff,
        n_live,
        alphas + betas,
        magnitude,
    )

    ub = leaf_score_bounds(flat, alphas, betas, qx, qy)
    alive = ub >= threshold[:, None]
    results: List[TopKResult] = []
    for j in range(m):
        if alive[j].all():
            positions = live_positions
        else:
            positions = np.flatnonzero(alive[j][flat.leaf_of_pos] & flat.live)
        positions, _refined, head_count = _refine_candidates(
            positions,
            ub[j][flat.leaf_of_pos[positions]],
            int(ks_eff[j]),
            lambda sample: exact_scores(sample, j),
            float(alphas[j] + betas[j]),
            magnitude,
        )
        examined = head_count + len(positions)
        scores = exact_scores(positions, j)
        rows = flat.rows[positions]
        top = select_topk(scores, rows, int(ks_eff[j]))
        matches = [
            Match(
                row_id=int(rows[i]),
                score=float(scores[i]),
                point=(float(flat.x[positions[i]]), float(flat.y[positions[i]])),
            )
            for i in top
        ]
        results.append(
            TopKResult(
                matches=matches,
                candidates_examined=examined,
                full_evaluations=examined,
                algorithm=label,
            )
        )
    return BatchResult(results=results, algorithm=label)
