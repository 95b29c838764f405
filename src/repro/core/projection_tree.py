"""Balanced x-ordered tree with per-angle projection bounds (Section 4).

The *projection tree* is the index structure behind top-k SD-Queries with runtime
``k`` and runtime weighting parameters.  It is a single-dimension KD/B+-style tree
over the x (attractive) coordinate with branching factor ``b``; every node stores,
for each indexed angle, bounds on the four projection intercepts of the points in
its subtree:

* ``max w_a`` — the highest right-lower projection (``w_a = cos*y + sin*x``),
* ``min w_a`` — the lowest left-upper projection,
* ``max w_b`` — the highest left-lower projection (``w_b = cos*y - sin*x``),
* ``min w_b`` — the lowest right-upper projection.

Given a query axis ``x_q``, the points whose left projections cross the axis are
exactly those with ``x >= x_q`` and the points whose right projections cross it
are those with ``x <= x_q`` (the paper's "separating path").  The tree therefore
supports four *projection streams*, each yielding points of one eligible side in
projection-intercept order via a best-first traversal guided by the node bounds.
For a query angle that is not indexed, admissible bounds are derived from the two
bracketing indexed angles because the intercepts are linear in
``(cos(theta), sin(theta))`` (see :meth:`repro.core.geometry.Angle.interpolation_coefficients`).

The paper mutates bounds along the separating path and descends by matching
values (Algorithms 2-3); the best-first traversal used here visits the same nodes
with the same asymptotic cost but requires no state restoration between queries
— see DESIGN.md for the full discussion of this refinement.

Updates: inserts descend by x, append to a leaf and push the new intercepts up
the path, splitting nodes that grow too large; deletes tombstone the row (bounds
stay admissible, merely looser).  The tree tracks how much garbage and imbalance
has accumulated and reports when a rebuild is worthwhile, mirroring the
rebuild-threshold policy of Section 4.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.geometry import Angle
from repro.core.results import IndexStats

__all__ = ["ProjectionTree", "ProjectionStream", "StreamSpec", "bulk_leaf_sizes", "require_unique"]


# Bounds are stored per angle as a 4-tuple in this order.
_MAX_A, _MIN_A, _MAX_B, _MIN_B = range(4)

_EMPTY_BOUNDS = (-math.inf, math.inf, -math.inf, math.inf)


def _merge_bounds(left: Tuple[float, float, float, float],
                  right: Tuple[float, float, float, float]) -> Tuple[float, float, float, float]:
    return (
        max(left[_MAX_A], right[_MAX_A]),
        min(left[_MIN_A], right[_MIN_A]),
        max(left[_MAX_B], right[_MAX_B]),
        min(left[_MIN_B], right[_MIN_B]),
    )


class _Node:
    """Internal node: an ordered list of children covering contiguous x-ranges."""

    __slots__ = ("parent", "children", "min_x", "max_x", "bounds", "count")

    def __init__(self) -> None:
        self.parent: Optional["_Node"] = None
        self.children: List[object] = []
        self.min_x = math.inf
        self.max_x = -math.inf
        self.bounds: List[Tuple[float, float, float, float]] = []
        self.count = 0

    @property
    def is_leaf(self) -> bool:
        return False


class _Leaf:
    """Leaf node: a slice of the bulk-loaded arrays plus individually added points."""

    __slots__ = ("parent", "start", "stop", "extra_rows", "extra_x", "extra_y",
                 "min_x", "max_x", "bounds", "count")

    def __init__(self, start: int, stop: int) -> None:
        self.parent: Optional[_Node] = None
        self.start = start
        self.stop = stop
        self.extra_rows: List[int] = []
        self.extra_x: List[float] = []
        self.extra_y: List[float] = []
        self.min_x = math.inf
        self.max_x = -math.inf
        self.bounds: List[Tuple[float, float, float, float]] = []
        self.count = 0

    @property
    def is_leaf(self) -> bool:
        return True


class StreamSpec:
    """Which of the four projection streams to open (plain constants)."""

    LLP = "llp"  # points right of the axis, highest w_b first
    RLP = "rlp"  # points left of the axis, highest w_a first
    LUP = "lup"  # points right of the axis, lowest w_a first
    RUP = "rup"  # points left of the axis, lowest w_b first

    ALL = (LLP, RLP, LUP, RUP)

    #: (right_side, use_intercept_a, maximize) per stream.
    _CONFIG = {
        LLP: (True, False, True),
        RLP: (False, True, True),
        LUP: (True, True, False),
        RUP: (False, False, False),
    }

    @classmethod
    def config(cls, spec: str) -> Tuple[bool, bool, bool]:
        return cls._CONFIG[spec]


class ProjectionStream:
    """Best-first iterator over one projection type for one query.

    Yields ``(row_id, x, y, key)`` where ``key`` is the exact projection
    intercept of the point at the query angle.  ``head_key()`` returns an
    admissible bound on the key of the next yielded point without consuming it;
    the top-k merge uses it as the TA-style threshold.
    """

    def __init__(self, tree: "ProjectionTree", spec: str, query_x: float,
                 resolver: "_BoundResolver") -> None:
        self._tree = tree
        self._spec = spec
        self._query_x = float(query_x)
        self._resolver = resolver
        right_side, use_a, maximize = StreamSpec.config(spec)
        self._right_side = right_side
        self._use_a = use_a
        self._sign = -1.0 if maximize else 1.0  # heap is a min-heap on sign*key
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, bool, object]] = []
        self.nodes_visited = 0
        if tree._root is not None and tree.live_count > 0:
            self._push_node(tree._root)

    # ------------------------------------------------------------------ helpers
    def _eligible_node(self, node) -> bool:
        if node.count == 0:
            return False
        if self._right_side:
            return node.max_x >= self._query_x
        return node.min_x <= self._query_x

    def _eligible_point(self, x: float) -> bool:
        return x >= self._query_x if self._right_side else x <= self._query_x

    def _node_key_bound(self, node) -> float:
        bounds = self._resolver.resolve(node.bounds)
        if self._use_a:
            return bounds[_MAX_A] if self._sign < 0 else bounds[_MIN_A]
        return bounds[_MAX_B] if self._sign < 0 else bounds[_MIN_B]

    def _point_key(self, x: float, y: float) -> float:
        angle = self._resolver.query_angle
        return angle.intercept_a(x, y) if self._use_a else angle.intercept_b(x, y)

    def _push_node(self, node) -> None:
        if not self._eligible_node(node):
            return
        key = self._node_key_bound(node)
        heapq.heappush(self._heap, (self._sign * key, next(self._counter), False, node))

    def _push_point(self, row: int, x: float, y: float) -> None:
        if not self._eligible_point(x):
            return
        if row in self._tree._tombstones:
            return
        key = self._point_key(x, y)
        heapq.heappush(self._heap, (self._sign * key, next(self._counter), True, (row, x, y, key)))

    # ------------------------------------------------------------------ protocol
    def head_key(self) -> Optional[float]:
        """Admissible bound on the projection key of the next point (None if exhausted)."""
        if not self._heap:
            return None
        return self._sign * self._heap[0][0]

    def exhausted(self) -> bool:
        return not self._heap

    def __iter__(self) -> Iterator[Tuple[int, float, float, float]]:
        return self

    def __next__(self) -> Tuple[int, float, float, float]:
        while self._heap:
            _, _, is_point, payload = heapq.heappop(self._heap)
            if is_point:
                return payload  # type: ignore[return-value]
            node = payload
            self.nodes_visited += 1
            if node.is_leaf:
                for row, x, y in self._tree._leaf_points(node):
                    self._push_point(row, x, y)
            else:
                for child in node.children:
                    self._push_node(child)
        raise StopIteration


class _BoundResolver:
    """Derives admissible per-node bounds at the query angle.

    If the query angle coincides with an indexed angle the stored bounds are used
    directly; otherwise the bounds of the two bracketing indexed angles are
    combined with the (non-negative) interpolation coefficients, which yields
    admissible (never too tight) bounds because the intercepts are linear in the
    angle's unit vector.
    """

    _ANGLE_TOLERANCE = 1e-12

    def __init__(
        self,
        indexed_angles: Sequence[Angle],
        query_angle: Angle,
        radians: Optional[Sequence[float]] = None,
    ) -> None:
        self.query_angle = query_angle
        self._exact_index: Optional[int] = None
        self._lower_index = 0
        self._upper_index = 0
        self._mu_lower = 1.0
        self._mu_upper = 0.0
        if radians is None:
            radians = [angle.radians for angle in indexed_angles]
        target = query_angle.radians
        for i, value in enumerate(radians):
            if abs(value - target) <= self._ANGLE_TOLERANCE:
                self._exact_index = i
                return
        below = [i for i, value in enumerate(radians) if value <= target]
        above = [i for i, value in enumerate(radians) if value >= target]
        if not below or not above:
            raise ValueError(
                f"query angle {query_angle.degrees:.3f} deg outside the indexed range "
                f"[{math.degrees(min(radians)):.3f}, {math.degrees(max(radians)):.3f}] deg"
            )
        self._lower_index = max(below, key=lambda i: radians[i])
        self._upper_index = min(above, key=lambda i: radians[i])
        self._mu_lower, self._mu_upper = query_angle.interpolation_coefficients(
            indexed_angles[self._lower_index], indexed_angles[self._upper_index]
        )

    def resolve(self, bounds: List[Tuple[float, float, float, float]]
                ) -> Tuple[float, float, float, float]:
        if self._exact_index is not None:
            return bounds[self._exact_index]
        lower = bounds[self._lower_index]
        upper = bounds[self._upper_index]
        return (
            self._mu_lower * lower[_MAX_A] + self._mu_upper * upper[_MAX_A],
            self._mu_lower * lower[_MIN_A] + self._mu_upper * upper[_MIN_A],
            self._mu_lower * lower[_MAX_B] + self._mu_upper * upper[_MAX_B],
            self._mu_lower * lower[_MIN_B] + self._mu_upper * upper[_MIN_B],
        )

    @property
    def uses_interpolation(self) -> bool:
        return self._exact_index is None


def require_unique(row_ids: np.ndarray) -> None:
    """Raise ``ValueError`` if ``row_ids`` holds any id twice.

    One sort and an adjacent compare: numpy 2's hash-based ``np.unique`` is
    tens of times slower on large integer id arrays.
    """
    ordered = np.sort(np.asarray(row_ids, dtype=np.int64))
    if bool((ordered[1:] == ordered[:-1]).any()):
        raise ValueError("row ids must be unique")


def _check_shape(branching: int, leaf_capacity: int) -> None:
    if branching < 2:
        raise ValueError(f"branching factor must be >= 2, got {branching}")
    if leaf_capacity < 1:
        raise ValueError(f"leaf capacity must be >= 1, got {leaf_capacity}")


def bulk_leaf_sizes(n: int, branching: int, leaf_capacity: int) -> np.ndarray:
    """Leaf sizes, in x order, of the tree the bulk loader builds over ``n`` points.

    The node-free twin of :meth:`ProjectionTree._build_range`: every range of
    one tree level is split at once, with the loader's child count and the
    exact float arithmetic of its ``np.linspace(lo, hi, children + 1)``
    boundaries (``i * step + lo``, truncated; the last one is ``hi``), and
    empty child ranges are dropped as the loader skips them.  A leaf range
    is kept as its own single child, so each pass preserves x order and the
    result is the loader's left-to-right leaf sequence — the partition
    execution states are flattened over without building the tree.
    """
    _check_shape(branching, leaf_capacity)
    lo = np.zeros(1 if n > 0 else 0, dtype=np.int64)
    hi = np.full(len(lo), n, dtype=np.int64)
    while True:
        size = hi - lo
        split = size > leaf_capacity
        if not split.any():
            return size
        wanted = np.maximum(2, -(-size // leaf_capacity))
        children = np.where(split, np.minimum(np.minimum(branching, wanted), size), 1)
        owner = np.repeat(np.arange(len(size)), children)
        child = np.arange(len(owner)) - np.repeat(np.cumsum(children) - children, children)
        step = (size / children)[owner]
        child_lo = (child * step + lo[owner]).astype(np.int64)
        child_hi = np.where(
            child == children[owner] - 1,
            hi[owner],
            ((child + 1) * step + lo[owner]).astype(np.int64),
        )
        keep = child_hi > child_lo
        lo, hi = child_lo[keep], child_hi[keep]


class ProjectionTree:
    """The x-ordered, bound-annotated tree shared by all top-k query strategies."""

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        angles: Sequence[Angle],
        branching: int = 8,
        leaf_capacity: int = 32,
        row_ids: Optional[Sequence[int]] = None,
        rebuild_threshold: float = 0.25,
    ) -> None:
        _check_shape(branching, leaf_capacity)
        if not angles:
            raise ValueError("at least one indexed angle is required")
        self.branching = int(branching)
        self.leaf_capacity = int(leaf_capacity)
        self.angles: Tuple[Angle, ...] = tuple(angles)
        self.rebuild_threshold = float(rebuild_threshold)
        #: Per-tree caches: the indexed angles never change, so their radians
        #: and the (stateless once built) bound resolvers are computed once per
        #: distinct query angle instead of once per query.
        self._angle_radians: Tuple[float, ...] = tuple(a.radians for a in self.angles)
        self._resolver_cache: Dict[Tuple[float, float], _BoundResolver] = {}

        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        rows = (
            np.arange(len(xs), dtype=np.int64)
            if row_ids is None
            else np.asarray(list(row_ids), dtype=np.int64)
        )
        if rows.shape != xs.shape:
            raise ValueError("row_ids must align with coordinates")
        require_unique(rows)

        self._build_seconds = 0.0
        self._bulk_load(rows, xs, ys)

    # ------------------------------------------------------------------ build
    def _bulk_load(self, rows: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        started = time.perf_counter()
        order = np.argsort(xs, kind="stable")
        self._rows = rows[order]
        self._x = xs[order]
        self._y = ys[order]
        self._live_rows: Dict[int, Tuple[float, float]] = {
            int(r): (float(px), float(py))
            for r, px, py in zip(self._rows, self._x, self._y)
        }
        self._tombstones: set = set()
        self._num_extras = 0
        self._deep_leaf_points = 0

        # Per-angle intercepts of the bulk points, aligned with the sorted arrays.
        self._wa = [angle.cos * self._y + angle.sin * self._x for angle in self.angles]
        self._wb = [angle.cos * self._y - angle.sin * self._x for angle in self.angles]

        n = len(self._rows)
        self._root: Optional[object] = self._build_range(0, n) if n else None
        self._height = self._compute_height(self._root)
        self._height_limit = self._balanced_height(max(n, 1)) + 2
        self._build_seconds += time.perf_counter() - started

    def _balanced_height(self, n: int) -> int:
        leaves = max(1, math.ceil(n / self.leaf_capacity))
        return max(1, math.ceil(math.log(leaves, self.branching))) + 1 if leaves > 1 else 1

    def _build_range(self, lo: int, hi: int):
        # The split rule is mirrored, node-free, by bulk_leaf_sizes: change both.
        if hi - lo <= self.leaf_capacity:
            leaf = _Leaf(lo, hi)
            self._refresh_leaf(leaf)
            return leaf
        node = _Node()
        size = hi - lo
        # Never create more children than needed to respect the leaf capacity:
        # a high branching factor should reduce the number of internal nodes, not
        # shatter the data into under-filled leaves.
        children = min(self.branching, max(2, math.ceil(size / self.leaf_capacity)), size)
        boundaries = np.linspace(lo, hi, children + 1).astype(int)
        for i in range(children):
            child_lo, child_hi = int(boundaries[i]), int(boundaries[i + 1])
            if child_lo == child_hi:
                continue
            child = self._build_range(child_lo, child_hi)
            child.parent = node
            node.children.append(child)
        self._refresh_internal(node)
        return node

    def _refresh_leaf(self, leaf: _Leaf) -> None:
        """Recompute a leaf's count, x-range and per-angle bounds from its points."""
        bounds = [_EMPTY_BOUNDS] * len(self.angles)
        min_x, max_x = math.inf, -math.inf
        count = 0
        if leaf.stop > leaf.start:
            slice_rows = self._rows[leaf.start:leaf.stop]
            live_mask = np.array([int(r) not in self._tombstones for r in slice_rows])
            if live_mask.any():
                xs = self._x[leaf.start:leaf.stop][live_mask]
                count += int(live_mask.sum())
                min_x = float(xs.min())
                max_x = float(xs.max())
                new_bounds = []
                for ai in range(len(self.angles)):
                    was = self._wa[ai][leaf.start:leaf.stop][live_mask]
                    wbs = self._wb[ai][leaf.start:leaf.stop][live_mask]
                    new_bounds.append(
                        (float(was.max()), float(was.min()), float(wbs.max()), float(wbs.min()))
                    )
                bounds = new_bounds
        for row, x, y in zip(leaf.extra_rows, leaf.extra_x, leaf.extra_y):
            if row in self._tombstones:
                continue
            count += 1
            min_x = min(min_x, x)
            max_x = max(max_x, x)
            bounds = [
                _merge_bounds(
                    bounds[ai],
                    (
                        self.angles[ai].intercept_a(x, y),
                        self.angles[ai].intercept_a(x, y),
                        self.angles[ai].intercept_b(x, y),
                        self.angles[ai].intercept_b(x, y),
                    ),
                )
                for ai in range(len(self.angles))
            ]
        leaf.count = count
        leaf.min_x = min_x
        leaf.max_x = max_x
        leaf.bounds = list(bounds)

    def _refresh_internal(self, node: _Node) -> None:
        bounds = [_EMPTY_BOUNDS] * len(self.angles)
        min_x, max_x = math.inf, -math.inf
        count = 0
        for child in node.children:
            count += child.count
            min_x = min(min_x, child.min_x)
            max_x = max(max_x, child.max_x)
            bounds = [
                _merge_bounds(bounds[ai], child.bounds[ai]) for ai in range(len(self.angles))
            ]
        node.count = count
        node.min_x = min_x
        node.max_x = max_x
        node.bounds = list(bounds)

    def _compute_height(self, node, depth: int = 1) -> int:
        if node is None:
            return 0
        if node.is_leaf:
            return depth
        return max(self._compute_height(child, depth + 1) for child in node.children)

    # ------------------------------------------------------------------ iteration
    def _leaf_points(self, leaf: _Leaf) -> Iterator[Tuple[int, float, float]]:
        for i in range(leaf.start, leaf.stop):
            row = int(self._rows[i])
            if row in self._tombstones:
                continue
            yield row, float(self._x[i]), float(self._y[i])
        for row, x, y in zip(leaf.extra_rows, leaf.extra_x, leaf.extra_y):
            if row in self._tombstones:
                continue
            yield row, x, y

    def iter_points(self) -> Iterator[Tuple[int, float, float]]:
        """All live points as ``(row_id, x, y)`` (used by rebuilds and tests)."""
        for row, (x, y) in self._live_rows.items():
            yield row, x, y

    @property
    def live_count(self) -> int:
        return len(self._live_rows)

    def point(self, row_id: int) -> Tuple[float, float]:
        """Coordinates of a live row."""
        return self._live_rows[row_id]

    def __contains__(self, row_id: int) -> bool:
        return int(row_id) in self._live_rows

    def __len__(self) -> int:
        return self.live_count

    # ------------------------------------------------------------------ streams
    def bound_resolver(self, query_angle: Angle) -> _BoundResolver:
        """The (cached) admissible bound resolver for a query angle.

        Resolvers hold only the bracketing indices and interpolation
        coefficients, which depend on nothing but the query angle, so repeated
        queries at the same angle — the common case for serving workloads and
        for the aggregator's per-pair streams — reuse one resolver instead of
        recomputing trig and coefficients per query.
        """
        key = (query_angle.cos, query_angle.sin)
        resolver = self._resolver_cache.get(key)
        if resolver is None:
            if len(self._resolver_cache) >= 1024:
                self._resolver_cache.clear()
            resolver = _BoundResolver(self.angles, query_angle, radians=self._angle_radians)
            self._resolver_cache[key] = resolver
        return resolver

    def open_stream(self, spec: str, query_x: float, query_angle: Angle) -> ProjectionStream:
        """Open one of the four projection streams for a query axis and angle."""
        return ProjectionStream(self, spec, query_x, self.bound_resolver(query_angle))

    def open_streams(self, query_x: float, query_angle: Angle) -> Dict[str, ProjectionStream]:
        """All four projection streams for a query, sharing one bound resolver."""
        resolver = self.bound_resolver(query_angle)
        return {
            spec: ProjectionStream(self, spec, query_x, resolver)
            for spec in StreamSpec.ALL
        }

    # ------------------------------------------------------------------ updates
    def insert(self, x: float, y: float, row_id: Optional[int] = None) -> int:
        """Insert a point, returning its row id (O(b log_b n) plus rare splits)."""
        if row_id is None:
            used = self._live_rows.keys() | self._tombstones
            row_id = (max(used) + 1) if used else 0
        row_id = int(row_id)
        if row_id in self._live_rows:
            raise ValueError(f"row id {row_id} already present")
        if row_id in self._tombstones:
            # The old copy still physically sits in the bulk arrays; reviving the id
            # would resurrect it with stale coordinates.
            raise ValueError(f"row id {row_id} was deleted and cannot be reused before a rebuild")
        x, y = float(x), float(y)
        self._live_rows[row_id] = (x, y)

        if self._root is None:
            self._rebuild_from_live()
            return row_id

        leaf = self._descend_to_leaf(x)
        leaf.extra_rows.append(row_id)
        leaf.extra_x.append(x)
        leaf.extra_y.append(y)
        self._num_extras += 1
        self._apply_point_upward(leaf, x, y)
        if leaf.count > 2 * self.leaf_capacity:
            self._split_leaf(leaf)
        return row_id

    def delete(self, row_id: int) -> None:
        """Delete a point by tombstoning it; bounds stay admissible (merely looser)."""
        row_id = int(row_id)
        if row_id not in self._live_rows:
            raise KeyError(f"row id {row_id} not present")
        del self._live_rows[row_id]
        self._tombstones.add(row_id)
        if self.needs_rebuild():
            self.rebuild()

    def needs_rebuild(self) -> bool:
        """True once accumulated garbage/imbalance exceeds the configured threshold."""
        live = max(self.live_count, 1)
        garbage = len(self._tombstones) + max(self._height - self._height_limit, 0) * live
        return garbage > self.rebuild_threshold * live

    def rebuild(self) -> None:
        """Rebuild the tree from the live points (the paper's rebuild step)."""
        self._rebuild_from_live()

    def _rebuild_from_live(self) -> None:
        rows = np.array(list(self._live_rows.keys()), dtype=np.int64)
        if len(rows):
            coords = np.array([self._live_rows[int(r)] for r in rows], dtype=float)
            xs, ys = coords[:, 0], coords[:, 1]
        else:
            xs = np.empty(0, dtype=float)
            ys = np.empty(0, dtype=float)
        self._bulk_load(rows, xs, ys)

    def _descend_to_leaf(self, x: float) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            chosen = None
            for child in node.children:
                if x <= child.max_x or child is node.children[-1]:
                    chosen = child
                    break
            node = chosen
        return node

    def _apply_point_upward(self, leaf: _Leaf, x: float, y: float) -> None:
        """Extend the bounds and x-ranges on the path from ``leaf`` to the root."""
        addition = [
            (
                self.angles[ai].intercept_a(x, y),
                self.angles[ai].intercept_a(x, y),
                self.angles[ai].intercept_b(x, y),
                self.angles[ai].intercept_b(x, y),
            )
            for ai in range(len(self.angles))
        ]
        node = leaf
        while node is not None:
            node.count += 1
            node.min_x = min(node.min_x, x)
            node.max_x = max(node.max_x, x)
            node.bounds = [
                _merge_bounds(node.bounds[ai], addition[ai]) if node.bounds else addition[ai]
                for ai in range(len(self.angles))
            ]
            node = node.parent

    def _split_leaf(self, leaf: _Leaf) -> None:
        """Split an overflowing leaf into two materialized leaves."""
        points = sorted(self._leaf_points(leaf), key=lambda item: item[1])
        middle = len(points) // 2
        halves = [points[:middle], points[middle:]]
        parent = leaf.parent
        new_leaves: List[_Leaf] = []
        for half in halves:
            if not half:
                continue
            new_leaf = _Leaf(0, 0)
            new_leaf.extra_rows = [row for row, _, _ in half]
            new_leaf.extra_x = [px for _, px, _ in half]
            new_leaf.extra_y = [py for _, _, py in half]
            self._refresh_leaf(new_leaf)
            new_leaves.append(new_leaf)
        if parent is None:
            root = _Node()
            for new_leaf in new_leaves:
                new_leaf.parent = root
                root.children.append(new_leaf)
            self._refresh_internal(root)
            self._root = root
            self._height = self._compute_height(self._root)
            return
        index = parent.children.index(leaf)
        parent.children[index:index + 1] = new_leaves
        for new_leaf in new_leaves:
            new_leaf.parent = parent
        self._refresh_internal(parent)
        if len(parent.children) > 2 * self.branching:
            self._split_internal(parent)
        self._height = self._compute_height(self._root)

    def _split_internal(self, node: _Node) -> None:
        middle = len(node.children) // 2
        sibling = _Node()
        sibling.children = node.children[middle:]
        node.children = node.children[:middle]
        for child in sibling.children:
            child.parent = sibling
        self._refresh_internal(node)
        self._refresh_internal(sibling)
        parent = node.parent
        if parent is None:
            root = _Node()
            node.parent = root
            sibling.parent = root
            root.children = [node, sibling]
            self._refresh_internal(root)
            self._root = root
            return
        index = parent.children.index(node)
        parent.children.insert(index + 1, sibling)
        sibling.parent = parent
        self._refresh_internal(parent)
        if len(parent.children) > 2 * self.branching:
            self._split_internal(parent)

    # ------------------------------------------------------------------ stats
    def stats(self) -> IndexStats:
        """Node counts and an analytic memory estimate (Figures 8h-8i)."""
        num_nodes = 0
        num_leaves = 0
        memory = 0
        per_angle_bytes = 4 * 8  # four floats per indexed angle
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            num_nodes += 1
            memory += 2 * 8  # min_x / max_x
            memory += per_angle_bytes * len(self.angles)
            if node.is_leaf:
                num_leaves += 1
                memory += 24 * node.count  # row id + two coordinates per point
            else:
                memory += 8 * len(node.children)  # child pointers
                stack.extend(node.children)
        return IndexStats(
            name="sd-topk",
            num_points=self.live_count,
            num_nodes=num_nodes,
            num_regions=num_leaves,
            height=self._height,
            branching=self.branching,
            num_angles=len(self.angles),
            memory_bytes=memory,
            build_seconds=self._build_seconds,
        )
