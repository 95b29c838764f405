"""Top-1 (apriori-``k``) region index over 2D points (Section 3 of the paper).

The index assumes that ``k`` and the weighting parameters ``alpha`` / ``beta`` are
known when the index is built.  It stores, for each of the two projection sides,
the decomposition of the x-axis into regions in which a single point provides the
highest lower projection (respectively the lowest upper projection).  Claim 5
guarantees at most ``n`` regions per side, and Claim 4 guarantees that the top-1
answer for any query is one of the two region owners at the query's axis.

For ``k > 1`` (still known apriori) the index stores the paper's generalization:
the regions in which the identity of the *k highest lower projections* and the *k
lowest upper projections* stays constant.  At any axis position the k highest
lower projections consist of the k largest ``w_a`` intercepts among points left of
the axis plus the k largest ``w_b`` intercepts among points right of it (and dually
for the upper side), so the structure reduces to four prefix/suffix "running
top-k" region lists with O(k n) total storage — the bound Section 3 states.

Updates follow Section 3: an inserted point that never surfaces on the indexed
envelopes is recorded but requires no structural work; a surfacing insert is a
local splice for ``k = 1`` and a buffered point (re-indexed lazily) otherwise;
deleting a region owner triggers a rebuild of the affected side.
"""

from __future__ import annotations

import bisect
import heapq
import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.epoch import EpochManager
from repro.core.geometry import Angle
from repro.core.isoline import Envelope, EnvelopeSide, build_envelope
from repro.core.projection_tree import require_finite
from repro.core.results import IndexStats, Match, TopKResult

__all__ = ["Top1Index", "Top1Snapshot"]


class _RunningTopKRegions:
    """Regions of a 1D sweep in which the running top-``k`` of a key stays constant.

    Built from points sorted by a sweep coordinate: after processing a prefix of
    the sweep order, the structure records the ``k`` best keys seen so far; a new
    region is emitted every time that set changes.  Querying with a sweep value
    returns the candidate rows for the prefix ending at that value, via binary
    search.  Suffix structures are obtained by negating the sweep coordinate.
    """

    def __init__(
        self,
        sweep_values: Sequence[float],
        key_values: Sequence[float],
        row_ids: Sequence[int],
        k: int,
        maximize: bool,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        order = sorted(range(len(row_ids)), key=lambda i: (sweep_values[i], row_ids[i]))
        sign = 1.0 if maximize else -1.0
        # Min-heap over the retained keys; the root is the weakest retained entry.
        heap: List[Tuple[float, int]] = []
        self.breakpoints: List[float] = []
        self.candidate_sets: List[Tuple[int, ...]] = [()]
        for position in order:
            key = sign * float(key_values[position])
            row = int(row_ids[position])
            changed = False
            if len(heap) < k:
                heapq.heappush(heap, (key, row))
                changed = True
            elif key > heap[0][0]:
                heapq.heapreplace(heap, (key, row))
                changed = True
            if changed:
                sweep = float(sweep_values[position])
                members = tuple(sorted(row for _, row in heap))
                if self.breakpoints and self.breakpoints[-1] == sweep:
                    self.candidate_sets[-1] = members
                else:
                    self.breakpoints.append(sweep)
                    self.candidate_sets.append(members)

    def candidates_at(self, sweep_value: float) -> Tuple[int, ...]:
        """Candidate rows for the prefix of points with sweep coordinate <= value."""
        position = bisect.bisect_right(self.breakpoints, sweep_value)
        return self.candidate_sets[position]

    def indexed_rows(self) -> set:
        """Every row id stored in any region (owners whose deletion needs a rebuild)."""
        rows: set = set()
        for members in self.candidate_sets:
            rows.update(members)
        return rows

    def memory_bytes(self) -> int:
        stored = sum(len(members) for members in self.candidate_sets)
        return 8 * len(self.breakpoints) + 8 * stored

    def num_regions(self) -> int:
        return len(self.candidate_sets)


class Top1Index:
    """Region index answering top-``k`` SD-Queries for a fixed ``k`` and fixed weights."""

    #: Rebuild the index once the lazily-buffered inserts exceed this fraction of
    #: the indexed points (with a small absolute floor so tiny indexes do not
    #: rebuild on every insert).
    _PENDING_REBUILD_FRACTION = 0.02
    _PENDING_REBUILD_FLOOR = 32

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        angle: Optional[Angle] = None,
        k: int = 1,
        row_ids: Optional[Sequence[int]] = None,
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> None:
        if angle is None:
            angle = Angle.from_weights(alpha, beta)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.angle = angle
        self.k = int(k)
        #: Scale factor converting normalized scores back to the weighted score.
        self.score_scale = math.hypot(alpha, beta)

        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        require_finite(xs)
        require_finite(ys)
        ids = (
            list(range(len(xs)))
            if row_ids is None
            else [int(r) for r in row_ids]
        )
        if len(ids) != len(xs):
            raise ValueError("row_ids must align with coordinates")
        if len(set(ids)) != len(ids):
            raise ValueError("row_ids must be unique")

        self._points: Dict[int, Tuple[float, float]] = {
            row: (float(px), float(py)) for row, px, py in zip(ids, xs, ys)
        }
        self._pending: Dict[int, Tuple[float, float]] = {}
        self._build_seconds = 0.0
        #: Lazily built numpy views of the region structures (breakpoints and
        #: owners/candidate sets) shared by the single-query fast path and the
        #: vectorized batch path; invalidated whenever a region changes.
        self._region_cache = None
        #: Mutation counter (every insert/delete/rebuild bumps it) plus the
        #: epoch manager of frozen read views built on demand by snapshot().
        self._mutations = 0
        self._write_lock = threading.RLock()
        self.view_epochs = EpochManager()
        self._view_built_at = -1
        self._rebuild()

    # ------------------------------------------------------------------ build
    @classmethod
    def from_weights(
        cls,
        x: Sequence[float],
        y: Sequence[float],
        alpha: float,
        beta: float,
        k: int = 1,
        row_ids: Optional[Sequence[int]] = None,
    ) -> "Top1Index":
        """Build the index for the (apriori known) weights ``alpha`` and ``beta``."""
        return cls(x, y, angle=Angle.from_weights(alpha, beta), k=k, row_ids=row_ids,
                   alpha=alpha, beta=beta)

    def _rebuild(self) -> None:
        """Recompute the region structures from the full current point set."""
        self._mutations += 1
        started = time.perf_counter()
        self._points.update(self._pending)
        self._pending.clear()
        rows = list(self._points)
        xs = np.array([self._points[r][0] for r in rows], dtype=float)
        ys = np.array([self._points[r][1] for r in rows], dtype=float)
        self._lower_layers: List[Envelope] = []
        self._upper_layers: List[Envelope] = []
        self._klists: Dict[str, _RunningTopKRegions] = {}
        self._owner_rows = set()
        if self.k == 1:
            if rows:
                self._lower_layers = [
                    build_envelope(xs, ys, self.angle, EnvelopeSide.LOWER_PROJECTIONS, rows)
                ]
                self._upper_layers = [
                    build_envelope(xs, ys, self.angle, EnvelopeSide.UPPER_PROJECTIONS, rows)
                ]
            for envelope in self._lower_layers + self._upper_layers:
                self._owner_rows.update(envelope.owners)
        elif rows:
            w_a, w_b = self.angle.intercepts(xs, ys)
            # Lower projections at axis x: for points left of x the height is ordered
            # by w_a, for points right of x by w_b; the upper side is the mirror
            # image.  Prefix structures sweep on x, suffix structures sweep on -x.
            self._klists = {
                "lower-left": _RunningTopKRegions(xs, w_a, rows, self.k, maximize=True),
                "lower-right": _RunningTopKRegions(-xs, w_b, rows, self.k, maximize=True),
                "upper-left": _RunningTopKRegions(xs, w_b, rows, self.k, maximize=False),
                "upper-right": _RunningTopKRegions(-xs, w_a, rows, self.k, maximize=False),
            }
            for structure in self._klists.values():
                self._owner_rows.update(structure.indexed_rows())
        self._region_cache = None
        self._build_seconds += time.perf_counter() - started

    def _region_arrays(self):
        """Cached numpy region lookups (rebuilt only when a region changed)."""
        if self._region_cache is None:
            if self.k == 1:
                self._region_cache = (
                    "envelopes",
                    [
                        (
                            np.asarray(envelope.breakpoints, dtype=float),
                            np.asarray(envelope.owners, dtype=np.int64),
                        )
                        for envelope in self._lower_layers + self._upper_layers
                        if envelope.owners
                    ],
                )
            else:
                self._region_cache = (
                    "klists",
                    [
                        (
                            name.endswith("left"),
                            np.asarray(structure.breakpoints, dtype=float),
                            structure.candidate_sets,
                        )
                        for name, structure in self._klists.items()
                    ],
                )
        return self._region_cache

    # ------------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._points) + len(self._pending)

    def query(self, qx: float, qy: float, k: Optional[int] = None) -> TopKResult:
        """Top-``k`` points for the query ``(qx, qy)``.

        ``k`` defaults to the apriori ``k`` the index was built for and may not
        exceed it (use :class:`repro.core.topk.TopKIndex` for runtime ``k``).
        """
        if k is None:
            k = self.k
        if k < 1 or k > self.k:
            raise ValueError(f"k must be in [1, {self.k}] for this index, got {k}")
        if not (math.isfinite(qx) and math.isfinite(qy)):
            raise ValueError("query coordinates must be finite")
        candidates: Dict[int, float] = {}
        examined = 0
        kind, structures = self._region_arrays()
        qx = float(qx)
        if kind == "envelopes":
            for breakpoints, owners in structures:
                owner = int(owners[np.searchsorted(breakpoints, qx, side="left")])
                if owner not in candidates:
                    candidates[owner] = self._score(owner, qx, qy)
                    examined += 1
        else:
            # Left structures index points with x <= qx (sweep value qx), right
            # structures index points with x >= qx (sweep value -qx).
            for is_left, breakpoints, candidate_sets in structures:
                sweep_value = qx if is_left else -qx
                position = int(np.searchsorted(breakpoints, sweep_value, side="right"))
                for row in candidate_sets[position]:
                    if row not in candidates:
                        candidates[row] = self._score(row, qx, qy)
                        examined += 1
        for row, (px, py) in self._pending.items():
            candidates[row] = self._score_point(px, py, qx, qy)
            examined += 1
        matches = sorted(
            (Match(row_id=row, score=score, point=self._coords(row)) for row, score in candidates.items())
        )[:k]
        return TopKResult(
            matches=matches,
            candidates_examined=examined,
            full_evaluations=examined,
            algorithm="sd-top1",
        )

    def batch_query(self, qx, qy, k=None):
        """Answer many queries at once with vectorized region lookups.

        ``qx``/``qy`` are ``(m,)`` arrays; ``k`` is a scalar or ``(m,)`` vector
        bounded by the apriori ``k``.  The region binary searches of
        :meth:`query` run as single ``np.searchsorted`` kernels over all
        queries (vectorized isoline-envelope lookups) and candidate scoring is
        one numpy expression per query, so every result is identical —
        including tie-breaks — to calling :meth:`query` in a loop.  Returns a
        :class:`repro.core.results.BatchResult`.
        """
        from repro.core.batch import coerce_point_batch
        from repro.core.results import BatchResult

        qx, qy, ks = coerce_point_batch(qx, qy, self.k if k is None else k)
        m = len(qx)
        if np.any(ks > self.k):
            raise ValueError(f"k must be in [1, {self.k}] for this index")

        # Region lookups for all queries in one searchsorted kernel per
        # structure, over the cached numpy views.
        per_query_candidates: List[List[int]] = [[] for _ in range(m)]
        kind, structures = self._region_arrays()
        if kind == "envelopes":
            for breakpoints, owners in structures:
                positions = np.searchsorted(breakpoints, qx, side="left")
                env_owners = owners[positions]
                for j in range(m):
                    per_query_candidates[j].append(int(env_owners[j]))
        else:
            for is_left, breakpoints, candidate_sets in structures:
                sweep = qx if is_left else -qx
                positions = np.searchsorted(breakpoints, sweep, side="right")
                for j in range(m):
                    per_query_candidates[j].extend(
                        candidate_sets[int(positions[j])]
                    )
        pending_rows = list(self._pending)

        results = []
        cos, sin, scale = self.angle.cos, self.angle.sin, self.score_scale
        for j in range(m):
            rows = list(dict.fromkeys(per_query_candidates[j]))
            examined = len(rows) + len(pending_rows)
            indexed = set(rows)
            rows.extend(row for row in pending_rows if row not in indexed)
            if rows:
                coords = np.asarray([self._coords(row) for row in rows], dtype=float)
                px, py = coords[:, 0], coords[:, 1]
                scores = scale * (cos * np.abs(py - qy[j]) - sin * np.abs(px - qx[j]))
                order = np.lexsort((np.asarray(rows), -scores))[: int(ks[j])]
                matches = [
                    Match(
                        row_id=int(rows[i]),
                        score=float(scores[i]),
                        point=(float(px[i]), float(py[i])),
                    )
                    for i in order
                ]
            else:
                matches = []
            results.append(
                TopKResult(
                    matches=matches,
                    candidates_examined=examined,
                    full_evaluations=examined,
                    algorithm="sd-top1",
                )
            )
        return BatchResult(results=results, algorithm="sd-top1/batch")

    def _coords(self, row: int) -> Tuple[float, float]:
        return self._pending.get(row, self._points.get(row))

    def _score_point(self, px: float, py: float, qx: float, qy: float) -> float:
        return self.score_scale * self.angle.normalized_score(px - qx, py - qy)

    def _score(self, row: int, qx: float, qy: float) -> float:
        px, py = self._coords(row)
        return self._score_point(px, py, qx, qy)

    # ------------------------------------------------------------------ updates
    def insert(self, x: float, y: float, row_id: Optional[int] = None) -> int:
        """Insert a point; returns its row id.

        Points that cannot appear in any top-``k`` answer (they never surface on
        the indexed envelope layers) only cost the surfacing test.  For ``k = 1``
        a surfacing point is spliced into the affected envelope in place; for
        ``k > 1`` it is buffered and the index is rebuilt once the buffer grows
        beyond a small fraction of the data.
        """
        require_finite((float(x), float(y)))
        with self._write_lock:
            if row_id is None:
                row_id = self._next_row_id()
            row_id = int(row_id)
            if row_id in self._points or row_id in self._pending:
                raise ValueError(f"row id {row_id} already present")
            px, py = float(x), float(y)
            self._mutations += 1

            surfaces_lower = self._beats_layers(px, py, self._lower_layers, lower_side=True)
            surfaces_upper = self._beats_layers(px, py, self._upper_layers, lower_side=False)
            if not surfaces_lower and not surfaces_upper:
                self._points[row_id] = (px, py)
                return row_id

            if self.k == 1:
                self._points[row_id] = (px, py)
                if surfaces_lower and self._lower_layers:
                    self._splice(self._lower_layers[0], row_id, px, py, lower_side=True)
                elif surfaces_lower:
                    self._lower_layers = [
                        Envelope(EnvelopeSide.LOWER_PROJECTIONS, [row_id], [])
                    ]
                if surfaces_upper and self._upper_layers:
                    self._splice(self._upper_layers[0], row_id, px, py, lower_side=False)
                elif surfaces_upper:
                    self._upper_layers = [
                        Envelope(EnvelopeSide.UPPER_PROJECTIONS, [row_id], [])
                    ]
                self._owner_rows.add(row_id)
                self._region_cache = None
                return row_id

            self._pending[row_id] = (px, py)
            if len(self._pending) > max(
                self._PENDING_REBUILD_FLOOR,
                int(self._PENDING_REBUILD_FRACTION * len(self._points)),
            ):
                self._rebuild()
            return row_id

    def delete(self, row_id: int) -> None:
        """Delete a point by row id.

        Deleting a point that owns a region forces a rebuild (the envelope hides
        whatever lay beneath the owner); any other delete is constant time.
        """
        row_id = int(row_id)
        with self._write_lock:
            if row_id in self._pending:
                del self._pending[row_id]
                self._mutations += 1
                return
            if row_id not in self._points:
                raise KeyError(f"row id {row_id} not present")
            del self._points[row_id]
            self._mutations += 1
            if row_id in self._owner_rows:
                self._rebuild()

    def _next_row_id(self) -> int:
        existing = self._points.keys() | self._pending.keys()
        return (max(existing) + 1) if existing else 0

    # ------------------------------------------------------------- envelope math
    def _beats_layers(
        self, px: float, py: float, layers: List[Envelope], lower_side: bool
    ) -> bool:
        """True if the point would surface within the indexed layers on this side.

        A point belongs to the first ``k`` dominance layers exactly when it beats
        the deepest indexed layer's envelope at its own x position (its layer is
        one plus the deepest old layer whose envelope still beats it there).  If
        fewer than ``k`` layers exist the point always belongs.
        """
        if len(layers) < self.k:
            return True
        deepest = layers[-1]
        owner = deepest.owner_at(px)
        if owner is None:
            return True
        ox, oy = self._coords(owner)
        if lower_side:
            own = self.angle.cos * py
            envelope_value = self.angle.cos * oy - self.angle.sin * abs(px - ox)
            return own > envelope_value
        own = self.angle.cos * py
        envelope_value = self.angle.cos * oy + self.angle.sin * abs(px - ox)
        return own < envelope_value

    def _splice(
        self, envelope: Envelope, row_id: int, px: float, py: float, lower_side: bool
    ) -> None:
        """Insert a surfacing point into a single-layer envelope in place.

        Owners dominated by the new point (in intercept space) form a contiguous
        run of the sorted owner list; they are replaced by the new point and the
        two breakpoints adjacent to the run are recomputed.
        """
        a_new = self.angle.intercept_a(px, py)
        b_new = self.angle.intercept_b(px, py)
        owners = envelope.owners
        breakpoints = envelope.breakpoints

        def intercepts(row: int) -> Tuple[float, float]:
            ox, oy = self._coords(row)
            return self.angle.intercept_a(ox, oy), self.angle.intercept_b(ox, oy)

        def dominated(row: int) -> bool:
            a_old, b_old = intercepts(row)
            if lower_side:
                return a_old <= a_new and b_old <= b_new
            return a_old >= a_new and b_old >= b_new

        # Locate the insertion position: owners are sorted left-to-right, which on
        # both sides means ascending intercept_a.
        keys = [intercepts(row)[0] for row in owners]
        position = bisect.bisect_left(keys, a_new)

        # Expand around the insertion position over every dominated owner.
        start = position
        while start > 0 and dominated(owners[start - 1]):
            start -= 1
        end = position
        while end < len(owners) and dominated(owners[end]):
            end += 1

        new_owners = owners[:start] + [row_id] + owners[end:]
        sin = self.angle.sin
        if sin == 0:
            # Degenerate flat projections: the surfacing point beats the single
            # existing owner, so it owns the whole axis.
            envelope.owners = [row_id]
            envelope.breakpoints = []
            return
        # Recompute breakpoints left and right of the spliced-in point.
        left_breaks = breakpoints[: max(start - 1, 0)]
        right_breaks = breakpoints[end:] if end < len(owners) else []
        if start > 0:
            a_prev, b_prev = intercepts(owners[start - 1])
            if lower_side:
                boundary = (a_prev - b_new) / (2.0 * sin)
            else:
                boundary = (a_new - b_prev) / (2.0 * sin)
            left_breaks = breakpoints[: start - 1] + [boundary]
        if end < len(owners):
            a_next, b_next = intercepts(owners[end])
            if lower_side:
                boundary = (a_new - b_next) / (2.0 * sin)
            else:
                boundary = (a_next - b_new) / (2.0 * sin)
            right_breaks = [boundary] + breakpoints[end:]
        new_breakpoints = left_breaks + right_breaks
        envelope.owners = new_owners
        envelope.breakpoints = new_breakpoints

    # ------------------------------------------------------------- persistence
    def save(self, path) -> None:
        """Write a durable snapshot of the region structures at ``path``.

        Persists the envelopes / running top-k region lists verbatim (plus
        the point and pending maps), so :meth:`load` restores the index
        without re-running the region sweep.
        """
        from repro.core.persistence import save_engine

        save_engine(self, path)

    @classmethod
    def load(cls, path, mmap: bool = False, verify: Optional[bool] = None) -> "Top1Index":
        """Load a snapshot written by :meth:`save`."""
        from repro.core.persistence import load_engine

        return load_engine(path, mmap=mmap, verify=verify, expect="top1")

    # ------------------------------------------------------------------ stats
    def stats(self) -> IndexStats:
        """Size statistics (regions, analytic memory) for the experiment harness."""
        num_regions = sum(len(env) for env in self._lower_layers + self._upper_layers)
        memory = sum(env.memory_bytes() for env in self._lower_layers + self._upper_layers)
        num_regions += sum(structure.num_regions() for structure in self._klists.values())
        memory += sum(structure.memory_bytes() for structure in self._klists.values())
        # Points retained for updates/scoring: two floats + one id each.
        memory += 24 * (len(self._points) + len(self._pending))
        return IndexStats(
            name="sd-top1",
            num_points=len(self),
            num_regions=num_regions,
            num_angles=1,
            memory_bytes=memory,
            build_seconds=self._build_seconds,
        )

    # ------------------------------------------------------------------ snapshots
    @property
    def version(self) -> int:
        """Mutation counter: bumped by every insert, delete and rebuild."""
        return self._mutations

    def snapshot(self) -> "Top1Snapshot":
        """Pin a frozen read view of the current region structures.

        The view (region arrays plus copies of the point/pending maps) is
        built at most once per mutation version and published as an epoch;
        concurrent inserts/deletes build new versions and never touch pinned
        ones.  Close the snapshot (or use it as a context manager) to release
        the pin.
        """
        with self._write_lock:
            if self._view_built_at != self._mutations:
                self.view_epochs.publish(
                    _FrozenTop1View(
                        k=self.k,
                        angle=self.angle,
                        score_scale=self.score_scale,
                        points=dict(self._points),
                        pending=dict(self._pending),
                        region_cache=self._region_arrays(),
                    )
                )
                self._view_built_at = self._mutations
            return Top1Snapshot(self.view_epochs.pin())

    # ------------------------------------------------------------------ debugging
    def envelope_layers(self) -> Tuple[List[Envelope], List[Envelope]]:
        """The (lower, upper) envelopes (``k == 1`` mode) — for tests and inspection."""
        return self._lower_layers, self._upper_layers

    def region_structures(self) -> Dict[str, _RunningTopKRegions]:
        """The four running top-k region structures (``k > 1`` mode)."""
        return dict(self._klists)


class _FrozenTop1View:
    """The immutable payload of one Top1 snapshot epoch."""

    __slots__ = ("k", "angle", "score_scale", "points", "pending", "region_cache")

    def __init__(self, k, angle, score_scale, points, pending, region_cache) -> None:
        self.k = k
        self.angle = angle
        self.score_scale = score_scale
        self.points = points
        self.pending = pending
        self.region_cache = region_cache


class Top1Snapshot:
    """A pinned, frozen read view of one :class:`Top1Index` epoch.

    Reuses the index's own query kernels over frozen copies of the region
    arrays and point maps, so answers are identical to querying the index at
    the moment the snapshot was taken — and stay identical under concurrent
    updates until the snapshot is closed.
    """

    # Borrow the query kernels: they only read attributes the snapshot carries.
    query = Top1Index.query
    batch_query = Top1Index.batch_query
    _coords = Top1Index._coords
    _score = Top1Index._score
    _score_point = Top1Index._score_point

    def __init__(self, epoch) -> None:
        self._epoch = epoch
        self._closed = False
        view = epoch.state
        self.k = view.k
        self.angle = view.angle
        self.score_scale = view.score_scale
        self._points = view.points
        self._pending = view.pending
        self._frozen_regions = view.region_cache

    def _region_arrays(self):
        return self._frozen_regions

    def close(self) -> None:
        """Release the pinned epoch (idempotent)."""
        if not self._closed:
            self._closed = True
            self._epoch.release()

    def __enter__(self) -> "Top1Snapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def version(self) -> int:
        """The pinned epoch's version."""
        return self._epoch.version

    def __len__(self) -> int:
        return len(self._points) + len(self._pending)
