"""Top-k SD-Queries over 2D points with runtime ``k`` and weights (Section 4).

:class:`TopKIndex` wraps a :class:`repro.core.projection_tree.ProjectionTree`
and implements three query strategies:

``"flat"`` (default)
    Run the filter-and-verify level kernel of :mod:`repro.core.batch` — the
    one ``SDIndex`` levels run — over a cached flattened view of the tree,
    read as a one-pair level (the ``m = 1`` case of :meth:`TopKIndex.batch_query`).
    The flat view is built lazily and *maintained*: inserts append
    leaf-assigned rows and loosen only the covering leaf's bounds, deletes
    tombstone through a validity mask (one vectorized id compare), each on a
    copy-on-write clone, and the view reflattens only once garbage crosses a
    threshold (see DESIGN.md).  Survivors are verified with this index's own
    normalized-then-scaled score, so scores are bit-identical to
    ``"streams"``.

``"streams"``
    Open the four projection streams at the query angle and merge them with a
    TA-style threshold: the stream heads give an upper bound on the score of any
    point not yet seen, so the merge can stop as soon as the provisional k-th
    best score reaches that bound.  This is the refinement of Algorithm 2
    discussed in DESIGN.md; it is exact for every angle because per-node bounds
    at non-indexed angles are derived admissibly from the bracketing indexed
    angles.  Kept as the oracle for the flat path and for the incremental
    ``iter_best`` stream the Section 5 aggregation consumes.

``"claim6"``
    The paper's Algorithm 4: answer the query at the lower bracketing indexed
    angle, then enumerate results at the upper bracketing angle until they cover
    that answer set, and re-rank the union at the true query angle (Claim 6).

All strategies return identical score sets; the ``claim6`` strategy is kept for
fidelity and for the angle-grid ablation experiments.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.angles import AngleGrid
from repro.core.epoch import EpochManager
from repro.core.geometry import Angle
from repro.core.projection_tree import ProjectionTree, StreamSpec, require_finite
from repro.core.results import IndexStats, Match, TopKResult

__all__ = ["TopKIndex", "TopKSnapshot"]


class TopKIndex:
    """Index answering 2D top-k SD-Queries with runtime ``k``, ``alpha`` and ``beta``."""

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        angle_grid: Optional[AngleGrid] = None,
        branching: int = 8,
        leaf_capacity: int = 32,
        row_ids: Optional[Sequence[int]] = None,
        rebuild_threshold: float = 0.25,
    ) -> None:
        self.angle_grid = angle_grid or AngleGrid.default()
        require_finite(np.asarray(x, dtype=float))
        require_finite(np.asarray(y, dtype=float))
        self.tree = ProjectionTree(
            x,
            y,
            angles=tuple(self.angle_grid),
            branching=branching,
            leaf_capacity=leaf_capacity,
            row_ids=row_ids,
            rebuild_threshold=rebuild_threshold,
        )
        #: Maintained flattened view backing the ``"flat"`` strategy and
        #: ``batch_query``: built lazily, patched on updates, reflattened once
        #: its garbage fraction exceeds ``rebuild_threshold``.  Each patch
        #: clones the view copy-on-write and publishes it as a new epoch, so
        #: readers holding the previous view (or a pinned :meth:`snapshot`)
        #: are immune to the writer.
        self._flat = None
        self._flat_dirty = False
        self._flat_threshold = float(rebuild_threshold)
        self._write_lock = threading.RLock()
        self.flat_epochs = EpochManager()
        self.session_reflattens = 0

    def __len__(self) -> int:
        return len(self.tree)

    # ------------------------------------------------------------------ queries
    def flat_session(self):
        """The cached flattened view of the tree (build or reflatten lazily)."""
        from repro.core.batch import _FlatTree

        if self._flat is None or self._flat_dirty:
            with self._write_lock:
                if self._flat is None or self._flat_dirty:
                    if self._flat is not None:
                        self.session_reflattens += 1
                    self._flat = _FlatTree(self.tree)
                    self._flat_dirty = False
                    self.flat_epochs.publish(self._flat)
        return self._flat

    def snapshot(self) -> "TopKSnapshot":
        """Pin the current flat-view epoch: a repeatable-read view.

        Queries answered through the returned :class:`TopKSnapshot` run the
        vectorized flat kernels against the pinned view, unaffected by
        concurrent :meth:`insert`/:meth:`delete`.  Close it (or use it as a
        context manager) to release the pin.
        """
        self.flat_session()
        return TopKSnapshot(self, self.flat_epochs.pin())

    def query(
        self,
        qx: float,
        qy: float,
        k: int,
        alpha: float = 1.0,
        beta: float = 1.0,
        strategy: str = "flat",
    ) -> TopKResult:
        """Return the top-``k`` points for query ``(qx, qy)`` and weights ``alpha, beta``."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not (math.isfinite(qx) and math.isfinite(qy)):
            raise ValueError("query coordinates must be finite")
        if strategy == "flat":
            return self._query_flat(qx, qy, k, alpha, beta)
        if strategy == "streams":
            return self._query_streams(qx, qy, k, alpha, beta)
        if strategy == "claim6":
            return self._query_claim6(qx, qy, k, alpha, beta)
        raise ValueError(
            f"unknown strategy {strategy!r}; use 'flat', 'streams' or 'claim6'"
        )

    def _query_flat(self, qx: float, qy: float, k: int, alpha: float, beta: float) -> TopKResult:
        """The ``m = 1`` fast path through the vectorized batch kernels."""
        if alpha <= 0.0 or beta <= 0.0:
            # Degenerate axis-aligned weights: the batch kernels require
            # strictly positive weights, the stream merge does not.
            return self._query_streams(qx, qy, k, alpha, beta)
        from repro.core.batch import batch_topk_2d

        return batch_topk_2d(
            self.flat_session(), [qx], [qy], k, alpha=alpha, beta=beta,
            label="sd-topk/flat",
        ).results[0]

    def batch_query(
        self,
        qx,
        qy,
        k,
        alpha=1.0,
        beta=1.0,
    ):
        """Answer many 2D top-k queries at once with the vectorized batch engine.

        ``qx``/``qy`` are ``(m,)`` arrays of query coordinates; ``k``/``alpha``/
        ``beta`` are scalars or ``(m,)`` vectors.  Returns a
        :class:`repro.core.results.BatchResult`; scores are bit-identical to
        :meth:`query` and row ids agree whenever the k-th best score is not
        exactly tied with the (k+1)-th (see :mod:`repro.core.batch`).
        """
        from repro.core.batch import batch_topk_2d

        return batch_topk_2d(self.flat_session(), qx, qy, k, alpha=alpha, beta=beta)

    def iter_best(
        self,
        qx: float,
        qy: float,
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> Iterator[Tuple[int, float]]:
        """Yield ``(row_id, score)`` pairs in non-increasing score order.

        This incremental form of the top-k query is what the higher-dimensional
        aggregation of Section 5 consumes: each 2D subproblem is represented by
        such a stream and the threshold algorithm pulls from it on demand.
        """
        angle = Angle.from_weights(alpha, beta)
        scale = math.hypot(alpha, beta)
        qx, qy = float(qx), float(qy)
        streams = self.tree.open_streams(qx, angle)
        emitted: set = set()
        pool: List[Tuple[float, int]] = []  # max-heap via negated scores
        pooled: set = set()

        cos_qy = angle.cos * qy
        sin_qx = angle.sin * qx
        cos = angle.cos
        sin = angle.sin
        # Each stream head implies an upper bound on the score of every point that
        # stream has not yet produced; uniformly bound = sign * key + offset.
        # Lower streams: bound = (projected height at the axis) - cos*qy.
        # Upper streams: bound = cos*qy - (projected height at the axis).
        stream_terms = [
            (streams[StreamSpec.LLP], 1.0, sin_qx - cos_qy),
            (streams[StreamSpec.RLP], 1.0, -sin_qx - cos_qy),
            (streams[StreamSpec.LUP], -1.0, cos_qy + sin_qx),
            (streams[StreamSpec.RUP], -1.0, cos_qy - sin_qx),
        ]

        def head_bound(entry) -> float:
            stream, sign, offset = entry
            key = stream.head_key()
            if key is None:
                return -math.inf
            return sign * key + offset

        while True:
            # Refill the candidate pool until its best member provably beats every
            # unseen point (TA-style threshold over the four stream heads).
            while True:
                best_entry = None
                threshold = -math.inf
                for entry in stream_terms:
                    bound = head_bound(entry)
                    if bound > threshold:
                        threshold = bound
                        best_entry = entry
                if pool and -pool[0][0] >= threshold:
                    break
                if threshold == -math.inf:
                    break
                try:
                    row, px, py, _key = next(best_entry[0])
                except StopIteration:
                    continue
                if row in emitted or row in pooled:
                    continue
                score = cos * abs(py - qy) - sin * abs(px - qx)
                heapq.heappush(pool, (-score, row))
                pooled.add(row)
            if not pool:
                return
            negative_score, row = heapq.heappop(pool)
            pooled.discard(row)
            emitted.add(row)
            yield row, -negative_score * scale

    def _query_streams(self, qx: float, qy: float, k: int, alpha: float, beta: float) -> TopKResult:
        matches: List[Match] = []
        examined = 0
        for row, score in self.iter_best(qx, qy, alpha, beta):
            examined += 1
            matches.append(Match(row_id=row, score=score, point=self.tree.point(row)))
            if len(matches) >= k:
                break
        return TopKResult(
            matches=matches,
            candidates_examined=examined,
            full_evaluations=examined,
            algorithm="sd-topk/streams",
        )

    # ------------------------------------------------------------------ Claim 6
    def _query_claim6(self, qx: float, qy: float, k: int, alpha: float, beta: float) -> TopKResult:
        query_angle = Angle.from_weights(alpha, beta)
        scale = math.hypot(alpha, beta)
        lower, upper = self.angle_grid.bracket(query_angle)
        examined = 0

        def weighted_score(row: int) -> float:
            px, py = self.tree.point(row)
            return scale * query_angle.normalized_score(px - qx, py - qy)

        if lower.radians == upper.radians:
            # The query angle is indexed: answer directly at that angle.
            rows: List[int] = []
            for row, _ in self._iter_at_angle(qx, qy, lower):
                rows.append(row)
                examined += 1
                if len(rows) >= k:
                    break
            matches = [
                Match(row_id=row, score=weighted_score(row), point=self.tree.point(row))
                for row in rows
            ]
            return TopKResult(
                matches=matches,
                candidates_examined=examined,
                full_evaluations=examined,
                algorithm="sd-topk/claim6",
            )

        # Step 1: top-k at the lower bracketing angle.
        top_lower: List[int] = []
        lower_scores: List[float] = []
        for row, score in self._iter_at_angle(qx, qy, lower):
            top_lower.append(row)
            lower_scores.append(score)
            examined += 1
            if len(top_lower) >= k:
                break
        required = set(top_lower)

        # Step 2: enumerate at the upper bracketing angle until the prefix covers
        # the lower-angle answer set (consuming ties so the prefix is well defined).
        candidates: Dict[int, float] = {}
        missing = set(required)
        boundary_score: Optional[float] = None
        for row, score in self._iter_at_angle(qx, qy, upper):
            if not missing and (boundary_score is None or score < boundary_score - 1e-12):
                break
            candidates[row] = score
            missing.discard(row)
            boundary_score = score
            examined += 1
        for row in top_lower:
            candidates.setdefault(row, 0.0)

        matches = sorted(
            Match(row_id=row, score=weighted_score(row), point=self.tree.point(row))
            for row in candidates
        )[:k]
        return TopKResult(
            matches=matches,
            candidates_examined=examined,
            full_evaluations=len(candidates),
            algorithm="sd-topk/claim6",
        )

    def _iter_at_angle(self, qx: float, qy: float, angle: Angle) -> Iterator[Tuple[int, float]]:
        """Best-first iteration at an exactly indexed angle (normalized weights)."""
        return self.iter_best(qx, qy, alpha=angle.cos, beta=angle.sin)

    # ------------------------------------------------------------------ updates
    def insert(self, x: float, y: float, row_id: Optional[int] = None) -> int:
        """Insert a point (see :meth:`ProjectionTree.insert`).

        The cached flat view, if built, is patched rather than discarded: the
        point is appended to its covering leaf and only that leaf's bounds
        loosen.  The patch lands on a copy-on-write clone that is then
        published, so readers of the previous view are unaffected.
        """
        require_finite((float(x), float(y)))
        with self._write_lock:
            row = self.tree.insert(x, y, row_id)
            flat = self._flat
            if flat is not None and not self._flat_dirty:
                if flat.num_leaves == 0:
                    self._flat_dirty = True
                else:
                    flat = flat.clone()
                    flat.append_points([row], [float(x)], [float(y)])
                    self._install_flat(flat)
            return row

    def delete(self, row_id: int) -> None:
        """Delete a point (see :meth:`ProjectionTree.delete`).

        The cached flat view tombstones the row through its validity mask
        (on a published copy-on-write clone).
        """
        with self._write_lock:
            self.tree.delete(row_id)
            flat = self._flat
            if flat is not None and not self._flat_dirty:
                flat = flat.clone()
                flat.tombstone_rows([row_id])
                self._install_flat(flat)

    def _install_flat(self, flat) -> None:
        """Publish a patched flat view and re-check its garbage threshold."""
        self._flat = flat
        self.flat_epochs.publish(flat)
        if flat.garbage_fraction() > self._flat_threshold:
            self._flat_dirty = True

    # ------------------------------------------------------------- persistence
    def save(self, path) -> None:
        """Write a durable snapshot of the maintained flat view at ``path``.

        Pins the current flat epoch (writers keep running while the arrays
        stream) and records the tree build parameters; :meth:`load` rebuilds
        the projection tree lazily on first structural need.
        """
        from repro.core.persistence import save_engine

        save_engine(self, path)

    @classmethod
    def load(cls, path, mmap: bool = False, verify: Optional[bool] = None) -> "TopKIndex":
        """Load a snapshot written by :meth:`save` (``mmap=True`` maps arrays)."""
        from repro.core.persistence import load_engine

        return load_engine(path, mmap=mmap, verify=verify, expect="topk")

    def rebuild(self) -> None:
        """Force a rebuild of the underlying tree (drops the flat view too)."""
        with self._write_lock:
            self.tree.rebuild()
            self._flat = None
            self._flat_dirty = False

    # ------------------------------------------------------------------ stats
    def stats(self) -> IndexStats:
        """Size statistics of the underlying projection tree."""
        stats = self.tree.stats()
        stats.name = "sd-topk"
        return stats


class TopKSnapshot:
    """A pinned, immutable flat view of one :class:`TopKIndex` epoch.

    Answers 2D top-k queries through the vectorized flat kernels against the
    pinned view; concurrent inserts and deletes on the owning index publish
    new epochs and never touch this one.  Weights must be strictly positive
    (the flat kernels' requirement — the degenerate axis-aligned fallback
    needs the live tree, which a snapshot deliberately does not read).
    """

    def __init__(self, index: TopKIndex, epoch) -> None:
        self._index = index
        self._epoch = epoch
        self._closed = False

    def close(self) -> None:
        """Release the pinned epoch (idempotent)."""
        if not self._closed:
            self._closed = True
            self._epoch.release()

    def __enter__(self) -> "TopKSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def version(self) -> int:
        """The pinned flat epoch's version."""
        return self._epoch.version

    @property
    def flat(self):
        if self._closed:
            raise RuntimeError("top-k snapshot is closed")
        return self._epoch.state

    def __len__(self) -> int:
        return self.flat.live_count

    def query(self, qx: float, qy: float, k: int, alpha: float = 1.0, beta: float = 1.0) -> TopKResult:
        """Top-``k`` for one query point against the pinned view."""
        return self.batch_query([qx], [qy], k, alpha=alpha, beta=beta).results[0]

    def batch_query(self, qx, qy, k, alpha=1.0, beta=1.0):
        """Top-``k`` for a batch of query points against the pinned view."""
        from repro.core.batch import batch_topk_2d

        return batch_topk_2d(
            self.flat, qx, qy, k, alpha=alpha, beta=beta, label="sd-topk/snapshot"
        )
