"""Epoch-keyed result cache for the serving front end (DESIGN.md section 8).

The cache stores fully materialized :class:`repro.core.results.TopKResult`
objects under ``(query_key, epoch_key)``.  The epoch component is the pinned
snapshot's version (PR 4's epoch subsystem), so *every* epoch publication —
insert, delete, bulk patch, rebalance, reflatten — invalidates the whole
cache naturally: the next flush pins the new epoch, its lookups miss, and
the stale entries age out of the LRU ring with zero coordination.  No
listener, no generation counter, no explicit flush anywhere in the write
path.

Entries are treated as immutable by every consumer (the coalescer hands the
same ``TopKResult`` to all requesters of an identical query).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded LRU map of ``(query_key, epoch_key) -> TopKResult``.

    Not thread-safe by design: the coalescer reads and fills it only inside
    its batch worker (a single-thread executor), under the same epoch pin
    that serves the misses — which is exactly what makes the epoch keying
    airtight.  The loop thread only reads the integer counters for stats.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[Hashable, Hashable], Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected_degraded = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query_key: Hashable, epoch_key: Hashable) -> Optional[Any]:
        """The cached result for this query at this epoch, or None."""
        entry = self._entries.get((query_key, epoch_key))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((query_key, epoch_key))
        self.hits += 1
        return entry

    def put(self, query_key: Hashable, epoch_key: Hashable, result: Any) -> None:
        """Remember ``result`` for this query at this epoch (LRU-evicting).

        Degraded (explicitly partial) results are refused: a cached entry
        outlives the fault that degraded it, and the epoch key does not
        change when a shard recovers — so caching one would keep serving a
        partial answer at a fully healthy epoch.  The coalescer already
        skips them; this guard keeps the invariant local to the cache.
        """
        if getattr(result, "degraded", False):
            self.rejected_degraded += 1
            return
        key = (query_key, epoch_key)
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and zero the lifetime counters.

        An explicit clear starts a new observation window, so ``stats()``
        reporting hits/misses/evictions accumulated *before* the clear would
        misattribute them to the fresh cache.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected_degraded = 0

    def stats(self) -> Dict[str, int]:
        """Counters for monitoring and the benchmark report."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected_degraded": self.rejected_degraded,
        }
