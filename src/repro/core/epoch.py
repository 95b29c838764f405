"""Epoch-based snapshot isolation for serve-while-mutate (DESIGN.md section 6).

Shard probes fan out on a thread pool while writers insert, delete and
rebalance.  Patching shared arrays in place under an in-flight read would
tear it — a half-extended row array, a mask ahead of its bounds, a router
mid-refit — and silently return wrong answers.

The standard fix for a read-mostly serving tier is not a global lock but
*versioned snapshots* (cf. ProvSQL's in-engine bookkeeping layered under
unchanged query semantics, and NeedleTail serving reads off immutable layouts
while appends land elsewhere — both in PAPERS.md):

* Readers **pin** the current :class:`Epoch` and execute entirely against its
  immutable ``state``; nothing a writer does afterwards can reach them.
* Writers prepare the next state off to the side (copy-on-write of exactly the
  arrays they change) and **publish** it — one reference swap under the
  manager lock, atomic with respect to every pin.
* A superseded epoch is **retired** at publish time and **reclaimed** (its
  state reference dropped, an optional callback fired) as soon as its reader
  refcount drains to zero.  An epoch is therefore alive iff it is current or
  some reader still holds it — no reader ever observes a reclaimed state, and
  no abandoned state outlives its last reader.

The manager serializes nothing but the pin/publish bookkeeping itself; callers
that allow multiple writer threads serialize the *preparation* of successor
states with their own write lock (the aggregator and sharded engines do).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional

from repro import faults

__all__ = ["Epoch", "EpochManager"]

#: Fault points of the epoch lifecycle (DESIGN.md §9).  Both fire *before*
#: any bookkeeping mutates, so an injected raise leaves the manager exactly
#: as it was — readers keep their pins, the current epoch stays current.
_FP_PIN = faults.declare_fault_point(
    "epoch.pin", "reader about to pin the current epoch"
)
_FP_PUBLISH = faults.declare_fault_point(
    "epoch.publish", "writer about to publish a successor epoch"
)


class Epoch:
    """One published, immutable version of a serving state.

    ``state`` is whatever payload the owner published (a flattened session
    state, a shard topology, a frozen region view).  The epoch itself only
    adds identity (``version``), the reader refcount, and its place in the
    retire/reclaim lifecycle.  All lifecycle transitions happen under the
    owning manager's lock; the ``pins``/``retired``/``reclaimed`` properties
    are unsynchronized peeks for monitoring and tests.
    """

    __slots__ = ("version", "state", "_pins", "_retired", "_reclaimed", "_manager")

    def __init__(self, manager: "EpochManager", version: int, state: Any) -> None:
        self.version = version
        self.state = state
        self._pins = 0
        self._retired = False
        self._reclaimed = False
        self._manager = manager

    @property
    def pins(self) -> int:
        """Readers currently holding this epoch."""
        return self._pins

    @property
    def retired(self) -> bool:
        """True once a newer epoch has been published over this one."""
        return self._retired

    @property
    def reclaimed(self) -> bool:
        """True once the state reference has been dropped (refcount drained)."""
        return self._reclaimed

    def release(self) -> None:
        """Unpin this epoch (idempotence is the caller's responsibility)."""
        self._manager.unpin(self)

    # Context-manager form so ``with manager.pin() as epoch:`` reads naturally.
    def __enter__(self) -> "Epoch":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (("R", self._retired), ("X", self._reclaimed))
            if on
        )
        return f"Epoch(version={self.version}, pins={self._pins}{', ' + flags if flags else ''})"


class EpochManager:
    """Hands out pinned immutable epochs to readers; publishes writer states.

    The lifecycle invariants (all enforced under one lock):

    * Exactly one epoch is *current* at any time (after the first publish).
    * ``pin`` returns the current epoch with its refcount raised — atomic with
      respect to ``publish``, so a reader can never pin a state that is
      already being torn down.
    * ``publish`` retires the previous current epoch; a retired epoch is
      reclaimed the moment its refcount drains (immediately, if unpinned).
    * Reclamation drops the epoch's state reference and fires ``on_reclaim``
      (used by tests to assert nothing leaks, and available to owners that
      cache derived structures per epoch).
    """

    def __init__(self, on_reclaim: Optional[Callable[[Epoch], None]] = None) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Epoch] = None
        self._version = 0
        self._published = 0
        self._reclaimed = 0
        self._retired_live: List[Epoch] = []
        self._on_reclaim = on_reclaim

    # ------------------------------------------------------------------ writers
    def publish(self, state: Any) -> Epoch:
        """Atomically install ``state`` as the new current epoch.

        The previous current epoch is retired; if no reader holds it, it is
        reclaimed before ``publish`` returns.  Returns the new epoch.
        """
        faults.fire(_FP_PUBLISH)
        to_reclaim: Optional[Epoch] = None
        with self._lock:
            self._version += 1
            self._published += 1
            epoch = Epoch(self, self._version, state)
            previous = self._current
            self._current = epoch
            if previous is not None:
                previous._retired = True
                if previous._pins == 0:
                    to_reclaim = previous
                    self._reclaim_locked(previous)
                else:
                    self._retired_live.append(previous)
        self._notify(to_reclaim)
        return epoch

    # ------------------------------------------------------------------ readers
    def pin(self) -> Epoch:
        """Pin and return the current epoch (raises before the first publish)."""
        faults.fire(_FP_PIN)
        with self._lock:
            if self._current is None:
                raise RuntimeError("no epoch has been published yet")
            self._current._pins += 1
            return self._current

    def unpin(self, epoch: Epoch) -> None:
        """Drop one reader reference; reclaims the epoch if it drained retired."""
        to_reclaim: Optional[Epoch] = None
        with self._lock:
            if epoch._pins <= 0:
                raise RuntimeError(
                    f"epoch {epoch.version} is not pinned (double release?)"
                )
            epoch._pins -= 1
            if epoch._pins == 0 and epoch._retired and not epoch._reclaimed:
                to_reclaim = epoch
                self._reclaim_locked(epoch)
                self._retired_live.remove(epoch)
        self._notify(to_reclaim)

    # ------------------------------------------------------------------ internals
    def _reclaim_locked(self, epoch: Epoch) -> None:
        epoch._reclaimed = True
        epoch.state = None
        self._reclaimed += 1

    def _notify(self, epoch: Optional[Epoch]) -> None:
        # Callbacks run outside the lock: they may touch the manager again.
        if epoch is not None and self._on_reclaim is not None:
            self._on_reclaim(epoch)

    # ------------------------------------------------------------------ peeking
    def current_state(self) -> Any:
        """The current epoch's state, read atomically under the manager lock.

        Safe without pinning: a concurrent publish can reclaim the *epoch*
        (dropping its state pointer), but the caller already holds a direct
        reference to the state object, which stays intact — reclamation never
        mutates published states.
        """
        with self._lock:
            if self._current is None:
                raise RuntimeError("no epoch has been published yet")
            return self._current.state

    @property
    def version(self) -> int:
        """Version of the most recently published epoch (0 before any)."""
        return self._version

    @property
    def published(self) -> int:
        """Total epochs ever published."""
        return self._published

    @property
    def reclaimed(self) -> int:
        """Total epochs reclaimed so far."""
        return self._reclaimed

    @property
    def live_epochs(self) -> int:
        """Epochs not yet reclaimed: the current one plus retired-but-pinned."""
        with self._lock:
            return (1 if self._current is not None else 0) + len(self._retired_live)

    @property
    def pinned_readers(self) -> int:
        """Total outstanding reader pins across all live epochs."""
        with self._lock:
            pins = sum(epoch._pins for epoch in self._retired_live)
            if self._current is not None:
                pins += self._current._pins
            return pins

    def leak_report(self) -> dict:
        """Counters for drain assertions in tests (one consistent view)."""
        with self._lock:
            return {
                "version": self._version,
                "published": self._published,
                "reclaimed": self._reclaimed,
                "live_epochs": (1 if self._current is not None else 0)
                + len(self._retired_live),
                "pinned_readers": sum(e._pins for e in self._retired_live)
                + (self._current._pins if self._current is not None else 0),
            }
