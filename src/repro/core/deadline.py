"""Deadline budgets for cooperative cancellation (DESIGN.md section 9).

A request's timeout used to live entirely in the asyncio layer: the waiting
future was cancelled, but the kernel work it had queued kept running to
completion on the executor thread.  Under a fault storm that is exactly
backwards — the slow work is the thing that must stop.  A :class:`Deadline`
is the budget threaded from :meth:`repro.serving.server.SDQueryServer.submit`
through the coalescer into the engines, which check it *cooperatively* at
their natural yield points (batch entry, between bound-ordered shard
rounds) and either stop with :class:`DeadlineExceeded` or — when the engine
is configured for graceful degradation — return what they have, explicitly
flagged partial.

The clock is injectable (and must be monotonic — wall-clock steps must
never expire or extend a budget); tests drive it by hand.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["Deadline", "DeadlineExceeded", "NO_TIMEOUT"]


class DeadlineExceeded(Exception):
    """A deadline budget ran out before the work completed."""

    def __init__(self, budget: float) -> None:
        self.budget = float(budget)
        super().__init__(f"deadline exceeded after {budget:.3f}s budget")


class _NoTimeout:
    """Singleton sentinel: the caller explicitly wants *no* deadline.

    Distinct from ``None``, which at the serving API means "use the
    configured default" — without the sentinel there was no way to ask for
    an unbounded request on a server with a default timeout.
    """

    _instance = None

    def __new__(cls) -> "_NoTimeout":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NO_TIMEOUT"

    def __reduce__(self):
        return (_NoTimeout, ())


#: Pass as ``timeout=`` to request an unbounded wait where ``None`` means
#: "use the configured default" (see ``SDQueryServer.submit``).
NO_TIMEOUT = _NoTimeout()


class Deadline:
    """A monotonic time budget checked cooperatively along the serving path."""

    __slots__ = ("budget", "_clock", "_expires")

    def __init__(
        self,
        budget_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # ``not >= 0`` rather than ``< 0``: NaN fails every comparison.
        if not budget_seconds >= 0:
            raise ValueError(f"budget must be >= 0, got {budget_seconds}")
        self.budget = float(budget_seconds)
        self._clock = clock
        self._expires = clock() + self.budget

    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> Optional["Deadline"]:
        """A deadline ``seconds`` from now, or None for an unbounded budget."""
        if seconds is None:
            return None
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left in the budget (never negative)."""
        return max(0.0, self._expires - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out."""
        if self.expired:
            raise DeadlineExceeded(self.budget)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget:.3f}s, remaining={self.remaining():.3f}s)"
