"""Deterministic, seed-driven fault injection plane (DESIGN.md section 9).

Every layer of the stack — WAL appends and rotations, snapshot streams, shard
probes, kernel dispatch, epoch pin/publish, coalescer flushes — exposes named
injection sites, so "what happens when one shard is slow" or "what if the
process dies between these two writes" is testable without monkeypatching
internals.  One plane serves them all:

* **Named fault points.**  Every instrumented site declares itself with
  :func:`declare_fault_point` at import time and calls :func:`fire` inline.
  The registry is the contract: tests assert every declared point is
  actually exercised (no rotting injection sites), and the reverse scan
  asserts no site fires an undeclared name.
* **Deterministic rules.**  A :class:`FaultPlane` holds :class:`FaultRule`\\ s
  — each one targets a point (exact name or ``fnmatch`` glob, optionally a
  ``key`` such as a shard id), picks an action (``raise``, ``delay`` or
  ``hang``), and injects with a given probability from its **own seeded
  stream**.  The same seed always yields the same storm, so a chaos failure
  reproduces exactly; hit/injection counters make storms auditable.
* **Zero cost when idle.**  :func:`fire` is one module-global read and a
  ``None`` check when no plane is installed — cheap enough for serving-path
  call sites.
* **Open to callbacks.**  A subclass may override :meth:`FaultPlane.fire`
  to run arbitrary code at a point; the crash-recovery tests kill their
  process at the nth hit of one durability point that way.

Faults raised by the plane are :class:`InjectedFault`, carrying the point
name and a ``transient`` flag — the signal the resilience layer
(:mod:`repro.serving.breaker`, :class:`repro.core.sharding.ShardedIndex`)
uses to decide between retry/degrade and fail-fast.  This module depends on
nothing but the standard library, so every layer of the stack may import it
without cycles.
"""

from __future__ import annotations

import fnmatch
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultPlane",
    "declare_fault_point",
    "fault_points",
    "fire",
    "install_fault_plane",
    "installed_fault_plane",
    "fault_plane",
]

#: Actions a rule may take when it decides to inject.
_ACTIONS = ("raise", "delay", "hang")

#: Upper bound on how long a ``hang`` blocks even if never released — a
#: stuck chaos test should fail loudly, not wedge the whole suite.
_MAX_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """A fault raised by the plane at a named injection point.

    ``transient`` is the classification contract with the resilience layer:
    transient faults model recoverable conditions (a flaky probe, a slow
    disk) and are eligible for retry and graceful degradation; permanent
    ones model bugs and always propagate.
    """

    def __init__(self, point: str, transient: bool = True, key=None) -> None:
        self.point = point
        self.transient = bool(transient)
        self.key = key
        suffix = "" if key is None else f" (key={key!r})"
        super().__init__(f"injected fault at {point!r}{suffix}")


# ------------------------------------------------------------------ registry
_REGISTRY: Dict[str, str] = {}
_REGISTRY_LOCK = threading.Lock()


def declare_fault_point(name: str, description: str) -> str:
    """Register a named fault point (idempotent); returns the name.

    Instrumented modules declare their points at import time, next to the
    :func:`fire` call sites, so importing the stack populates the registry.
    The tripwire tests read it back through :func:`fault_points`.
    """
    with _REGISTRY_LOCK:
        _REGISTRY.setdefault(name, description)
    return name


def fault_points() -> Dict[str, str]:
    """All declared fault points, ``name -> description`` (a copy)."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


# --------------------------------------------------------------------- rules
@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a :class:`FaultPlane`.

    ``point`` is an exact fault-point name or an ``fnmatch`` glob
    (``"wal.append.*"``).  ``key`` narrows the rule to sites that fire with
    a matching key (e.g. one shard id) — ``None`` matches every key.
    ``rate`` is the per-hit injection probability drawn from the rule's own
    seeded stream; ``times`` caps the total injections (``None`` =
    unlimited).  For ``delay`` and ``hang``, ``delay_seconds`` is the stall
    length (a hang with ``delay_seconds=0`` blocks until the plane releases
    it, bounded by the module's hang cap).
    """

    point: str
    action: str = "raise"
    rate: float = 1.0
    key: Optional[object] = None
    delay_seconds: float = 0.0
    times: Optional[int] = None
    transient: bool = True

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; use one of {_ACTIONS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def matches(self, point: str, key) -> bool:
        if self.key is not None and key != self.key:
            return False
        if point == self.point:
            return True
        return fnmatch.fnmatchcase(point, self.point)


class FaultPlane:
    """A set of seeded fault rules, installable as the process fault plane.

    Each rule draws from its own ``random.Random`` stream seeded by
    ``(seed, rule_index)``, so whether hit *n* of a point injects depends
    only on the seed and the hit sequence — never on thread scheduling of
    *other* points.  ``sleep`` is injectable so tests can compress storms.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        sleep=time.sleep,
    ) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        # One independent stream per rule, derived from (seed, rule index)
        # with a large odd multiplier so nearby seeds do not share streams.
        self._streams = [
            random.Random(self.seed * 1_000_003 + index)
            for index in range(len(self.rules))
        ]
        self._injected = [0] * len(self.rules)
        self.hits: Dict[str, int] = {}
        self.injections: Dict[str, int] = {}
        #: Set to release every in-flight and future ``hang`` immediately.
        self._released = threading.Event()

    # ------------------------------------------------------------------ firing
    def fire(self, point: str, key=None) -> None:
        """One hit of ``point``; injects according to the matching rules."""
        actions: List[Tuple[FaultRule, int]] = []
        with self._lock:
            self.hits[point] = self.hits.get(point, 0) + 1
            for index, rule in enumerate(self.rules):
                if not rule.matches(point, key):
                    continue
                if rule.times is not None and self._injected[index] >= rule.times:
                    continue
                if rule.rate < 1.0 and self._streams[index].random() >= rule.rate:
                    continue
                self._injected[index] += 1
                self.injections[point] = self.injections.get(point, 0) + 1
                actions.append((rule, index))
        # Stalls and raises happen outside the lock: a hanging rule must not
        # serialize every other thread's (unrelated) fault-point hits.
        for rule, _index in actions:
            if rule.action == "delay":
                self._sleep(rule.delay_seconds)
            elif rule.action == "hang":
                timeout = rule.delay_seconds or _MAX_HANG_SECONDS
                self._released.wait(min(timeout, _MAX_HANG_SECONDS))
        for rule, _index in actions:
            if rule.action == "raise":
                raise InjectedFault(point, transient=rule.transient, key=key)

    def release_hangs(self) -> None:
        """Unblock every rule currently (or later) hanging."""
        self._released.set()

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Hit and injection counters per point (a consistent copy)."""
        with self._lock:
            return {"hits": dict(self.hits), "injections": dict(self.injections)}

    def total_injections(self) -> int:
        with self._lock:
            return sum(self.injections.values())

    # ------------------------------------------------------------------ parsing
    @classmethod
    def from_specs(
        cls, specs: Iterable[str], seed: int = 0, sleep=time.sleep
    ) -> "FaultPlane":
        """Build a plane from CLI-style specs.

        Each spec is ``point:action[:rate][:option=value...]`` with options
        ``key=`` (int or string), ``delay=`` (seconds), ``times=`` (int) and
        ``transient=`` (0/1), e.g.::

            shard.probe:raise:0.4:key=1
            coalescer.flush:delay:1.0:delay=0.002
            wal.append.synced:raise:0.25:transient=0
        """
        rules = []
        for spec in specs:
            parts = [part.strip() for part in str(spec).split(":")]
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise ValueError(
                    f"fault spec {spec!r} must look like 'point:action[:rate][:k=v]'"
                )
            point, action = parts[0], parts[1]
            rate = 1.0
            rest = parts[2:]
            if rest and "=" not in rest[0]:
                rate = float(rest[0])
                rest = rest[1:]
            options: Dict[str, object] = {}
            for item in rest:
                name, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(f"bad fault option {item!r} in {spec!r}")
                if name == "key":
                    options["key"] = int(value) if value.lstrip("-").isdigit() else value
                elif name == "delay":
                    options["delay_seconds"] = float(value)
                elif name == "times":
                    options["times"] = int(value)
                elif name == "transient":
                    options["transient"] = value not in ("0", "false", "False")
                else:
                    raise ValueError(f"unknown fault option {name!r} in {spec!r}")
            rules.append(FaultRule(point=point, action=action, rate=rate, **options))
        return cls(rules, seed=seed, sleep=sleep)


# -------------------------------------------------------------- installation
_PLANE: Optional[FaultPlane] = None
_PLANE_LOCK = threading.Lock()


def install_fault_plane(plane: Optional[FaultPlane]) -> None:
    """Install (or clear, with None) the process-wide fault plane."""
    global _PLANE
    with _PLANE_LOCK:
        _PLANE = plane


def installed_fault_plane() -> Optional[FaultPlane]:
    """The currently installed plane, if any."""
    return _PLANE


def fire(point: str, key=None) -> None:
    """One hit of a named fault point (no-op unless a plane is installed).

    The instrumentation call sites use this module-level entry so the idle
    cost is a single global read; ``key`` carries site context a rule may
    narrow on (the sharded engine passes the shard id).
    """
    plane = _PLANE
    if plane is not None:
        plane.fire(point, key=key)


@contextmanager
def fault_plane(plane: FaultPlane):
    """Scoped installation: install ``plane``, restore the previous on exit.

    On exit any hanging rules are released first, so a test that times out a
    hang can still tear down cleanly.
    """
    previous = _PLANE
    install_fault_plane(plane)
    try:
        yield plane
    finally:
        plane.release_hangs()
        install_fault_plane(previous)
