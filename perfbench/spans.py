"""Spans at the library's layer boundaries, recorded from the benchmark's side.

The traced run wraps public functions of each layer at runtime (the
``install`` table below); nothing under ``src/`` changes.  Each call made
while a phase is active records one :class:`Span`: name, start, end, parent
span, request or batch id, the phase, and a few counts read from the call's
arguments or result.  Spans stay in memory and are written out at exit.

Parents follow the caller's context (``contextvars``), so they are right for
nested calls, across ``await`` and per asyncio task.  Shard probes run on the
sharded engine's executor threads, which start with an empty context; kernel
spans opened there adopt the sharded batch span that is in flight (the
coalescer serves one batch at a time).

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  :func:`layer_metrics` turns the spans into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

#: Phases whose kernel and facade spans feed the read-side metrics.
READ_PHASES = ("read", "mixed", "open", "closed")
#: Phases in which the benchmark issues writes.
WRITE_PHASES = ("mixed", "write")

_KERNEL_RUNS = ("batch.run", "batch.snapshot_run")
_TOP_LEVEL_ANSWERS = (
    "sdindex.query",
    "sdindex.snapshot_query",
    "sdindex.batch_query",
    "sharding.batch_query",
    "sharding.snapshot_batch_query",
)
_SHARDED_BATCHES = ("sharding.batch_query", "sharding.snapshot_batch_query")
#: LSM shape of a read over a plain (non-layered) session state.
_FLAT = {"sources": 1, "delta": 0}

#: ``(name, unit, better)`` of the per-layer metrics, as in ``BENCHMARK.json``.
PER_LAYER = (
    ("sdindex.query_self_ms", "ms", "lower"),
    ("batch.run_ms", "ms", "lower"),
    ("batch.candidates_per_query", "count", "lower"),
    ("batch.overfetch_ratio", "ratio", "lower"),
    ("batch.run_ms_per_query", "ms", "lower"),
    ("lsm.sources_per_read", "count", "lower"),
    ("lsm.delta_rows_per_read", "count", "lower"),
    ("lsm.flushes", "count", "lower"),
    ("lsm.compactions", "count", "lower"),
    ("lsm.flush_ms", "ms", "lower"),
    ("lsm.compact_ms", "ms", "lower"),
    ("epoch.publishes_per_write", "count", "lower"),
    ("epoch.publish_ms", "ms", "lower"),
    ("epoch.pin_ms", "ms", "lower"),
    ("persistence.wal_append_p50_ms", "ms", "lower"),
    ("persistence.wal_append_p99_ms", "ms", "lower"),
    ("persistence.checkpoint_ms", "ms", "lower"),
    ("persistence.recover_load_ms", "ms", "lower"),
    ("persistence.recover_replay_ms", "ms", "lower"),
    ("persistence.replayed_records", "count", "lower"),
    ("persistence.wal_bytes_per_write", "bytes", "lower"),
    ("persistence.snapshot_bytes", "bytes", "lower"),
    ("sharding.probes_per_query", "count", "lower"),
    ("sharding.pruned_frac", "ratio", "higher"),
    ("sharding.rounds_per_call", "count", "lower"),
    ("sharding.probe_ms", "ms", "lower"),
    ("sharding.coord_ms", "ms", "lower"),
    ("serving.batch_size_mean", "count", "higher"),
    ("serving.queue_wait_ms", "ms", "lower"),
    ("serving.cache_hit_rate", "ratio", "higher"),
)


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "rid", "phase", "attrs")

    def __init__(self, sid, name, t0, parent, rid, phase, attrs) -> None:
        self.sid = sid
        self.name = name
        self.t0 = t0
        self.t1 = 0
        self.parent = parent
        self.rid = rid
        self.phase = phase
        self.attrs = attrs

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6


class NullTracer:
    """The untraced run's tracer: no wrappers, no spans, no cost."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def op(self, name: str):
        return self._NULL

    def set_phase(self, phase: Optional[str]) -> None:
        pass

    def watch_sharded(self, engine) -> None:
        pass


class Tracer:
    """Records spans while :attr:`phase` is set; owns the runtime wrappers."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase: Optional[str] = None
        self._ids = itertools.count(1)
        self._batch: Optional[Span] = None
        self._patches: List[Tuple[object, str, object]] = []
        self._sharded = None
        self._waiting: Dict[object, deque] = defaultdict(deque)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def set_phase(self, phase: Optional[str]) -> None:
        self.phase = phase

    def watch_sharded(self, engine) -> None:
        """The sharded engine whose ``serve_stats`` the batch spans read."""
        self._sharded = engine

    def _open(self, name: str, attrs=None, adopt: bool = False) -> Span:
        parent = _CURRENT.get()
        if parent is None and adopt:
            parent = self._batch
        sid = next(self._ids)
        span = Span(
            sid,
            name,
            time.perf_counter_ns(),
            parent.sid if parent is not None else 0,
            parent.rid if parent is not None else sid,
            self.phase,
            attrs,
        )
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def op(self, name: str):
        """A root span for one operation the benchmark issues (its own id)."""
        if self.phase is None:
            yield None
            return
        token = _CURRENT.set(None)
        span = self._open(name)
        _CURRENT.set(span)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter_ns()
            _CURRENT.reset(token)

    # ------------------------------------------------------------- wrappers
    def patch(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        adopt: bool = False,
        batch: bool = False,
        on_open: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (undone by :meth:`uninstall`).

        ``before(args, kwargs)`` returns the span's initial attrs and runs
        before the clock starts; ``on_open(span)`` runs once the span exists;
        ``after(span, args, kwargs, result)`` runs after the clock stops.
        ``adopt`` lets spans without a parent in their own context adopt the
        sharded batch in flight; ``batch`` marks the span as that batch while
        it is open.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self._wrap(fn, name, before, after, adopt, batch, on_open)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, fn, name, before, after, adopt, batch, on_open):
        tracer = self

        def opened(args, kwargs) -> Span:
            attrs = before(args, kwargs) if before is not None else None
            span = tracer._open(name, attrs, adopt)
            if batch:
                tracer._batch = span
            if on_open is not None:
                on_open(span)
            return span

        def closed(span: Span, args, kwargs, result, ok: bool) -> None:
            span.t1 = time.perf_counter_ns()
            if batch:
                tracer._batch = None
            if not ok:
                span.attrs = dict(span.attrs or {}, error=True)
            elif after is not None:
                after(span, args, kwargs, result)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return await fn(*args, **kwargs)
                span = opened(args, kwargs)
                token = _CURRENT.set(span)
                ok, result = False, None
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    _CURRENT.reset(token)
                    closed(span, args, kwargs, result, ok)

            return async_wrapper

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if tracer.phase is None:
                    yield from fn(*args, **kwargs)
                    return
                # The span covers the whole iteration, including the
                # consumer's work between items (for WAL replay: applying
                # each record), and counts the items yielded.
                span = opened(args, kwargs)
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    span.attrs = {"items": items}
                    closed(span, args, kwargs, None, True)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            span = opened(args, kwargs)
            token = _CURRENT.set(span)
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                _CURRENT.reset(token)
                closed(span, args, kwargs, result, ok)

        return wrapper

    # ------------------------------------------------------ per-call counts
    def _enqueue(self, span: Span, key) -> None:
        with self._lock:
            self._waiting[key].append(span)

    def _dequeue(self, key) -> Optional[Span]:
        with self._lock:
            waiting = self._waiting.get(key)
            return waiting.popleft() if waiting else None

    def install(self) -> None:
        """Wrap the layer boundaries the per-layer metrics are read from."""
        from repro.core import persistence
        from repro.core.batch import QuerySession, SessionSnapshot
        from repro.core.epoch import EpochManager
        from repro.core.lsm import LsmSession
        from repro.core.persistence import DurableIndex, WriteAheadLog
        from repro.core.sdindex import SDIndex, SDIndexSnapshot
        from repro.core.sharding import ShardedIndex, ShardedSnapshot
        from repro.serving.admission import AdmissionController
        from repro.serving.cache import ResultCache
        from repro.serving.coalescer import TickCoalescer, query_key

        def answer(span, _args, _kwargs, result):
            results = getattr(result, "results", None) or [result]
            span.attrs = dict(
                span.attrs or {},
                m=len(results),
                cand=sum(r.candidates_examined for r in results),
            )

        def lsm_counts(shape):
            sources = sum(1 for level in shape["levels"] if level["live"] > 0)
            return {
                "sources": sources + (1 if shape["delta_live"] else 0),
                "delta": shape["delta_live"],
            }

        def session_shape(args, _kwargs):
            structure = getattr(args[0], "structure", None)
            return lsm_counts(structure()) if structure is not None else dict(_FLAT)

        def view_shape(args, _kwargs):
            describe = getattr(args[0].state, "describe", None)
            return lsm_counts(describe()) if describe is not None else dict(_FLAT)

        def sharded(span, args, kwargs, result):
            answer(span, args, kwargs, result)
            engine = self._sharded if self._sharded is not None else args[0]
            stats = engine.serve_stats
            span.attrs.update(
                probes=stats["probes"], pruned=stats["pruned"], rounds=stats["rounds"]
            )

        def wal_size(args, _kwargs):
            return {"size": os.path.getsize(args[0].path)}

        def wal_grown(span, args, _kwargs, _result):
            span.attrs["bytes"] = os.path.getsize(args[0].path) - span.attrs.pop("size")

        def done(flag: Callable):
            def after(span, _args, _kwargs, result):
                span.attrs = {"done": bool(flag(result))}

            return after

        def coalescer_submit(args, kwargs):
            query = args[1] if len(args) > 1 else kwargs["query"]
            return {"key": query_key(query)}

        def cache_get(span, args, _kwargs, result):
            span.attrs = {"hit": result is not None}
            request = self._dequeue(args[1])
            if request is not None:
                span.rid = request.rid
                span.attrs["wait_ns"] = span.t0 - request.t0

        p = self.patch
        p(SDIndex, "query", "sdindex.query", after=answer)
        p(SDIndex, "batch_query", "sdindex.batch_query", after=answer)
        p(SDIndexSnapshot, "query", "sdindex.snapshot_query", after=answer)
        p(QuerySession, "run", "batch.run", before=session_shape, after=answer, adopt=True)
        p(QuerySession, "upper_bounds", "batch.upper_bounds", adopt=True)
        p(QuerySession, "sample_scores", "batch.sample_scores", adopt=True)
        p(SessionSnapshot, "run", "batch.snapshot_run", before=view_shape, after=answer, adopt=True)
        p(SessionSnapshot, "upper_bounds", "batch.snapshot_upper_bounds", adopt=True)
        p(SessionSnapshot, "sample_scores", "batch.snapshot_sample_scores", adopt=True)
        p(LsmSession, "flush", "lsm.flush", after=done(bool))
        p(LsmSession, "compact", "lsm.compact", after=done(lambda r: r is not None))
        p(EpochManager, "publish", "epoch.publish")
        p(EpochManager, "pin", "epoch.pin")
        p(WriteAheadLog, "append", "persistence.wal_append", before=wal_size, after=wal_grown)
        p(WriteAheadLog, "sync", "persistence.wal_sync")
        p(WriteAheadLog, "replay", "persistence.wal_replay")
        p(DurableIndex, "checkpoint", "persistence.checkpoint")
        p(DurableIndex, "recover", "persistence.recover")
        p(persistence, "load_engine", "persistence.load_engine")
        p(ShardedIndex, "batch_query", "sharding.batch_query", after=sharded, batch=True)
        p(ShardedSnapshot, "batch_query", "sharding.snapshot_batch_query", after=sharded, batch=True)
        # A request starts waiting for its batch when the coalescer takes it;
        # its batch starts with the cache lookup for its key.
        p(
            TickCoalescer,
            "submit",
            "serving.coalescer_submit",
            before=coalescer_submit,
            on_open=lambda span: self._enqueue(span, span.attrs["key"]),
        )
        p(ResultCache, "get", "serving.cache_get", after=cache_get)
        p(ResultCache, "put", "serving.cache_put")
        p(AdmissionController, "admit", "serving.admit")

    # --------------------------------------------------------------- output
    def write(self, path: Path) -> int:
        """Write every closed span as one JSON array per line; returns the count."""
        closed = [s for s in self.spans if s.t1]
        base = min((s.t0 for s in closed), default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for s in closed:
                attrs = {k: v for k, v in (s.attrs or {}).items() if k != "key"}
                out.write(
                    json.dumps([s.sid, s.name, s.t0 - base, s.t1 - base, s.parent, s.rid, s.phase, attrs])
                )
                out.write("\n")
        return len(closed)


# ------------------------------------------------------------ derived metrics
def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _covered_ns(span: Span, children: List[Span]) -> int:
    """Length of the union of the children's intervals inside ``span``."""
    covered = 0
    end = span.t0
    for child in sorted(children, key=lambda c: c.t0):
        start = max(child.t0, end)
        stop = min(child.t1, span.t1)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def _self_ms(span: Span, children: Dict[int, List[Span]]) -> float:
    return (span.t1 - span.t0 - _covered_ns(span, children.get(span.sid, []))) / 1e6


def _slowest_probe_per_round(probes: List[Span]) -> List[float]:
    """Probes of one sharded batch grouped into rounds; the slowest of each.

    Rounds run one after another and the probes of a round overlap, so a
    probe that starts after every probe seen so far has ended opens a new
    round.
    """
    slowest: List[float] = []
    round_end = None
    for probe in sorted(probes, key=lambda s: s.t0):
        if round_end is None or probe.t0 >= round_end:
            slowest.append(probe.ms)
            round_end = probe.t1
        else:
            slowest[-1] = max(slowest[-1], probe.ms)
            round_end = max(round_end, probe.t1)
    return slowest


def layer_metrics(spans: List[Span], inputs: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics (names as in ``BENCHMARK.json``) from recorded spans.

    ``inputs`` carries the values only the workload knows: the over-fetch
    ratio of the verified answers, the snapshot size on disk and the mean
    coalesced batch size.  A layer the workload does not reach reads 0.
    Calls that raised are left out (the accounting counts them).
    """
    closed = [s for s in spans if s.t1 and not (s.attrs or {}).get("error")]
    named: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in closed:
        named[span.name].append(span)
        children[span.parent].append(span)

    def spans_of(*names: str, phases=None) -> List[Span]:
        found = [s for name in names for s in named.get(name, [])]
        if phases is not None:
            found = [s for s in found if s.phase in phases]
        return found

    reads = spans_of(*_KERNEL_RUNS, phases=READ_PHASES)
    single_runs = [s for s in reads if s.attrs["m"] == 1]
    batched_runs = [s for s in reads if s.attrs["m"] > 1]
    answers = spans_of(*_TOP_LEVEL_ANSWERS, phases=READ_PHASES)
    flushes = [s for s in spans_of("lsm.flush") if s.attrs["done"]]
    compactions = [s for s in spans_of("lsm.compact") if s.attrs["done"]]
    writes = spans_of("op.write", phases=WRITE_PHASES)
    appends = spans_of("persistence.wal_append")
    loads = [
        s
        for s in spans_of("persistence.load_engine", phases=("persist",))
        if s.parent not in {p.sid for p in named.get("persistence.load_engine", [])}
    ]
    replays = spans_of("persistence.wal_replay", phases=("persist",))
    batches = spans_of(*_SHARDED_BATCHES, phases=READ_PHASES)
    gets = spans_of("serving.cache_get", phases=READ_PHASES)
    waits = [s.attrs["wait_ns"] / 1e6 for s in gets if "wait_ns" in s.attrs]
    append_ms = [s.ms for s in appends]
    probes = [p for b in batches for p in _slowest_probe_per_round(
        [c for c in children.get(b.sid, []) if c.name in _KERNEL_RUNS]
    )]
    tried = sum(b.attrs["probes"] + b.attrs["pruned"] for b in batches)

    return {
        "sdindex.query_self_ms": _mean(
            _self_ms(s, children) for s in spans_of("sdindex.query", phases=READ_PHASES)
        ),
        "batch.run_ms": _mean(s.ms for s in single_runs),
        "batch.candidates_per_query": (
            sum(s.attrs["cand"] for s in answers) / max(1, sum(s.attrs["m"] for s in answers))
        ),
        "batch.overfetch_ratio": inputs.get("overfetch_ratio", 0.0),
        "batch.run_ms_per_query": (
            sum(s.ms for s in batched_runs) / max(1, sum(s.attrs["m"] for s in batched_runs))
        ),
        "lsm.sources_per_read": _mean(s.attrs["sources"] for s in reads),
        "lsm.delta_rows_per_read": _mean(s.attrs["delta"] for s in reads),
        "lsm.flushes": float(len(flushes)),
        "lsm.compactions": float(len(compactions)),
        "lsm.flush_ms": _mean(s.ms for s in flushes),
        "lsm.compact_ms": _mean(s.ms for s in compactions),
        "epoch.publishes_per_write": (
            len(spans_of("epoch.publish", phases=WRITE_PHASES)) / len(writes) if writes else 0.0
        ),
        "epoch.publish_ms": _mean(s.ms for s in spans_of("epoch.publish")),
        "epoch.pin_ms": _mean(s.ms for s in spans_of("epoch.pin")),
        "persistence.wal_append_p50_ms": float(np.median(append_ms)) if append_ms else 0.0,
        "persistence.wal_append_p99_ms": (
            float(np.percentile(append_ms, 99, method="lower")) if append_ms else 0.0
        ),
        "persistence.checkpoint_ms": _mean(s.ms for s in spans_of("persistence.checkpoint")),
        "persistence.recover_load_ms": _mean(s.ms for s in loads),
        "persistence.recover_replay_ms": _mean(s.ms for s in replays),
        "persistence.replayed_records": _mean(s.attrs["items"] for s in replays),
        "persistence.wal_bytes_per_write": (
            sum(s.attrs["bytes"] for s in appends if s.phase in WRITE_PHASES) / len(writes)
            if writes
            else 0.0
        ),
        "persistence.snapshot_bytes": inputs.get("snapshot_bytes", 0.0),
        "sharding.probes_per_query": (
            sum(b.attrs["probes"] for b in batches) / max(1, sum(b.attrs["m"] for b in batches))
        ),
        "sharding.pruned_frac": sum(b.attrs["pruned"] for b in batches) / tried if tried else 0.0,
        "sharding.rounds_per_call": _mean(b.attrs["rounds"] for b in batches),
        "sharding.probe_ms": _mean(probes),
        "sharding.coord_ms": _mean(_self_ms(b, children) for b in batches),
        "serving.batch_size_mean": inputs.get("batch_size_mean", 0.0),
        "serving.queue_wait_ms": _mean(waits),
        "serving.cache_hit_rate": (
            sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0
        ),
    }
