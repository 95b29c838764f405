"""Multi-process sharded serving over memory-mapped snapshots (DESIGN.md §10).

:class:`~repro.core.sharding.ShardedIndex` parallelizes shard probes on a
thread pool, so the GIL caps it at roughly one core of Python dispatch no
matter how many shards exist.  :class:`ProcessShardedIndex` breaks that
ceiling: one **worker process per shard**, each mmap-loading its sub-snapshot
read-only via :func:`repro.core.persistence.load_engine` (``mmap=True``) and
serving it through the same maintained
:class:`~repro.core.batch.QuerySession`, with a scatter-gather coordinator
that reuses the thread engine's bound-ordered visitation and cross-shard
k-th pruning loop *verbatim* — results are bit-identical to the flat engine
by construction (same ``(-score, row_id)`` tie-break).

Architecture
------------
The coordinator keeps a full in-process :class:`ShardedIndex` (the *primary*)
wrapped in a :class:`~repro.core.persistence.DurableIndex`:

* **Writes** apply to the primary and journal to the WAL — the acknowledged
  op stream is the single source of truth.
* **Workers catch up by WAL tail replay**: before a serve, every worker whose
  last-seen LSN trails the log is sent a ``sync`` and replays the records
  routed to its shard (read-only tailing via
  :func:`~repro.core.persistence.read_wal_tail`; a worker never *opens* the
  log, which would truncate a torn tail under the writer).  By the crash
  recovery invariant (DESIGN.md §7), snapshot + tail replay answers
  bit-identically to the applied stream, so worker views and primary views
  agree float-for-float.
* **Bound math stays local.**  The serve pins the primary's snapshot cut and
  computes per-shard upper bounds, sample-seeded k-th lower bounds and prune
  thresholds from the primary's views — only the expensive ``run`` probes go
  over IPC, one request per visited shard per round.
* **Epoch publication is a snapshot-version flip**: ``checkpoint()`` streams
  a new snapshot through the DurableIndex, then broadcasts ``flip`` so each
  worker mmap-loads its new sub-snapshot and closes the old engine (whose
  :class:`~repro.core.persistence.MmapGuard` releases the stale file maps —
  snapshot pruning never races an open handle).  Rebalances always flip,
  which is why a worker legitimately never sees ``OP_REBALANCE`` in a tail.
* **Worker death degrades, never hangs.**  Pipe breakage and probe timeouts
  surface as :class:`WorkerDied` (a ``ConnectionError``, hence transient
  under a :class:`~repro.serving.breaker.ResiliencePolicy`), which the
  shared serving loop maps onto the per-shard
  :class:`~repro.serving.breaker.CircuitBreaker` and
  :class:`~repro.core.results.ShardCoverage` degradation path.  Dead workers
  respawn asynchronously from the current snapshot and rejoin once their
  breaker half-opens.

IPC wire format (pickled tuples over a duplex ``multiprocessing.Pipe``):

* request: ``(seq, op, payload)`` with ``op`` one of ``"probe"``, ``"sync"``,
  ``"flip"``, ``"ping"``, ``"stop"``.
* reply: ``(seq, status, payload)`` with ``status`` one of ``"ok"``,
  ``"deadline"``, ``"error"``.  ``seq`` echoes the request, so the
  coordinator can drain stale replies left behind by a timed-out probe.
* boot handshake: the worker sends ``(0, "ready", lsn)`` once its snapshot
  is mapped (or ``(0, "error", message)`` if loading failed).

Consistency model: one coordinator lock serializes writers, flips and the
pin phase of every serve, so a serve always observes workers synced to the
exact LSN of the primary cut it pinned.  Probes inside one serve still fan
out concurrently — the executor threads merely block on worker I/O, so shard
kernels genuinely run on distinct cores.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import BatchQuerySpec
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.persistence import (
    CURRENT_NAME,
    OP_BULK_DELETE,
    OP_BULK_INSERT,
    OP_COMPACT,
    OP_DELETE,
    OP_FLUSH,
    OP_INSERT,
    WAL_NAME,
    DurableIndex,
    load_engine,
    read_wal_tail,
)
from repro.core.query import SDQuery
from repro.core.results import BatchResult, TopKResult
from repro.core.sharding import ShardedIndex, ShardRouter
from repro.serving.breaker import ResiliencePolicy

__all__ = ["ProcessShardedIndex", "ProcessSnapshot", "WorkerDied"]


class WorkerDied(ConnectionError):
    """A shard worker process crashed, hung past its op timeout, or lagged.

    Subclasses ``ConnectionError`` so every default
    :class:`~repro.serving.breaker.ResiliencePolicy` treats it as transient:
    the probe records a breaker failure and the serve degrades that shard
    instead of erroring, exactly like a thread-backend shard fault.
    """


# --------------------------------------------------------------- worker side
class _WorkerState:
    """Everything one worker process owns: engine, view, router."""

    def __init__(self, shard_id: int, boot: Dict) -> None:
        self.shard_id = int(shard_id)
        self.wal_path = boot["wal_path"]
        self.lsn = int(boot["lsn"])
        self.router = self._build_router(boot["router"])
        self.engine = None
        self.view = None
        self._load(boot["shard_dir"])

    @staticmethod
    def _build_router(payload: Dict) -> ShardRouter:
        boundaries = payload.get("boundaries")
        router = ShardRouter(
            int(payload["num_shards"]),
            partitioner=payload["partitioner"],
            range_dim=payload.get("range_dim"),
            boundaries=None if boundaries is None else np.asarray(boundaries),
        )
        router.salt = int(payload.get("salt", 0))
        return router

    def _load(self, shard_dir: str) -> None:
        self.engine = load_engine(shard_dir, mmap=True, expect="aggregator")
        self._repin()

    def _repin(self) -> None:
        if self.view is not None:
            self.view.close()
        self.view = self.engine.serving_session().snapshot()

    # ------------------------------------------------------------------- ops
    def probe(self, payload) -> BatchResult:
        spec, lower_bounds, budget, label = payload
        deadline = None if budget is None else Deadline(budget)
        return self.view.run(
            spec, lower_bounds=lower_bounds, deadline=deadline, _label=label
        )

    def sync(self, target_lsn: int) -> int:
        """Replay the WAL tail up to ``target_lsn``; returns the new LSN."""
        target_lsn = int(target_lsn)
        if target_lsn <= self.lsn:
            return self.lsn
        for lsn, op, ids, matrix in read_wal_tail(self.wal_path, after_lsn=self.lsn):
            if lsn > target_lsn:
                break
            self._apply(op, ids, matrix)
            self.lsn = lsn
        if self.lsn < target_lsn:
            # The coordinator flushes appends before announcing a target, so
            # a short read means the log was rotated under us (a missed flip).
            raise RuntimeError(
                f"WAL tail ends at lsn {self.lsn}, coordinator wants {target_lsn}"
            )
        self._repin()
        return self.lsn

    def _apply(self, op: int, ids: np.ndarray, matrix) -> None:
        if op in (OP_INSERT, OP_BULK_INSERT):
            block = np.asarray(matrix, dtype=float)
            mine = self.router.route(ids, block) == self.shard_id
            if mine.any():
                self.engine.bulk_insert(block[mine], row_ids=np.asarray(ids)[mine])
        elif op in (OP_DELETE, OP_BULK_DELETE):
            # Only this shard's rows: the engine's row store says which.
            ids = np.asarray(ids, dtype=np.int64)
            mine = ids[self.engine.live_mask(ids)]
            if len(mine):
                self.engine.bulk_delete(mine)
        elif op in (OP_FLUSH, OP_COMPACT):
            # LSM structure ops are local to the engine that ran them (level
            # seqs name *that* engine's levels); the worker's own aggregator
            # schedules its own maintenance, and answers are structure-blind.
            pass
        else:
            # Rebalance/rebuild reshuffle rows across shards; the coordinator
            # always ships those as a snapshot flip, never as tail records.
            raise RuntimeError(f"op {op} must arrive as a snapshot flip, not a sync")

    def flip(self, payload) -> int:
        shard_dir, lsn, router_payload = payload
        old_engine, old_view = self.engine, self.view
        self.view = None
        self._load(shard_dir)
        self.lsn = int(lsn)
        self.router = self._build_router(router_payload)
        if old_view is not None:
            old_view.close()
        if old_engine is not None:
            old_engine.close()  # drops the superseded snapshot's file maps
        return self.lsn

    def close(self) -> None:
        if self.view is not None:
            self.view.close()
            self.view = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None


def _worker_main(shard_id: int, conn, boot: Dict) -> None:
    """Entry point of one shard worker process (spawn start method)."""
    try:
        state = _WorkerState(shard_id, boot)
    except BaseException as exc:  # noqa: BLE001 - report any boot failure
        try:
            conn.send((0, "error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError, BrokenPipeError):
            pass
        return
    try:
        conn.send((0, "ready", state.lsn))
    except (OSError, ValueError, BrokenPipeError):
        return
    while True:
        try:
            seq, op, payload = conn.recv()
        except (EOFError, OSError):
            break
        if op == "stop":
            break
        try:
            if op == "probe":
                reply = state.probe(payload)
            elif op == "sync":
                reply = state.sync(payload)
            elif op == "flip":
                reply = state.flip(payload)
            elif op == "ping":
                reply = "pong"
            else:
                raise RuntimeError(f"unknown worker op {op!r}")
        except DeadlineExceeded as exc:
            message = (seq, "deadline", exc.budget)
        except Exception as exc:  # noqa: BLE001 - ship the failure upstream
            message = (seq, "error", f"{type(exc).__name__}: {exc}")
        else:
            message = (seq, "ok", reply)
        try:
            conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            break
    state.close()


# ---------------------------------------------------------- coordinator side
class _WorkerHandle:
    """Coordinator-side bookkeeping for one shard worker process."""

    __slots__ = ("shard", "process", "conn", "lock", "seq", "ready", "lsn")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.seq = 0
        self.ready = False
        self.lsn = -1

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _WorkerView:
    """Duck-typed stand-in for one shard's ``SessionSnapshot`` in the serve loop.

    Bound math (``upper_bounds`` / ``sample_scores`` / ``data_magnitude`` /
    ``num_live``) delegates to the *primary's* pinned local view — cheap, and
    bit-identical to what the worker would compute.  Only :meth:`run`, the
    actual shard kernel, crosses the process boundary.
    """

    __slots__ = ("_engine", "_handle", "_local")

    def __init__(self, engine: "ProcessShardedIndex", handle: _WorkerHandle, local) -> None:
        self._engine = engine
        self._handle = handle
        self._local = local

    @property
    def num_live(self) -> int:
        return self._local.num_live

    def upper_bounds(self, spec):
        return self._local.upper_bounds(spec)

    def sample_scores(self, spec, pool: int):
        return self._local.sample_scores(spec, pool)

    def data_magnitude(self) -> float:
        return self._local.data_magnitude()

    def live_row_ids(self):
        return self._local.live_row_ids()

    def live_matrix(self):
        return self._local.live_matrix()

    def run(self, spec, lower_bounds=None, deadline=None, _label="sd-procshard"):
        return self._engine._probe_worker(
            self._handle, spec, lower_bounds, deadline, _label
        )


class _ProxySnapshot:
    """The ``snap`` the reused serving loop sees: just a list of views."""

    __slots__ = ("views",)

    def __init__(self, views: List[_WorkerView]) -> None:
        self.views = views


class ProcessSnapshot:
    """A serve handle for the process backend (coalescer/server integration).

    Pinning acquires the coordinator lock, so the worker fleet cannot advance
    past the pinned LSN until :meth:`close` — pin, serve and close **must**
    happen on one thread (the coalescer's ``run_pinned`` does exactly that).
    ``version`` keys result caches: ``(flip_count, end_lsn)`` changes on
    every acknowledged write and every snapshot flip.
    """

    supports_deadline = True

    def __init__(self, engine: "ProcessShardedIndex") -> None:
        engine._lock.acquire()
        try:
            engine._check_closed()
            self._version = (engine._flip_count, engine._durable.end_lsn)
        except BaseException:
            engine._lock.release()
            raise
        self._engine = engine
        self._closed = False

    @property
    def version(self) -> Tuple[int, int]:
        return self._version

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._engine)

    def batch_query(self, queries, k=None, alpha=None, beta=None, deadline=None):
        if self._closed:
            raise RuntimeError("ProcessSnapshot is closed")
        spec = BatchQuerySpec.coerce(
            self._engine.repulsive,
            self._engine.attractive,
            self._engine.num_dims,
            queries,
            k=k,
            alpha=alpha,
            beta=beta,
        )
        return self._engine._serve_spec(spec, deadline=deadline)

    def query(self, query, k=None, alpha=None, beta=None):
        if self._closed:
            raise RuntimeError("ProcessSnapshot is closed")
        spec = ShardedIndex._coerce_single(self._engine, query, k, alpha, beta)
        return self._engine._serve_spec(spec).results[0]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._engine._lock.release()

    def __enter__(self) -> "ProcessSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ProcessShardedIndex:
    """One worker process per shard, serving mmap'd snapshots scatter-gather.

    Construction mirrors :class:`~repro.core.sharding.ShardedIndex` (same
    dimension roles and sharding knobs, same query surface, bit-identical
    answers) plus the durability knobs: ``path`` roots the snapshot + WAL
    directory (a private temporary directory, removed on close, when omitted)
    and ``fsync`` selects the WAL commit policy.

    Writers apply to the in-process primary through a
    :class:`~repro.core.persistence.DurableIndex`; workers catch up by WAL
    tail replay at the next serve.  ``resilience`` defaults to a
    retry-free degrade policy so a killed worker costs one degraded response
    per open breaker, never a hang; pass ``resilience=None`` explicitly via
    :class:`~repro.serving.breaker.ResiliencePolicy` knobs to tune.
    """

    #: Seconds a worker may sit on one op (probe/sync/flip) before the
    #: coordinator declares it hung, kills it and degrades the shard.
    DEFAULT_OP_TIMEOUT = 30.0

    def __init__(
        self,
        data: np.ndarray,
        repulsive: Sequence[int],
        attractive: Sequence[int],
        num_shards: int = 4,
        partitioner: str = "hash",
        range_dim: Optional[int] = None,
        path: Optional[Union[str, Path]] = None,
        fsync: str = "commit",
        resilience: Optional[ResiliencePolicy] = None,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        op_timeout: float = DEFAULT_OP_TIMEOUT,
        spawn_wait: Optional[float] = 60.0,
        **index_options,
    ) -> None:
        inner = ShardedIndex(
            data,
            repulsive=repulsive,
            attractive=attractive,
            num_shards=num_shards,
            partitioner=partitioner,
            range_dim=range_dim,
            **index_options,
        )
        self._init_from_engine(
            inner,
            path=path,
            fsync=fsync,
            resilience=resilience,
            parallel=parallel,
            max_workers=max_workers,
            op_timeout=op_timeout,
            spawn_wait=spawn_wait,
        )

    @classmethod
    def from_engine(
        cls,
        inner: ShardedIndex,
        path: Optional[Union[str, Path]] = None,
        fsync: str = "commit",
        resilience: Optional[ResiliencePolicy] = None,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        op_timeout: float = DEFAULT_OP_TIMEOUT,
        spawn_wait: Optional[float] = 60.0,
    ) -> "ProcessShardedIndex":
        """Wrap an existing (exclusively owned) ShardedIndex as the primary."""
        self = cls.__new__(cls)
        self._init_from_engine(
            inner,
            path=path,
            fsync=fsync,
            resilience=resilience,
            parallel=parallel,
            max_workers=max_workers,
            op_timeout=op_timeout,
            spawn_wait=spawn_wait,
        )
        return self

    def _init_from_engine(
        self,
        inner: ShardedIndex,
        *,
        path,
        fsync,
        resilience,
        parallel,
        max_workers,
        op_timeout,
        spawn_wait,
    ) -> None:
        self._inner = inner
        self.repulsive = inner.repulsive
        self.attractive = inner.attractive
        self.num_dims = inner.num_dims
        self.parallel = parallel
        self._max_workers = max_workers
        self._op_timeout = float(op_timeout)
        self.resilience = (
            resilience if resilience is not None else ResiliencePolicy(retry=None)
        )
        self._breakers = self.resilience.build_breakers(inner.num_shards)
        self.serve_stats: Dict[str, int] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._lock = threading.RLock()
        self._flip_count = 0
        self._serve_lsn = 0

        self._own_path = path is None
        self._path = Path(tempfile.mkdtemp(prefix="procshard-") if path is None else path)
        self._durable = DurableIndex.create(inner, self._path, fsync=fsync)
        self._snapshot_dir = self._current_snapshot_dir()
        self._mp = multiprocessing.get_context("spawn")
        self._workers = [_WorkerHandle(shard) for shard in range(inner.num_shards)]
        for handle in self._workers:
            self._spawn(handle)
        if spawn_wait:
            self.await_workers(spawn_wait)

    # ------------------------------------------------------------------ basics
    @property
    def num_shards(self) -> int:
        return self._inner.num_shards

    @property
    def path(self) -> Path:
        """The snapshot + WAL directory backing the worker fleet."""
        return self._path

    @property
    def end_lsn(self) -> int:
        """LSN of the last acknowledged mutation."""
        return self._durable.end_lsn

    @property
    def flip_count(self) -> int:
        """Snapshot-version flips broadcast so far."""
        return self._flip_count

    @property
    def rebalances(self) -> int:
        return self._inner.rebalances

    def __len__(self) -> int:
        return len(self._inner)

    def shard_sizes(self) -> List[int]:
        return self._inner.shard_sizes()

    def skew(self) -> float:
        return self._inner.skew()

    def point(self, row_id: int) -> np.ndarray:
        return self._inner.point(row_id)

    def stats(self):
        return self._inner.stats()

    def breaker_stats(self) -> Optional[List[Dict[str, object]]]:
        """Per-shard circuit-breaker counters (None without breakers)."""
        if self._breakers is None:
            return None
        return [breaker.stats() for breaker in self._breakers]

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker PIDs by shard (None for a currently-dead slot)."""
        return [
            handle.process.pid if handle.alive else None for handle in self._workers
        ]

    def _check_closed(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessShardedIndex is closed")

    def _current_snapshot_dir(self) -> Path:
        name = (self._path / CURRENT_NAME).read_text(encoding="utf-8").strip()
        return self._path / name

    def _router_payload(self) -> Dict:
        router = self._inner.router
        return {
            "num_shards": router.num_shards,
            "partitioner": router.partitioner,
            "range_dim": router.range_dim,
            "boundaries": None
            if router.boundaries is None
            else [float(b) for b in router.boundaries],
            "salt": router.salt,
        }

    # ------------------------------------------------------------- worker fleet
    def _spawn(self, handle: _WorkerHandle) -> None:
        boot = {
            "shard_dir": str(self._snapshot_dir / f"shard-{handle.shard}"),
            "wal_path": str(self._path / WAL_NAME),
            "router": self._router_payload(),
            "lsn": self._durable.wal.base_lsn,
        }
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main,
            args=(handle.shard, child_conn, boot),
            daemon=True,
            name=f"procshard-{handle.shard}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.ready = False
        handle.lsn = boot["lsn"]

    def _mark_dead(self, handle: _WorkerHandle, kill: bool = False) -> None:
        handle.ready = False
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        if handle.process is not None:
            if kill and handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=1.0)

    def _respawn_dead(self) -> None:
        for handle in self._workers:
            if handle.conn is None or not handle.alive:
                self._mark_dead(handle)
                self._spawn(handle)

    def _try_finish_boot(self, handle: _WorkerHandle, timeout: float = 0.0) -> bool:
        """Consume a pending boot handshake; True once the worker is ready."""
        if handle.ready:
            return True
        if handle.conn is None:
            return False
        try:
            if not handle.conn.poll(timeout):
                return False
            seq, status, payload = handle.conn.recv()
        except (EOFError, OSError):
            self._mark_dead(handle)
            return False
        if seq != 0 or status != "ready":
            self._mark_dead(handle, kill=True)
            return False
        handle.ready = True
        handle.lsn = int(payload)
        return True

    def await_workers(self, timeout: float = 60.0) -> bool:
        """Block until every worker slot is booted (True) or ``timeout`` hits.

        Dead slots are respawned while waiting, so this also serves as the
        deterministic "wait for recovery" hook in chaos tests.
        """
        limit = time.monotonic() + timeout
        while True:
            with self._lock:
                self._check_closed()
                self._respawn_dead()
                pending = [h for h in self._workers if not self._try_finish_boot(h)]
            if not pending:
                return True
            if time.monotonic() >= limit:
                return False
            time.sleep(0.02)

    # ------------------------------------------------------------------ probes
    def _rpc(self, handle: _WorkerHandle, op: str, payload, deadline=None):
        """One request/reply exchange; WorkerDied on crash, hang, or lag."""
        with handle.lock:
            if handle.conn is None or not handle.ready:
                raise WorkerDied(f"shard {handle.shard} worker is not serving")
            handle.seq += 1
            seq = handle.seq
            try:
                handle.conn.send((seq, op, payload))
            except (OSError, ValueError, BrokenPipeError) as exc:
                self._mark_dead(handle)
                raise WorkerDied(f"shard {handle.shard} worker pipe broke") from exc
            started = time.monotonic()
            while True:
                wait = self._op_timeout - (time.monotonic() - started)
                if deadline is not None:
                    wait = min(wait, deadline.remaining())
                if wait <= 0:
                    if deadline is not None and deadline.expired:
                        raise DeadlineExceeded(deadline.budget)
                    self._mark_dead(handle, kill=True)
                    raise WorkerDied(
                        f"shard {handle.shard} worker hung past "
                        f"{self._op_timeout:.1f}s op timeout"
                    )
                try:
                    if not handle.conn.poll(wait):
                        continue
                    reply_seq, status, reply = handle.conn.recv()
                except (EOFError, OSError) as exc:
                    self._mark_dead(handle)
                    raise WorkerDied(f"shard {handle.shard} worker died") from exc
                if reply_seq < seq:
                    continue  # stale reply from a probe we timed out earlier
                if status == "ok":
                    return reply
                if status == "deadline":
                    raise DeadlineExceeded(reply)
                raise RuntimeError(f"shard {handle.shard} worker error: {reply}")

    def _probe_worker(self, handle, spec, lower_bounds, deadline, label):
        if handle.lsn != self._serve_lsn:
            raise WorkerDied(
                f"shard {handle.shard} worker is at lsn {handle.lsn}, "
                f"serve needs {self._serve_lsn}"
            )
        budget = None if deadline is None else deadline.remaining()
        bounds = None if lower_bounds is None else np.asarray(lower_bounds, dtype=float)
        return self._rpc(
            handle, "probe", (spec, bounds, budget, label), deadline=deadline
        )

    def _sync_workers(self, target_lsn: int) -> None:
        for handle in self._workers:
            if not self._try_finish_boot(handle):
                continue
            if handle.lsn >= target_lsn:
                continue
            try:
                handle.lsn = int(self._rpc(handle, "sync", target_lsn))
            except (WorkerDied, RuntimeError):
                # Leave the slot lagging/dead; the probe path degrades it and
                # the next serve respawns the process.
                self._mark_dead(handle, kill=True)

    # ----------------------------------------------------------------- serving
    def _executor_instance(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError(
                "ProcessShardedIndex is closed; its probe executor cannot restart"
            )
        if self._executor is None:
            workers = self._max_workers or self.num_shards
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, min(workers, self.num_shards)),
                thread_name_prefix="procshard-probe",
            )
        return self._executor

    def _serve_spec(self, spec: BatchQuerySpec, deadline=None) -> BatchResult:
        with self._lock:
            self._check_closed()
            # The WAL's appends are flushed on every journal write, so the
            # target LSN's records are already on disk for worker tails.
            target = self._durable.end_lsn
            self._respawn_dead()
            self._sync_workers(target)
            self._serve_lsn = target
            snap = self._inner.snapshot()
            try:
                proxy = _ProxySnapshot(
                    [
                        _WorkerView(self, handle, local)
                        for handle, local in zip(self._workers, snap.views)
                    ]
                )
                # The thread engine's scatter-gather loop, reused verbatim
                # (duck-typed self): bound-ordered visitation, cross-shard
                # k-th pruning, breaker/retry/degradation semantics — with
                # probes crossing the process boundary instead of the GIL.
                return ShardedIndex._serve_snapshot(self, proxy, spec, deadline=deadline)
            finally:
                snap.close()

    def query(
        self,
        query: Union[SDQuery, Sequence[float]],
        k: Optional[int] = None,
        alpha: Optional[Sequence[float]] = None,
        beta: Optional[Sequence[float]] = None,
    ) -> TopKResult:
        """Answer one SD-Query across the worker fleet (same inputs as SDIndex)."""
        spec = ShardedIndex._coerce_single(self, query, k, alpha, beta)
        return self._serve_spec(spec).results[0]

    def batch_query(
        self, queries, k=None, alpha=None, beta=None, deadline=None
    ) -> BatchResult:
        """Answer a batch of SD-Queries (same inputs as ``ShardedIndex``)."""
        spec = BatchQuerySpec.coerce(
            self.repulsive,
            self.attractive,
            self.num_dims,
            queries,
            k=k,
            alpha=alpha,
            beta=beta,
        )
        return self._serve_spec(spec, deadline=deadline)

    def snapshot(self) -> ProcessSnapshot:
        """A serve handle for coalescer-style pin/serve/close on one thread."""
        return ProcessSnapshot(self)

    # ----------------------------------------------------------------- writes
    def insert(self, point, row_id: Optional[int] = None) -> int:
        with self._lock:
            self._check_closed()
            return self._durable.insert(point, row_id=row_id)

    def bulk_insert(self, points, row_ids: Optional[Sequence[int]] = None) -> List[int]:
        with self._lock:
            self._check_closed()
            return self._durable.bulk_insert(points, row_ids=row_ids)

    def delete(self, row_id: int) -> None:
        with self._lock:
            self._check_closed()
            self._durable.delete(row_id)

    def bulk_delete(self, row_ids: Sequence[int]) -> None:
        with self._lock:
            self._check_closed()
            self._durable.bulk_delete(row_ids)

    # ------------------------------------------------------------------- flips
    def checkpoint(self) -> Path:
        """Stream a fresh snapshot and flip every worker onto it."""
        with self._lock:
            self._check_closed()
            return self._flip()

    def rebalance(self) -> bool:
        """Journaled rebalance followed by a mandatory snapshot flip.

        Rebalances reshuffle rows across shards, which a worker cannot replay
        incrementally (its sub-snapshot *is* its shard assignment) — so the
        new topology ships as a whole new snapshot version.
        """
        with self._lock:
            self._check_closed()
            moved = self._durable.rebalance()
            self._flip()
            return moved

    def maybe_rebalance(self) -> bool:
        with self._lock:
            self._check_closed()
            before = self._inner.rebalances
            moved = self._durable.maybe_rebalance()
            if self._inner.rebalances != before:
                self._flip()
            return moved

    def _flip(self) -> Path:
        snapshot_dir = self._durable.checkpoint()
        self._snapshot_dir = snapshot_dir
        # Under this lock no mutation raced the checkpoint, so the WAL was
        # rotated to exactly the snapshot's LSN.
        lsn = self._durable.wal.base_lsn
        self._flip_count += 1
        router_payload = self._router_payload()
        for handle in self._workers:
            if self._try_finish_boot(handle):
                try:
                    shard_dir = str(snapshot_dir / f"shard-{handle.shard}")
                    handle.lsn = int(
                        self._rpc(handle, "flip", (shard_dir, lsn, router_payload))
                    )
                    continue
                except (WorkerDied, RuntimeError):
                    pass
            # Not booted, lagging, or mid-flip failure: restart from the new
            # snapshot (its old boot directory may already be pruned).
            self._mark_dead(handle, kill=True)
            self._spawn(handle)
        return snapshot_dir

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the worker fleet and tear down the durable state (idempotent).

        An owned (temporary) snapshot directory is removed; an explicit
        ``path`` is left on disk so a later coordinator can recover from it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for handle in workers:
            if handle.conn is not None:
                try:
                    handle.conn.send((handle.seq + 1, "stop", None))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        for handle in workers:
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._durable.close()
        if self._own_path:
            shutil.rmtree(self._path, ignore_errors=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ProcessShardedIndex":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False
