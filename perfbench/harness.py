"""Shared pieces of the benchmark: seeded inputs, the oracle gate, accounting.

Everything here is independent of any one workload.  Inputs come from one
seed (``--seed``): data rows, query streams and write scripts are drawn from
named sub-streams of it, so the same seed always yields the same inputs and
the program under test only ever sees the generated values.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import os
import platform
import resource
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import SDQuery
from repro.baselines import SequentialScan
from repro.workloads.workload import make_batch_workload

#: The checkout root (``perfbench/`` sits directly under it).
ROOT = Path(__file__).resolve().parents[1]
#: Run outputs (results, spans, scratch index directories); never committed.
OUT = Path(__file__).resolve().parent / "out"

#: The paper's section 6.1 setup in four dimensions: two repulsive, two
#: attractive, per-query random weights.
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4
#: Outcome buckets every attempted operation lands in, exactly one each.
OUTCOMES = ("ok", "degraded", "timeout", "rejected", "error", "wrong")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: ``read_under_write``: recoveries from disk after the script
#: (``recover_s`` is their median).
RECOVER_REPEATS = 11

# Named sub-streams of the run seed.
STREAM_ROWS = 0
STREAM_QUERIES = 1
STREAM_WRITES = 2
STREAM_OPEN = 3
STREAM_CLOSED = 4
STREAM_SAMPLE = 5
STREAM_WRITE_TIMES = 6
STREAM_OPEN_TIMES = 7


def sub_seed(seed: int, stream: int) -> int:
    """A 32-bit seed for one named input stream of run ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


def make_rows(seed: int, n: int) -> np.ndarray:
    """``n`` uniform points in the unit 4-cube."""
    return np.random.default_rng(sub_seed(seed, STREAM_ROWS)).random((n, NUM_DIMS))


@dataclass(frozen=True)
class Query:
    """One top-k request in the raw form a caller passes to the facade."""

    point: Tuple[float, ...]
    k: int
    alpha: Tuple[float, ...]
    beta: Tuple[float, ...]

    @property
    def key(self) -> Tuple:
        return (self.point, self.k, self.alpha, self.beta)

    def sdquery(self, k: Optional[int] = None) -> SDQuery:
        return SDQuery.simple(
            point=self.point,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            k=self.k if k is None else k,
            alpha=self.alpha,
            beta=self.beta,
        )


def queries_from_batch(batch) -> List[Query]:
    """Per-request :class:`Query` values from a columnar ``BatchWorkload``."""
    return [
        Query(
            point=tuple(float(v) for v in batch.points[j]),
            k=int(batch.ks[j]),
            alpha=tuple(float(v) for v in batch.alphas[j]),
            beta=tuple(float(v) for v in batch.betas[j]),
        )
        for j in range(len(batch.points))
    ]


def make_query_pool(seed: int, count: int, ks: Sequence[int]) -> List[Query]:
    """``count`` distinct uniform queries with random weights and ``k`` from ``ks``."""
    batch = make_batch_workload(
        REPULSIVE,
        ATTRACTIVE,
        num_queries=count,
        k=tuple(ks),
        num_dims=NUM_DIMS,
        seed=sub_seed(seed, STREAM_QUERIES),
    )
    return queries_from_batch(batch)


@dataclass
class WriteScript:
    """A seeded insert/delete script with explicit row ids.

    Row ids are fixed in advance (inserts take fresh ids above the initial
    population), so the acknowledged final population is known without
    asking the engine.
    """

    ops: List[Tuple[str, int, Optional[Tuple[float, ...]]]]
    final_rows: np.ndarray
    final_matrix: np.ndarray


def make_write_script(
    seed: int, data: np.ndarray, count: int, insert_share: float = 0.7, stream: int = STREAM_WRITES
) -> WriteScript:
    """``count`` writes, ``insert_share`` of them inserts, the rest deletes of live rows."""
    rng = np.random.default_rng(sub_seed(seed, stream))
    n = len(data)
    live = list(range(n))
    points: Dict[int, np.ndarray] = {}
    next_id = n
    ops: List[Tuple[str, int, Optional[Tuple[float, ...]]]] = []
    for _ in range(count):
        if rng.random() < insert_share:
            point = rng.random(NUM_DIMS)
            points[next_id] = point
            ops.append(("insert", next_id, tuple(float(v) for v in point)))
            live.append(next_id)
            next_id += 1
        else:
            at = int(rng.integers(len(live)))
            row = live[at]
            live[at] = live[-1]
            live.pop()
            ops.append(("delete", row, None))
    rows = np.sort(np.asarray(live, dtype=np.int64))
    matrix = np.empty((len(rows), NUM_DIMS))
    old = rows < n
    matrix[old] = data[rows[old]]
    for i in np.flatnonzero(~old):
        matrix[i] = points[int(rows[i])]
    return WriteScript(ops=ops, final_rows=rows, final_matrix=matrix)


def write_arrivals(seed: int, count: int, seconds: float) -> np.ndarray:
    """Due times (seconds from the start) of ``count`` Poisson writes over ``seconds``.

    A Poisson process conditioned on its count: sorted uniform times.  Random
    gaps keep the writer from locking into step with the interpreter's
    fixed 5 ms thread switch interval, which a fixed period of 5 ms does.
    """
    rng = np.random.default_rng(sub_seed(seed, STREAM_WRITE_TIMES))
    return np.sort(rng.random(count)) * seconds


def spaced_arrivals(seed: int, count: int, rate: float) -> np.ndarray:
    """Due times (seconds from the start) of ``count`` requests at ``rate`` per second.

    Each gap is the mean gap times a factor drawn uniformly from 0.75-1.25:
    no two requests come closer than ``0.75 / rate``, and the random part
    keeps them from locking into step with a fixed tick.
    """
    rng = np.random.default_rng(sub_seed(seed, STREAM_OPEN_TIMES))
    gaps = (0.75 + 0.5 * rng.random(count)) / rate
    return np.cumsum(gaps) - gaps[0]


def apply_write(engine, op) -> None:
    """Apply one script op through the engine's public write surface."""
    kind, row, point = op
    if kind == "insert":
        engine.insert(point, row_id=row)
    else:
        engine.delete(row)


# ------------------------------------------------------------------ the oracle
def matches_oracle(result, truth, k: int) -> bool:
    """Scores bit-identical; row ids equal wherever the k-th boundary has no tie.

    ``truth`` is the oracle's answer for ``k + 1`` (capped at the
    population), so a tie at the k-th boundary is visible.
    """
    want = truth.matches[:k]
    got = result.matches
    if len(got) != len(want):
        return False
    if [m.score for m in got] != [m.score for m in want]:
        return False
    tied = len(truth.matches) > len(want) and truth.matches[len(want)].score == want[-1].score
    if not tied:
        return [m.row_id for m in got] == [m.row_id for m in want]
    boundary = want[-1].score
    return all(g.row_id == w.row_id for g, w in zip(got, want) if w.score != boundary)


class Oracle:
    """Exact answers from :class:`SequentialScan`, cached per distinct query."""

    def __init__(self, matrix: np.ndarray, row_ids: Optional[np.ndarray] = None) -> None:
        # Column-major storage makes the scan's per-dimension passes contiguous
        # (same values, same arithmetic, so the scores are unchanged).
        self._scan = SequentialScan(
            np.asfortranarray(matrix), REPULSIVE, ATTRACTIVE, row_ids=row_ids
        )
        self.size = len(matrix)
        self._truth: Dict[Tuple, object] = {}

    def truth(self, query: Query):
        truth = self._truth.get(query.key)
        if truth is None:
            truth = self._scan.query(query.sdquery(k=min(query.k + 1, self.size)))
            self._truth[query.key] = truth
        return truth

    def check(self, query: Query, result) -> bool:
        return matches_oracle(result, self.truth(query), query.k)


def population_matches(frozen: Tuple[np.ndarray, np.ndarray], rows: np.ndarray, matrix: np.ndarray) -> bool:
    """A pinned ``frozen()`` population equals the expected rows and coordinates."""
    got_rows, got_matrix = frozen
    return np.array_equal(got_rows, rows) and np.array_equal(got_matrix, matrix)


def no_leaks(*reports: Dict[str, int]) -> bool:
    """Every epoch manager drained: one live epoch (or none), no pinned reader."""
    return all(r["pinned_readers"] == 0 and r["live_epochs"] <= 1 for r in reports)


# ----------------------------------------------------------------- accounting
class Accounting:
    """Attempted operations per kind, split by outcome (see :data:`OUTCOMES`)."""

    def __init__(self) -> None:
        self.counts: Dict[str, Dict[str, int]] = {}
        self._lock = threading.Lock()

    def add(self, op: str, outcome: str, n: int = 1) -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        with self._lock:
            bucket = self.counts.setdefault(op, dict.fromkeys(OUTCOMES, 0))
            bucket[outcome] += n

    def merge(self, other: "Accounting") -> None:
        for op, bucket in other.counts.items():
            for outcome, n in bucket.items():
                if n:
                    self.add(op, outcome, n)

    @property
    def attempted(self) -> int:
        return sum(sum(bucket.values()) for bucket in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(
            n for bucket in self.counts.values() for outcome, n in bucket.items() if outcome != "ok"
        )

    @property
    def wrong(self) -> int:
        return sum(bucket["wrong"] for bucket in self.counts.values())


# ---------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile as an observed value (``lower`` method)."""
    return float(np.percentile(np.asarray(values, dtype=float), q, method="lower"))


def tail_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/mean in ms plus the sample count and how many lie beyond the p99."""
    values = np.asarray(seconds, dtype=float) * 1000.0
    if len(values) == 0:
        return {"count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0, "beyond_p99": 0}
    p99 = percentile(values, 99)
    return {
        "count": int(len(values)),
        "p50_ms": percentile(values, 50),
        "p95_ms": percentile(values, 95),
        "p99_ms": p99,
        "mean_ms": float(values.mean()),
        "beyond_p99": int((values > p99).sum()),
    }


class _Node:
    __slots__ = ("low", "high", "children")

    def __init__(self, low: List[float], high: List[float]) -> None:
        self.low = low
        self.high = high
        self.children: List[int] = []


def _merge(low: List[float], high: List[float]) -> Tuple[List[float], List[float]]:
    return [max(a, b) for a, b in zip(low, high)], [min(a, b) for a, b in zip(low, high)]


class HostSpeed:
    """How fast the shared host runs right now, sampled by a fixed kernel.

    The benchmark runs on a shared host that switches between a fast and a
    slow state, for a fraction of a second up to minutes at a time, CPU time
    included (so it is not time spent descheduled), and a whole run can fall
    into one state.  A small fixed CPU-bound kernel measures it: the *thread
    CPU time* one pass takes, relative to :data:`REFERENCE_SECONDS`, is the
    host's slowdown factor at that moment, and scaling a timing by it gives
    the timing at reference speed.

    The kernel does pure-Python object work (element-wise merges of small
    lists into fresh objects, as the projection trees' bound maintenance
    does; ~0.2 ms).  The slow state does not slow all code alike.  Over 60 s
    of writes, reads and probes interleaved on one thread it cost the
    library's writes 1.68x (median per 50 writes), its reads 1.47x, this
    kernel 1.71x, and a numeric kernel (a Python loop plus numpy sorts and
    sums) only 1.37x: this kernel follows the state most closely where it
    moves the program most.  Across runs, each kind of timing moved as a
    power of this kernel's factor, its *sensitivity*, and a timing is
    divided by the factor raised to its kind's sensitivity (the workloads
    list them).

    A probe measures the host only while the program under test is idle: a
    program thread running next to it would slow it through the shared
    caches, and dividing by that would hide the program's own contention.
    So a probe counts as *clean* only if, from its start to its end, no other
    benchmark thread was inside a program call marked with :meth:`busy`
    (``read_under_write`` marks every durable write and checkpoint) and no
    thread had started since the last :meth:`watch_threads` (the library's
    background compaction runs on short-lived threads).  Factors come from
    clean probes only.  Overlapped probes are counted, and a timing loop
    whose probes overlapped program work more often than
    :data:`MAX_OVERLAP` gets no factor at all: :meth:`Samples.summary` then
    reports it raw.
    """

    #: Thread CPU time of one kernel pass on an idle 2-core Xeon host.
    REFERENCE_SECONDS = 200e-6
    #: Seconds between probes of a timing loop.
    INTERVAL = 0.05
    #: A timing's factor is the median of the clean probes within this many
    #: seconds of it, shorter than most stays in one state; a one-shot
    #: operation uses the probes taken around it instead (:meth:`span_factor`).
    WINDOW = 0.25
    #: Probes taken back to back before and after a one-shot operation.
    BRACKET = 5
    #: Largest share of a loop's probes that may overlap program work.  The
    #: writer and checkpointer of ``read_under_write`` overlap 15-30% of its
    #: reader's probes (a mark spans the whole call, GIL waits included).
    MAX_OVERLAP = 0.8

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.costs: List[float] = []
        self.clean: List[bool] = []
        self._next = 0.0
        self._lock = threading.Lock()
        self._busy = 0
        self._entered = 0
        self._threads: Optional[int] = None
        self._bounds = ([0.1 * i for i in range(17)], [0.2 * (17 - i) for i in range(17)])

    def watch_threads(self) -> None:
        """From now on, count a probe as overlapped while more threads run than now.

        Called at the start of each timed phase: threads the program started
        in it (background compaction, a restored engine's executor) then
        void the probes they run beside.
        """
        self._threads = threading.active_count()

    @contextmanager
    def busy(self):
        """Mark program work that a benchmark thread runs beside the probing thread."""
        with self._lock:
            self._busy += 1
            self._entered += 1
        try:
            yield
        finally:
            with self._lock:
                self._busy -= 1

    def _idle(self) -> Tuple[bool, int]:
        alone = self._threads is None or threading.active_count() <= self._threads
        return self._busy == 0 and alone, self._entered

    def _kernel(self) -> int:
        node = _Node(*self._bounds)
        for i in range(20):
            node = _Node(*_merge(node.low, node.high))
            node.children.append(i)
        return len(node.children)

    def probe(self) -> None:
        """Run the kernel once and record its thread CPU time."""
        idle_before, entered = self._idle()
        started = time.thread_time()
        self._kernel()
        cost = time.thread_time() - started
        idle_after, entered_after = self._idle()
        with self._lock:
            self.stamps.append(time.perf_counter())
            self.costs.append(cost)
            self.clean.append(idle_before and idle_after and entered == entered_after)

    def tick(self) -> None:
        """Probe if :data:`INTERVAL` has passed since the last probe (any thread)."""
        now = time.perf_counter()
        with self._lock:
            if now < self._next:
                return
            self._next = now + self.INTERVAL
        self.probe()

    def around(self) -> None:
        """Probe :data:`BRACKET` times back to back, next to a one-shot operation."""
        for _ in range(self.BRACKET):
            self.probe()

    def overlap(self, start: float, end: float) -> Tuple[int, int]:
        """``(probes, overlapped probes)`` taken between two stamps."""
        with self._lock:
            stamps = np.asarray(self.stamps)
            clean = np.asarray(self.clean, dtype=bool)
        inside = (stamps >= start) & (stamps <= end)
        return int(inside.sum()), int((inside & ~clean).sum())

    def _clean_probes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stamps and costs of the clean probes, in time order."""
        with self._lock:
            clean = np.asarray(self.clean, dtype=bool)
            probe_at = np.asarray(self.stamps)[clean]
            costs = np.asarray(self.costs)[clean]
        order = np.argsort(probe_at, kind="stable")
        return probe_at[order], costs[order]

    def factor(self, stamps: Sequence[float]) -> np.ndarray:
        """The slowdown factor at each stamp: median of the clean probes within :data:`WINDOW`.

        A stamp with no clean probe that near takes the median of the two
        clean probes on either side of it; with no clean probes at all the
        factor is 1.
        """
        stamps = np.asarray(stamps, dtype=float)
        probe_at, costs = self._clean_probes()
        if len(costs) == 0:
            return np.ones(len(stamps))
        low = np.searchsorted(probe_at, stamps - self.WINDOW, side="left")
        high = np.searchsorted(probe_at, stamps + self.WINDOW, side="right")
        empty = high <= low
        low = np.where(empty, np.maximum(low - 1, 0), low)
        high = np.where(empty, np.minimum(low + 2, len(costs)), high)
        windows, inverse = np.unique(np.stack([low, high]), axis=1, return_inverse=True)
        medians = np.array([np.median(costs[a:b]) for a, b in windows.T])
        return medians[inverse.reshape(-1)] / self.REFERENCE_SECONDS

    def span_factor(self, start: float, end: float) -> float:
        """The slowdown factor of a one-shot operation from ``start`` to ``end``.

        The median of the clean probes taken from :data:`INTERVAL` before it
        to :data:`INTERVAL` after it (those of :meth:`around`); the factor at
        its midpoint if there are none.
        """
        probe_at, costs = self._clean_probes()
        near = (probe_at >= start - self.INTERVAL) & (probe_at <= end + self.INTERVAL)
        if near.any():
            return float(np.median(costs[near])) / self.REFERENCE_SECONDS
        return float(self.factor([(start + end) / 2])[0])


class Samples:
    """Latencies stamped with when they happened.

    With a :class:`HostSpeed` the summary is at reference speed (each sample
    divided by the slowdown factor raised to ``sensitivity``), unless too
    many of the loop's probes overlapped program work; without one it is
    raw.  Either way the raw figures stay beside it.
    """

    def __init__(self, speed: Optional[HostSpeed] = None, sensitivity: float = 1.0) -> None:
        self.speed = speed
        self.sensitivity = sensitivity
        self.stamps: List[float] = []
        self.values: List[float] = []

    def add(self, stamp: float, seconds: float) -> None:
        self.stamps.append(stamp)
        self.values.append(seconds)

    def summary(self, factors: Optional[Sequence[float]] = None) -> Dict[str, float]:
        """Percentiles and mean, plus ``raw_*`` figures and how they were scaled.

        ``factors``, one per sample, scale the samples in place of the
        probes taken near each.
        """
        values = np.asarray(self.values, dtype=float)
        raw = tail_summary(values)
        summary = dict(raw)
        summary.update(raw_p50_ms=raw["p50_ms"], raw_p95_ms=raw["p95_ms"], raw_mean_ms=raw["mean_ms"])
        summary["normalized"] = False
        if factors is not None and len(values):
            summary.update(tail_summary(values / np.asarray(factors, dtype=float) ** self.sensitivity))
            summary["normalized"] = True
            return summary
        if self.speed is None or not self.stamps:
            return summary
        probes, overlapped = self.speed.overlap(min(self.stamps), max(self.stamps))
        summary.update(probes=probes, overlapped_probes=overlapped)
        if probes == 0 or overlapped > HostSpeed.MAX_OVERLAP * probes:
            return summary
        summary.update(tail_summary(values / self.speed.factor(self.stamps) ** self.sensitivity))
        summary["normalized"] = True
        return summary


def normalized_median(
    speed: HostSpeed, timings: Sequence[Tuple[float, float]], sensitivity: float = 1.0
) -> float:
    """Median of ``(midpoint, seconds)`` timings of one-shot operations at reference speed.

    Each operation is divided by the slowdown factor of the probes taken
    around it (:meth:`HostSpeed.span_factor`) raised to ``sensitivity``.
    """
    values = [
        seconds / speed.span_factor(mid - seconds / 2, mid + seconds / 2) ** sensitivity
        for mid, seconds in timings
    ]
    return float(np.median(values))


def lateness_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """How late a schedule ran: p50/p99/max of (actual - due), in ms."""
    values = np.asarray(seconds, dtype=float) * 1000.0
    if len(values) == 0:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    return {
        "p50_ms": percentile(values, 50),
        "p99_ms": percentile(values, 99),
        "max_ms": float(values.max()),
    }


def timed_setups(
    speed: HostSpeed, make: Callable[[], Tuple[object, float]], close: Callable[[object], None]
):
    """Run ``make`` :data:`SETUP_REPEATS` times; keep the last handle.

    ``make`` returns ``(handle, seconds)``.  Each earlier handle is closed
    before the next set-up starts, so one engine is alive at a time, and
    every set-up starts from a settled heap (:func:`settle`).  The host's
    speed is probed around every set-up.  Returns ``(handle,
    timings)`` with ``(stamp, seconds)`` timings for :func:`normalized_median`.
    """
    handle = None
    timings: List[Tuple[float, float]] = []
    for _ in range(SETUP_REPEATS):
        if handle is not None:
            close(handle)
        settle()
        speed.around()
        started = time.perf_counter()
        handle, seconds = make()
        timings.append((started + seconds / 2, seconds))
        speed.around()
    return handle, timings


def settle() -> None:
    """Collect garbage before a timed one-shot operation (not timed).

    Every set-up or restore then starts with empty collector generations,
    so it pays for collecting its own allocations only, instead of for a
    full collection left pending by whatever ran before it.
    """
    gc.collect()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def scratch_dir(label: str) -> Path:
    """A fresh directory under :data:`OUT` for this process."""
    path = OUT / f"tmp-{os.getpid()}" / label
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_scratch() -> None:
    shutil.rmtree(OUT / f"tmp-{os.getpid()}", ignore_errors=True)


# ---------------------------------------------------------------- provenance
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the library sources, identifying the code when git is absent."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": affinity or os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


@dataclass
class RunResult:
    """What one workload pass measured."""

    metrics: Dict[str, float]
    accounting: Accounting
    report: Dict[str, object] = field(default_factory=dict)
    #: Inputs to per-layer metrics that only the workload knows (traced pass).
    layer_inputs: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.accounting.wrong == 0
