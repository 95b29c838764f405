"""Crash-injection recovery harness (DESIGN.md section 7).

The recovery invariant under test: after a crash at *any* point —

* a torn WAL tail (the file truncated at every byte boundary of its final
  records),
* a process killed (``os._exit``) at named fault points inside an append or a
  checkpoint, via subprocess drivers that install a callback fault plane,
* a truncated or bit-flipped array extent of a snapshot's data file, a
  missing or mangled manifest —

``DurableIndex.recover`` either yields an engine whose top-k answers are
bit-identical to an uncrashed in-memory oracle that applied exactly the
acknowledged op prefix, or raises the typed ``SnapshotFormatError``.  It must
never silently serve stale or corrupt data.

Everything here carries the ``crash`` marker; CI runs the suite in its own
``recovery`` job under ``PYTHONDEVMODE=1``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.persistence import (
    CURRENT_NAME,
    WAL_NAME,
    DurableIndex,
    SnapshotFormatError,
)
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from tests.conftest import snapshot_extent

pytestmark = pytest.mark.crash

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4
SEED = 2024
INITIAL_ROWS = 250
NUM_OPS = 40


def make_ops(rng, store, count):
    """A deterministic insert/delete script over a tracked population."""
    ops = []
    next_id = max(store) + 1
    live = sorted(store)
    for step in range(count):
        if step % 3 == 2 and len(live) > 1:
            victim = live.pop(int(rng.integers(len(live))))
            ops.append(("delete", victim, None))
        else:
            ops.append(("insert", next_id, rng.random(NUM_DIMS)))
            live.append(next_id)
            next_id += 1
    return ops


def apply_op(engine, op):
    kind, row_id, point = op
    if kind == "insert":
        engine.insert(point, row_id=row_id)
    else:
        engine.delete(row_id)


def oracle_answers(store, ops_applied, queries, k):
    """Answers of an uncrashed oracle that applied exactly ``ops_applied``."""
    population = dict(store)
    for kind, row_id, point in ops_applied:
        if kind == "insert":
            population[row_id] = point
        else:
            del population[row_id]
    rows = sorted(population)
    scan = SequentialScan(
        np.asarray([population[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    return scan.batch_query(queries, k=k)


def assert_bit_identical(expected, got):
    for a, b in zip(expected.results, got.results):
        assert [(m.row_id, m.score) for m in a.matches] == [
            (m.row_id, m.score) for m in b.matches
        ]


@pytest.fixture
def scenario(tmp_path):
    """A durable flat engine with a checkpoint mid-script, closed cleanly."""
    rng = np.random.default_rng(SEED)
    data = rng.random((INITIAL_ROWS, NUM_DIMS))
    store = {row: data[row] for row in range(INITIAL_ROWS)}
    queries = rng.random((6, NUM_DIMS))
    engine = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    durable = DurableIndex.create(engine, tmp_path / "dur")
    ops = make_ops(rng, store, NUM_OPS)
    for step, op in enumerate(ops):
        apply_op(durable, op)
        if step == NUM_OPS // 2:
            durable.checkpoint()
    durable.wal.sync()
    durable.wal.close()
    return tmp_path / "dur", store, ops, queries


# ------------------------------------------------------------- torn WAL tails
def test_torn_wal_tail_every_byte_boundary(scenario, tmp_path):
    """Truncate the WAL at every byte boundary across its last records.

    Each truncation is one possible crash; recovery must come back exactly
    at the acknowledged prefix the surviving records represent — verified
    bit-identically against the uncrashed oracle of that prefix — and the
    recovered LSN tells us which prefix that is.
    """
    path, store, ops, queries = scenario
    wal_blob = (path / WAL_NAME).read_bytes()
    work = tmp_path / "work"
    # Sweep the tail: every byte boundary of roughly the last three records.
    checkpoint_lsn = NUM_OPS // 2 + 1
    for cut in range(len(wal_blob) - 120, len(wal_blob) + 1):
        if work.exists():
            shutil.rmtree(work)
        shutil.copytree(path, work)
        (work / WAL_NAME).write_bytes(wal_blob[:cut])
        recovered = DurableIndex.recover(work)
        surviving = recovered.last_recovery["recovered_lsn"]
        assert checkpoint_lsn <= surviving <= len(ops)
        expected = oracle_answers(store, ops[:surviving], queries, k=5)
        assert_bit_identical(expected, recovered.batch_query(queries, k=5))
        recovered.close()


def test_flipped_byte_before_tail_is_loud(scenario):
    """Corruption *before* the WAL tail is not a torn write: loud failure."""
    path, _store, _ops, _queries = scenario
    blob = bytearray((path / WAL_NAME).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (path / WAL_NAME).write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError):
        DurableIndex.recover(path)


# -------------------------------------------------------- snapshot corruption
def current_snapshot(path: Path) -> Path:
    return path / (path / CURRENT_NAME).read_text().strip()


def test_truncated_snapshot_array(scenario):
    path, _store, _ops, _queries = scenario
    # Cut the data file 64 bytes short of the end of the level matrix.
    target, offset, size = snapshot_extent(current_snapshot(path), "lvl0_matrix")
    blob = target.read_bytes()
    target.write_bytes(blob[: offset + size - 64])
    for mmap in (False, True):
        with pytest.raises(SnapshotFormatError, match="truncated"):
            DurableIndex.recover(path, mmap=mmap)


def test_bitflipped_snapshot_array(scenario):
    path, _store, _ops, _queries = scenario
    target, offset, size = snapshot_extent(current_snapshot(path), "lvl0_rows")
    blob = bytearray(target.read_bytes())
    blob[offset + size - 9] ^= 0x40
    target.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        DurableIndex.recover(path)
    # mmap recoveries skip the checksum pass by default but honor verify=True.
    with pytest.raises(SnapshotFormatError, match="checksum"):
        DurableIndex.recover(path, mmap=True, verify=True)


def test_missing_manifest(scenario):
    path, _store, _ops, _queries = scenario
    (current_snapshot(path) / "MANIFEST.json").unlink()
    with pytest.raises(SnapshotFormatError, match="manifest"):
        DurableIndex.recover(path)


def test_mangled_manifest_json(scenario):
    path, _store, _ops, _queries = scenario
    manifest = current_snapshot(path) / "MANIFEST.json"
    manifest.write_text(manifest.read_text()[:-40])
    with pytest.raises(SnapshotFormatError, match="manifest"):
        DurableIndex.recover(path)


def test_unknown_format_version(scenario):
    path, _store, _ops, _queries = scenario
    manifest = current_snapshot(path) / "MANIFEST.json"
    payload = json.loads(manifest.read_text())
    payload["format_version"] = 99
    manifest.write_text(json.dumps(payload))
    with pytest.raises(SnapshotFormatError, match="version"):
        DurableIndex.recover(path)


# ----------------------------------------------------------- subprocess kills
#: Prelude of every kill driver: ``install_kill(point, n)`` installs a fault
#: plane that kills the process (``os._exit``) at the nth hit of ``point``.
KILL_PRELUDE = textwrap.dedent(
    """
    import os, sys
    import numpy as np
    from repro import faults
    from repro.core import persistence
    from repro.core.sdindex import SDIndex
    from tests.conftest import CallbackPlane

    def install_kill(fault_point, fault_at):
        seen = {"count": 0}

        def kill(point):
            if point == fault_point:
                seen["count"] += 1
                if seen["count"] == fault_at:
                    os._exit(1)  # simulated crash: no flush, no cleanup

        faults.install_fault_plane(CallbackPlane(kill))
    """
)


def run_driver(script: str, *args) -> subprocess.CompletedProcess:
    """Run a kill driver in a fresh interpreter (``src`` and ``tests`` importable)."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    paths = [str(root / "src"), str(root)] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(
        [sys.executable, "-c", KILL_PRELUDE + script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


DRIVER = textwrap.dedent(
    """
    path, fault_point, fault_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
    rng = np.random.default_rng(7)
    data = rng.random((120, 4))
    engine = SDIndex.build(data, repulsive=(0, 1), attractive=(2, 3))
    durable = persistence.DurableIndex.create(engine, path)
    install_kill(fault_point, fault_at)
    for step in range(30):
        durable.insert(rng.random(4))
        if step == 14:
            durable.checkpoint()
    durable.checkpoint()
    os._exit(0)  # survived every fault point: nothing fired
    """
)

FAULT_POINTS = [
    # Killed inside an append, after the buffered write but before any
    # flush/fsync: the record may or may not reach disk — either way it was
    # never acknowledged, so recovery at the surviving prefix is correct.
    ("wal.append.written", 5),
    ("wal.append.written", 20),
    # Killed streaming the mid-script checkpoint: CURRENT still names the
    # initial snapshot, the full WAL replays over it.
    ("snapshot.array.written", 8),
    # Killed after the new manifest is durable but before CURRENT flips.
    ("snapshot.manifest.written", 2),
    # Killed right before / right after the atomic CURRENT replace.
    ("checkpoint.current.before", 2),
    ("checkpoint.current.written", 2),
]


@pytest.mark.parametrize("fault_point,fault_at", FAULT_POINTS)
def test_subprocess_kill_recovers_exact_prefix(tmp_path, fault_point, fault_at):
    """Kill a real process at a durability boundary; recover and verify.

    The driver applies a deterministic op stream, so the oracle population
    for any acknowledged prefix is reproducible here in the parent.  The
    recovered LSN selects that prefix; answers must match it bit for bit.
    """
    target = tmp_path / "dur"
    result = run_driver(DRIVER, target, fault_point, fault_at)
    assert result.returncode == 1, (
        f"fault point {fault_point!r} never fired: {result.stderr}"
    )

    recovered = DurableIndex.recover(target)
    surviving = recovered.last_recovery["recovered_lsn"]
    # Reconstruct the oracle for the surviving prefix of the driver's stream.
    rng = np.random.default_rng(7)
    data = rng.random((120, 4))
    store = {row: data[row] for row in range(len(data))}
    points = [rng.random(4) for _ in range(30)]
    assert 0 <= surviving <= len(points)
    for step in range(surviving):
        store[len(data) + step] = points[step]
    rows = sorted(store)
    oracle = SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    queries = np.random.default_rng(99).random((5, NUM_DIMS))
    assert_bit_identical(
        oracle.batch_query(queries, k=5), recovered.batch_query(queries, k=5)
    )
    # The recovered store keeps working: one more cycle survives a clean stop.
    recovered.insert(np.full(NUM_DIMS, 0.5), row_id=10_000)
    recovered.checkpoint()
    recovered.close()
    second = DurableIndex.recover(target)
    assert second.point(10_000) is not None
    second.close()


# ------------------------------------------------------------- sharded crash
def test_sharded_torn_tail_recovers_prefix(tmp_path):
    """The same torn-tail sweep on a sharded engine (coarser: record cuts)."""
    rng = np.random.default_rng(31)
    data = rng.random((200, NUM_DIMS))
    store = {row: data[row] for row in range(len(data))}
    queries = rng.random((5, NUM_DIMS))
    engine = ShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=2,
        partitioner="range",
    )
    path = tmp_path / "dur"
    durable = DurableIndex.create(engine, path)
    ops = make_ops(rng, store, 20)
    for op in ops:
        apply_op(durable, op)
    durable.wal.sync()
    durable.close()

    blob = (path / WAL_NAME).read_bytes()
    work = tmp_path / "work"
    for cut in (len(blob) - 1, len(blob) - 40, len(blob) - 90):
        if work.exists():
            shutil.rmtree(work)
        shutil.copytree(path, work)
        (work / WAL_NAME).write_bytes(blob[:cut])
        recovered = DurableIndex.recover(work)
        surviving = recovered.last_recovery["recovered_lsn"]
        expected = oracle_answers(store, ops[:surviving], queries, k=5)
        assert_bit_identical(expected, recovered.batch_query(queries, k=5))
        recovered.close()


# ----------------------------------------------------- WAL rotation durability
ROTATE_DRIVER = textwrap.dedent(
    """
    path, fault_point = sys.argv[1], sys.argv[2]
    rng = np.random.default_rng(11)
    data = rng.random((100, 4))
    engine = SDIndex.build(data, repulsive=(0, 1), attractive=(2, 3))
    durable = persistence.DurableIndex.create(engine, path, fsync="os")
    for _ in range(12):
        durable.insert(rng.random(4))
    install_kill(fault_point, 1)
    durable.checkpoint()  # rotates the WAL; the plane kills inside rotate()
    os._exit(0)  # the fault point never fired
    """
)


@pytest.mark.parametrize(
    "fault_point",
    ["wal.rotate.written", "wal.rotate.replaced", "wal.rotate.synced"],
)
def test_rotation_crash_never_resurrects_superseded_tail(tmp_path, fault_point):
    """Kill during/right after WAL rotation under the ``fsync="os"`` policy.

    The rotation hazard: the checkpoint's snapshot already covers the log
    prefix, so if the crash leaves the *old* log (kill before the rename is
    durable) recovery must skip every superseded record via the snapshot's
    LSN, and if it leaves the *new* log (kill after) the base LSN must line
    up exactly.  Either way the recovered answers equal the acknowledged
    12-insert oracle — never a double-applied (resurrected) prefix, and
    never a lost acknowledged write.
    """
    target = tmp_path / "dur"
    result = run_driver(ROTATE_DRIVER, target, fault_point)
    assert result.returncode == 1, (
        f"fault point {fault_point!r} never fired: {result.stderr}"
    )

    recovered = DurableIndex.recover(target, fsync="os")
    # All 12 inserts were acknowledged before the checkpoint began; the crash
    # landed after the CURRENT flip, so the new snapshot plus the (old or
    # rotated) WAL must reconstruct exactly that state.
    assert recovered.last_recovery["recovered_lsn"] == 12
    rng = np.random.default_rng(11)
    data = rng.random((100, 4))
    store = {row: data[row] for row in range(len(data))}
    for step in range(12):
        store[len(data) + step] = rng.random(4)
    rows = sorted(store)
    oracle = SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    queries = np.random.default_rng(5).random((5, NUM_DIMS))
    assert_bit_identical(
        oracle.batch_query(queries, k=5), recovered.batch_query(queries, k=5)
    )
    # The log stays appendable and LSN-contiguous across another full cycle.
    recovered.insert(np.full(NUM_DIMS, 0.25), row_id=20_000)
    recovered.checkpoint()
    recovered.close()
    second = DurableIndex.recover(target, fsync="os")
    assert second.point(20_000) is not None
    assert not (target / "wal.log.tmp").exists()
    second.close()


# --------------------------------------------------- LSM maintenance crashes
def _lsm_structure(durable):
    return durable._engine._aggregator.serving_session().structure()


def _lsm_scenario(tmp_path, flush_rows=4):
    """A durable LSM engine (maintenance journaled by the wrapper)."""
    from repro import faults  # noqa: F401 — used by callers via module path

    rng = np.random.default_rng(SEED + 1)
    data = rng.random((60, NUM_DIMS))
    store = {row: data[row] for row in range(len(data))}
    engine = SDIndex.build(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        flush_rows=flush_rows,
        fanout=2,
        background_compaction=False,
    )
    durable = DurableIndex.create(engine, tmp_path / "dur")
    return durable, store, rng


def test_flush_crash_loses_the_structure_op_not_the_write(tmp_path):
    """``compact.flush`` faults between journaling a mutation and journaling
    the flush it triggered: the mutation is acknowledged-and-recoverable,
    the flush simply never happened, and recovery reconstructs the exact
    unflushed delta — deterministically, twice."""
    from repro import faults
    from repro.faults import FaultPlane, FaultRule, InjectedFault

    durable, store, rng = _lsm_scenario(tmp_path)
    for i in range(3):
        point = rng.random(NUM_DIMS)
        store[100 + i] = point
        durable.insert(point, row_id=100 + i)
    plane = FaultPlane([FaultRule("compact.flush", times=1)])
    point = rng.random(NUM_DIMS)
    with faults.fault_plane(plane):
        with pytest.raises(InjectedFault):
            # Fourth insert crosses flush_rows=4; the journaled flush dies.
            durable.insert(point, row_id=103)
    store[103] = point  # journaled before maintenance ran — it is durable
    live_structure = _lsm_structure(durable)
    assert live_structure["delta_live"] == 4  # flush really was lost
    durable.wal.sync()
    durable.wal.close()  # simulated crash: no clean engine shutdown

    queries = np.random.default_rng(77).random((5, NUM_DIMS))
    rows = sorted(store)
    oracle = SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    recovered = DurableIndex.recover(tmp_path / "dur")
    assert_bit_identical(
        oracle.batch_query(queries, k=5), recovered.batch_query(queries, k=5)
    )
    # Exact structure reproduction: the recovered world holds the same
    # unflushed delta, and a second recovery lands on the identical layout.
    assert _lsm_structure(recovered) == live_structure
    recovered.wal.close()
    again = DurableIndex.recover(tmp_path / "dur")
    assert _lsm_structure(again) == live_structure

    # The recovered wrapper still owns maintenance: an explicit flush is
    # journaled, and the next recovery replays it into the same layout.
    assert again.flush() is True
    flushed_structure = _lsm_structure(again)
    assert flushed_structure["delta_live"] == 0
    again.wal.sync()
    again.wal.close()
    final = DurableIndex.recover(tmp_path / "dur")
    assert _lsm_structure(final) == flushed_structure
    assert_bit_identical(
        oracle.batch_query(queries, k=5), final.batch_query(queries, k=5)
    )
    final.close()


def test_merge_crash_keeps_unmerged_levels_replayable(tmp_path):
    """``compact.merge`` faults inside a journaled compaction: no OP_COMPACT
    record is written, recovery reproduces the unmerged levels, and a clean
    retry journals a compact that later recoveries replay exactly."""
    from repro import faults
    from repro.faults import FaultPlane, FaultRule, InjectedFault

    durable, store, rng = _lsm_scenario(tmp_path, flush_rows=100)
    for i in range(4):
        point = rng.random(NUM_DIMS)
        store[200 + i] = point
        durable.insert(point, row_id=200 + i)
    assert durable.flush() is True
    for i in range(3):
        point = rng.random(NUM_DIMS)
        store[300 + i] = point
        durable.insert(point, row_id=300 + i)
    assert durable.flush() is True
    seqs = [lvl["seq"] for lvl in _lsm_structure(durable)["levels"]]
    assert len(seqs) == 3
    plane = FaultPlane([FaultRule("compact.merge", times=1)])
    with faults.fault_plane(plane):
        with pytest.raises(InjectedFault):
            durable.compact(seqs)
    live_structure = _lsm_structure(durable)
    assert [lvl["seq"] for lvl in live_structure["levels"]] == seqs
    durable.wal.sync()
    durable.wal.close()

    recovered = DurableIndex.recover(tmp_path / "dur")
    assert _lsm_structure(recovered) == live_structure
    assert recovered.compact(seqs) == tuple(seqs)
    merged_structure = _lsm_structure(recovered)
    assert len(merged_structure["levels"]) == 1
    recovered.wal.sync()
    recovered.wal.close()

    final = DurableIndex.recover(tmp_path / "dur")
    assert _lsm_structure(final) == merged_structure
    queries = np.random.default_rng(78).random((5, NUM_DIMS))
    rows = sorted(store)
    oracle = SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    assert_bit_identical(
        oracle.batch_query(queries, k=5), final.batch_query(queries, k=5)
    )
    final.close()


LSM_KILL_DRIVER = textwrap.dedent(
    """
    path, fault_point, fault_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
    install_kill(fault_point, fault_at)
    rng = np.random.default_rng(7)
    data = rng.random((40, 4))
    engine = SDIndex.build(
        data,
        repulsive=(0, 1),
        attractive=(2, 3),
        flush_rows=4,
        fanout=2,
        background_compaction=False,
    )
    durable = persistence.DurableIndex.create(engine, path)
    for step in range(30):
        durable.insert(rng.random(4))
    os._exit(0)  # survived every fault point: nothing fired
    """
)


@pytest.mark.parametrize(
    "fault_point,fault_at",
    [("compact.flush", 2), ("compact.flush", 5), ("compact.merge", 2)],
)
def test_subprocess_kill_during_lsm_maintenance(tmp_path, fault_point, fault_at):
    """Kill a real process inside a journaled flush/merge and recover.

    Every acknowledged insert is recoverable; the interrupted structure op
    is simply absent from the WAL.  The oracle prefix check is the same as
    the durability kills; on top of it, recovery must be structurally
    deterministic (two recoveries, identical level layout)."""
    target = tmp_path / "dur"
    result = run_driver(LSM_KILL_DRIVER, target, fault_point, fault_at)
    assert result.returncode == 1, (
        f"fault point {fault_point!r} never fired: {result.stderr}"
    )

    recovered = DurableIndex.recover(target)
    rng = np.random.default_rng(7)
    data = rng.random((40, 4))
    store = {row: data[row] for row in range(len(data))}
    points = [rng.random(4) for _ in range(30)]
    # The WAL interleaves structure records (flush/compact) with the inserts,
    # so the LSN does not count ops; the driver only inserts, so the
    # recovered population names the acknowledged prefix directly.
    surviving = len(recovered) - len(data)
    assert 0 < surviving <= len(points)
    for step in range(surviving):
        store[len(data) + step] = points[step]
    rows = sorted(store)
    oracle = SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    queries = np.random.default_rng(99).random((5, NUM_DIMS))
    assert_bit_identical(
        oracle.batch_query(queries, k=5), recovered.batch_query(queries, k=5)
    )
    structure = _lsm_structure(recovered)
    recovered.wal.close()
    again = DurableIndex.recover(target)
    assert _lsm_structure(again) == structure
    # The store keeps working: maintenance resumes under journaling and the
    # next full cycle survives a clean stop.
    again.insert(np.full(NUM_DIMS, 0.5), row_id=10_000)
    again.checkpoint()
    again.close()
    final = DurableIndex.recover(target)
    assert final.point(10_000) is not None
    final.close()
