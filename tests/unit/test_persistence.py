"""Unit tests for the persistence subsystem: WAL, snapshots, DurableIndex.

The crash-injection scenarios live in ``tests/integration/test_crash_recovery.py``
and the randomized build/update/checkpoint/crash sequences in
``tests/property/test_persistence_properties.py``; this file locks the
building blocks: record encoding, torn-tail semantics, snapshot round-trips
on all four engines (full and mmap loads), the read-only copy-on-write
regression, and the durable wrapper's checkpoint/recover cycle.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import faults
from repro.baselines import SequentialScan
from repro.core.lsm import LsmSession
from repro.core.persistence import (
    FORMAT_VERSION,
    OP_BULK_DELETE,
    OP_BULK_INSERT,
    OP_DELETE,
    OP_INSERT,
    OP_REBALANCE,
    DurableIndex,
    SnapshotFormatError,
    WriteAheadLog,
    load_engine,
    save_engine,
)
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.core.top1 import Top1Index
from repro.core.topk import TopKIndex
from tests.conftest import CallbackPlane

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


def same_answers(expected, got):
    """Bit-identical result check: same ids, same float bits, same order."""
    assert len(expected.results) == len(got.results)
    for a, b in zip(expected.results, got.results):
        assert [(m.row_id, m.score) for m in a.matches] == [
            (m.row_id, m.score) for m in b.matches
        ]


def oracle_for(store, queries, k):
    rows = sorted(store)
    scan = SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    return scan.batch_query(queries, k=k)


# ------------------------------------------------------------------------ WAL
class TestWriteAheadLog:
    def test_roundtrip_all_ops(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        point = np.asarray([[1.5, -2.25, 3.0, 0.5]])
        block = np.asarray([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        assert wal.append(OP_INSERT, [7], point) == 1
        assert wal.append(OP_DELETE, [7]) == 2
        assert wal.append(OP_BULK_INSERT, [8, 9], block) == 3
        assert wal.append(OP_BULK_DELETE, [8, 9]) == 4
        assert wal.append(OP_REBALANCE, []) == 5
        records = list(wal.replay())
        wal.close()
        assert [r[0] for r in records] == [1, 2, 3, 4, 5]
        assert [r[1] for r in records] == [
            OP_INSERT,
            OP_DELETE,
            OP_BULK_INSERT,
            OP_BULK_DELETE,
            OP_REBALANCE,
        ]
        np.testing.assert_array_equal(records[0][3], point)
        np.testing.assert_array_equal(records[2][2], [8, 9])
        np.testing.assert_array_equal(records[2][3], block)
        assert records[1][3] is None

    def test_replay_after_lsn(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        for row in range(5):
            wal.append(OP_DELETE, [row])
        assert [lsn for lsn, *_ in wal.replay(after_lsn=3)] == [4, 5]
        wal.close()

    def test_reopen_continues_lsn(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(OP_DELETE, [1])
        wal.close()
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert wal.end_lsn == 1
        assert wal.append(OP_DELETE, [2]) == 2
        wal.close()

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + b"\0" * 8)
        with pytest.raises(SnapshotFormatError, match="not a WAL"):
            WriteAheadLog(path)

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(OP_DELETE, [1])
        wal.append(OP_DELETE, [2])
        wal.close()
        blob = path.read_bytes()
        # Chop the final record anywhere inside it: reopen must keep exactly
        # the first record and drop the torn tail.
        path.write_bytes(blob[:-5])
        wal = WriteAheadLog(path)
        assert wal.end_lsn == 1
        assert [lsn for lsn, *_ in wal.replay()] == [1]
        wal.close()

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        offset_after_header = None
        wal.append(OP_DELETE, [1])
        wal.append(OP_DELETE, [2])
        wal.close()
        blob = bytearray(path.read_bytes())
        # Flip one payload byte of the FIRST record (more records follow, so
        # this is not a torn tail — it must raise, not silently truncate).
        blob[16 + 16 + 4] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="corruption"):
            WriteAheadLog(path)

    def test_rotate_drops_prefix_atomically(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(OP_DELETE, [1])
        wal.append(OP_DELETE, [2])
        wal.rotate(2)
        assert wal.end_lsn == 2
        assert list(wal.replay()) == []
        assert wal.append(OP_DELETE, [3]) == 3
        assert [lsn for lsn, *_ in wal.replay(after_lsn=2)] == [3]
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.log")
        assert reopened.base_lsn == 2 and reopened.end_lsn == 3
        reopened.close()

    def test_rotate_keeps_racing_tail(self, tmp_path):
        """Records past the rotation base survive verbatim — the mutations
        that raced a checkpoint stream must stay replayable."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        for row in range(1, 6):
            wal.append(OP_DELETE, [row])
        wal.rotate(3)
        assert wal.base_lsn == 3 and wal.end_lsn == 5
        tail = list(wal.replay(after_lsn=3))
        assert [lsn for lsn, *_ in tail] == [4, 5]
        assert [int(ids[0]) for _, _, ids, _ in tail] == [4, 5]
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.log")
        assert reopened.base_lsn == 3 and reopened.end_lsn == 5
        reopened.close()

    def test_corrupted_length_field_is_loud(self, tmp_path):
        """An inflated length on a mid-file record must raise, never let the
        bogus extent swallow the following acknowledged records as a 'tail'."""
        import struct

        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(OP_DELETE, [1])
        wal.append(OP_DELETE, [2])
        wal.append(OP_DELETE, [3])
        wal.close()
        blob = bytearray(path.read_bytes())
        # Record 1's header starts at byte 16: lsn u64, length u32 at +8.
        struct.pack_into("<I", blob, 16 + 8, 10_000)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="corruption"):
            WriteAheadLog(path)

    def test_torn_final_header_truncated(self, tmp_path):
        """A checksum-failing header with nothing after it is a torn write."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(OP_DELETE, [1])
        wal.append(OP_DELETE, [2])
        wal.close()
        blob = bytearray(path.read_bytes())
        record2_header = len(blob) - (20 + 17)  # header(20) + delete payload(17)
        blob[record2_header + 3] ^= 0xFF  # garble record 2's lsn bytes
        path.write_bytes(bytes(blob[: record2_header + 20]))  # header only
        wal = WriteAheadLog(path)
        assert wal.end_lsn == 1
        wal.close()

    def test_torn_final_header_with_payload_after_truncated(self, tmp_path):
        """Out-of-order sector persistence can land a torn final append's
        payload bytes while its header sector is lost: garbage header with
        only non-record bytes after it must still recover as a torn tail."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(OP_DELETE, [1])
        wal.append(OP_DELETE, [2])
        wal.close()
        blob = bytearray(path.read_bytes())
        record2_header = len(blob) - (20 + 17)
        blob[record2_header + 3] ^= 0xFF  # header lost; payload bytes remain
        path.write_bytes(bytes(blob))
        wal = WriteAheadLog(path)
        # Indistinguishable from a torn (unacknowledged) final append, so the
        # tail is dropped rather than bricking the whole store.
        assert wal.end_lsn == 1
        wal.close()

    def test_failed_append_rolls_back(self, tmp_path):
        """A write/fsync failure must not strand bytes that a retried append
        would follow with a duplicate LSN (bricking the next open)."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(OP_DELETE, [1])
        boom = {"armed": True}

        def hook(point):
            if point == "wal.append.written" and boom["armed"]:
                boom["armed"] = False
                raise OSError("disk full (injected)")

        with faults.fault_plane(CallbackPlane(hook)):
            with pytest.raises(OSError, match="disk full"):
                wal.append(OP_DELETE, [2])
        assert wal.end_lsn == 1
        assert wal.append(OP_DELETE, [3]) == 2  # retry reuses the freed LSN
        wal.close()
        reopened = WriteAheadLog(path)  # scans cleanly: no stranded duplicate
        assert reopened.end_lsn == 2
        reopened.close()

    def test_rotate_validates_base(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(OP_DELETE, [1])
        with pytest.raises(ValueError, match="cannot rotate"):
            wal.rotate(2)  # past the end of the log
        wal.rotate(1)
        with pytest.raises(ValueError, match="cannot rotate"):
            wal.rotate(0)  # below the rotated base
        wal.close()


# ------------------------------------------------------------ engine snapshots
@pytest.fixture
def dataset(rng):
    return np.random.default_rng(42).random((600, 4))


@pytest.fixture
def queries():
    return np.random.default_rng(43).random((12, 4))


@pytest.mark.parametrize("mmap", [False, True])
def test_sdindex_roundtrip(dataset, queries, tmp_path, mmap):
    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    rid = index.insert(np.full(4, 0.5))
    index.delete(rid)
    index.delete(17)
    expected = index.batch_query(queries, k=5)
    index.save(tmp_path / "snap")
    loaded = SDIndex.load(tmp_path / "snap", mmap=mmap)
    assert len(loaded) == len(index)
    same_answers(expected, loaded.batch_query(queries, k=5))
    # Single-query fast and legacy engines agree on the restored index.
    single = loaded.query(queries[0], k=3)
    legacy = loaded.query(queries[0], k=3, engine="legacy")
    assert [(m.row_id, m.score) for m in single.matches] == [
        (m.row_id, m.score) for m in legacy.matches
    ]


def test_sdindex_restored_bookkeeping(dataset, tmp_path):
    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    index.delete(3)
    index.save(tmp_path / "snap")
    loaded = SDIndex.load(tmp_path / "snap")
    # Deleted ids stay unusable and unreadable, exactly as pre-checkpoint.
    with pytest.raises(KeyError):
        loaded.point(3)
    with pytest.raises(ValueError, match="deleted"):
        loaded.insert(np.zeros(4), row_id=3)
    # Auto-assignment continues above the persisted high-water mark.
    assert loaded.insert(np.zeros(4)) == len(dataset)
    np.testing.assert_array_equal(loaded.point(5), dataset[5])


def test_mmap_loaded_index_accepts_updates(dataset, queries, tmp_path):
    """Regression (latent mutability): updates to an mmap-restored state must
    go to the delta and to copied validity masks — mapped arrays are
    read-only."""
    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    index.save(tmp_path / "snap")
    loaded = SDIndex.load(tmp_path / "snap", mmap=True)
    store = {row: dataset[row].copy() for row in range(len(dataset))}
    rng = np.random.default_rng(7)
    for step in range(30):
        if step % 3 == 2:
            victim = sorted(store)[int(rng.integers(len(store)))]
            loaded.delete(victim)
            del store[victim]
        else:
            point = rng.random(4)
            row = loaded.insert(point)
            store[row] = point
    same_answers(oracle_for(store, queries, 5), loaded.batch_query(queries, k=5))


@pytest.mark.parametrize("mmap", [False, True])
def test_layered_world_roundtrips_and_keeps_maintaining(
    dataset, queries, tmp_path, mmap
):
    """A saved layered world (three levels, level tombstones, a live delta)
    restores with the same structure, options and answers, and its restored
    levels (read-only when mapped) keep taking deletes, a flush and a merge."""
    index = SDIndex.build(
        dataset,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        flush_rows=16,
        fanout=4,
        background_compaction=False,
    )
    session = index.query_session()
    store = {row: dataset[row].copy() for row in range(len(dataset))}
    rng = np.random.default_rng(8)
    for size in (16, 16, 5):  # two flushed levels, then five delta rows
        fresh = rng.random((size, 4))
        for row, point in zip(index.bulk_insert(fresh), fresh):
            store[row] = point
    for victim in (3, 10, 605):
        index.delete(victim)
        del store[victim]
    layout = session.structure()
    assert [lvl["rows"] for lvl in layout["levels"]] == [600, 16, 16]
    assert [lvl["tombstoned"] for lvl in layout["levels"]] == [2, 1, 0]
    assert layout["delta_live"] == 5
    index.save(tmp_path / "snap")

    loaded = SDIndex.load(tmp_path / "snap", mmap=mmap)
    restored = loaded.query_session()
    assert restored.structure() == layout
    assert (restored.flush_rows, restored.fanout) == (16, 4)
    same_answers(oracle_for(store, queries, 5), loaded.batch_query(queries, k=5))

    for victim in (4, 620, 633):  # levels 1 and 3, then a delta row
        loaded.delete(victim)
        del store[victim]
    fresh = rng.random((12, 4))
    for row, point in zip(loaded.bulk_insert(fresh), fresh):
        store[row] = point
    assert restored.flushes == session.flushes + 1  # the delta reached 16
    same_answers(oracle_for(store, queries, 5), loaded.batch_query(queries, k=5))
    assert loaded.compact() is not None
    assert len(restored.structure()["levels"]) == 1
    same_answers(oracle_for(store, queries, 5), loaded.batch_query(queries, k=5))
    loaded.close()


def test_retired_mode_keys_in_a_snapshot_are_ignored(dataset, queries, tmp_path):
    """Snapshots written while the engine still had mode knobs carry their
    keys in the payload; loading ignores them and restores the LSM session."""
    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    index.bulk_insert(np.random.default_rng(9).random((7, 4)))
    index.delete(12)
    expected = index.batch_query(queries, k=5)
    index.save(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    assert "concurrency" not in manifest["payload"]
    assert "compaction" not in manifest["payload"]
    manifest["payload"].update({"concurrency": "snapshot", "compaction": "size_tiered"})
    manifest_path.write_text(json.dumps(manifest))
    loaded = SDIndex.load(tmp_path / "snap")
    assert isinstance(loaded.query_session(), LsmSession)
    same_answers(expected, loaded.batch_query(queries, k=5))


def test_leftover_dim_reflatten_after_load(tmp_path):
    """Regression: restored sorted columns still hold tombstoned rows, so a
    post-load reflatten must refresh them first — mapping a dead id to a live
    position would corrupt (or crash) the rebuilt column state."""
    rng = np.random.default_rng(21)
    data = rng.random((50, 3))
    # One leftover attractive dimension (roles: 1 repulsive, 2 attractive).
    index = SDIndex.build(data, repulsive=(0,), attractive=(1, 2))
    queries = rng.random((6, 3))
    index.batch_query(queries, k=5)
    index.delete(49)  # the max row id: the unchecked searchsorted crash shape
    index.delete(10)  # a middle id: the silently-wrong-position shape
    index.save(tmp_path / "snap")
    for mmap in (False, True):
        loaded = SDIndex.load(tmp_path / "snap", mmap=mmap)
        loaded.batch_query(queries, k=5)
        loaded.refresh_session()  # forces the reflatten that read the columns
        store = {row: data[row] for row in range(50) if row not in (49, 10)}
        scan = SequentialScan(
            np.asarray([store[row] for row in sorted(store)]),
            (0,),
            (1, 2),
            row_ids=sorted(store),
        )
        expected = scan.batch_query(queries, k=5)
        got = loaded.batch_query(queries, k=5)
        for a, b in zip(expected.results, got.results):
            assert [(m.row_id, m.score) for m in a.matches] == [
                (m.row_id, m.score) for m in b.matches
            ]


def assert_pair_trees_hold(aggregator, store):
    """Every built pair tree holds exactly the rows of ``store``."""
    for index, (rep, att) in zip(aggregator._pair_indexes, aggregator.pairing.pairs):
        assert sorted(index.tree.iter_points()) == sorted(
            (row, float(point[att]), float(point[rep])) for row, point in store.items()
        )


def legacy_matches_scan(index, store, queries, k):
    """Legacy answers score exactly like a scan over ``store``."""
    rows = sorted(store)
    scan = SequentialScan(
        np.asarray([store[row] for row in rows]), REPULSIVE, ATTRACTIVE, row_ids=rows
    )
    for j, point in enumerate(queries):
        query = SDQuery.simple(
            point, REPULSIVE, ATTRACTIVE, k=k, alpha=[1.0, 0.5 + j], beta=[0.3, 1.2]
        )
        got = index.query(query, engine="legacy")
        assert [m.score for m in got.matches] == [m.score for m in scan.query(query).matches]


def test_deferred_trees_stay_lazy_until_needed(dataset, queries, tmp_path):
    """The legacy pair trees are built by the first legacy query, not by
    writes, flushes or merges, on a built engine and on a loaded one (mapped
    or not); once built, every write keeps them current."""
    built = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    built.delete(11)  # loads then carry a deleted id with no physical row
    built.save(tmp_path / "snap")
    engines = [
        built,
        SDIndex.load(tmp_path / "snap"),
        SDIndex.load(tmp_path / "snap", mmap=True),
    ]
    for index in engines:
        rng = np.random.default_rng(47)
        store = dict(enumerate(dataset))
        del store[11]
        aggregator = index.aggregator
        index.batch_query(queries, k=5)
        index.query(queries[0], k=3)
        block = rng.random((300, 4))
        rows = index.bulk_insert(block)
        store.update(zip(rows, block))
        store[index.insert(np.full(4, 0.25))] = np.full(4, 0.25)
        index.delete(rows[0])
        index.bulk_delete([3, 4, rows[1]])
        for row in (rows[0], 3, 4, rows[1]):
            del store[row]
        index.flush()
        index.compact()
        assert aggregator._pair_indexes is None
        legacy_matches_scan(index, store, queries, k=5)
        assert len(aggregator._pair_indexes) == len(aggregator.pairing.pairs)
        assert_pair_trees_hold(aggregator, store)
        store[index.insert(np.full(4, 0.75))] = np.full(4, 0.75)
        index.bulk_delete([rows[2], 7])
        del store[rows[2]], store[7]
        index.flush()
        assert_pair_trees_hold(aggregator, store)
        legacy_matches_scan(index, store, queries, k=7)
        index.close()


@pytest.mark.parametrize("partitioner", ["hash", "range"])
@pytest.mark.parametrize("mmap", [False, True])
def test_sharded_roundtrip(dataset, queries, tmp_path, partitioner, mmap):
    engine = ShardedIndex(
        dataset,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=3,
        partitioner=partitioner,
    )
    engine.insert(np.full(4, 0.5))
    engine.delete(11)
    expected = engine.batch_query(queries, k=7)
    engine.save(tmp_path / "snap")
    loaded = ShardedIndex.load(tmp_path / "snap", mmap=mmap)
    assert loaded.shard_sizes() == engine.shard_sizes()
    assert loaded.router.assignments() == engine.router.assignments()
    same_answers(expected, loaded.batch_query(queries, k=7))
    # Updates and a rebalance keep serving exactly after restore.
    rid = loaded.insert(np.full(4, 0.75))
    loaded.delete(rid)
    loaded.rebalance()
    same_answers(expected, loaded.batch_query(queries, k=7))
    loaded.close()
    engine.close()


@pytest.mark.parametrize("mmap", [False, True])
def test_topk_roundtrip(tmp_path, mmap):
    rng = np.random.default_rng(5)
    x, y = rng.random(400), rng.random(400)
    index = TopKIndex(x, y)
    index.insert(0.5, 0.5)
    index.delete(7)
    expected = index.batch_query([0.2, 0.9], [0.3, 0.6], k=6, alpha=1.4, beta=0.6)
    save_engine(index, tmp_path / "snap")
    loaded = TopKIndex.load(tmp_path / "snap", mmap=mmap)
    got = loaded.batch_query([0.2, 0.9], [0.3, 0.6], k=6, alpha=1.4, beta=0.6)
    same_answers(expected, got)
    # Updates after restore (clones the read-only view) and the streams
    # oracle (materializes the lazy tree) agree with the flat path.
    loaded.insert(0.41, 0.43)
    loaded.delete(9)
    flat = loaded.query(0.3, 0.7, k=5)
    streams = loaded.query(0.3, 0.7, k=5, strategy="streams")
    assert sorted(m.score for m in flat.matches) == sorted(
        m.score for m in streams.matches
    )


@pytest.mark.parametrize("k", [1, 4])
def test_top1_roundtrip(tmp_path, k):
    rng = np.random.default_rng(6)
    x, y = rng.random(300), rng.random(300)
    index = Top1Index(x, y, k=k, alpha=1.2, beta=0.7)
    index.insert(0.99, 0.01)  # k>1: lands in the pending buffer
    expected = index.batch_query([0.1, 0.5, 0.9], [0.5, 0.2, 0.8])
    index.save(tmp_path / "snap")
    loaded = Top1Index.load(tmp_path / "snap")
    assert len(loaded) == len(index)
    same_answers(expected, loaded.batch_query([0.1, 0.5, 0.9], [0.5, 0.2, 0.8]))
    loaded.insert(0.98, 0.02)
    loaded.delete(5)
    reference = Top1Index(
        np.concatenate([x, [0.99, 0.98]]),
        np.concatenate([y, [0.01, 0.02]]),
        k=k,
        alpha=1.2,
        beta=0.7,
        row_ids=list(range(300)) + [300, 301],
    )
    reference.delete(5)
    same_answers(
        reference.batch_query([0.3, 0.7], [0.4, 0.6]),
        loaded.batch_query([0.3, 0.7], [0.4, 0.6]),
    )


# --------------------------------------------------------------- format guard
def test_unknown_version_raises(dataset, tmp_path):
    import json

    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    index.save(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match="version"):
        SDIndex.load(tmp_path / "snap")


def test_checksum_mismatch_raises(dataset, tmp_path):
    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    index.save(tmp_path / "snap")
    target = tmp_path / "snap" / "arrays" / "matrix.npy"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        SDIndex.load(tmp_path / "snap")
    # mmap loads skip the checksum pass by default but honor verify=True.
    with pytest.raises(SnapshotFormatError, match="checksum"):
        SDIndex.load(tmp_path / "snap", mmap=True, verify=True)


def test_missing_manifest_raises(tmp_path):
    (tmp_path / "snap").mkdir()
    with pytest.raises(SnapshotFormatError, match="manifest"):
        load_engine(tmp_path / "snap")


def test_wrong_engine_kind_raises(dataset, tmp_path):
    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    index.save(tmp_path / "snap")
    with pytest.raises(SnapshotFormatError, match="expected"):
        ShardedIndex.load(tmp_path / "snap")


def test_truncated_array_raises(dataset, tmp_path):
    index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    index.save(tmp_path / "snap")
    target = tmp_path / "snap" / "arrays" / "rows.npy"
    blob = target.read_bytes()
    target.write_bytes(blob[: len(blob) // 2])
    # Size validation runs on every load mode, including mmap.
    for mmap in (False, True):
        with pytest.raises(SnapshotFormatError, match="truncated"):
            SDIndex.load(tmp_path / "snap", mmap=mmap)


# --------------------------------------------------------------- DurableIndex
class TestDurableIndex:
    def test_checkpoint_recover_equivalence(self, dataset, queries, tmp_path):
        rng = np.random.default_rng(11)
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        rows = [durable.insert(rng.random(4)) for _ in range(10)]
        durable.bulk_insert(rng.random((4, 4)))
        durable.checkpoint()
        durable.delete(rows[0])
        durable.bulk_delete(rows[1:3])
        expected = durable.batch_query(queries, k=5)
        durable.close()

        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.last_recovery["replayed"] == 2
        same_answers(expected, recovered.batch_query(queries, k=5))
        # The recovered wrapper keeps journaling: another cycle still agrees.
        recovered.insert(rng.random(4))
        expected2 = recovered.batch_query(queries, k=5)
        recovered.close()
        second = DurableIndex.recover(tmp_path / "dur", mmap=True)
        same_answers(expected2, second.batch_query(queries, k=5))
        second.close()

    def test_recover_replays_without_building_pair_trees(self, dataset, queries, tmp_path):
        """WAL replay touches only the LSM session: recovering a tail of
        inserts, deletes, flushes and a merge builds no legacy pair tree and
        restores the same levels, answering bit-identically."""
        rng = np.random.default_rng(53)
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        durable.bulk_insert(rng.random((40, 4)))
        durable.checkpoint()
        checkpoint_lsn = durable.end_lsn
        rows = [durable.insert(rng.random(4)) for _ in range(30)]
        durable.delete(rows[0])
        durable.bulk_delete([5, 6, rows[1]])
        assert durable.flush()
        durable.bulk_insert(rng.random((20, 4)))
        durable.delete(rows[2])
        assert durable.flush()
        assert durable.compact() is not None
        durable.insert(rng.random(4))
        replayed = durable.end_lsn - checkpoint_lsn
        structure = index.query_session().structure()
        expected = durable.batch_query(queries, k=6)
        live_rows, live_matrix = index.aggregator.live_population()
        oracle = oracle_for(dict(zip(live_rows.tolist(), live_matrix)), queries, k=6)
        durable.close()
        for mmap in (False, True):
            recovered = DurableIndex.recover(tmp_path / "dur", mmap=mmap)
            assert recovered.last_recovery["replayed"] == replayed
            assert recovered.engine.aggregator._pair_indexes is None
            assert recovered.engine.query_session().structure() == structure
            same_answers(expected, recovered.batch_query(queries, k=6))
            same_answers(oracle, recovered.batch_query(queries, k=6))
            recovered.close()

    def test_checkpoint_rotates_wal_and_prunes(self, dataset, tmp_path):
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        for _ in range(5):
            durable.insert(np.random.default_rng(0).random(4))
        durable.checkpoint()
        assert durable.wal.base_lsn == 5  # rotated: nothing left to replay
        snapshots = sorted(p.name for p in (tmp_path / "dur").glob("snapshot-*"))
        assert snapshots == ["snapshot-000002"]
        durable.close()

    def test_concurrent_checkpoints_serialize(self, dataset, tmp_path):
        """Two racing checkpoints must get distinct snapshot directories and
        leave a recoverable store (regression: unsynchronized seq bump)."""
        import threading

        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        rng = np.random.default_rng(23)
        for _ in range(5):
            durable.insert(rng.random(4))
        barrier = threading.Barrier(2)
        paths = []

        def checkpointer():
            barrier.wait()
            paths.append(durable.checkpoint())

        threads = [threading.Thread(target=checkpointer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(paths)) == 2
        probes = rng.random((4, 4))
        expected = durable.batch_query(probes, k=3)
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        same_answers(expected, recovered.batch_query(probes, k=3))
        recovered.close()

    def test_checkpoint_rotation_keeps_racing_mutations(self, dataset, tmp_path):
        """Mutations landing while a checkpoint streams survive the rotation
        as the WAL tail (the log stays bounded without requiring quiescence)."""
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        rng = np.random.default_rng(29)
        racing = {"fired": False}

        def race_one_insert(point):
            # Injected between the capture and the CURRENT flip: a mutation
            # racing the stream, exactly what rotation must preserve.
            if point == "snapshot.manifest.before" and not racing["fired"]:
                racing["fired"] = True
                durable.insert(rng.random(4), row_id=9_999)

        with faults.fault_plane(CallbackPlane(race_one_insert)):
            durable.checkpoint()
        assert racing["fired"]
        assert durable.wal.end_lsn == durable.wal.base_lsn + 1  # the tail
        expected = durable.batch_query(rng.random((4, 4)), k=3)
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.last_recovery["replayed"] == 1
        assert recovered.point(9_999) is not None
        recovered.close()

    def test_save_of_loaded_topk_stays_lazy(self, tmp_path):
        """Checkpointing a freshly loaded TopKIndex must not force the
        deferred projection-tree build (its parameters ride on the spec)."""
        rng = np.random.default_rng(31)
        index = TopKIndex(rng.random(300), rng.random(300))
        index.delete(5)
        index.flat_session()
        save_engine(index, tmp_path / "a")
        loaded = TopKIndex.load(tmp_path / "a", mmap=True)
        save_engine(loaded, tmp_path / "b")
        assert not loaded.tree.materialized
        second = TopKIndex.load(tmp_path / "b")
        # The re-saved snapshot kept the tombstone guard without the build.
        with pytest.raises(ValueError, match="reused"):
            second.insert(0.5, 0.5, row_id=5)
        expected = index.query(0.4, 0.6, k=4)
        got = second.query(0.4, 0.6, k=4)
        assert [(m.row_id, m.score) for m in expected.matches] == [
            (m.row_id, m.score) for m in got.matches
        ]

    def test_create_refuses_existing(self, dataset, tmp_path):
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        DurableIndex.create(index, tmp_path / "dur").close()
        with pytest.raises(FileExistsError):
            DurableIndex.create(index, tmp_path / "dur")

    def test_recover_missing_wal_raises(self, dataset, tmp_path):
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        DurableIndex.create(index, tmp_path / "dur").close()
        (tmp_path / "dur" / "wal.log").unlink()
        with pytest.raises(SnapshotFormatError, match="write-ahead log"):
            DurableIndex.recover(tmp_path / "dur")

    def test_recover_nothing_there_raises(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="CURRENT"):
            DurableIndex.recover(tmp_path / "nowhere")

    def test_extra_payload_roundtrips(self, dataset, tmp_path):
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        durable.checkpoint(extra={"script_step": 42})
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.last_recovery["extra"] == {"script_step": 42}
        recovered.close()

    def test_sharded_rebalance_journaled(self, dataset, queries, tmp_path):
        engine = ShardedIndex(
            dataset,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            partitioner="range",
        )
        durable = DurableIndex.create(engine, tmp_path / "dur")
        rng = np.random.default_rng(13)
        for _ in range(8):
            durable.insert(rng.random(4))
        durable.rebalance()
        durable.insert(rng.random(4))
        expected = durable.batch_query(queries, k=5)
        sizes = durable.shard_sizes()
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.last_recovery["replayed"] == 10
        assert recovered.shard_sizes() == sizes
        same_answers(expected, recovered.batch_query(queries, k=5))
        recovered.close()

    def test_rebuild_is_journaled(self, tmp_path):
        """Regression: an unjournaled rebuild made acknowledged sequences
        unreplayable — delete(5); rebuild(); insert(row_id=5) replays onto a
        tree that never cleared its tombstones and dies mid-recovery."""
        rng = np.random.default_rng(19)
        index = TopKIndex(rng.random(100), rng.random(100))
        durable = DurableIndex.create(index, tmp_path / "dur")
        durable.delete(5)
        durable.rebuild()
        durable.insert(0.5, 0.5, row_id=5)  # legal only after the rebuild
        expected = durable.query(0.4, 0.4, k=5)
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.last_recovery["replayed"] == 3
        got = recovered.query(0.4, 0.4, k=5)
        assert [(m.row_id, m.score) for m in expected.matches] == [
            (m.row_id, m.score) for m in got.matches
        ]
        recovered.close()

    def test_failed_journal_poisons_wrapper(self, dataset, tmp_path):
        """An op applied to the engine whose append failed leaves live state
        ahead of the journal: further mutations and checkpoints must refuse
        (making the divergence durable), while recover() restores the
        journal-consistent prefix."""
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        durable.insert(np.full(4, 0.25), row_id=5_000)
        boom = {"armed": True}

        def hook(point):
            if point == "wal.append.written" and boom["armed"]:
                boom["armed"] = False
                raise OSError("disk full (injected)")

        with faults.fault_plane(CallbackPlane(hook)):
            with pytest.raises(OSError, match="disk full"):
                durable.insert(np.full(4, 0.75), row_id=6_000)
        # Applied but unjournaled: the live engine answers with it...
        assert durable.point(6_000) is not None
        # ...but the wrapper refuses to deepen the divergence.
        with pytest.raises(RuntimeError, match="poisoned"):
            durable.insert(np.full(4, 0.5))
        with pytest.raises(RuntimeError, match="poisoned"):
            durable.checkpoint()
        durable.wal.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        assert recovered.point(5_000) is not None  # journaled: survives
        with pytest.raises(KeyError):
            recovered.point(6_000)  # unjournaled: dropped, consistently
        recovered.close()

    def test_insert_signature_matches_wrapped_engines(self, dataset, tmp_path):
        """Positional row_id works exactly as on the bare engines."""
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        durable = DurableIndex.create(index, tmp_path / "dur")
        assert durable.insert(np.full(4, 0.5), 7_000) == 7_000
        with pytest.raises(TypeError, match="positional coordinate"):
            durable.insert(np.full(4, 0.5), 1, 2)
        durable.close()
        rng = np.random.default_rng(37)
        topk = TopKIndex(rng.random(50), rng.random(50))
        durable2d = DurableIndex.create(topk, tmp_path / "dur2")
        assert durable2d.insert(0.5, 0.5, 8_000) == 8_000
        durable2d.close()

    def test_2d_engines_journal(self, tmp_path):
        rng = np.random.default_rng(17)
        x, y = rng.random(200), rng.random(200)
        index = TopKIndex(x, y)
        durable = DurableIndex.create(index, tmp_path / "dur")
        row = durable.insert(0.5, 0.5)
        durable.delete(row)
        durable.insert(0.25, 0.75)
        expected = durable.query(0.4, 0.4, k=5)
        durable.close()
        recovered = DurableIndex.recover(tmp_path / "dur")
        got = recovered.query(0.4, 0.4, k=5)
        assert [(m.row_id, m.score) for m in expected.matches] == [
            (m.row_id, m.score) for m in got.matches
        ]
        recovered.close()


# -------------------------------------------------------------- mmap lifecycle
class TestMmapLifecycle:
    """File-handle discipline of mmap-loaded snapshots: ``close()`` drops the
    maps (idempotently), so worker recycling / snapshot pruning never hits a
    file-still-mapped error — and never unmaps under a live reader."""

    def _saved(self, dataset, tmp_path):
        index = SDIndex.build(dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE)
        save_engine(index, tmp_path / "snap")
        return tmp_path / "snap"

    def test_close_releases_all_maps(self, dataset, queries, tmp_path):
        import shutil

        snap = self._saved(dataset, tmp_path)
        loaded = load_engine(snap, mmap=True)
        guard = loaded._mmap_guard
        assert guard.num_maps > 0 and not guard.closed
        loaded.query(queries[0], k=3)  # exercise the maps before closing
        loaded.close()
        assert guard.closed and guard.leaked == 0
        # The point of the exercise: the snapshot files are unmapped and the
        # directory can be pruned out from under the (closed) engine.
        shutil.rmtree(snap)

    def test_close_is_idempotent_and_context_managed(self, dataset, tmp_path):
        snap = self._saved(dataset, tmp_path)
        with load_engine(snap, mmap=True) as loaded:
            assert not loaded.closed
        assert loaded.closed
        loaded.close()  # second close is a no-op
        assert loaded._mmap_guard.leaked == 0

    def test_queries_after_close_raise(self, dataset, queries, tmp_path):
        snap = self._saved(dataset, tmp_path)
        loaded = load_engine(snap, mmap=True)
        loaded.close()
        with pytest.raises(RuntimeError, match="closed"):
            loaded.query(queries[0], k=3)
        with pytest.raises(RuntimeError, match="closed"):
            loaded.insert(np.full(4, 0.5), row_id=77_000)

    def test_pinned_reader_survives_close(self, dataset, queries, tmp_path):
        """close() must never unmap under a live pin: the pinned snapshot's
        arrays stay readable and are *counted* as leaked, not torn down."""
        from repro.core.batch import BatchQuerySpec
        from repro.core.query import SDQuery

        snap = self._saved(dataset, tmp_path)
        loaded = load_engine(snap, mmap=True)
        view = loaded.aggregator.serving_session().snapshot()
        spec = BatchQuerySpec.coerce(
            REPULSIVE,
            ATTRACTIVE,
            4,
            [
                SDQuery.simple(
                    point=queries[0],
                    repulsive=REPULSIVE,
                    attractive=ATTRACTIVE,
                    k=3,
                )
            ],
        )
        before = view.run(spec)
        loaded.close()
        assert loaded._mmap_guard.leaked > 0  # live pin kept its maps
        after = view.run(spec)
        same_answers(before, after)
        view.close()

    def test_pending_reflatten_materializes_before_unmap(self, dataset, tmp_path):
        """A dirty session (reflatten pending) must be materialized into RAM
        before the maps drop — closing can't invalidate the flattened views
        the next serve would rebuild from."""
        snap = self._saved(dataset, tmp_path)
        loaded = load_engine(snap, mmap=True)
        loaded.insert(np.full(4, 0.25), row_id=50_000)  # dirties the session
        loaded.close()
        assert loaded._mmap_guard.closed

    def test_non_mmap_load_has_no_guard(self, dataset, tmp_path):
        snap = self._saved(dataset, tmp_path)
        loaded = load_engine(snap)
        assert getattr(loaded, "_mmap_guard", None) is None
        loaded.close()  # still closeable without a guard
        assert loaded.closed

    def test_sharded_close_releases_maps(self, dataset, tmp_path):
        sharded = ShardedIndex(
            dataset, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        )
        save_engine(sharded, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap", mmap=True)
        guard = loaded._mmap_guard
        assert guard.num_maps > 0
        loaded.close()
        assert guard.closed and guard.leaked == 0


class TestReadWalTail:
    def test_tail_after_lsn(self, tmp_path):
        from repro.core.persistence import read_wal_tail

        wal = WriteAheadLog(tmp_path / "wal.log")
        point = np.asarray([[1.0, 2.0, 3.0, 4.0]])
        wal.append(OP_INSERT, [7], point)
        wal.append(OP_DELETE, [7])
        wal.append(OP_BULK_INSERT, [8, 9], np.vstack([point, point * 2]))
        wal.close()
        records = list(read_wal_tail(tmp_path / "wal.log", after_lsn=1))
        assert [(lsn, op, list(ids)) for lsn, op, ids, _m in records] == [
            (2, OP_DELETE, [7]),
            (3, OP_BULK_INSERT, [8, 9]),
        ]
        assert records[1][3].shape == (2, 4)

    def test_reader_does_not_mutate_the_log(self, tmp_path):
        """Unlike opening a WriteAheadLog (which truncates a torn tail), the
        tail reader leaves the file bytes untouched — vital for workers that
        replay the primary's live log."""
        from repro.core.persistence import read_wal_tail

        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(OP_INSERT, [1], np.asarray([[1.0, 2.0, 3.0, 4.0]]))
        wal.close()
        blob = (tmp_path / "wal.log").read_bytes()
        # A torn half-written record at the end: the reader stops cleanly.
        (tmp_path / "wal.log").write_bytes(blob + b"\x01\x02\x03")
        records = list(read_wal_tail(tmp_path / "wal.log", after_lsn=0))
        assert [lsn for lsn, *_rest in records] == [1]
        assert (tmp_path / "wal.log").read_bytes() == blob + b"\x01\x02\x03"
