"""Golden snapshot-format regression: every shipped format must load forever.

The committed fixtures (``tests/fixtures/golden_snapshot_v<N>/``, one per
format version) are the same small durable SD-Index — checkpointed snapshot
plus a WAL tail — written at that version, with the exact expected answers
stored as ``float.hex`` strings.  Every future build must recover each of
them bit-identically; a failure here is a backward-compatibility break, never
something to fix by regenerating a fixture (see
``tests/fixtures/make_golden_snapshot.py``).

Also locks the typed-error contract: unknown format versions and checksum
mismatches must raise :class:`SnapshotFormatError`, not load garbage.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.lsm import LsmSession
from repro.core.persistence import FORMAT_VERSION, DurableIndex, SnapshotFormatError

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
VERSIONS = (1, 2)


def copy_store(version: int, tmp_path) -> Path:
    """A writable copy (recovery appends to the WAL; the fixture is read-only)."""
    target = tmp_path / "store"
    shutil.copytree(FIXTURES / f"golden_snapshot_v{version}" / "store", target)
    return target


@pytest.fixture
def store(tmp_path):
    return copy_store(1, tmp_path)


def load_expected(version: int):
    path = FIXTURES / f"golden_snapshot_v{version}" / "expected.json"
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def expected():
    return load_expected(1)


def test_the_current_version_has_a_fixture():
    assert FORMAT_VERSION in VERSIONS
    assert (FIXTURES / f"golden_snapshot_v{FORMAT_VERSION}").is_dir()


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("version", VERSIONS)
def test_golden_recovers_bit_identically(tmp_path, version, mmap):
    store = copy_store(version, tmp_path)
    expected = load_expected(version)
    recovered = DurableIndex.recover(store, mmap=mmap)
    assert recovered.last_recovery["extra"] == {"fixture": f"golden-v{version}"}
    assert recovered.last_recovery["replayed"] == 6  # the committed WAL tail
    queries = np.asarray(expected["queries"], dtype=float)
    answers = recovered.batch_query(queries, k=expected["k"])
    got = [
        [[m.row_id, float(m.score).hex()] for m in result.matches]
        for result in answers.results
    ]
    assert got == expected["results"]
    recovered.close()


def test_golden_v1_unknown_version_rejected(store):
    current = (store / "CURRENT").read_text().strip()
    manifest_path = store / current / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match="version"):
        DurableIndex.recover(store)


def test_golden_v1_checksum_mismatch_rejected(store):
    current = (store / "CURRENT").read_text().strip()
    target = store / current / "arrays" / "matrix.npy"
    blob = bytearray(target.read_bytes())
    blob[-3] ^= 0x10
    target.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        DurableIndex.recover(store)


def _frozen_population():
    """The fixture's population after its WAL tail, rebuilt from the seeded
    script of ``tests/fixtures/make_golden_snapshot.py`` (not from the store).
    """
    rng = np.random.default_rng(20260729)
    store = {row: point for row, point in enumerate(rng.random((80, 4)))}
    queries = rng.random((4, 4))
    for row in range(80, 90):
        store[row] = rng.random(4)
    del store[3], store[85]
    for row in range(90, 95):
        store[row] = rng.random(4)
    del store[7]
    return store, queries


def _assert_matches_scan(engine, store, queries, k=5):
    rows = sorted(store)
    oracle = SequentialScan(
        np.asarray([store[row] for row in rows], dtype=float),
        (0, 1),
        (2, 3),
        row_ids=rows,
    )
    expect = oracle.batch_query(queries, k=k)
    got = engine.batch_query(queries, k=k)
    for mine, theirs in zip(got.results, expect.results):
        assert [(m.row_id, float(m.score).hex()) for m in mine.matches] == [
            (m.row_id, float(m.score).hex()) for m in theirs.matches
        ]


@pytest.mark.parametrize("mmap", [False, True])
def test_golden_v1_upgrades_to_a_one_level_lsm_world(store, expected, mmap):
    """A pre-LSM (flat) v1 snapshot restores as a single-level LSM world.

    The replayed WAL tail lands in the LSM structures — its five inserts in
    the delta, its delete as a tombstone of the one level — and the world
    then takes writes, an explicit flush and compaction, and a second
    recovery, answering bit-identically to a sequential scan throughout.
    """
    population, queries = _frozen_population()
    np.testing.assert_array_equal(queries, np.asarray(expected["queries"]))
    recovered = DurableIndex.recover(store, mmap=mmap)
    session = recovered.engine.query_session()
    assert isinstance(session, LsmSession)
    structure = session.structure()
    assert [level["seq"] for level in structure["levels"]] == [1]
    # The checkpoint held rows 0-89 with 3 and 85 dead; the tail deleted 7.
    assert structure["levels"][0]["rows"] == 90
    assert structure["levels"][0]["tombstoned"] == 3
    assert structure["delta_live"] == 5  # rows 90-94
    _assert_matches_scan(recovered, population, queries)

    rng = np.random.default_rng(11)
    for row in range(95, 105):
        population[row] = rng.random(4)
        recovered.insert(population[row], row_id=row)
    for row in (0, 50, 92, 100):
        recovered.delete(row)
        del population[row]
    assert recovered.flush()
    assert len(session.structure()["levels"]) == 2
    assert recovered.compact() is not None
    assert len(session.structure()["levels"]) == 1
    _assert_matches_scan(recovered, population, queries)
    layout = session.structure()
    recovered.close()

    again = DurableIndex.recover(store, mmap=mmap)
    assert again.engine.query_session().structure() == layout
    _assert_matches_scan(again, population, queries)
    again.close()
