"""Property tests: build + update + checkpoint + crash + recover is exact.

Hypothesis drives randomized sequences of ``insert`` / ``delete`` /
``bulk_insert`` / ``bulk_delete`` / ``checkpoint`` against a durable engine,
then "crashes" it by truncating the WAL at a random byte offset and recovers.
The recovered engine's top-k answers must be bit-identical to an in-memory
:class:`SequentialScan` oracle that never crashed and applied exactly the
surviving op prefix (the recovered LSN names it).  Runs across the flat and
sharded{1,2,4} engines, plus flat and sharded{2} engines with a tiny flush
threshold: the flat one journals its flushes and merges, so the crash can
cut between them, and the shards schedule their own, which replay re-derives.

Hypothesis chooses only the shape of the sequence plus a seed; coordinates
come from a numpy generator under that seed, so scores are continuous and
exact ties have probability zero — any divergence is a real defect.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialScan
from repro.core.persistence import WAL_NAME, DurableIndex
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4

ENGINES = [
    ("flat", None),
    ("sharded", 1),
    ("sharded", 2),
    ("sharded", 4),
    ("layered", None),
    ("layered", 2),
]

#: Build options of the ``layered`` engines: nearly every write op flushes.
LAYERED_OPTIONS = dict(flush_rows=4, fanout=2, background_compaction=False)

op_strategy = st.lists(
    st.sampled_from(["insert", "delete", "bulk_insert", "bulk_delete", "checkpoint"]),
    min_size=4,
    max_size=24,
)


def build_engine(kind, shards, data):
    options = LAYERED_OPTIONS if kind == "layered" else {}
    if shards is None:
        return SDIndex.build(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, **options
        )
    return ShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=shards,
        partitioner="range" if shards % 2 == 0 else "hash",
        **options,
    )


def run_scenario(tmp_root, kind, shards, ops, seed, crash_fraction):
    rng = np.random.default_rng(seed)
    initial = int(rng.integers(40, 120))
    data = rng.random((initial, NUM_DIMS))
    queries = rng.random((5, NUM_DIMS))
    store = {row: data[row] for row in range(initial)}
    path = tmp_root / "dur"
    if path.exists():
        shutil.rmtree(path)
    engine = build_engine(kind, shards, data)
    durable = DurableIndex.create(engine, path)

    # Apply the op script, mirroring every journaled mutation into a parallel
    # history keyed by its WAL lsn.  The lsn must be read *before* the call:
    # a mutation journals first, so it lands at ``end_lsn + 1`` — but the
    # engine may then journal trailing OP_FLUSH/OP_COMPACT maintenance
    # records, which occupy lsns of their own and carry no oracle-visible
    # mutation (regression: counting history entries instead of lsns shifted
    # the surviving prefix by one per maintenance record).
    history = []  # (lsn, [("insert", row, point), ...]) per mutation record
    next_id = initial
    for op in ops:
        if op == "checkpoint":
            durable.checkpoint()
            continue
        live = sorted(store)
        lsn = durable.wal.end_lsn + 1  # where the next mutation record lands
        if op == "insert":
            point = rng.random(NUM_DIMS)
            durable.insert(point, row_id=next_id)
            history.append((lsn, [("insert", next_id, point)]))
            store[next_id] = point
            next_id += 1
        elif op == "bulk_insert":
            count = int(rng.integers(1, 6))
            block = rng.random((count, NUM_DIMS))
            ids = list(range(next_id, next_id + count))
            durable.bulk_insert(block, row_ids=ids)
            history.append(
                (lsn, [("insert", row, block[i]) for i, row in enumerate(ids)])
            )
            for i, row in enumerate(ids):
                store[row] = block[i]
            next_id += count
        elif op == "delete" and len(live) > 1:
            victim = live[int(rng.integers(len(live)))]
            durable.delete(victim)
            history.append((lsn, [("delete", victim, None)]))
            del store[victim]
        elif op == "bulk_delete" and len(live) > 4:
            count = int(rng.integers(1, 4))
            victims = [
                live[int(i)]
                for i in rng.choice(len(live), size=count, replace=False)
            ]
            durable.bulk_delete(victims)
            history.append((lsn, [("delete", row, None) for row in victims]))
            for row in victims:
                del store[row]
    durable.wal.sync()
    durable.close()

    # Crash: truncate the WAL at a drawn byte offset past its header.
    wal_path = path / WAL_NAME
    blob = wal_path.read_bytes()
    header = 16
    cut = header + int(crash_fraction * (len(blob) - header))
    wal_path.write_bytes(blob[:cut])

    recovered = DurableIndex.recover(path)
    surviving = recovered.last_recovery["recovered_lsn"]

    # The uncrashed oracle of exactly the surviving prefix: every mutation
    # whose record lsn survived, regardless of interleaved maintenance lsns.
    population = {row: data[row] for row in range(initial)}
    for lsn, group in history:
        if lsn > surviving:
            break
        for kind_op, row, point in group:
            if kind_op == "insert":
                population[row] = point
            else:
                del population[row]
    rows = sorted(population)
    oracle = SequentialScan(
        np.asarray([population[row] for row in rows], dtype=float),
        REPULSIVE,
        ATTRACTIVE,
        row_ids=rows,
    )
    expected = oracle.batch_query(queries, k=5)
    got = recovered.batch_query(queries, k=5)
    for a, b in zip(expected.results, got.results):
        assert [(m.row_id, m.score) for m in a.matches] == [
            (m.row_id, m.score) for m in b.matches
        ], (kind, shards, surviving)
    recovered.close()


@pytest.mark.parametrize("kind,shards", ENGINES)
@settings(
    max_examples=int(os.environ.get("REPRO_PERSIST_EXAMPLES", "8")),
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=op_strategy,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    crash_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_checkpoint_crash_recover_matches_oracle(
    tmp_path, kind, shards, ops, seed, crash_fraction
):
    run_scenario(tmp_path, kind, shards, ops, seed, crash_fraction)


def test_recovered_prefix_survives_journaled_maintenance(tmp_path):
    """Deterministic regression for the lsn-vs-history-index confusion.

    This op script makes the engine journal an OP_FLUSH record right before
    the checkpoint (the delta's dead count trips the flush policy), so the
    checkpoint's lsn exceeds the mutation count.  With ``crash_fraction=0``
    the entire post-checkpoint WAL is lost and the oracle must rebuild from
    the checkpointed prefix alone — mapping lsns to history positions 1:1
    used to over-apply one mutation per maintenance record.
    """
    ops = (
        ["insert", "insert"]
        + ["delete"] * 6
        + ["bulk_delete", "bulk_delete", "delete", "checkpoint", "insert"]
    )
    run_scenario(tmp_path, "flat", None, ops, 17417, 0.0)


@pytest.mark.slow
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ops=st.lists(
        st.sampled_from(
            ["insert", "delete", "bulk_insert", "bulk_delete", "checkpoint"]
        ),
        min_size=20,
        max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    crash_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_exhaustive_sharded_crash_sweep(tmp_path, ops, seed, crash_fraction):
    """Nightly lane: longer scripts on the 4-shard range engine."""
    run_scenario(tmp_path, "sharded", 4, ops, seed, crash_fraction)


def test_mmap_recovery_matches_full_recovery(tmp_path):
    """Both load modes recover to identical answers from the same files."""
    rng = np.random.default_rng(77)
    data = rng.random((150, NUM_DIMS))
    queries = rng.random((6, NUM_DIMS))
    engine = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    durable = DurableIndex.create(engine, tmp_path / "dur")
    for _ in range(15):
        durable.insert(rng.random(NUM_DIMS))
    durable.checkpoint()
    for _ in range(7):
        durable.insert(rng.random(NUM_DIMS))
    durable.close()
    full = DurableIndex.recover(tmp_path / "dur")
    answers_full = full.batch_query(queries, k=5)
    full.close()
    mapped = DurableIndex.recover(tmp_path / "dur", mmap=True)
    answers_mapped = mapped.batch_query(queries, k=5)
    mapped.close()
    for a, b in zip(answers_full.results, answers_mapped.results):
        assert [(m.row_id, m.score) for m in a.matches] == [
            (m.row_id, m.score) for m in b.matches
        ]
