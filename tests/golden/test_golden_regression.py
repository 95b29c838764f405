"""Golden regression tests: frozen top-k answers for three seeded datasets.

The fixtures under ``tests/fixtures/`` snapshot the exact row ids and scores of
the sequential-scan oracle for seeded workloads over the uniform, clustered and
anti-correlated generators.  The tier-1 test re-runs the single-query SD-Index
path, the batched SD-Index path and the oracle against those snapshots, so any
scoring drift — a changed term order, a broken bound, a generator change — in
either execution path fails loudly.

Regenerate (only after an *intentional* semantic change) with::

    PYTHONPATH=src python tests/golden/test_golden_regression.py --regenerate
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.query import SDQuery
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.data.generators import generate_dataset
from repro.workloads.registry import build_workload
from repro.workloads.workload import make_batch_workload

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: Score drift tolerance: answers are float64-deterministic, so anything above
#: exact-roundtrip noise is a real regression.
SCORE_TOLERANCE = 1e-12

#: The frozen scenarios: distribution, dataset seed, dimension roles.  The
#: roles deliberately cover all three execution shapes of the batch engine
#: (two 2D pairs, pair + repulsive columns, pair + attractive columns).
SCENARIOS = {
    "uniform": {
        "distribution": "uniform",
        "num_points": 500,
        "num_dims": 4,
        "data_seed": 201,
        "repulsive": (0, 1),
        "attractive": (2, 3),
        "workload_seed": 301,
    },
    "clustered": {
        "distribution": "clustered",
        "num_points": 500,
        "num_dims": 4,
        "data_seed": 202,
        "repulsive": (0, 1, 2),
        "attractive": (3,),
        "workload_seed": 302,
    },
    "anticorrelated": {
        "distribution": "anticorrelated",
        "num_points": 500,
        "num_dims": 4,
        "data_seed": 203,
        "repulsive": (0,),
        "attractive": (1, 2, 3),
        "workload_seed": 303,
    },
}

NUM_QUERIES = 10
K_CHOICES = (1, 3, 5, 8)

#: The sharded-serving snapshot: the registered ``sharded_serving`` workload
#: (k menu {1, 10}) over seeded uniform data, asserted against the sharded
#: engine at 2 and 4 shards with both partitioners.
SHARDED_SCENARIO = {
    "distribution": "uniform",
    "num_points": 600,
    "num_dims": 4,
    "data_seed": 401,
    "repulsive": (0, 1),
    "attractive": (2, 3),
    "workload_seed": 402,
}
SHARDED_NUM_QUERIES = 12
SHARD_COUNTS = (2, 4)

#: The concurrent-serving snapshot: the registered ``concurrent_serving``
#: workload's deterministic update script applied serially over seeded
#: uniform data, with the read batch's oracle answers frozen at evenly spaced
#: checkpoints.  The test replays the script through the flat and sharded
#: engines (snapshot concurrency mode) and asserts bit-identical answers at
#: every checkpoint — the single-threaded anchor of the multi-threaded
#: stress harness.
CONCURRENT_SCENARIO = {
    "distribution": "uniform",
    "num_points": 400,
    "num_dims": 4,
    "data_seed": 501,
    "repulsive": (0, 1),
    "attractive": (2, 3),
    "workload_seed": 502,
}
CONCURRENT_NUM_QUERIES = 10
CONCURRENT_NUM_UPDATES = 120
CONCURRENT_CHECKPOINTS = (0, 40, 80, 120)

#: The write-heavy snapshot: the registered ``write_heavy`` workload (an
#: update-dominated stream against a small read batch) frozen at checkpoints
#: chosen to land mid-layering.  The replay drives the LSM engine with a tiny
#: flush threshold, so the frozen answers pin the delta + levels merge path
#: — flushes, tier merges, tombstone collection — against the oracle, next
#: to the sharded engines on the same script.
WRITE_HEAVY_SCENARIO = {
    "distribution": "uniform",
    "num_points": 300,
    "num_dims": 4,
    "data_seed": 601,
    "repulsive": (0, 1),
    "attractive": (2, 3),
    "workload_seed": 602,
}
WRITE_HEAVY_NUM_QUERIES = 8
WRITE_HEAVY_NUM_UPDATES = 400
WRITE_HEAVY_CHECKPOINTS = (0, 90, 210, 400)
WRITE_HEAVY_LSM_OPTIONS = dict(flush_rows=16, fanout=2, background_compaction=False)


def _sharded_inputs():
    config = SHARDED_SCENARIO
    data = generate_dataset(
        config["distribution"],
        config["num_points"],
        config["num_dims"],
        seed=config["data_seed"],
    ).matrix
    workload = build_workload(
        "sharded_serving",
        config["repulsive"],
        config["attractive"],
        num_queries=SHARDED_NUM_QUERIES,
        num_dims=config["num_dims"],
        seed=config["workload_seed"],
    )
    return data, workload


def _concurrent_inputs():
    config = CONCURRENT_SCENARIO
    data = generate_dataset(
        config["distribution"],
        config["num_points"],
        config["num_dims"],
        seed=config["data_seed"],
    ).matrix
    workload = build_workload(
        "concurrent_serving",
        config["repulsive"],
        config["attractive"],
        num_queries=CONCURRENT_NUM_QUERIES,
        num_updates=CONCURRENT_NUM_UPDATES,
        num_dims=config["num_dims"],
        seed=config["workload_seed"],
    )
    return data, workload


def _concurrent_expected(data, workload, config=None, checkpoints=None):
    """Oracle answers of the read batch at every update-script checkpoint."""
    config = CONCURRENT_SCENARIO if config is None else config
    checkpoints = CONCURRENT_CHECKPOINTS if checkpoints is None else checkpoints
    store = {row: data[row] for row in range(len(data))}
    script = workload.script(sorted(store))
    expected = []
    applied = 0
    for checkpoint in checkpoints:
        while applied < checkpoint:
            op, row, point = script[applied]
            if op == "insert":
                store[row] = np.asarray(point, dtype=float)
            else:
                del store[row]
            applied += 1
        rows = sorted(store)
        oracle = SequentialScan(
            np.asarray([store[row] for row in rows], dtype=float),
            config["repulsive"],
            config["attractive"],
            row_ids=rows,
        )
        batch = oracle.batch_query(workload.reads)
        expected.append(
            {
                "checkpoint": checkpoint,
                "population": len(rows),
                "results": [
                    {"row_ids": result.row_ids, "scores": result.scores}
                    for result in batch
                ],
            }
        )
    return expected


def _write_heavy_inputs():
    config = WRITE_HEAVY_SCENARIO
    data = generate_dataset(
        config["distribution"],
        config["num_points"],
        config["num_dims"],
        seed=config["data_seed"],
    ).matrix
    workload = build_workload(
        "write_heavy",
        config["repulsive"],
        config["attractive"],
        num_queries=WRITE_HEAVY_NUM_QUERIES,
        num_updates=WRITE_HEAVY_NUM_UPDATES,
        num_dims=config["num_dims"],
        seed=config["workload_seed"],
    )
    return data, workload


def _scenario_inputs(config):
    data = generate_dataset(
        config["distribution"],
        config["num_points"],
        config["num_dims"],
        seed=config["data_seed"],
    ).matrix
    workload = make_batch_workload(
        config["repulsive"],
        config["attractive"],
        num_queries=NUM_QUERIES,
        k=K_CHOICES,
        num_dims=config["num_dims"],
        seed=config["workload_seed"],
    )
    return data, workload


def _fixture_path(name: str) -> Path:
    return FIXTURES / f"golden_topk_{name}.json"


def _compute_expected(config):
    data, workload = _scenario_inputs(config)
    oracle = SequentialScan(data, config["repulsive"], config["attractive"])
    batch = oracle.batch_query(workload)
    return [
        {"row_ids": result.row_ids, "scores": result.scores} for result in batch
    ]


def regenerate() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, config in SCENARIOS.items():
        payload = {
            "scenario": {key: list(value) if isinstance(value, tuple) else value
                         for key, value in config.items()},
            "num_queries": NUM_QUERIES,
            "k_choices": list(K_CHOICES),
            "expected": _compute_expected(config),
        }
        path = _fixture_path(name)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    data, workload = _sharded_inputs()
    oracle = SequentialScan(
        data, SHARDED_SCENARIO["repulsive"], SHARDED_SCENARIO["attractive"]
    )
    payload = {
        "scenario": {key: list(value) if isinstance(value, tuple) else value
                     for key, value in SHARDED_SCENARIO.items()},
        "num_queries": SHARDED_NUM_QUERIES,
        "k_choices": [1, 10],
        "shard_counts": list(SHARD_COUNTS),
        "expected": [
            {"row_ids": result.row_ids, "scores": result.scores}
            for result in oracle.batch_query(workload)
        ],
    }
    path = _fixture_path("sharded_serving")
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    data, workload = _concurrent_inputs()
    payload = {
        "scenario": {key: list(value) if isinstance(value, tuple) else value
                     for key, value in CONCURRENT_SCENARIO.items()},
        "num_queries": CONCURRENT_NUM_QUERIES,
        "num_updates": CONCURRENT_NUM_UPDATES,
        "checkpoints": list(CONCURRENT_CHECKPOINTS),
        "expected": _concurrent_expected(data, workload),
    }
    path = _fixture_path("concurrent_serving")
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    data, workload = _write_heavy_inputs()
    payload = {
        "scenario": {key: list(value) if isinstance(value, tuple) else value
                     for key, value in WRITE_HEAVY_SCENARIO.items()},
        "num_queries": WRITE_HEAVY_NUM_QUERIES,
        "num_updates": WRITE_HEAVY_NUM_UPDATES,
        "checkpoints": list(WRITE_HEAVY_CHECKPOINTS),
        "expected": _concurrent_expected(
            data, workload, WRITE_HEAVY_SCENARIO, WRITE_HEAVY_CHECKPOINTS
        ),
    }
    path = _fixture_path("write_heavy")
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def _assert_matches_fixture(result, expected, context: str) -> None:
    assert result.row_ids == expected["row_ids"], (
        f"{context}: row ids drifted: {result.row_ids} != {expected['row_ids']}"
    )
    assert len(result.scores) == len(expected["scores"])
    for mine, frozen in zip(result.scores, expected["scores"]):
        assert math.isfinite(mine)
        assert abs(mine - frozen) <= SCORE_TOLERANCE, (
            f"{context}: score drifted: {mine!r} != {frozen!r}"
        )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestGoldenTopK:
    def _load(self, name):
        path = _fixture_path(name)
        payload = json.loads(path.read_text())
        config = SCENARIOS[name]
        data, workload = _scenario_inputs(config)
        return config, data, workload, payload["expected"]

    def test_oracle_matches_fixture(self, name):
        config, data, workload, expected = self._load(name)
        batch = SequentialScan(
            data, config["repulsive"], config["attractive"]
        ).batch_query(workload)
        for j, result in enumerate(batch):
            _assert_matches_fixture(result, expected[j], f"{name}/oracle q{j}")

    def test_single_query_path_matches_fixture(self, name):
        config, data, workload, expected = self._load(name)
        index = SDIndex.build(
            data, repulsive=config["repulsive"], attractive=config["attractive"]
        )
        for j, query in enumerate(workload.queries()):
            result = index.query(query)
            _assert_matches_fixture(result, expected[j], f"{name}/single q{j}")

    def test_batch_path_matches_fixture(self, name):
        config, data, workload, expected = self._load(name)
        index = SDIndex.build(
            data, repulsive=config["repulsive"], attractive=config["attractive"]
        )
        batch = index.batch_query(workload)
        for j, result in enumerate(batch):
            _assert_matches_fixture(result, expected[j], f"{name}/batch q{j}")


class TestGoldenShardedServing:
    """Frozen answers of the ``sharded_serving`` workload (k in {1, 10})."""

    def _load(self):
        payload = json.loads(_fixture_path("sharded_serving").read_text())
        data, workload = _sharded_inputs()
        return data, workload, payload["expected"]

    def test_workload_uses_the_acceptance_k_menu(self):
        _data, workload, _expected = self._load()
        assert set(int(k) for k in workload.ks) <= {1, 10}
        assert {1, 10} <= set(int(k) for k in workload.ks)

    def test_oracle_matches_fixture(self):
        data, workload, expected = self._load()
        batch = SequentialScan(
            data, SHARDED_SCENARIO["repulsive"], SHARDED_SCENARIO["attractive"]
        ).batch_query(workload)
        for j, result in enumerate(batch):
            _assert_matches_fixture(result, expected[j], f"sharded/oracle q{j}")

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_sharded_engine_matches_fixture(self, num_shards, partitioner):
        data, workload, expected = self._load()
        engine = ShardedIndex(
            data,
            repulsive=SHARDED_SCENARIO["repulsive"],
            attractive=SHARDED_SCENARIO["attractive"],
            num_shards=num_shards,
            partitioner=partitioner,
        )
        batch = engine.batch_query(workload)
        for j, result in enumerate(batch):
            _assert_matches_fixture(
                result, expected[j],
                f"sharded/{partitioner}/{num_shards} q{j}",
            )
        engine.close()

    def test_flat_engine_matches_fixture(self):
        data, workload, expected = self._load()
        index = SDIndex.build(
            data,
            repulsive=SHARDED_SCENARIO["repulsive"],
            attractive=SHARDED_SCENARIO["attractive"],
        )
        batch = index.batch_query(workload)
        for j, result in enumerate(batch):
            _assert_matches_fixture(result, expected[j], f"sharded/flat q{j}")


class TestGoldenConcurrentServing:
    """Frozen checkpoint answers of the ``concurrent_serving`` update script."""

    def _load(self):
        payload = json.loads(_fixture_path("concurrent_serving").read_text())
        data, workload = _concurrent_inputs()
        return data, workload, payload

    def test_script_is_deterministic(self):
        data, workload, payload = self._load()
        first = workload.script(range(len(data)))
        second = workload.script(range(len(data)))
        assert [(op, row) for op, row, _ in first] == [
            (op, row) for op, row, _ in second
        ]
        assert len(first) == payload["num_updates"]
        deletes = sum(1 for op, _, _ in first if op == "delete")
        assert 0 < deletes < len(first)

    def test_oracle_matches_fixture(self):
        data, workload, payload = self._load()
        expected = _concurrent_expected(data, workload)
        assert len(expected) == len(payload["expected"])
        for computed, frozen in zip(expected, payload["expected"]):
            assert computed["checkpoint"] == frozen["checkpoint"]
            assert computed["population"] == frozen["population"]
            for mine, theirs in zip(computed["results"], frozen["results"]):
                assert mine["row_ids"] == theirs["row_ids"]
                for a, b in zip(mine["scores"], theirs["scores"]):
                    assert abs(a - b) <= SCORE_TOLERANCE

    def _replay(self, engine_factory, label, close=False):
        config = CONCURRENT_SCENARIO
        data, workload, payload = self._load()
        engine = engine_factory(data)
        script = workload.script(range(len(data)))
        applied = 0
        try:
            for frozen in payload["expected"]:
                while applied < frozen["checkpoint"]:
                    op, row, point = script[applied]
                    if op == "insert":
                        engine.insert(point, row_id=row)
                    else:
                        engine.delete(row)
                    applied += 1
                # Serve the read batch through a pinned snapshot, exactly as a
                # concurrent reader would.
                with engine.snapshot() as snap:
                    assert len(snap) == frozen["population"]
                    batch = snap.batch_query(workload.reads)
                for j, result in enumerate(batch):
                    _assert_matches_fixture(
                        result,
                        frozen["results"][j],
                        f"concurrent/{label}@{frozen['checkpoint']} q{j}",
                    )
        finally:
            if close:
                engine.close()

    def test_flat_engine_matches_fixture(self):
        config = CONCURRENT_SCENARIO
        self._replay(
            lambda data: SDIndex.build(
                data,
                repulsive=config["repulsive"],
                attractive=config["attractive"],
            ),
            "flat",
        )

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_engine_matches_fixture(self, num_shards):
        config = CONCURRENT_SCENARIO
        self._replay(
            lambda data: ShardedIndex(
                data,
                repulsive=config["repulsive"],
                attractive=config["attractive"],
                num_shards=num_shards,
                partitioner="range" if num_shards == 2 else "hash",
            ),
            f"sharded{num_shards}",
            close=True,
        )


class TestGoldenWriteHeavy:
    """Frozen checkpoint answers of the ``write_heavy`` update script.

    The LSM replay uses a tiny flush threshold so every checkpoint lands on
    a genuinely layered world — the frozen answers pin the delta + levels
    merge read path, not just the single-level fast path — and the sharded
    engines replay the identical script against the same oracle.
    """

    def _load(self):
        payload = json.loads(_fixture_path("write_heavy").read_text())
        data, workload = _write_heavy_inputs()
        return data, workload, payload

    def test_script_is_update_dominated(self):
        data, workload, payload = self._load()
        script = workload.script(range(len(data)))
        assert len(script) == payload["num_updates"]
        assert len(script) > 10 * len(workload.reads.points)

    def test_oracle_matches_fixture(self):
        data, workload, payload = self._load()
        expected = _concurrent_expected(
            data, workload, WRITE_HEAVY_SCENARIO, WRITE_HEAVY_CHECKPOINTS
        )
        assert len(expected) == len(payload["expected"])
        for computed, frozen in zip(expected, payload["expected"]):
            assert computed["checkpoint"] == frozen["checkpoint"]
            assert computed["population"] == frozen["population"]
            for mine, theirs in zip(computed["results"], frozen["results"]):
                assert mine["row_ids"] == theirs["row_ids"]
                for a, b in zip(mine["scores"], theirs["scores"]):
                    assert abs(a - b) <= SCORE_TOLERANCE

    def _replay(self, engine_factory, label, close=False):
        data, workload, payload = self._load()
        engine = engine_factory(data)
        script = workload.script(range(len(data)))
        applied = 0
        try:
            for frozen in payload["expected"]:
                while applied < frozen["checkpoint"]:
                    op, row, point = script[applied]
                    if op == "insert":
                        engine.insert(point, row_id=row)
                    else:
                        engine.delete(row)
                    applied += 1
                with engine.snapshot() as snap:
                    assert len(snap) == frozen["population"]
                    batch = snap.batch_query(workload.reads)
                for j, result in enumerate(batch):
                    _assert_matches_fixture(
                        result,
                        frozen["results"][j],
                        f"write_heavy/{label}@{frozen['checkpoint']} q{j}",
                    )
        finally:
            if close:
                engine.close()
        return engine

    def test_lsm_engine_matches_fixture_and_actually_layers(self):
        config = WRITE_HEAVY_SCENARIO
        engine = self._replay(
            lambda data: SDIndex.build(
                data,
                repulsive=config["repulsive"],
                attractive=config["attractive"],
                **WRITE_HEAVY_LSM_OPTIONS,
            ),
            "lsm",
        )
        session = engine._aggregator.serving_session()
        # The scenario exercised real maintenance, not the fast path: the
        # stream drove flushes and merges, and never a stop-the-world rebuild.
        assert session.flushes > 0
        assert session.compactions > 0
        assert session.reflattens == 0

    def test_background_compaction_engine_matches_fixture(self):
        """The same replay with maintenance on the background compactor
        thread: however its flips interleave with the writes, every pinned
        checkpoint answers as frozen and no epoch leaks."""
        config = WRITE_HEAVY_SCENARIO
        options = dict(WRITE_HEAVY_LSM_OPTIONS, background_compaction=True)
        engine = self._replay(
            lambda data: SDIndex.build(
                data,
                repulsive=config["repulsive"],
                attractive=config["attractive"],
                **options,
            ),
            "lsm-background",
        )
        engine.quiesce_maintenance()
        session = engine._aggregator.serving_session()
        assert session.background
        assert session.flushes > 0
        assert session.reflattens == 0
        report = session.epochs.leak_report()
        assert report["pinned_readers"] == 0
        assert report["live_epochs"] == 1

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_lsm_engine_matches_fixture(self, num_shards):
        config = WRITE_HEAVY_SCENARIO
        self._replay(
            lambda data: ShardedIndex(
                data,
                repulsive=config["repulsive"],
                attractive=config["attractive"],
                num_shards=num_shards,
                partitioner="range" if num_shards == 2 else "hash",
                **WRITE_HEAVY_LSM_OPTIONS,
            ),
            f"sharded{num_shards}",
            close=True,
        )


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
