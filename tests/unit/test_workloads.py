"""Unit tests for workload generation, the algorithm registry and the timing runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.workloads.registry import ALGORITHM_BUILDERS, DEFAULT_METHODS, build_algorithm
from repro.workloads.reporting import format_series_table, format_table
from repro.workloads.runner import ExperimentResult, MeasuredSeries, time_queries
from repro.workloads.registry import build_workload
from repro.workloads.workload import make_concurrent_workload, make_workload


class TestWorkloads:
    def test_workload_size_and_roles(self):
        workload = make_workload([0, 1], [2], num_queries=7, k=3)
        assert len(workload) == 7
        for query in workload:
            assert query.k == 3
            assert query.repulsive == (0, 1)
            assert query.attractive == (2,)
            assert query.num_dims == 3

    def test_workload_is_deterministic(self):
        a = make_workload([0], [1], num_queries=5, seed=3)
        b = make_workload([0], [1], num_queries=5, seed=3)
        assert [q.point for q in a] == [q.point for q in b]

    def test_random_weights_within_range(self):
        workload = make_workload([0], [1], num_queries=20, weight_range=(0.2, 0.9))
        for query in workload:
            assert 0.2 <= query.alpha[0] <= 0.9
            assert 0.2 <= query.beta[0] <= 0.9

    def test_unit_weights_option(self):
        workload = make_workload([0], [1], num_queries=3, random_weights=False)
        assert all(q.alpha == (1.0,) and q.beta == (1.0,) for q in workload)

    def test_with_k(self):
        workload = make_workload([0], [1], num_queries=3, k=2).with_k(9)
        assert all(q.k == 9 for q in workload)

    def test_explicit_num_dims(self):
        workload = make_workload([0], [1], num_queries=2, num_dims=6)
        assert all(q.num_dims == 6 for q in workload)


class TestConcurrentWorkload:
    def test_script_is_deterministic_and_mixes_ops(self):
        workload = make_concurrent_workload(
            (0, 1), (2, 3), num_queries=8, num_updates=60, seed=5
        )
        assert len(workload.reads) == 8
        assert workload.num_updates == 60
        first = workload.script(range(100))
        second = workload.script(range(100))
        assert [(op, row) for op, row, _ in first] == [
            (op, row) for op, row, _ in second
        ]
        ops = {op for op, _, _ in first}
        assert ops == {"insert", "delete"}
        # Inserts allocate fresh ids above the initial population.
        inserted = [row for op, row, _ in first if op == "insert"]
        assert min(inserted) >= 100
        assert len(set(inserted)) == len(inserted)
        # Deletes only target rows that were live at that point.
        live = set(range(100))
        for op, row, point in first:
            if op == "insert":
                assert point is not None and len(point) == 4
                live.add(row)
            else:
                assert row in live
                live.discard(row)

    def test_registered_builder_uses_the_k_menu(self):
        workload = build_workload(
            "concurrent_serving", (0, 1), (2, 3), num_queries=40, seed=3
        )
        assert set(int(k) for k in workload.reads.ks) <= {1, 10}

    def test_script_respects_starting_population(self):
        workload = make_concurrent_workload(
            (0, 1), (2, 3), num_queries=4, num_updates=10, seed=9
        )
        ops = workload.script([7, 99, 4])
        inserted = [row for op, row, _ in ops if op == "insert"]
        assert min(inserted) >= 100


class TestRegistry:
    def test_default_methods_are_registered(self):
        for name in DEFAULT_METHODS + ("PE",):
            assert name in ALGORITHM_BUILDERS

    def test_build_each_algorithm(self, rng):
        data = rng.random((100, 4))
        for name in ALGORITHM_BUILDERS:
            algorithm = build_algorithm(name, data, [0, 1], [2, 3])
            workload = make_workload([0, 1], [2, 3], num_queries=2, k=3)
            for query in workload:
                assert len(algorithm.query(query)) == 3

    def test_unknown_algorithm_rejected(self, rng):
        with pytest.raises(ValueError):
            build_algorithm("Oracle", rng.random((10, 2)), [0], [1])

    def test_sd_index_options_forwarded(self, rng):
        data = rng.random((100, 4))
        index = build_algorithm("SD-Index", data, [0, 1], [2, 3], angles=[0, 45, 90], branching=4)
        assert index.stats().num_angles == 3

    def test_sharded_options_forwarded_and_unknown_ones_dropped(self, rng):
        data = rng.random((100, 4))
        # ``max_workers`` is not a ShardedIndex option: the allow-list drops it.
        engine = build_algorithm(
            "SD-Sharded",
            data,
            [0, 1],
            [2, 3],
            num_shards=3,
            partitioner="range",
            max_workers=2,
        )
        try:
            assert engine.num_shards == 3
            assert engine.router.partitioner == "range"
            assert sum(engine.shard_sizes()) == 100
        finally:
            engine.close()


class TestRunnerAndReporting:
    def test_time_queries_summary(self, rng):
        data = rng.random((200, 2))
        scan = SequentialScan(data, [0], [1])
        workload = make_workload([0], [1], num_queries=4, k=2)
        summary = time_queries(scan, workload, repeat=2)
        assert summary.num_queries == 8
        assert summary.total_seconds >= 0
        assert summary.mean_candidates == 200
        assert summary.mean_milliseconds == pytest.approx(summary.mean_seconds * 1000)

    def test_collect_results(self, rng):
        data = rng.random((50, 2))
        scan = SequentialScan(data, [0], [1])
        workload = make_workload([0], [1], num_queries=3, k=2)
        summary = time_queries(scan, workload, collect_results=True)
        assert len(summary.results) == 3

    def test_experiment_result_series(self):
        result = ExperimentResult(name="demo", x_label="n", y_label="ms")
        result.series_for("A").add(1, 10.0)
        result.series_for("A").add(2, 20.0)
        result.series_for("B").add(1, 5.0)
        assert len(result.series) == 2
        assert result.series_for("A").y_values == [10.0, 20.0]
        as_dict = result.as_dict()
        assert as_dict["name"] == "demo"
        assert len(as_dict["series"]) == 2

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_series_table_includes_every_method(self):
        result = ExperimentResult(name="demo", x_label="n", y_label="ms")
        result.series_for("A").add(1, 10.0)
        result.series_for("B").add(2, 5.0)
        text = format_series_table(result)
        assert "A" in text and "B" in text
        assert "-" in text  # missing measurements rendered as dashes


class TestDurableScripts:
    """checkpoint/restore of a concurrent_serving update script mid-way."""

    REPULSIVE = (0, 1)
    ATTRACTIVE = (2, 3)

    def _population(self, data, ops):
        population = {row: np.asarray(data[row]) for row in range(len(data))}
        for op, row_id, point in ops:
            if op == "insert":
                population[row_id] = np.asarray(point)
            else:
                del population[row_id]
        return population

    def test_resume_update_script_mid_way(self, tmp_path):
        from repro.core.persistence import DurableIndex, WAL_NAME
        from repro.core.sdindex import SDIndex
        from repro.workloads.runner import resume_update_script, run_update_script

        workload = make_concurrent_workload(
            self.REPULSIVE, self.ATTRACTIVE, num_queries=6, num_updates=40, seed=3
        )
        rng = np.random.default_rng(3)
        data = rng.random((80, 4))
        ops = workload.script(range(len(data)))

        index = SDIndex.build(
            data, repulsive=self.REPULSIVE, attractive=self.ATTRACTIVE
        )
        durable = DurableIndex.create(index, tmp_path / "dur")
        # Run the first 25 steps with a checkpoint every 10, then "crash" by
        # dropping the last journaled records (a torn shutdown).
        run_update_script(durable, ops[:25], checkpoint_every=10)
        durable.wal.sync()
        durable.close()
        wal = tmp_path / "dur" / WAL_NAME
        blob = wal.read_bytes()
        wal.write_bytes(blob[:-50])

        resumed, resumed_from = resume_update_script(
            tmp_path / "dur", ops, checkpoint_every=10
        )
        # The crash dropped at most one acknowledged-but-torn record past the
        # checkpoint at step 20; resume restarts within (20, 25].
        assert 20 < resumed_from <= 25
        # After the remaining steps the engine matches an uncrashed oracle.
        population = self._population(data, ops)
        rows = sorted(population)
        oracle = SequentialScan(
            np.asarray([population[row] for row in rows], dtype=float),
            self.REPULSIVE,
            self.ATTRACTIVE,
            row_ids=rows,
        )
        queries = rng.random((5, 4))
        expected = oracle.batch_query(queries, k=5)
        got = resumed.batch_query(queries, k=5)
        for a, b in zip(expected.results, got.results):
            assert [(m.row_id, m.score) for m in a.matches] == [
                (m.row_id, m.score) for m in b.matches
            ]
        resumed.close()

    def test_run_update_script_rejects_unknown_op(self, tmp_path):
        from repro.core.sdindex import SDIndex
        from repro.workloads.runner import run_update_script

        index = SDIndex.build(
            np.random.default_rng(0).random((10, 4)),
            repulsive=self.REPULSIVE,
            attractive=self.ATTRACTIVE,
        )
        with pytest.raises(ValueError, match="unknown script op"):
            run_update_script(index, [("upsert", 1, None)])


class TestTimingDiscipline:
    """Monotonic-clock tripwire for every timing site.

    ``time_queries`` and the benchmarks must time with ``time.perf_counter``
    — wall-clock (``time.time``) timing lets an NTP step mid-measurement
    produce negative or skewed latencies in the BENCH JSONs.  The audit is
    enforced as a source scan so a regression anywhere in the measurement
    code trips immediately.
    """

    def test_no_wall_clock_timing_in_measurement_code(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        offenders = []
        for base in ("src", "benchmarks", "examples"):
            for path in sorted((root / base).rglob("*.py")):
                source = path.read_text(encoding="utf-8")
                if "time.time()" in source or "datetime.now(" in source:
                    offenders.append(str(path.relative_to(root)))
        assert offenders == [], (
            f"wall-clock timing in measurement code (use time.perf_counter): "
            f"{offenders}"
        )
