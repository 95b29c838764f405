"""Registry of query algorithms usable by the experiment harness.

Every entry builds one algorithm over a dataset with fixed dimension roles and
returns an object exposing ``query(SDQuery) -> TopKResult`` — the SD-Index facade
and every baseline already follow that contract.  The experiment modules refer to
algorithms by the short names the paper's figures use: ``SD-Index``, ``TA``,
``BRS``, ``PE`` and ``SeqScan``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.baselines import (
    BRSTopK,
    ProgressiveExplorationTopK,
    PurePythonScan,
    SequentialScan,
    ThresholdAlgorithm,
)
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.workloads.workload import (
    BatchWorkload,
    ConcurrentWorkload,
    QueryWorkload,
    ServingWorkload,
    make_batch_workload,
    make_concurrent_workload,
    make_serving_workload,
    make_workload,
)

__all__ = [
    "ALGORITHM_BUILDERS",
    "build_algorithm",
    "DEFAULT_METHODS",
    "WORKLOAD_BUILDERS",
    "build_workload",
]


def _build_sd_index(data: np.ndarray, repulsive, attractive, **kwargs) -> SDIndex:
    allowed = {"angles", "branching", "leaf_capacity", "pairing"}
    options = {key: value for key, value in kwargs.items() if key in allowed}
    return SDIndex.build(data, repulsive=repulsive, attractive=attractive, **options)


def _build_sharded(data: np.ndarray, repulsive, attractive, **kwargs) -> ShardedIndex:
    allowed = {
        "angles",
        "branching",
        "leaf_capacity",
        "pairing",
        "num_shards",
        "partitioner",
        "range_dim",
        "rebalance_threshold",
    }
    options = {key: value for key, value in kwargs.items() if key in allowed}
    return SDIndex.build_sharded(
        data, repulsive=repulsive, attractive=attractive, **options
    )


def _build_seqscan(data: np.ndarray, repulsive, attractive, **kwargs) -> SequentialScan:
    return SequentialScan(data, repulsive, attractive)


def _build_ta(data: np.ndarray, repulsive, attractive, **kwargs) -> ThresholdAlgorithm:
    return ThresholdAlgorithm(data, repulsive, attractive)


def _build_brs(data: np.ndarray, repulsive, attractive, **kwargs) -> BRSTopK:
    return BRSTopK(data, repulsive, attractive, node_capacity=kwargs.get("node_capacity"))


def _build_pe(data: np.ndarray, repulsive, attractive, **kwargs) -> ProgressiveExplorationTopK:
    return ProgressiveExplorationTopK(data, repulsive, attractive)


def _build_seqscan_py(data: np.ndarray, repulsive, attractive, **kwargs) -> PurePythonScan:
    return PurePythonScan(data, repulsive, attractive)


#: Algorithm name -> builder(data, repulsive, attractive, **options).
ALGORITHM_BUILDERS: Dict[str, Callable] = {
    "SD-Index": _build_sd_index,
    "SD-Sharded": _build_sharded,
    "SeqScan": _build_seqscan,
    "SeqScan-py": _build_seqscan_py,
    "TA": _build_ta,
    "BRS": _build_brs,
    "PE": _build_pe,
}

#: The comparison set most figures use (PE is added only where the paper includes it).
DEFAULT_METHODS = ("SeqScan", "SD-Index", "TA", "BRS")


def _build_uniform_workload(repulsive, attractive, **options) -> QueryWorkload:
    return make_workload(repulsive, attractive, **options)


def _build_batch_serving(repulsive, attractive, **options) -> BatchWorkload:
    """The batch-serving workload: one array of concurrent queries with mixed k.

    Defaults mirror the paper's query setup (100 uniform query points, random
    weights) but draw each query's ``k`` from a small menu, the shape of
    answer-limited serving traffic (cf. NeedleTail, PAPERS.md).
    """
    options.setdefault("k", (1, 5, 10, 25))
    return make_batch_workload(repulsive, attractive, **options)


def _build_sharded_serving(repulsive, attractive, **options) -> BatchWorkload:
    """The sharded-serving workload: answer-limited traffic with a small k menu.

    Identical columnar shape to ``batch_serving`` but with the k ∈ {1, 10}
    menu of the sharded-engine acceptance scenarios (top-1 lookups mixed with
    top-10 pages), so the same workload drives the benchmarks, the golden
    regressions and the shard-count experiment sweep.
    """
    options.setdefault("k", (1, 10))
    return make_batch_workload(repulsive, attractive, **options)


def _build_concurrent_serving(repulsive, attractive, **options) -> ConcurrentWorkload:
    """The concurrent-serving workload: read traffic plus an update script.

    Answer-limited read traffic (the ``sharded_serving`` k menu {1, 10}) woven
    with a deterministic insert/delete stream, so the same scenario drives the
    golden snapshot fixtures, the serve-while-mutate stress harness and
    ``benchmarks/bench_concurrent.py``.
    """
    options.setdefault("k", (1, 10))
    return make_concurrent_workload(repulsive, attractive, **options)


def _build_write_heavy(repulsive, attractive, **options) -> ConcurrentWorkload:
    """The write-heavy workload: update-dominated traffic for LSM maintenance.

    The same deterministic serve-while-mutate shape as ``concurrent_serving``
    but with the ratio inverted — a long insert/delete stream against a small
    read batch — so the scenario spends its life in the delta/flush/merge
    machinery: deltas fill and fold into levels, tiers merge, and reads hit
    the layered (delta + levels) merge path at every checkpoint.  Drives the
    ``write_heavy`` golden fixture and ``benchmarks/bench_lsm.py``.
    """
    options.setdefault("k", (1, 10))
    options.setdefault("num_queries", 8)
    options.setdefault("num_updates", 400)
    options.setdefault("delete_fraction", 0.3)
    return make_concurrent_workload(repulsive, attractive, **options)


def _build_serving(repulsive, attractive, **options) -> ServingWorkload:
    """The front-end serving workload: open-loop arrivals for the coalescer.

    Answer-limited traffic (the k ∈ {1, 5, 10} menu) on a seeded Poisson
    arrival schedule with multi-tenant labels and a repeated-query fraction —
    the traffic shape that exercises micro-batching, admission control and
    the ``(query, epoch)`` result cache all at once (DESIGN.md §8).
    """
    return make_serving_workload(repulsive, attractive, **options)


#: Workload name -> builder(repulsive, attractive, **options).
WORKLOAD_BUILDERS: Dict[str, Callable] = {
    "uniform": _build_uniform_workload,
    "batch_serving": _build_batch_serving,
    "sharded_serving": _build_sharded_serving,
    "concurrent_serving": _build_concurrent_serving,
    "write_heavy": _build_write_heavy,
    "serving": _build_serving,
}


def build_workload(name: str, repulsive: Sequence[int], attractive: Sequence[int], **options):
    """Instantiate a registered query workload."""
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(WORKLOAD_BUILDERS)}"
        ) from None
    return builder(tuple(repulsive), tuple(attractive), **options)


def build_algorithm(
    name: str,
    data: np.ndarray,
    repulsive: Sequence[int],
    attractive: Sequence[int],
    **options,
):
    """Instantiate a registered algorithm over a dataset."""
    try:
        builder = ALGORITHM_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHM_BUILDERS)}"
        ) from None
    return builder(np.asarray(data, dtype=float), tuple(repulsive), tuple(attractive), **options)
