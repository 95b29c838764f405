"""SD-Query: top-k queries over a mixture of attractive and repulsive dimensions.

A from-scratch reproduction of Ranu & Singh, "Answering Top-k Queries Over a
Mixture of Attractive and Repulsive Dimensions" (PVLDB 5(3), 2011).

The primary entry points are:

* :class:`repro.SDIndex` -- the general top-k index (runtime ``k`` and weights),
* :class:`repro.Top1Index` -- the compact region index for apriori-known ``k``,
* :class:`repro.SDQuery` / :func:`repro.sd_score` -- the query model and exact scorer,
* :mod:`repro.baselines` -- sequential scan, adapted TA, BRS and PE comparators,
* :mod:`repro.data` -- synthetic dataset generators used by the experiments,
* :mod:`repro.experiments` -- regeneration of every figure and table of the paper,
* :mod:`repro.serving` -- the asyncio coalescing serving front end (HTTP + JSON),
* :mod:`repro.faults` -- the deterministic chaos-injection fault plane.
"""

from repro.core.angles import AngleGrid
from repro.core.batch import BatchQuerySpec, QuerySession, SessionSnapshot
from repro.core.deadline import NO_TIMEOUT, Deadline, DeadlineExceeded
from repro.core.epoch import Epoch, EpochManager
from repro.core.geometry import Angle
from repro.core.persistence import DurableIndex, SnapshotFormatError, WriteAheadLog
from repro.core.query import DimensionRole, QueryWeights, SDQuery, sd_score, sd_scores
from repro.core.results import (
    BatchResult,
    IndexStats,
    Match,
    ShardCoverage,
    TopKResult,
)
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex, ShardRouter
from repro.core.top1 import Top1Index
from repro.core.topk import TopKIndex
from repro.faults import FaultPlane, FaultRule, InjectedFault
from repro.serving import (
    BreakerOpen,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    SDQueryServer,
    ServingClient,
    ServingConfig,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "AngleGrid",
    "DimensionRole",
    "QueryWeights",
    "SDQuery",
    "sd_score",
    "sd_scores",
    "Match",
    "TopKResult",
    "BatchResult",
    "BatchQuerySpec",
    "QuerySession",
    "SessionSnapshot",
    "Epoch",
    "EpochManager",
    "DurableIndex",
    "SnapshotFormatError",
    "WriteAheadLog",
    "IndexStats",
    "ShardCoverage",
    "SDIndex",
    "ShardedIndex",
    "ShardRouter",
    "Top1Index",
    "TopKIndex",
    "NO_TIMEOUT",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlane",
    "FaultRule",
    "InjectedFault",
    "BreakerOpen",
    "CircuitBreaker",
    "ResiliencePolicy",
    "RetryPolicy",
    "SDQueryServer",
    "ServingClient",
    "ServingConfig",
    "__version__",
]
