"""Core SD-Query algorithms: scoring, projection geometry, isoline envelopes and indexes.

The public entry point for most users is :class:`repro.core.sdindex.SDIndex`,
re-exported from the top-level :mod:`repro` package.
"""

from repro.core.epoch import Epoch, EpochManager
from repro.core.persistence import (
    DurableIndex,
    SnapshotFormatError,
    WriteAheadLog,
    load_engine,
    save_engine,
)
from repro.core.query import DimensionRole, QueryWeights, SDQuery, sd_score, sd_scores
from repro.core.results import IndexStats, Match, TopKResult
from repro.core.sdindex import SDIndex, SDIndexSnapshot
from repro.core.sharding import ShardedIndex, ShardedSnapshot, ShardRouter
from repro.core.top1 import Top1Index, Top1Snapshot
from repro.core.topk import TopKIndex, TopKSnapshot

__all__ = [
    "DimensionRole",
    "QueryWeights",
    "SDQuery",
    "sd_score",
    "sd_scores",
    "Match",
    "TopKResult",
    "IndexStats",
    "Epoch",
    "EpochManager",
    "DurableIndex",
    "SnapshotFormatError",
    "WriteAheadLog",
    "load_engine",
    "save_engine",
    "SDIndex",
    "SDIndexSnapshot",
    "ShardedIndex",
    "ShardedSnapshot",
    "ShardRouter",
    "Top1Index",
    "Top1Snapshot",
    "TopKIndex",
    "TopKSnapshot",
]
