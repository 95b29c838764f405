"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.query import SDQuery
from repro.faults import FaultPlane


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A session-wide seeded generator for tests that just need 'some' randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_2d_dataset() -> np.ndarray:
    """A small fixed 2D dataset reused by several index tests."""
    generator = np.random.default_rng(7)
    return generator.random((400, 2))


@pytest.fixture
def small_4d_dataset() -> np.ndarray:
    """A small fixed 4D dataset (two repulsive, two attractive dimensions)."""
    generator = np.random.default_rng(11)
    return generator.random((600, 4))


def oracle_topk(data: np.ndarray, query: SDQuery):
    """Ground-truth answer computed by the sequential-scan oracle."""
    scan = SequentialScan(data, query.repulsive, query.attractive)
    return scan.query(query)


def assert_same_scores(result, expected, tol: float = 1e-9) -> None:
    """Assert two results contain the same multiset of scores (ties may permute)."""
    mine = sorted(result.scores, reverse=True)
    theirs = sorted(expected.scores, reverse=True)
    assert len(mine) == len(theirs), f"sizes differ: {len(mine)} vs {len(theirs)}"
    for a, b in zip(mine, theirs):
        assert abs(a - b) <= tol, f"score mismatch: {mine} vs {theirs}"


class CallbackPlane(FaultPlane):
    """A fault plane that runs ``callback(point)`` at every fault-point hit.

    For injections the declarative rules cannot express: a subprocess crash
    (``os._exit`` at the nth hit of one point), a specific exception such as
    ``OSError``, or a write that races a checkpoint at an exact boundary.
    Install it like any plane, e.g. ``with faults.fault_plane(plane):``.
    """

    def __init__(self, callback) -> None:
        super().__init__(())
        self._callback = callback

    def fire(self, point: str, key=None) -> None:
        self._callback(point)
