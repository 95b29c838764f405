"""Unit tests for the fault plane, deadlines, breakers and retry policy.

The registry tripwires at the bottom are the contract that keeps the chaos
plane honest: every declared fault point must be exercised by at least one
chaos/crash test, and every ``fire(...)`` site in the source tree must be
declared — injection surfaces are not allowed to rot silently in either
direction.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.core.deadline import NO_TIMEOUT, Deadline, DeadlineExceeded, _NoTimeout
from repro.faults import FaultPlane, FaultRule, InjectedFault
from repro.serving.breaker import (
    BreakerOpen,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
)

REPO = Path(__file__).resolve().parents[2]


class FakeClock:
    """A hand-stepped monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


# ---------------------------------------------------------------- fault rules
class TestFaultRule:
    def test_validates_action_rate_delay_times(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule("p", action="explode")
        with pytest.raises(ValueError, match="rate"):
            FaultRule("p", rate=1.5)
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultRule("p", delay_seconds=-1)
        with pytest.raises(ValueError, match="times"):
            FaultRule("p", times=0)

    def test_matching_exact_glob_and_key(self):
        rule = FaultRule("wal.append.*", key=None)
        assert rule.matches("wal.append.written", None)
        assert rule.matches("wal.append.synced", 3)
        assert not rule.matches("wal.rotate.written", None)
        keyed = FaultRule("shard.probe", key=1)
        assert keyed.matches("shard.probe", 1)
        assert not keyed.matches("shard.probe", 2)
        assert not keyed.matches("shard.probe", None)


class TestFaultPlane:
    def test_raise_action_carries_point_and_transience(self):
        plane = FaultPlane([FaultRule("x.y", transient=False)])
        with pytest.raises(InjectedFault) as info:
            plane.fire("x.y", key="k")
        assert info.value.point == "x.y"
        assert info.value.key == "k"
        assert not info.value.transient

    def test_same_seed_same_storm(self):
        def storm(seed):
            plane = FaultPlane([FaultRule("p", rate=0.5)], seed=seed)
            hits = []
            for _ in range(200):
                try:
                    plane.fire("p")
                    hits.append(0)
                except InjectedFault:
                    hits.append(1)
            return hits

        assert storm(7) == storm(7)
        assert storm(7) != storm(8)
        # The sequence is rate-representative, not degenerate.
        assert 40 < sum(storm(7)) < 160

    def test_times_caps_injections(self):
        plane = FaultPlane([FaultRule("p", times=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plane.fire("p")
        plane.fire("p")  # budget exhausted: no more injections
        assert plane.total_injections() == 2
        assert plane.stats()["hits"]["p"] == 3

    def test_delay_uses_injected_sleep(self):
        slept = []
        plane = FaultPlane(
            [FaultRule("p", action="delay", delay_seconds=0.25)],
            sleep=slept.append,
        )
        plane.fire("p")
        assert slept == [0.25]

    def test_hang_blocks_until_released(self):
        plane = FaultPlane([FaultRule("p", action="hang")])
        unblocked = threading.Event()

        def hit():
            plane.fire("p")
            unblocked.set()

        thread = threading.Thread(target=hit)
        thread.start()
        try:
            assert not unblocked.wait(timeout=0.1)
            plane.release_hangs()
            assert unblocked.wait(timeout=5)
        finally:
            plane.release_hangs()
            thread.join(timeout=5)

    def test_module_fire_is_noop_without_plane(self):
        assert faults.installed_fault_plane() is None
        faults.fire("not.even.declared")  # must not raise

    def test_scoped_install_restores_previous(self):
        plane = FaultPlane([FaultRule("p")])
        with faults.fault_plane(plane) as installed:
            assert installed is plane
            assert faults.installed_fault_plane() is plane
        assert faults.installed_fault_plane() is None

    def test_from_specs_round_trip(self):
        plane = FaultPlane.from_specs(
            [
                "shard.probe:raise:0.4:key=1",
                "coalescer.flush:delay:delay=0.002",
                "wal.append.synced:raise:0.25:transient=0:times=3",
            ],
            seed=3,
        )
        probe, flush, wal = plane.rules
        assert (probe.point, probe.action, probe.rate, probe.key) == (
            "shard.probe",
            "raise",
            0.4,
            1,
        )
        assert (flush.action, flush.delay_seconds, flush.rate) == ("delay", 0.002, 1.0)
        assert (wal.rate, wal.transient, wal.times) == (0.25, False, 3)

    def test_from_specs_rejects_garbage(self):
        with pytest.raises(ValueError, match="must look like"):
            FaultPlane.from_specs(["just-a-point"])
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlane.from_specs(["p:raise:0.5:wat=1"])

    def test_declare_is_idempotent(self):
        name = faults.declare_fault_point("test.unit.point", "first")
        faults.declare_fault_point("test.unit.point", "second wins nothing")
        assert name == "test.unit.point"
        assert faults.fault_points()["test.unit.point"] == "first"


# ------------------------------------------------------------------ deadlines
class TestDeadline:
    def test_remaining_expired_check(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        deadline.check()
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check()
        assert info.value.budget == pytest.approx(1.0)

    def test_after_none_is_unbounded(self):
        assert Deadline.after(None) is None
        assert Deadline.after(0.5).budget == pytest.approx(0.5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            Deadline(-0.1)

    def test_no_timeout_is_a_singleton_sentinel(self):
        assert _NoTimeout() is NO_TIMEOUT
        assert repr(NO_TIMEOUT) == "NO_TIMEOUT"
        assert NO_TIMEOUT is not None


# ------------------------------------------------------------------- breakers
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # run broken: counter resets
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1

    def test_open_refuses_then_half_opens_on_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the one trial probe
        assert not breaker.allow()  # second trial refused
        assert breaker.refusals >= 2

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens_and_restarts_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.retry_after() == pytest.approx(1.0)

    def test_record_cancel_returns_trial_slot_without_verdict(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_cancel()
        assert breaker.state == "half_open"  # no verdict recorded
        assert breaker.allow()  # the slot is available again

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout"):
            CircuitBreaker(reset_timeout=-1)
        with pytest.raises(ValueError, match="half_open_probes"):
            CircuitBreaker(half_open_probes=0)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_backoff=0.01, max_backoff=0.04, jitter=0.0
        )
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.04)
        assert policy.backoff(3) == pytest.approx(0.04)  # capped

    def test_jitter_is_seed_deterministic_and_bounded(self):
        a = [RetryPolicy(seed=5, jitter=0.5).backoff(2) for _ in range(1)]
        b = [RetryPolicy(seed=5, jitter=0.5).backoff(2) for _ in range(1)]
        assert a == b
        raw = RetryPolicy(jitter=0.0).backoff(2)
        for _ in range(50):
            jittered = RetryPolicy(seed=9, jitter=0.5)
            value = jittered.backoff(2)
            assert raw * 0.5 <= value <= raw

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)


class TestResiliencePolicy:
    def test_transience_classification(self):
        policy = ResiliencePolicy()
        assert policy.is_transient(InjectedFault("p", transient=True))
        assert not policy.is_transient(InjectedFault("p", transient=False))
        assert policy.is_transient(TimeoutError())
        assert policy.is_transient(ConnectionError())
        assert not policy.is_transient(ValueError())

    def test_build_breakers_honors_knobs(self):
        clock = FakeClock()
        policy = ResiliencePolicy(
            failure_threshold=2, reset_timeout=3.0, half_open_probes=2, clock=clock
        )
        breakers = policy.build_breakers(3)
        assert [b.name for b in breakers] == ["shard-0", "shard-1", "shard-2"]
        assert all(
            (b.failure_threshold, b.reset_timeout, b.half_open_probes) == (2, 3.0, 2)
            for b in breakers
        )
        assert ResiliencePolicy(breakers=False).build_breakers(3) is None

    def test_max_attempts_without_retry(self):
        assert ResiliencePolicy(retry=None).max_attempts == 1
        assert ResiliencePolicy(retry=RetryPolicy(max_attempts=4)).max_attempts == 4


# ----------------------------------------------------------------- tripwires
def _declared_points():
    """Import every instrumented module, then read the registry back."""
    import repro  # noqa: F401 - populates the registry via module imports
    import repro.core.persistence  # noqa: F401 - persistence points
    import repro.serving  # noqa: F401 - coalescer point

    return faults.fault_points()


def _source_files(root: Path):
    for base in ("src", "benchmarks", "examples"):
        yield from (REPO / base).rglob("*.py")


class TestFaultPointRegistry:
    #: fire() call sites: the literal string argument.
    _FIRE = re.compile(r"""faults\.fire\(\s*['"]([a-z0-9_.]+)['"]""")

    def test_every_fired_point_is_declared(self):
        declared = set(_declared_points())
        undeclared = {}
        for path in _source_files(REPO):
            for point in self._FIRE.findall(path.read_text()):
                if point not in declared:
                    undeclared.setdefault(point, []).append(str(path))
        assert not undeclared, f"fired but never declared: {undeclared}"

    def test_every_declared_point_is_exercised_by_chaos_or_crash_tests(self):
        """Injection surfaces must not rot: each point appears in a fault test.

        A fault point nobody storms is dead weight — worse, its failure
        handling silently decays.  Every declared point must appear as a
        literal in the chaos suite or the crash-recovery suite.
        """
        declared = set(_declared_points()) - {"test.unit.point"}
        sources = ""
        for name in (
            "tests/integration/test_chaos.py",
            "tests/integration/test_crash_recovery.py",
        ):
            sources += (REPO / name).read_text()
        unexercised = sorted(
            point for point in declared if f'"{point}"' not in sources
        )
        assert not unexercised, (
            f"declared fault points never exercised by chaos/crash tests: "
            f"{unexercised}"
        )

    def test_registry_covers_the_serving_stack(self):
        declared = set(_declared_points())
        for expected in (
            "shard.probe",
            "batch.kernel",
            "epoch.pin",
            "epoch.publish",
            "coalescer.flush",
            "wal.append.written",
            "snapshot.manifest.before",
            "checkpoint.current.written",
        ):
            assert expected in declared
