"""Unit tests for the epoch snapshot subsystem (``repro.core.epoch``)."""

from __future__ import annotations

import threading

import pytest

from repro.core.epoch import EpochManager


class TestLifecycle:
    def test_pin_before_first_publish_raises(self):
        manager = EpochManager()
        with pytest.raises(RuntimeError):
            manager.pin()
        with pytest.raises(RuntimeError):
            manager.current_state()

    def test_publish_pin_release_roundtrip(self):
        manager = EpochManager()
        epoch = manager.publish({"rows": 3})
        assert epoch.version == 1
        assert manager.current_state() is epoch.state
        pinned = manager.pin()
        assert pinned is epoch
        assert pinned.pins == 1
        assert pinned.state == {"rows": 3}
        pinned.release()
        assert pinned.pins == 0
        # Current epochs are never reclaimed, even unpinned.
        assert not pinned.reclaimed
        assert manager.live_epochs == 1

    def test_publish_retires_and_reclaims_unpinned_predecessor(self):
        manager = EpochManager()
        first = manager.publish("a")
        second = manager.publish("b")
        assert first.retired and first.reclaimed and first.state is None
        assert not second.retired
        assert manager.version == 2
        assert manager.reclaimed == 1
        assert manager.live_epochs == 1

    def test_pinned_predecessor_survives_until_released(self):
        manager = EpochManager()
        first = manager.publish("a")
        pin = manager.pin()
        manager.publish("b")
        assert first.retired and not first.reclaimed
        assert pin.state == "a"
        assert manager.live_epochs == 2
        assert manager.pinned_readers == 1
        pin.release()
        assert first.reclaimed and first.state is None
        assert manager.live_epochs == 1
        assert manager.pinned_readers == 0

    def test_multiple_pins_drain_independently(self):
        manager = EpochManager()
        manager.publish("a")
        pins = [manager.pin() for _ in range(3)]
        manager.publish("b")
        for i, pin in enumerate(pins):
            assert not pin.reclaimed
            pin.release()
        assert pins[0].reclaimed
        assert manager.leak_report()["pinned_readers"] == 0

    def test_double_release_raises(self):
        manager = EpochManager()
        manager.publish("a")
        pin = manager.pin()
        pin.release()
        with pytest.raises(RuntimeError):
            pin.release()

    def test_context_manager_releases(self):
        manager = EpochManager()
        manager.publish("a")
        with manager.pin() as epoch:
            assert epoch.pins == 1
        assert epoch.pins == 0

    def test_reclaim_callback_fires_once_per_epoch(self):
        reclaimed = []
        manager = EpochManager(on_reclaim=reclaimed.append)
        first = manager.publish("a")
        pin = manager.pin()
        manager.publish("b")
        assert reclaimed == []
        pin.release()
        assert reclaimed == [first]
        manager.publish("c")
        assert len(reclaimed) == 2

    def test_leak_report_counts(self):
        manager = EpochManager()
        manager.publish("a")
        pin = manager.pin()
        manager.publish("b")
        manager.publish("c")
        report = manager.leak_report()
        assert report["published"] == 3
        assert report["reclaimed"] == 1  # "b" drained immediately, "a" is pinned
        assert report["live_epochs"] == 2
        assert report["pinned_readers"] == 1
        pin.release()
        report = manager.leak_report()
        assert report["reclaimed"] == 2
        assert report["live_epochs"] == 1
        assert report["pinned_readers"] == 0


class TestCurrentState:
    def test_current_state_outlives_a_racing_publish(self):
        """Regression: an unpinned reader must get the state object, not the
        epoch — a publish reclaims the epoch (nulling its state pointer) but
        never touches the published state itself."""
        manager = EpochManager()
        manager.publish({"value": 1})
        # Holding an unpinned epoch across a publish loses the state.
        epoch = manager.pin()
        epoch.release()
        state = manager.current_state()
        manager.publish({"value": 2})
        assert epoch.state is None  # reclaimed out from under the holder
        assert state == {"value": 1}  # the atomic read keeps the object

    def test_current_state_before_publish_raises(self):
        with pytest.raises(RuntimeError):
            EpochManager().current_state()


class TestThreaded:
    def test_concurrent_pin_publish_drains_clean(self):
        manager = EpochManager()
        manager.publish(0)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    with manager.pin() as epoch:
                        # The pinned state must never be a reclaimed (None)
                        # payload, no matter how publishes interleave.
                        assert epoch.state is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for version in range(1, 300):
            manager.publish(version)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors
        report = manager.leak_report()
        assert report["pinned_readers"] == 0
        assert report["live_epochs"] == 1
        assert report["reclaimed"] == report["published"] - 1
