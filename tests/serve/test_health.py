"""HealthMonitor state machine: degraded, flapping, catch-up."""

import pytest

from repro.obs import Recorder
from repro.serve import DEGRADED, FLAPPING, HEALTHY, HealthMonitor


class FakePolicy:
    def __init__(self):
        self.forced = 0
        self.enabled_calls = []

    def request_reconfigure(self):
        self.forced += 1

    def set_reconfig_enabled(self, enabled):
        self.enabled_calls.append(enabled)


def _monitor(**kwargs):
    policy = FakePolicy()
    recorder = Recorder(workload="pr", policy="ndpext")
    return policy, recorder, HealthMonitor(policy, recorder, **kwargs)


class TestTransitions:
    def test_starts_healthy_and_stays_without_signals(self):
        policy, _, monitor = _monitor()
        assert monitor.observe(0, False, None) == HEALTHY
        assert monitor.observe(1, False, {"degraded": False}) == HEALTHY
        assert policy.forced == 0
        assert monitor.finish() == []

    def test_capacity_fault_degrades_and_forces_reconfig(self):
        policy, recorder, monitor = _monitor()
        assert monitor.observe(2, True, {"degraded": True}) == DEGRADED
        assert policy.forced == 1
        events = recorder.events_of("serve_degraded")
        assert len(events) == 1
        assert events[0]["state"] == DEGRADED
        assert events[0]["previous"] == HEALTHY

    def test_link_degradation_marks_window_without_forcing(self):
        policy, _, monitor = _monitor()
        # CRC burst / lane downtrain: degraded summary, no capacity event.
        assert monitor.observe(1, False, {"degraded": True}) == DEGRADED
        assert policy.forced == 0
        assert monitor.finish() == [[1, 2]]

    def test_flapping_pauses_reconfiguration(self):
        policy, _, monitor = _monitor(flap_window=8, flap_threshold=3)
        monitor.observe(1, True, {"degraded": True})
        monitor.observe(2, True, {"degraded": True})
        assert policy.forced == 2
        assert monitor.observe(3, True, {"degraded": True}) == FLAPPING
        # Entering FLAPPING disables reconfig; the strike that tipped it
        # over must NOT force another re-placement.
        assert policy.enabled_calls == [False]
        assert policy.forced == 2

    def test_storm_aging_out_reenables_and_catches_up(self):
        policy, _, monitor = _monitor(flap_window=4, flap_threshold=3)
        for epoch in (1, 2, 3):
            monitor.observe(epoch, True, {"degraded": True})
        assert monitor.state == FLAPPING
        # Quiet epochs age the strikes out of the window (still degraded
        # capacity: dead units don't come back).
        state = monitor.observe(6, False, {"degraded": True})
        assert state == DEGRADED
        assert policy.enabled_calls == [False, True]
        assert policy.forced == 3  # 2 pre-flap + 1 catch-up

    def test_windows_close_on_recovery_and_at_finish(self):
        _, _, monitor = _monitor()
        monitor.observe(1, True, {"degraded": True})
        monitor.observe(2, False, {"degraded": False})  # recovered
        monitor.observe(5, True, {"degraded": True})
        assert monitor.finish() == [[1, 2], [5, 6]]


class TestValidation:
    def test_rejects_degenerate_thresholds(self):
        policy = FakePolicy()
        recorder = Recorder(workload="pr", policy="ndpext")
        with pytest.raises(ValueError):
            HealthMonitor(policy, recorder, flap_window=0)
        with pytest.raises(ValueError):
            HealthMonitor(policy, recorder, flap_threshold=1)
