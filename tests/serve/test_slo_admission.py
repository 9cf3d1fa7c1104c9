"""SLO-driven admission: quota-path bit-identity and the storm win.

Two contracts from the SLO PR:

* ``admission="quota"`` (the default) must be *bit-identical* to the
  pre-SLO serving loop — same reports with the recorder on or off, no
  ``slo`` key, no ``slo_*`` events, unchanged journal identity keys.
* Under the seeded two-tenant fault storm, ``admission="slo"`` must let
  the low-priority tenant meet its p99 objective in strictly more
  evaluation windows than fixed quotas do.
"""

import pytest

from repro.obs import Recorder
from repro.obs.slo import SLO_OK, SLO_PAGE, SLO_WARN, SloObjective
from repro.serve import (
    AdmissionController,
    ServeHarness,
    SloAdmissionController,
    TenantSpec,
    two_tenant_scenario,
)
from repro.serve.tenants import TenantQueue

from .conftest import make_batches

STORM = {
    "unit_failures": 1,
    "row_faults": 1,
    "crc_bursts": 1,
    "downtrains": 1,
}

# The committed storm acceptance scenario: low-priority analytics gets a
# p99 objective the SLO controller can actually defend (under fixed
# quotas its queue overflows and half its batches are rejected).
ANALYTICS_P99_NS = 70_000.0


def storm_scenario(admission):
    return two_tenant_scenario(
        name="slo-storm",
        batch_accesses=500,
        wave_size=6,
        steps_per_wave=3,
        faults=STORM,
        admission=admission,
        objectives=(
            SloObjective(
                "analytics", p99_ns=ANALYTICS_P99_NS, max_shed_rate=0.10
            ),
        ),
    )


class _StubSlo:
    """Fixed per-tenant alert states for controller unit tests."""

    def __init__(self, alerts):
        self.alerts = alerts

    def tenant_alert(self, tenant):
        return self.alerts.get(tenant, SLO_OK)


class TestQuotaPathBitIdentity:
    def test_quota_mode_has_no_slo_plane(self):
        harness = ServeHarness(
            two_tenant_scenario(name="plain", batch_accesses=500),
            preset="tiny",
        )
        assert harness.slo is None
        assert harness.loop.slo is None
        assert type(harness.loop.admission) is AdmissionController

    def test_quota_reports_identical_with_recorder_on_and_off(self):
        def run(recorder):
            scenario = two_tenant_scenario(
                name="pin",
                batch_accesses=500,
                wave_size=6,
                steps_per_wave=3,
                faults=STORM,
            )
            return ServeHarness(
                scenario, preset="tiny", recorder=recorder
            ).run()

        recorder = Recorder(workload="pr", policy="ndpext")
        on = run(recorder)
        off = run(None)
        # The recorded run's report additionally serializes its timeline,
        # histograms and spatial map; everything else must match.
        on_json = on.to_json()
        for key in ("timeline", "tier_histograms", "spatial"):
            assert off.to_json()["sim"].get(key) is None
            assert on_json["sim"].pop(key) is not None
        assert on_json == off.to_json()
        assert "slo" not in on_json
        assert on_json["sim"] == off.sim.to_json()
        assert not [
            e for e in recorder.events if e["kind"].startswith("slo_")
        ]

    def test_identity_key_unchanged_for_quota_scenarios(self):
        """Pre-SLO journals must keep resuming: a default scenario's key
        carries no admission/objectives entries."""
        key = two_tenant_scenario(name="k", seed=3).identity_key("tiny")
        assert '"admission"' not in key
        assert '"objectives"' not in key
        slo_key = two_tenant_scenario(
            name="k", seed=3, admission="slo"
        ).identity_key("tiny")
        assert '"admission"' in slo_key
        assert key != slo_key

    def test_objectives_alone_change_identity(self):
        base = dict(name="k2", seed=1)
        plain = two_tenant_scenario(**base).identity_key("tiny")
        with_obj = two_tenant_scenario(
            **base,
            objectives=(SloObjective("analytics", p99_ns=1000.0),),
        ).identity_key("tiny")
        assert plain != with_obj


class TestScenarioValidation:
    def test_rejects_unknown_admission_mode(self):
        with pytest.raises(ValueError, match="admission"):
            two_tenant_scenario(name="bad", admission="vibes")

    def test_rejects_objective_for_unknown_tenant(self):
        with pytest.raises(ValueError, match="unknown tenant"):
            two_tenant_scenario(
                name="bad",
                objectives=(SloObjective("nobody", p99_ns=1.0),),
            )


class TestSloAdmissionController:
    def _queue(self, name, priority=0, max_queued=4):
        return TenantQueue(
            TenantSpec(name, priority=priority, max_queued=max_queued)
        )

    def test_quota_flexes_with_alert_state(self):
        slo = _StubSlo({"ok": SLO_OK, "warn": SLO_WARN, "page": SLO_PAGE})
        ctrl = SloAdmissionController(8, 32, slo, headroom=2.0, tighten=0.5)
        assert ctrl.quota(self._queue("ok")) == 8  # 4 * headroom
        assert ctrl.quota(self._queue("warn")) == 4  # nominal
        assert ctrl.quota(self._queue("page")) == 2  # 4 * tighten

    def test_page_quota_never_drops_below_one(self):
        ctrl = SloAdmissionController(
            8, 32, _StubSlo({"t": SLO_PAGE}), tighten=0.01
        )
        assert ctrl.quota(self._queue("t", max_queued=1)) == 1

    def test_shed_prefers_burning_tenants_over_priority(self, tiny_workload):
        """A paging tenant is shed first even when a lower-priority
        healthy tenant has a longer queue."""
        slo = _StubSlo({"burning": SLO_PAGE, "healthy": SLO_OK})
        ctrl = SloAdmissionController(8, 4, slo)
        queues = {
            "burning": self._queue("burning", priority=10, max_queued=8),
            "healthy": self._queue("healthy", priority=0, max_queued=8),
        }
        for batch in make_batches(tiny_workload, "burning", 3):
            queues["burning"].batches.append(batch)
        for batch in make_batches(tiny_workload, "healthy", 3):
            queues["healthy"].batches.append(batch)
        shed = ctrl.select_shed(queues)
        assert len(shed) == 2
        assert all(b.tenant == "burning" for b in shed)

    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="headroom"):
            SloAdmissionController(8, 32, _StubSlo({}), headroom=0.5)
        with pytest.raises(ValueError, match="tighten"):
            SloAdmissionController(8, 32, _StubSlo({}), tighten=0.0)


class TestStormAcceptance:
    @pytest.fixture(scope="class")
    def reports(self):
        return {
            mode: ServeHarness(storm_scenario(mode), preset="tiny").run()
            for mode in ("quota", "slo")
        }

    def test_slo_admission_meets_p99_in_strictly_more_windows(self, reports):
        """The acceptance criterion: under the seeded storm, SLO-driven
        admission defends the low-priority tenant's p99 objective in
        strictly more evaluation windows than fixed quotas."""
        met = {}
        for mode, report in reports.items():
            obj = report.slo["tenants"]["analytics"]["objectives"][
                "latency_p99"
            ]
            met[mode] = obj["windows_met"]
        assert met["slo"] > met["quota"]

    def test_quota_storm_burns_the_shed_budget(self, reports):
        """Fixed quotas reject half the analytics batches under the
        storm backlog — its shed-rate budget is overspent, which is the
        signal the SLO controller acts on."""
        quota = reports["quota"]
        assert quota.tenants["analytics"].rejected > 0
        assert quota.slo["tenants"]["analytics"]["budget_remaining"] < 0.0
        slo = reports["slo"]
        assert slo.tenants["analytics"].rejected == 0
        assert slo.slo["tenants"]["analytics"]["budget_remaining"] > 0.0

    def test_slo_report_survives_json_round_trip(self, reports):
        from repro.serve import ServeReport

        report = reports["slo"]
        clone = ServeReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        assert clone.slo["tenants"]["analytics"]["alert"] in (
            "ok",
            "warn",
            "page",
        )

    def test_storm_with_slo_emits_burn_page_and_recovery(self):
        """The CI smoke contract: tightening the high-priority tenant's
        p99 bound makes the storm page and the post-storm drain recover."""
        recorder = Recorder(workload="pr", policy="ndpext")
        scenario = two_tenant_scenario(
            name="ci-storm",
            batch_accesses=500,
            wave_size=6,
            steps_per_wave=3,
            faults=STORM,
            admission="slo",
            objectives=(
                SloObjective(
                    "interactive", p99_ns=12_000.0, max_shed_rate=0.10
                ),
                SloObjective(
                    "analytics", p99_ns=ANALYTICS_P99_NS, max_shed_rate=0.10
                ),
            ),
        )
        ServeHarness(scenario, preset="tiny", recorder=recorder).run()
        burns = recorder.events_of("slo_burn")
        pages = [e for e in burns if e["state"] == "page"]
        assert pages, "storm must escalate to PAGE"
        recoveries = recorder.events_of("slo_recovered")
        assert recoveries, "post-storm drain must recover"
        assert max(e["epoch"] for e in recoveries) > min(
            e["epoch"] for e in pages
        )
