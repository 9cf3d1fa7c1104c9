"""Multi-tenant serving mode: the configurator as a resident service.

The paper's runtime is a loop — profile, re-derive placements, remap —
and this package productionizes it: a resident engine session serving
streaming request batches from many named tenants, with admission
control, priority load shedding, simulated-time deadlines, health-gated
online reconfiguration, and journaled drain/resume.  See
DESIGN.md's "Serving mode" section for the state machines.
"""

from repro.serve.admission import (
    REASON_DRAINING,
    REASON_QUOTA,
    REASON_RESUMED,
    REASON_UNKNOWN_TENANT,
    AdmissionController,
    AdmissionDecision,
    SloAdmissionController,
)
from repro.serve.health import DEGRADED, FLAPPING, HEALTHY, HealthMonitor
from repro.serve.journal import (
    OUTCOME_COMPLETED,
    OUTCOME_SHED,
    OUTCOME_TIMEOUT,
    ServeJournal,
)
from repro.serve.live import LiveServeServer, parse_listen
from repro.serve.loop import ServeLoop, ServeOptions
from repro.serve.report import ServeReport, TenantStats
from repro.serve.scenario import (
    ADMISSION_MODES,
    STORM_FAULTS,
    ServeHarness,
    ServeScenario,
    two_tenant_scenario,
)
from repro.serve.tenants import Batch, TenantQueue, TenantSpec

__all__ = [
    "ADMISSION_MODES",
    "AdmissionController",
    "AdmissionDecision",
    "Batch",
    "DEGRADED",
    "FLAPPING",
    "HEALTHY",
    "HealthMonitor",
    "LiveServeServer",
    "OUTCOME_COMPLETED",
    "OUTCOME_SHED",
    "OUTCOME_TIMEOUT",
    "REASON_DRAINING",
    "REASON_QUOTA",
    "REASON_RESUMED",
    "REASON_UNKNOWN_TENANT",
    "STORM_FAULTS",
    "ServeHarness",
    "ServeJournal",
    "ServeLoop",
    "ServeOptions",
    "ServeReport",
    "ServeScenario",
    "SloAdmissionController",
    "TenantQueue",
    "TenantSpec",
    "TenantStats",
    "parse_listen",
    "two_tenant_scenario",
]
