"""The fault layer must be invisible when no fault ever fires.

For every policy, an engine constructed with an *empty* fault schedule
must produce a bit-identical SimulationReport to the engine without any
fault layer at all — same runtime, same energy, same hit counts, down to
float equality.  This pins the fault hooks as pure additions: all fault
arithmetic is gated on fault activity, never restructuring the healthy
path.
"""

import pytest

from repro.experiments.runner import POLICIES
from repro.faults import FaultSchedule
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_empty_schedule_is_bit_identical(policy_name):
    config = tiny()
    workload = build("pr", TINY)
    plain = SimulationEngine(config).run(workload, POLICIES[policy_name]())
    faulted = SimulationEngine(config, faults=FaultSchedule()).run(
        build("pr", TINY), POLICIES[policy_name]()
    )
    # The presence of the (all-zero) fault report is the one difference.
    assert_reports_identical(plain, faulted, skip=("faults",))
    assert faulted.faults is not None
    assert faulted.faults.demoted_requests == 0
    assert faulted.faults.penalty_ns == 0.0
    assert plain.faults is None


def test_rerun_on_same_workload_object_is_deterministic():
    """Running the engine must not contaminate the shared workload: two
    runs on the *same* Workload instance agree bit for bit (this is what
    makes the experiment cache order-independent)."""
    config = tiny()
    workload = build("pr", TINY)
    first = SimulationEngine(config).run(workload, POLICIES["ndpext"]())
    second = SimulationEngine(config).run(workload, POLICIES["ndpext"]())
    assert_reports_identical(first, second, skip=("faults",))
