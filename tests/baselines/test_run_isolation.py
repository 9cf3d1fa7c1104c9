"""Regression tests for per-run state in the baseline policies.

A policy instance must carry nothing from one run into the next: every
``setup`` starts it from scratch, so a reused instance reports exactly
what a fresh one does.  Contents that a unit failure wipes out must not
leave an empty partition behind for the next epoch to trip over.
"""

import json

import numpy as np
import pytest

from repro.baselines import HostJigsawPolicy, host_config
from repro.experiments.runner import POLICIES
from repro.faults import FaultSchedule, UnitFailure
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.workloads import TINY, build
from repro.workloads.trace import Trace

FACTORIES = {**POLICIES, "host": HostJigsawPolicy}


def report_json(config, workload, policy, faults=None) -> str:
    report = SimulationEngine(config, faults=faults).run(workload, policy)
    return json.dumps(report.to_json(), sort_keys=True)


@pytest.mark.parametrize("workload_name", ["pr", "gnn", "mv", "lud"])
@pytest.mark.parametrize("policy_name", sorted(FACTORIES))
def test_reused_instance_matches_fresh(policy_name, workload_name):
    config = host_config(tiny()) if policy_name == "host" else tiny()
    workload = build(workload_name, TINY)
    factory = FACTORIES[policy_name]
    fresh = report_json(config, workload, factory())
    reused = factory()
    report_json(config, workload, reused)
    assert report_json(config, workload, reused) == fresh


@pytest.mark.parametrize("policy_name", ["jigsaw", "whirlpool", "nexus"])
def test_unit_failure_emptying_a_partition_completes(policy_name):
    # Unit 3 holds every resident line of some partition when it fails;
    # the next first touch of that partition must find nothing, not crash.
    faults = FaultSchedule((UnitFailure(epoch=2, unit=3),), seed=1)
    workload = build("gnn", TINY.scaled(accesses_per_core=12_000))
    report = SimulationEngine(tiny(), faults=faults).run(
        workload, POLICIES[policy_name]()
    )
    assert report.runtime_cycles > 0


def empty_trace():
    return Trace(
        core=np.zeros(0, np.int32),
        addr=np.zeros(0, np.int64),
        write=np.zeros(0, bool),
        sid=np.zeros(0, np.int32),
    )


@pytest.mark.parametrize("policy_name", ["jigsaw", "whirlpool", "nexus", "host"])
def test_empty_epoch_is_observed_without_profiles(policy_name):
    # An epoch with no accesses (a serve step may carry none) profiles
    # nothing and leaves the installed partitioning alone.
    config = host_config(tiny()) if policy_name == "host" else tiny()
    workload = build("pr", TINY)
    policy = FACTORIES[policy_name]()
    policy.setup(config, Topology(config), workload)
    first = workload.trace.epochs(1000)[0]
    policy.observe(0, first, policy.classify(first))
    policy.reconfigure(1)
    installed = policy._partitions
    epoch = empty_trace()
    policy.observe(1, epoch, policy.classify(epoch))
    assert len(policy._curves) == 0
    policy.reconfigure(2)
    assert policy._partitions is installed
