"""Focused tests for the baselines' classification and cost models."""

import numpy as np

from repro.baselines.common import CATCHALL_PID
from repro.baselines.jigsaw import DOMINANCE, JigsawPolicy
from repro.baselines.nexus import NexusPolicy
from repro.baselines.whirlpool import WhirlpoolPolicy
from repro.sim.engine import RequestOutcome
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.workloads import TINY, build
from repro.workloads.trace import Trace


def crafted_trace(lines_cores, writes=None):
    """Trace from (line, core) pairs at 64 B granularity."""
    n = len(lines_cores)
    return Trace(
        core=np.array([c for _, c in lines_cores], np.int32),
        addr=np.array([l * 64 for l, _ in lines_cores], np.int64),
        write=np.zeros(n, bool) if writes is None else np.asarray(writes, bool),
        sid=np.full(n, -1, np.int32),
    )


def setup_policy(policy):
    config = tiny()
    policy.setup(config, Topology(config), build("pr", TINY))
    return policy


class TestJigsawClassification:
    def observe(self, policy, trace):
        pids = policy.classify(trace)
        policy.observe(0, trace, pids)
        # Adopt the pending classification as reconfigure would.
        policy._line_owner = policy._pending_owner
        return policy

    def test_dominant_core_owns_line(self):
        policy = setup_policy(JigsawPolicy())
        trace = crafted_trace([(100, 1)] * 9 + [(100, 2)])
        self.observe(policy, trace)
        lines, owners = policy._line_owner
        assert owners[list(lines).index(100)] == 1

    def test_shared_line_goes_to_shared_partition(self):
        policy = setup_policy(JigsawPolicy())
        trace = crafted_trace([(100, 0), (100, 1), (100, 2), (100, 3)])
        self.observe(policy, trace)
        lines, owners = policy._line_owner
        assert owners[list(lines).index(100)] == CATCHALL_PID

    def test_dominance_threshold(self):
        assert DOMINANCE == 0.5

    def test_unknown_lines_classified_shared(self):
        policy = setup_policy(JigsawPolicy())
        trace = crafted_trace([(7, 0)] * 5)
        self.observe(policy, trace)
        fresh = crafted_trace([(9999, 0)])
        assert policy.classify(fresh)[0] == CATCHALL_PID

    def test_curves_built_per_partition(self):
        policy = setup_policy(JigsawPolicy())
        trace = crafted_trace([(i, i % 2) for i in range(200)] * 3)
        self.observe(policy, trace)
        assert len(policy._curves) >= 2


class TestWhirlpoolClassification:
    def test_classifies_by_stream(self):
        policy = setup_policy(WhirlpoolPolicy())
        workload = policy.workload
        epoch = workload.trace.epochs(1000)[0]
        pids = policy.classify(epoch)
        valid = epoch.sid >= 0
        assert np.array_equal(pids[valid], epoch.sid[valid])

    def test_unannotated_goes_to_catchall(self):
        policy = setup_policy(WhirlpoolPolicy())
        trace = crafted_trace([(1, 0)])
        assert policy.classify(trace)[0] == CATCHALL_PID


class TestNexusDegreeModel:
    def test_avg_distance_shrinks_with_degree(self):
        policy = setup_policy(NexusPolicy())
        d1 = policy._avg_distance_ns(1)
        d4 = policy._avg_distance_ns(4)
        assert d4 <= d1

    def test_miss_penalty_includes_link(self):
        policy = setup_policy(NexusPolicy())
        assert policy._miss_penalty_ns() >= policy.config.cxl.link_ns

    def test_no_read_only_partitions_means_degree_one(self):
        policy = setup_policy(NexusPolicy())
        policy._read_only = {}
        assert policy._pick_degree({}) == 1


class TestEndEpochPlumbing:
    def test_last_pids_match_process(self):
        policy = setup_policy(WhirlpoolPolicy())
        policy.begin_epoch(0)
        epoch = policy.workload.trace.epochs(500)[0]
        out = policy.process(epoch)
        assert isinstance(out, RequestOutcome)
        assert len(policy._last_pids) == len(epoch)
