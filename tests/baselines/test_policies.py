"""End-to-end tests for the concrete baseline policies."""

from functools import partial

import numpy as np
import pytest

from repro.baselines import (
    HostJigsawPolicy,
    JigsawPolicy,
    NexusPolicy,
    StaticNucaPolicy,
    WhirlpoolPolicy,
    host_config,
)
from repro.core import NdpExtPolicy
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.workloads import TINY, build


@pytest.fixture(scope="module")
def config():
    return tiny()


@pytest.fixture(scope="module")
def workload():
    return build("pr", TINY)


ALL_POLICIES = [
    StaticNucaPolicy,
    JigsawPolicy,
    WhirlpoolPolicy,
    NexusPolicy,
    pytest.param(partial(NdpExtPolicy, mode="static"), id="ndpext-static"),
]


class TestAllPoliciesRun:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_end_to_end(self, config, workload, factory):
        report = SimulationEngine(config).run(workload, factory())
        assert report.runtime_cycles > 0
        assert report.hits.cache_accesses > 0
        assert report.energy.total_nj > 0

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_deterministic(self, config, workload, factory):
        a = SimulationEngine(config).run(workload, factory())
        b = SimulationEngine(config).run(workload, factory())
        assert a.runtime_cycles == b.runtime_cycles


class TestStaticNuca:
    def test_no_reconfiguration(self, config, workload):
        report = SimulationEngine(config).run(workload, StaticNucaPolicy())
        assert report.reconfig_invalidations == 0


class TestJigsaw:
    def test_classification_learns_owners(self, config, workload):
        policy = JigsawPolicy()
        SimulationEngine(config).run(workload, policy)
        assert policy._line_owner is not None
        lines, owners = policy._line_owner
        assert len(lines) == len(owners)
        assert len(lines) > 0

    def test_partitions_installed_after_first_epoch(self, config, workload):
        policy = JigsawPolicy()
        SimulationEngine(config).run(workload, policy)
        assert any(spec.allocated for spec in policy._partitions.values())


class TestWhirlpool:
    def test_partitions_by_stream(self, config, workload):
        policy = WhirlpoolPolicy()
        SimulationEngine(config).run(workload, policy)
        stream_sids = {s.sid for s in workload.streams}
        assert set(policy._partitions) & stream_sids

    def test_tracks_read_only(self, config, workload):
        policy = WhirlpoolPolicy()
        SimulationEngine(config).run(workload, policy)
        written = {
            int(s) for s in np.unique(workload.trace.sid[workload.trace.write])
        }
        for sid in written:
            assert not policy._read_only.get(sid, True)


class TestNexus:
    def test_degree_is_valid(self, config, workload):
        policy = NexusPolicy()
        SimulationEngine(config).run(workload, policy)
        assert policy.chosen_degree >= 1
        assert policy.chosen_degree <= config.n_units

    def test_fixed_degree_respected(self, config):
        workload = build("recsys", TINY)
        policy = NexusPolicy(degree=2)
        SimulationEngine(config).run(workload, policy)
        assert policy.chosen_degree == 2
        replicated = [
            spec
            for spec in policy._partitions.values()
            if len(spec.copies) == 2
        ]
        assert replicated


class TestHost:
    def test_host_config_shape(self, config):
        host = host_config(config)
        assert host.n_units == config.n_units // 2
        assert host.total_cache_bytes < config.total_cache_bytes
        assert host.indirect_mlp == 1.0
        assert host.cxl.link_ns < config.cxl.link_ns

    def test_host_runs(self, config, workload):
        host = host_config(config)
        report = SimulationEngine(host).run(workload, HostJigsawPolicy())
        assert report.runtime_cycles > 0

    def test_ndp_beats_host_on_suite_sample(self, config):
        """The core Fig. 5 ordering at tiny scale for a streaming
        workload (the strongest NDP case)."""
        workload = build("hotspot", TINY)
        ndp = SimulationEngine(config).run(workload, NdpExtPolicy(mode="static"))
        host = SimulationEngine(host_config(config)).run(
            workload, HostJigsawPolicy()
        )
        assert ndp.runtime_cycles < host.runtime_cycles
