"""End-to-end tests for the NDPExt runtime policy."""

from dataclasses import replace

import pytest

from repro.core.runtime import NdpExtPolicy
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.workloads import TINY, build


@pytest.fixture(scope="module")
def config():
    return tiny()


@pytest.fixture(scope="module")
def workload():
    return build("pr", TINY)


class TestModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            NdpExtPolicy(mode="sometimes")

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            NdpExtPolicy(reconfig_interval=0)

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_sampler_sets_rejected(self, config, k):
        """k is set on the system config only, which refuses k <= 0, so
        no runtime can be built with a sampler of no sets."""
        with pytest.raises(ValueError, match="sampler_sets"):
            config.scaled(stream=replace(config.stream, sampler_sets=k))

    def test_explicit_sampler_sets_used(self, config, workload):
        """The runtime's samplers and its SRAM accounting both read k
        from the config."""
        from repro.sim.topology import Topology

        seven = config.scaled(stream=replace(config.stream, sampler_sets=7))
        policy = NdpExtPolicy()
        policy.setup(seven, Topology(seven), workload)
        assert policy.sampler_params.sample_sets == 7
        default = NdpExtPolicy()
        default.setup(config, Topology(config), workload)
        stream = config.stream
        assert (
            default.mapper.sram_bytes_per_unit() - policy.mapper.sram_bytes_per_unit()
            == stream.samplers_per_unit * (stream.sampler_sets - 7) * stream.sampler_points * 4
        )

    def test_names(self):
        assert NdpExtPolicy().name == "ndpext"
        assert NdpExtPolicy(mode="static").name == "ndpext-static"
        assert NdpExtPolicy(mode="partial").name == "ndpext-partial"

    def test_static_never_reconfigures(self, config, workload):
        report = SimulationEngine(config).run(workload, NdpExtPolicy(mode="static"))
        assert report.reconfig_invalidations == 0
        assert report.reconfig_movements == 0

    def test_runs_all_modes(self, config, workload):
        for mode in ("static", "partial", "full"):
            report = SimulationEngine(config).run(workload, NdpExtPolicy(mode=mode))
            assert report.runtime_cycles > 0
            assert report.hits.cache_hit_rate > 0


class TestDynamicBehavior:
    def test_profile_builds_curves(self, config, workload):
        from repro.sim.topology import Topology

        policy = NdpExtPolicy()
        policy.setup(config, Topology(config), workload)
        epoch = workload.trace.epochs(config.epoch_accesses)[0]
        policy.end_epoch(0, epoch, None)
        assert policy._curves
        assert policy._acc_units

    def test_reconfiguration_changes_allocation_under_skew(self, config):
        """recsys's skewed gathers should pull space toward hot streams."""
        workload = build("recsys", TINY)
        policy = NdpExtPolicy()
        report = SimulationEngine(config).run(workload, policy)
        rows = {
            s.name: int(policy.mapper.table.shares[s.sid].sum())
            for s in workload.streams
        }
        assert report.runtime_cycles > 0
        assert any(r > 0 for r in rows.values())

    def test_fallback_curve_shape(self, config, workload):
        from repro.sim.topology import Topology

        policy = NdpExtPolicy()
        policy.setup(config, Topology(config), workload)
        sid = next(iter(policy._streams))
        (misses,) = policy._fallback_rows({sid: 1000})
        assert misses[0] >= misses[-1]
        assert misses.max() <= 1000

    def test_hysteresis_blocks_noise_reconfigs(self, config, workload):
        """With an enormous gain threshold nothing ever reconfigures."""
        policy = NdpExtPolicy()
        policy.RECONFIG_GAIN_THRESHOLD = 1.0
        report = SimulationEngine(config).run(workload, policy)
        assert report.reconfig_invalidations == 0

    def test_full_not_slower_than_static_on_dynamic_workload(self, config):
        """The headline fig9(e) shape at tiny scale: full reconfiguration
        should never badly lose to static."""
        workload = build("recsys", TINY)
        engine = SimulationEngine(config)
        static = engine.run(workload, NdpExtPolicy(mode="static"))
        full = engine.run(workload, NdpExtPolicy(mode="full"))
        assert full.runtime_cycles <= static.runtime_cycles * 1.1
