"""Cross-module integration tests: full-stack invariants on real runs."""

from functools import partial

import numpy as np
import pytest

from repro.baselines import (
    JigsawPolicy,
    NexusPolicy,
    StaticNucaPolicy,
)
from repro.core import NdpExtPolicy
from repro.experiments.runner import PRESETS, SCALES, ExperimentContext
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.workloads import TINY, build


@pytest.fixture(scope="module")
def reports():
    """One run of every policy on two contrasting workloads (tiny)."""
    config = tiny()
    engine = SimulationEngine(config)
    out = {}
    for wname in ("pr", "hotspot"):
        workload = build(wname, TINY)
        out[wname] = {}
        for factory in (
            StaticNucaPolicy,
            JigsawPolicy,
            NexusPolicy,
            partial(NdpExtPolicy, mode="static"),
            NdpExtPolicy,
        ):
            policy = factory()
            out[wname][policy.name] = (engine.run(workload, policy), workload)
    return out


class TestConservation:
    def test_requests_conserved(self, reports):
        """Every trace request is accounted exactly once: L1 hit, cache
        hit (local/remote), or miss."""
        for wname, runs in reports.items():
            for name, (report, workload) in runs.items():
                assert report.hits.total_requests == len(workload.trace), (
                    wname,
                    name,
                )

    def test_latency_components_nonnegative(self, reports):
        for runs in reports.values():
            for report, _ in runs.values():
                b = report.breakdown
                for value in b.fractions().values():
                    assert value >= 0

    def test_energy_positive_components(self, reports):
        for runs in reports.values():
            for report, _ in runs.values():
                assert report.energy.static_nj > 0
                assert report.energy.total_nj > report.energy.static_nj

    def test_runtime_exceeds_pure_compute(self, reports):
        for runs in reports.values():
            for report, workload in runs.values():
                per_core = np.bincount(workload.trace.core)
                floor = per_core.max() * workload.compute_cycles_per_access
                assert report.runtime_cycles >= floor

    def test_epoch_cycles_monotone(self, reports):
        """Cumulative per-epoch runtime never decreases."""
        for runs in reports.values():
            for report, _ in runs.values():
                series = report.per_epoch_cycles
                assert all(b >= a for a, b in zip(series, series[1:]))


class TestOrderingAtTinyScale:
    def test_stream_metadata_cheaper_than_line_metadata(self, reports):
        for wname, runs in reports.items():
            ndp = runs["ndpext-static"][0]
            nuca = runs["static-nuca"][0]
            ndp_meta = ndp.breakdown.metadata_ns / max(1, ndp.hits.cache_accesses)
            nuca_meta = nuca.breakdown.metadata_ns / max(1, nuca.hits.cache_accesses)
            assert ndp_meta < nuca_meta

    def test_ndpext_never_badly_loses(self, reports):
        for wname, runs in reports.items():
            best_other = min(
                r.runtime_cycles for n, (r, _) in runs.items() if n != "ndpext"
            )
            assert runs["ndpext"][0].runtime_cycles < best_other * 1.25


class TestPresetRegistry:
    def test_presets_construct(self):
        for name, factory in PRESETS.items():
            if name.startswith("paper"):
                continue  # huge but still cheap to *construct*
            config = factory()
            assert config.n_units >= 1

    def test_paper_presets_construct(self):
        assert PRESETS["paper"]().n_units == 128
        assert PRESETS["paper-hmc"]().memory_style == "hmc"

    def test_scales_match_presets(self):
        for name in SCALES:
            assert name in PRESETS

    def test_context_defaults(self):
        ctx = ExperimentContext(preset="tiny")
        assert ctx.config.name.startswith("tiny")
        assert ctx.scale.n_cores >= 1
