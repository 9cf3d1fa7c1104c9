"""End-to-end bit identity of SimulationReports against the reference kernels.

The epoch kernels (:mod:`repro.sim.kernels`) must be fast *only*: with
the pure-python reference loops (``kernels_reference.py``) patched in
their place, every policy must produce literally the same report — every
float, every counter — with and without faults, through the serving
loop, and with a live recorder attached.  Anything less and cached
reports, the regression gate, and the paper figures would all depend on
which implementation a reader trusts.
"""

from collections import Counter

import pytest

from repro.experiments.runner import POLICIES
from repro.faults import FaultSchedule
from repro.faults.schedule import random_schedule
from repro.sim import SimulationEngine, kernels, tiny
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical
from tests.sim.kernels_reference import PythonKernels

# Every kernel the simulator reaches through ``repro.sim.kernels``.
KERNELS = (
    "prev_in_group",
    "direct_mapped_hits",
    "window_hits_grouped",
    "segment_sum",
    "segment_count",
)
# Kernels every engine run calls, so a run that never reached the
# reference (a call site bound at import time) fails loudly.
ENGINE_KERNELS = {
    "direct_mapped_hits",
    "window_hits_grouped",
    "segment_sum",
    "segment_count",
}
REFERENCES = {"python": PythonKernels}

FAULT_PROFILES = {
    "fault-free": lambda config: None,
    "empty-schedule": lambda config: FaultSchedule(),
    "random-faults": lambda config: random_schedule(
        7,
        config.n_units,
        8,
        rows_per_unit=config.rows_per_unit,
        full_lanes=config.cxl.lanes,
    ),
}


def use_reference_kernels(monkeypatch, reference=PythonKernels) -> Counter:
    """Patch ``reference`` into :mod:`repro.sim.kernels` for the rest of
    the test; returns the count of reference calls by kernel name."""
    calls = Counter()
    for name in KERNELS:

        def counted(*args, _name=name, _impl=getattr(reference, name), **kwargs):
            calls[_name] += 1
            return _impl(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def _run(policy_name, faults, **engine_kwargs):
    config = tiny()
    workload = build("pr", TINY)
    engine = SimulationEngine(config, faults=faults, **engine_kwargs)
    return engine.run(workload, POLICIES[policy_name]())


@pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_python_backend_matches_numpy(policy_name, profile, monkeypatch):
    make_faults = FAULT_PROFILES[profile]
    expected = _run(policy_name, make_faults(tiny()))
    calls = use_reference_kernels(monkeypatch)
    candidate = _run(policy_name, make_faults(tiny()))
    assert set(calls) >= ENGINE_KERNELS
    assert_reports_identical(expected, candidate)


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_recorded_run_matches_numpy(reference, monkeypatch):
    """A live recorder must not perturb kernel identity (and the
    recorded runs themselves must agree)."""
    from repro.obs.recorder import Recorder

    def run():
        recorder = Recorder(workload="pr", policy="ndpext", preset="tiny")
        return _run("ndpext", None, recorder=recorder)

    expected = run()
    calls = use_reference_kernels(monkeypatch, REFERENCES[reference])
    candidate = run()
    assert set(calls) >= ENGINE_KERNELS
    assert_reports_identical(expected, candidate)


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_serve_scenario_matches_numpy(reference, monkeypatch):
    """The resident serving loop — admission, backpressure, health
    gates, the works — replays identically on the reference kernels."""
    from repro.serve.scenario import ServeHarness, two_tenant_scenario

    def run():
        scenario = two_tenant_scenario(max_batches=6)
        return ServeHarness(scenario, preset="tiny").run().to_json()

    expected = run()
    calls = use_reference_kernels(monkeypatch, REFERENCES[reference])
    assert run() == expected
    assert set(calls) >= ENGINE_KERNELS


def test_engine_session_step_matches_batch_run_across_backends(monkeypatch):
    """The incremental EngineSession.step() path and the batch run()
    path share the fused kernels; stepping on the reference kernels
    still reproduces the numpy batch report."""
    config = tiny()
    workload = build("pr", TINY)
    batch = SimulationEngine(config).run(workload, POLICIES["ndpext"]())
    calls = use_reference_kernels(monkeypatch)
    session = SimulationEngine(config).begin_session(workload, POLICIES["ndpext"]())
    for epoch in workload.trace.epochs(config.epoch_accesses):
        session.step(epoch)
    stepped = session.finish()
    assert set(calls) >= ENGINE_KERNELS
    assert_reports_identical(batch, stepped)
