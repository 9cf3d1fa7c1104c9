"""End-to-end bit identity of SimulationReports across kernel backends.

The whole point of the backend seam (``EngineOptions.backend``) is that
it changes *speed only*: the numpy kernels and the pure-python
reference loops must produce literally the same report — every float,
every counter — for every policy, with and without faults, through the
serving loop, and with a live recorder attached.  Anything less and
cached reports, the regression gate, and the paper figures would all
depend on which backend happened to run.
"""

from dataclasses import fields

import pytest

from repro.experiments.runner import POLICIES
from repro.faults import FaultSchedule
from repro.faults.schedule import random_schedule
from repro.sim import SimulationEngine, tiny
from repro.sim.engine import EngineOptions
from repro.sim.kernels import BACKENDS
from repro.workloads import TINY, build

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


def assert_reports_identical(a, b):
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va is None and vb is None:
            continue
        if hasattr(va, "__dataclass_fields__"):
            assert_reports_identical(va, vb)
        else:
            assert va == vb, f"field {f.name}: {va!r} != {vb!r}"


def _run(policy_name, backend, faults):
    config = tiny()
    workload = build("pr", TINY)
    engine = SimulationEngine(
        config, EngineOptions(backend=backend), faults=faults
    )
    return engine.run(workload, POLICIES[policy_name]())


@pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_python_backend_matches_numpy(policy_name, profile):
    make_faults = FAULT_PROFILES[profile]
    reference = _run(policy_name, "numpy", make_faults(tiny()))
    candidate = _run(policy_name, "python", make_faults(tiny()))
    assert_reports_identical(reference, candidate)


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "numpy"])
def test_recorded_run_matches_numpy(backend):
    """A live recorder must not perturb backend identity (and the
    recorded runs themselves must agree across backends)."""
    from repro.obs.recorder import Recorder

    config = tiny()
    workload = build("pr", TINY)
    reports = {}
    for name in ("numpy", backend):
        recorder = Recorder(workload="pr", policy="ndpext", preset="tiny")
        engine = SimulationEngine(
            config, EngineOptions(backend=name), recorder=recorder
        )
        reports[name] = engine.run(workload, POLICIES["ndpext"]())
    assert_reports_identical(reports["numpy"], reports[backend])


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "numpy"])
def test_serve_scenario_matches_numpy(backend):
    """The resident serving loop — admission, backpressure, health
    gates, the works — replays identically on every backend."""
    from repro.serve.scenario import ServeHarness, two_tenant_scenario

    def run(name):
        scenario = two_tenant_scenario(max_batches=6)
        harness = ServeHarness(scenario, preset="tiny", backend=name)
        return harness.run().to_json()

    assert run("numpy") == run(backend)


def test_engine_session_step_matches_batch_run_across_backends():
    """The incremental EngineSession.step() path and the batch run()
    path share the fused kernels; stepping under the python backend
    still reproduces the numpy batch report."""
    config = tiny()
    workload = build("pr", TINY)
    batch = SimulationEngine(config, EngineOptions(backend="numpy")).run(
        workload, POLICIES["ndpext"]()
    )
    engine = SimulationEngine(config, EngineOptions(backend="python"))
    session = engine.begin_session(workload, POLICIES["ndpext"]())
    for epoch in workload.trace.epochs(config.epoch_accesses):
        session.step(epoch)
    stepped = session.finish()
    assert_reports_identical(batch, stepped)
