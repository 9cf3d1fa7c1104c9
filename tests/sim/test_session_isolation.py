"""Sessions opened on one engine own their runs.

An :class:`EngineSession` keeps every piece of its run's state: the
accumulators, the roofline traffic counters, the fault state, the
extended memory's trained lane width, the observers and the timeline.
Two sessions stepped in interleaved order on one engine must therefore
each produce exactly the report a separate engine produces, and a whole
``run`` must leave the engine itself as it found it.
"""

from dataclasses import replace
from itertools import zip_longest

import pytest

from repro.experiments.runner import POLICIES
from repro.faults import (
    CxlCrcBurst,
    CxlLaneDowntrain,
    DramRowFault,
    FaultSchedule,
    UnitFailure,
)
from repro.obs import Recorder, read_trace
from repro.sim import SimulationEngine, tiny
from repro.sim.metrics import SimulationReport
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical

# Smaller epochs than the preset's so each run has about ten to interleave.
CONFIG = replace(tiny(), epoch_accesses=1_000)
# The lane down-train narrows the link mid-run, so the roofline's
# per-width traffic and the CXL serialization both depend on which
# session's link width is live.
FAULTS = FaultSchedule(
    events=(
        CxlLaneDowntrain(epoch=2, lanes=4),
        DramRowFault(epoch=3, unit=1, row=5),
        UnitFailure(epoch=4, unit=2),
        CxlCrcBurst(epoch=5, duration=2, retry_prob=0.3),
    ),
    seed=11,
)
RUNS = (("pr", "ndpext"), ("mv", "jigsaw"))
# Epochs the first session runs alone before the second one opens.
LEAD = 3


def _engine(faults, recorded, label):
    recorder = Recorder(workload=label, policy="isolation") if recorded else None
    return SimulationEngine(CONFIG, faults=faults, recorder=recorder)


@pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["fault-free", "faults"])
def test_interleaved_sessions_match_separate_engines(faults, recorded, tmp_path):
    workloads = {name: build(name, TINY) for name, _ in RUNS}
    alone = [
        _engine(faults, recorded, name).run(workloads[name], POLICIES[policy]())
        for name, policy in RUNS
    ]

    # The second session opens while the first is mid-run, then the two
    # alternate epochs, so their fault epochs do not line up either.
    shared = _engine(faults, recorded, "shared")
    (first, first_policy), (second, second_policy) = RUNS
    first_epochs = workloads[first].trace.epochs(CONFIG.epoch_accesses)
    second_epochs = workloads[second].trace.epochs(CONFIG.epoch_accesses)
    a = shared.begin_session(workloads[first], POLICIES[first_policy]())
    for epoch in first_epochs[:LEAD]:
        a.step(epoch)
    b = shared.begin_session(workloads[second], POLICIES[second_policy]())
    for epoch_a, epoch_b in zip_longest(first_epochs[LEAD:], second_epochs):
        if epoch_a is not None:
            a.step(epoch_a)
        if epoch_b is not None:
            b.step(epoch_b)
    together = [a.finish(), b.finish()]

    for expected, got in zip(alone, together):
        assert_reports_identical(expected, got)
    if recorded:
        assert all(report.timeline is not None for report in together)
        # Each session writes its own report line, in finish order, so
        # one trace keeps the two runs apart.
        path = str(tmp_path / "shared.jsonl")
        shared.recorder.write_jsonl(path)
        lines = read_trace(path).events_of("report")
        assert len(lines) == 2
        for expected, line in zip(alone, lines):
            payload = {k: v for k, v in line.items() if k not in ("kind", "seq")}
            assert_reports_identical(expected, SimulationReport.from_json(payload))
    if faults is not None:
        assert together[0].faults.min_lanes == 4


def test_run_leaves_the_engine_unchanged():
    engine = _engine(FAULTS, True, "pr")
    before = dict(vars(engine))
    engine.run(build("pr", TINY), POLICIES["ndpext"]())
    after = vars(engine)
    assert after.keys() == before.keys()
    for name, value in before.items():
        assert after[name] is value, name
