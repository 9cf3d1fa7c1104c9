"""Tracing around the supervised pool: the serial path records one
``task`` span per cell on the ambient tracer, pool workers run
untraced, and serial and parallel runs stay bit-identical."""

import pytest

from repro.core import NdpExtPolicy
from repro.exec.parallel import CellTask, fork_available, run_supervised
from repro.obs.perfreport import missing_engine_phases
from repro.obs.tracing import PerfTracer, activate
from repro.sim import tiny
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _tasks(n=4):
    config = tiny()
    return [
        CellTask(
            build(name, TINY),
            config,
            NdpExtPolicy,
            label=f"{name}/ndpext",
        )
        for name in ("pr", "hotspot", "recsys", "mv")[:n]
    ]


def _run(jobs, tracer):
    with activate(tracer):
        return run_supervised(_tasks(), jobs=jobs).reports


class TestSerialTracing:
    def test_serial_run_traces_tasks(self):
        tracer = PerfTracer()
        reports = _run(1, tracer)
        assert all(r is not None for r in reports)
        tasks = [e for e in tracer.events if e.cat == "task" and e.name == "task"]
        assert len(tasks) == 4
        assert {e.args["label"] for e in tasks} == {
            "pr/ndpext", "hotspot/ndpext", "recsys/ndpext", "mv/ndpext"
        }
        assert missing_engine_phases(tracer) == []
        assert tracer.aggregates["engine.run"].calls == 4


@needs_fork
class TestPoolTracing:
    def test_workers_record_nothing_in_the_parent_tracer(self):
        """A tracer observes one process: worker spans are not shipped."""
        tasks = _tasks()
        tracer = PerfTracer()
        with activate(tracer):
            reports = run_supervised(tasks, jobs=2).reports
        assert all(r is not None for r in reports)
        assert tracer.events == [] and tracer.aggregates == {}

    def test_traced_pool_is_bit_identical_to_untraced_serial(self):
        plain = [task.run() for task in _tasks()]
        tracer = PerfTracer()
        traced = _run(2, tracer)
        for a, b in zip(plain, traced):
            assert_reports_identical(a, b, skip=("timeline",))

    def test_untraced_pool_ships_no_snapshots(self):
        reports = run_supervised(_tasks(2), jobs=2).reports
        assert all(r is not None for r in reports)
