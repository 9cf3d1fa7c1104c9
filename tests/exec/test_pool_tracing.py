"""Tracing through the supervised pool: per-worker task timelines are
shipped over the result pipes, clock-corrected, and merged into the
supervisor's tracer — serial and parallel runs stay bit-identical."""

import pytest

from repro.core import NdpExtPolicy
from repro.exec.parallel import CellTask, fork_available, run_supervised
from repro.obs.perfreport import (
    bottleneck_report,
    critical_path,
    missing_engine_phases,
)
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
        # Serial: the critical path is all four tasks in order.
        assert len(critical_path(tracer.events)) == 4
        assert tracer.aggregates["pool.run"].calls == 1


@needs_fork
class TestPoolTracing:
    def test_worker_spans_merge_across_processes(self):
        tracer = PerfTracer()
        reports = _run(2, tracer)
        assert all(r is not None for r in reports)
        tasks = [e for e in tracer.events if e.cat == "task" and e.name == "task"]
        assert len(tasks) == 4
        # The initial dispatch hands one task to each worker, so at
        # least two distinct worker pids must appear.
        assert len({e.pid for e in tasks}) >= 2
        # Engine phases recorded inside workers fold into the parent's
        # aggregates through the snapshot merge.
        assert missing_engine_phases(tracer) == []
        assert tracer.aggregates["engine.run"].calls == 4
        # Supervisor-side spans coexist with the merged worker spans.
        assert "pool.wait" in tracer.aggregates
        assert tracer.aggregates["pool.run"].calls == 1

    def test_merged_timeline_yields_pool_report(self):
        tracer = PerfTracer()
        _run(2, tracer)
        prof = bottleneck_report(tracer)
        assert prof["critical_path"], "merged task spans must chain"
        assert prof["critical_path_s"] > 0
        util = prof["worker_utilization"]
        assert len(util) >= 2
        for row in util.values():
            assert row["label"].startswith("worker-")
            assert 0.0 < row["utilization"] <= 1.0

    def test_traced_pool_is_bit_identical_to_untraced_serial(self):
        plain = [task.run() for task in _tasks()]
        tracer = PerfTracer()
        traced = _run(2, tracer)
        for a, b in zip(plain, traced):
            assert_reports_identical(a, b, skip=("timeline",))

    def test_untraced_pool_ships_no_snapshots(self):
        reports = run_supervised(_tasks(2), jobs=2).reports
        assert all(r is not None for r in reports)
