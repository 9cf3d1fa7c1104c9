"""Chaos paths of the supervised pool: SIGKILLed workers, hangs,
one-attempt quarantine of raising cells, and resuming from the cache."""

import os
import time
import types

import pytest

from repro.baselines import NexusPolicy
from repro.core import NdpExtPolicy
from repro.exec.parallel import (
    CHAOS_KILL_ENV,
    TIMEOUT_ACCESSES_PER_S,
    TIMEOUT_FLOOR_S,
    CellExecutionError,
    CellTask,
    RetryPolicy,
    fork_available,
    run_supervised,
    schedule_order,
)
from repro.experiments.runner import Cell, ExperimentContext
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")

GRID = [
    Cell("pr", "ndpext"),
    Cell("pr", "nexus"),
    Cell("hotspot", "ndpext"),
]


@pytest.fixture()
def cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _grid_tasks():
    config = tiny()
    workload = build("pr", TINY)
    return [
        CellTask(workload, config, NdpExtPolicy, label="pr/ndpext"),
        CellTask(
            workload,
            config,
            lambda: NdpExtPolicy(mode="static"),
            label="pr/static",
        ),
        CellTask(workload, config, NexusPolicy, label="pr/nexus"),
    ]


def _always_boom():
    raise ValueError("policy exploded")


def _counting_boom(log):
    """Raises on every call, and appends one line to ``log`` first (a
    file, so calls made in worker processes are counted too)."""

    def factory():
        with open(log, "a") as f:
            f.write("call\n")
        raise RuntimeError("policy exploded")

    return factory


def _hang_once_policy(flag):
    def factory():
        if not os.path.exists(flag):
            open(flag, "w").close()
            time.sleep(300)
        return NdpExtPolicy()

    return factory


class TestRetryPolicy:
    def test_explicit_timeout_wins(self):
        assert RetryPolicy(timeout_s=5.0).timeout_for(10**9) == 5.0

    def test_derived_timeout_scales_with_cell_size(self):
        policy = RetryPolicy()
        assert policy.timeout_for(0) == TIMEOUT_FLOOR_S
        big = 10**9
        assert policy.timeout_for(big) == pytest.approx(
            big / TIMEOUT_ACCESSES_PER_S
        )


class TestScheduleOrder:
    def test_interleaves_workload_groups_longest_first(self):
        big = types.SimpleNamespace(trace=[0] * 100)
        small = types.SimpleNamespace(trace=[0] * 10)
        tasks = [
            CellTask(big, None, object),
            CellTask(big, None, object),
            CellTask(small, None, object),
        ]
        # Round-robin across groups: workers draw *distinct* workloads,
        # so concurrent trace builds never serialize on one flock.
        assert schedule_order(tasks) == [0, 2, 1]

    def test_is_a_permutation(self):
        tasks = _grid_tasks()
        assert sorted(schedule_order(tasks)) == list(range(len(tasks)))


class TestChaosKills:
    @needs_fork
    def test_sigkilled_workers_recover_bit_identical(self, monkeypatch):
        serial = run_supervised(_grid_tasks(), jobs=1).reports
        # Every worker SIGKILLs itself before the first attempt of every
        # even-indexed cell: two deaths, two retries, zero lost results.
        monkeypatch.setenv(CHAOS_KILL_ENV, "2")
        outcome = run_supervised(_grid_tasks(), jobs=2)
        assert not outcome.poisoned
        assert outcome.worker_deaths == 2
        assert outcome.retries == 2
        for a, b in zip(serial, outcome.reports):
            assert_reports_identical(a, b, skip=("timeline",))

    @needs_fork
    def test_run_many_under_chaos_matches_serial(
        self, cache_dir, monkeypatch, tmp_path
    ):
        serial_ctx = ExperimentContext(preset="tiny")
        serial = serial_ctx.run_many(GRID, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        monkeypatch.setenv(CHAOS_KILL_ENV, "2")
        chaos_ctx = ExperimentContext(preset="tiny")
        chaos = chaos_ctx.run_many(GRID, jobs=2)
        assert chaos_ctx.worker_deaths >= 1
        for a, b in zip(serial, chaos):
            assert_reports_identical(a, b, skip=("timeline",))
        # Every completed cell was stored despite the kills.
        rerun = ExperimentContext(preset="tiny")
        rerun.run_many(GRID, jobs=1)
        assert (rerun.cache_hits_disk, rerun.cache_misses) == (len(GRID), 0)

    @needs_fork
    def test_retry_events_reach_recorder(self, cache_dir, monkeypatch):
        from repro.obs import Recorder

        monkeypatch.setenv(CHAOS_KILL_ENV, "2")
        recorder = Recorder(workload="grid")
        context = ExperimentContext(preset="tiny")
        context.run_many(GRID, jobs=2, recorder=recorder)
        assert recorder.counters.get("runner.exec_retry", 0) >= 1
        retries = recorder.events_of("exec_retry")
        assert retries and retries[0]["failure"] == "worker-death"


class TestRetries:
    def _raising_task(self, tmp_path):
        log = tmp_path / "calls"
        task = CellTask(
            build("pr", TINY), tiny(), _counting_boom(str(log)), label="pr/boom"
        )
        return task, log

    def _assert_failed_once(self, outcome, log):
        # Simulation is deterministic: a retry would raise again.
        assert outcome.reports == [None]
        assert outcome.attempts == 1
        assert outcome.retries == 0
        assert log.read_text().count("call") == 1
        (poisoned,) = outcome.poisoned
        assert (poisoned.kind, poisoned.attempts) == ("exception", 1)
        assert "policy exploded" in poisoned.error

    def test_serial_exception_fails_once(self, tmp_path):
        task, log = self._raising_task(tmp_path)
        outcome = run_supervised([task], jobs=1, policy=RetryPolicy())
        self._assert_failed_once(outcome, log)

    @needs_fork
    def test_parallel_exception_fails_once(self, tmp_path):
        task, log = self._raising_task(tmp_path)
        outcome = run_supervised([task], jobs=2, policy=RetryPolicy())
        self._assert_failed_once(outcome, log)

    @needs_fork
    def test_hung_worker_is_killed_and_cell_retried(self, tmp_path):
        task = CellTask(
            build("pr", TINY),
            tiny(),
            _hang_once_policy(str(tmp_path / "flag")),
            label="pr/hang",
        )
        policy = RetryPolicy(timeout_s=2.0)
        start = time.monotonic()
        outcome = run_supervised([task], jobs=2, policy=policy)
        assert outcome.timeouts == 1
        assert outcome.reports[0] is not None
        assert not outcome.poisoned
        # The 300 s sleep was cut off at the deadline, not waited out.
        assert time.monotonic() - start < 60


class TestPoisonList:
    def test_strict_raises_after_batch_completes(self, cache_dir):
        context = ExperimentContext(preset="tiny")
        # NdpExtPolicy rejects an unknown mode in its constructor.
        bad = Cell("hotspot", "ndpext", options={"mode": "bogus"})
        with pytest.raises(CellExecutionError) as err:
            context.run_many([bad, GRID[0]], jobs=1)
        assert "hotspot/ndpext" in str(err.value)
        assert "ValueError" in str(err.value)
        assert context.quarantined_cells == 1
        # The good cell finished and was stored before the raise.
        context.run_many([GRID[0]], jobs=1)
        assert context.cache_hits_mem == 1

    def test_non_strict_returns_placeholders(self):
        workload = build("pr", TINY)
        config = tiny()
        bad = CellTask(workload, config, _always_boom, label="pr/bad")
        good = CellTask(workload, config, NdpExtPolicy, label="pr/good")
        outcome = run_supervised([bad, good], jobs=1)
        assert outcome.reports[0] is None
        assert outcome.reports[1] is not None
        poisoned = outcome.poisoned[0]
        assert poisoned.kind == "exception"
        assert poisoned.attempts == 1
        assert "policy exploded" in poisoned.error

    @needs_fork
    def test_repeated_worker_death_quarantines(self, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "1")
        task = CellTask(build("pr", TINY), tiny(), NdpExtPolicy, label="pr/k")
        outcome = run_supervised(
            [task], jobs=2, policy=RetryPolicy(max_attempts=1)
        )
        assert outcome.reports == [None]
        assert outcome.worker_deaths == 1
        assert outcome.poisoned[0].kind == "worker-death"


class TestResume:
    """The report cache is the sweep checkpoint: every finished cell is
    stored as it completes, so a rerun simulates only what is missing."""

    def test_resume_recomputes_nothing(self, cache_dir, monkeypatch):
        reports = ExperimentContext(preset="tiny").run_many(GRID, jobs=1)

        def boom(self, *a, **kw):  # pragma: no cover - fails the test
            raise AssertionError("re-simulated a cached cell")

        monkeypatch.setattr(SimulationEngine, "run", boom)
        resumed = ExperimentContext(preset="tiny")
        again = resumed.run_many(GRID, jobs=1)
        assert resumed.cache_misses == 0
        assert resumed.cache_hits_disk == len(GRID)
        for a, b in zip(reports, again):
            assert_reports_identical(a, b, skip=("timeline",))

    def test_interrupted_sweep_resumes_only_missing(self, cache_dir):
        first = ExperimentContext(preset="tiny")
        first.run_many(GRID[:2], jobs=1)  # "interrupted" after two cells
        second = ExperimentContext(preset="tiny")
        second.run_many(GRID, jobs=1)
        assert second.cache_hits_disk == 2
        assert second.cache_misses == 1

    def test_cli_rerun_is_served_from_cache(self, cache_dir, monkeypatch, capsys):
        from repro.__main__ import main

        argv = ["--preset", "tiny", "compare", "--workload", "pr"]
        assert main(argv) == 0
        table = capsys.readouterr().out

        def boom(self, *a, **kw):  # pragma: no cover - fails the test
            raise AssertionError("CLI rerun re-simulated a cell")

        monkeypatch.setattr(SimulationEngine, "run", boom)
        assert main(argv) == 0
        assert capsys.readouterr().out == table
