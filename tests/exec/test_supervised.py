"""Chaos paths of the supervised pool: SIGKILLed workers, hangs,
transient failures, poison-list quarantine, and checkpoint/resume."""

import json
import os
import time
import types

import pytest

from repro.baselines import NexusPolicy
from repro.core import NdpExtPolicy
from repro.exec.checkpoint import SweepManifest
from repro.exec.parallel import (
    CHAOS_KILL_ENV,
    CellExecutionError,
    CellTask,
    RetryPolicy,
    fork_available,
    run_cells,
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


def _flaky_policy(flag):
    """Fails the first attempt (marked by a flag file, so the failure is
    visible across worker processes), succeeds on the retry."""

    def factory():
        if not os.path.exists(flag):
            open(flag, "w").close()
            raise RuntimeError("transient glitch")
        return NdpExtPolicy()

    return factory


def _hang_once_policy(flag):
    def factory():
        if not os.path.exists(flag):
            open(flag, "w").close()
            time.sleep(300)
        return NdpExtPolicy()

    return factory


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=3)
        assert policy.backoff_s(5, 1) == policy.backoff_s(5, 1)
        assert policy.backoff_s(5, 1) != policy.backoff_s(5, 2)
        for attempt in range(1, 9):
            backoff = policy.backoff_s(0, attempt)
            assert 0.0 < backoff <= policy.backoff_cap_s

    def test_explicit_timeout_wins(self):
        assert RetryPolicy(timeout_s=5.0).timeout_for(10**9) == 5.0

    def test_derived_timeout_scales_with_cell_size(self):
        policy = RetryPolicy()
        assert policy.timeout_for(0) == policy.timeout_floor_s
        big = 10**9
        assert policy.timeout_for(big) == pytest.approx(
            big / policy.timeout_accesses_per_s
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
        serial = run_cells(_grid_tasks(), jobs=1)
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
        manifest_path = tmp_path / "chaos.jsonl"
        chaos_ctx = ExperimentContext(
            preset="tiny", manifest_path=str(manifest_path)
        )
        chaos = chaos_ctx.run_many(GRID, jobs=2)
        assert chaos_ctx.worker_deaths >= 1
        for a, b in zip(serial, chaos):
            assert_reports_identical(a, b, skip=("timeline",))
        # Every completed cell was journaled despite the kills.
        assert SweepManifest(manifest_path).done_count == len(GRID)

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
    def test_serial_retries_transient_failures(self, tmp_path):
        task = CellTask(
            build("pr", TINY),
            tiny(),
            _flaky_policy(str(tmp_path / "flag")),
            label="pr/flaky",
        )
        outcome = run_supervised(
            [task], jobs=1, policy=RetryPolicy(backoff_base_s=0.001)
        )
        assert outcome.reports[0] is not None
        assert outcome.retries == 1
        assert outcome.attempts == 2
        assert not outcome.poisoned

    @needs_fork
    def test_parallel_retries_worker_exceptions(self, tmp_path):
        task = CellTask(
            build("pr", TINY),
            tiny(),
            _flaky_policy(str(tmp_path / "flag")),
            label="pr/flaky",
        )
        outcome = run_supervised(
            [task], jobs=2, policy=RetryPolicy(backoff_base_s=0.001)
        )
        assert outcome.reports[0] is not None
        assert outcome.retries == 1
        assert not outcome.poisoned

    @needs_fork
    def test_hung_worker_is_killed_and_cell_retried(self, tmp_path):
        task = CellTask(
            build("pr", TINY),
            tiny(),
            _hang_once_policy(str(tmp_path / "flag")),
            label="pr/hang",
        )
        policy = RetryPolicy(timeout_s=2.0, backoff_base_s=0.01)
        start = time.monotonic()
        outcome = run_supervised([task], jobs=2, policy=policy)
        assert outcome.timeouts == 1
        assert outcome.reports[0] is not None
        assert not outcome.poisoned
        # The 300 s sleep was cut off at the deadline, not waited out.
        assert time.monotonic() - start < 60


class TestPoisonList:
    def test_strict_raises_after_batch_completes(self):
        workload = build("pr", TINY)
        config = tiny()
        bad = CellTask(workload, config, _always_boom, label="pr/bad")
        good = CellTask(workload, config, NdpExtPolicy, label="pr/good")
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.001)
        with pytest.raises(CellExecutionError) as err:
            run_cells([bad, good], jobs=1, policy=policy)
        assert "pr/bad" in str(err.value)
        assert "ValueError" in str(err.value)

    def test_non_strict_returns_placeholders(self):
        workload = build("pr", TINY)
        config = tiny()
        bad = CellTask(workload, config, _always_boom, label="pr/bad")
        good = CellTask(workload, config, NdpExtPolicy, label="pr/good")
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.001)
        outcome = run_supervised([bad, good], jobs=1, policy=policy)
        assert outcome.reports[0] is None
        assert outcome.reports[1] is not None
        poisoned = outcome.poisoned[0]
        assert poisoned.kind == "exception"
        assert poisoned.attempts == 2
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
    def test_resume_recomputes_nothing(self, cache_dir, monkeypatch, tmp_path):
        manifest_path = tmp_path / "sweep.jsonl"
        first = ExperimentContext(
            preset="tiny", manifest_path=str(manifest_path)
        )
        reports = first.run_many(GRID, jobs=1)
        assert SweepManifest(manifest_path).done_count == len(GRID)

        def boom(self, *a, **kw):  # pragma: no cover - fails the test
            raise AssertionError("re-simulated a journaled cell")

        monkeypatch.setattr(SimulationEngine, "run", boom)
        resumed = ExperimentContext(
            preset="tiny", manifest_path=str(manifest_path)
        )
        again = resumed.run_many(GRID, jobs=1)
        assert resumed.cache_misses == 0
        assert resumed.resumed_cells == len(GRID)
        for a, b in zip(reports, again):
            assert_reports_identical(a, b, skip=("timeline",))

    def test_interrupted_sweep_resumes_only_missing(self, cache_dir, tmp_path):
        manifest = str(tmp_path / "sweep.jsonl")
        first = ExperimentContext(preset="tiny", manifest_path=manifest)
        first.run_many(GRID[:2], jobs=1)  # "interrupted" after two cells
        second = ExperimentContext(preset="tiny", manifest_path=manifest)
        second.run_many(GRID, jobs=1)
        assert second.resumed_cells == 2
        assert second.cache_misses == 1
        assert SweepManifest(manifest).done_count == len(GRID)

    def test_manifest_is_advisory_without_cache(self, monkeypatch, tmp_path):
        # A journaled cell whose report vanished (here: cache disabled)
        # is recomputed — the manifest never invents results.
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        manifest = str(tmp_path / "sweep.jsonl")
        first = ExperimentContext(preset="tiny", manifest_path=manifest)
        first.run_many(GRID[:1], jobs=1)
        second = ExperimentContext(preset="tiny", manifest_path=manifest)
        second.run_many(GRID[:1], jobs=1)
        assert second.cache_misses == 1
        assert second.resumed_cells == 0

    def test_poisoned_cells_skip_the_retry_budget(
        self, cache_dir, monkeypatch, tmp_path
    ):
        manifest_path = tmp_path / "sweep.jsonl"
        context = ExperimentContext(
            preset="tiny", manifest_path=str(manifest_path)
        )
        manifest = SweepManifest(manifest_path)
        manifest.journal_poisoned(
            context._cell_key(GRID[0]),
            failure="timeout",
            attempts=3,
            error="wedged",
        )
        manifest.close()

        def boom(self, *a, **kw):  # pragma: no cover - fails the test
            raise AssertionError("poisoned cell was re-attempted")

        monkeypatch.setattr(SimulationEngine, "run", boom)
        out = context.run_many([GRID[0]], jobs=1, strict=False)
        assert out == [None]
        assert context.quarantined_cells == 1
        with pytest.raises(CellExecutionError, match="timeout"):
            context.run_many([GRID[0]], jobs=1)

    def test_cli_resume_journals_and_skips(
        self, cache_dir, monkeypatch, tmp_path, capsys
    ):
        from repro.__main__ import main

        manifest = tmp_path / "cli.jsonl"
        argv = [
            "--preset",
            "tiny",
            "--resume",
            str(manifest),
            "compare",
            "--workload",
            "pr",
        ]
        assert main(argv) == 0
        journal = manifest.read_text()
        assert '"status": "done"' in journal

        def boom(self, *a, **kw):  # pragma: no cover - fails the test
            raise AssertionError("resumed CLI run re-simulated a cell")

        monkeypatch.setattr(SimulationEngine, "run", boom)
        assert main(argv) == 0
        # Nothing new to journal: the manifest is byte-identical.
        assert manifest.read_text() == journal
        capsys.readouterr()


class TestManifest:
    def test_round_trip_and_error_trim(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path, stamp="s1")
        manifest.journal_done("k1", workload="pr", policy="ndpext")
        manifest.journal_poisoned(
            "k2", failure="timeout", attempts=3, error="x" * 5000
        )
        manifest.close()
        again = SweepManifest(path, stamp="s1")
        assert again.is_done("k1")
        assert again.is_poisoned("k2")
        assert len(again.poison_record("k2")["error"]) <= 2000
        assert again.done_count == 1
        assert again.poisoned_count == 1

    def test_done_overrides_poisoned(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path, stamp="s")
        manifest.journal_poisoned("k", failure="exception", attempts=3, error="e")
        manifest.journal_done("k")
        manifest.close()
        again = SweepManifest(path, stamp="s")
        assert again.is_done("k")
        assert not again.is_poisoned("k")

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path, stamp="s")
        manifest.journal_done("k1")
        manifest.journal_done("k2")
        manifest.close()
        with open(path, "a") as f:
            f.write('{"kind": "cell", "status": "done", "key": "k3"')
        again = SweepManifest(path, stamp="s")
        assert again.is_done("k1")
        assert again.is_done("k2")
        assert not again.is_done("k3")

    def test_reads_and_extends_the_existing_byte_format(self, tmp_path):
        path = tmp_path / "m.jsonl"
        old = (
            '{"kind": "header", "schema": 1, "stamp": "s1"}\n'
            '{"kind": "cell", "status": "done", "key": "k1", "workload": "pr"}\n'
            '{"kind": "cell", "status": "poisoned", "key": "k2", '
            '"failure": "timeout", "attempts": 3, "error": "boom"}\n'
        )
        path.write_text(old)
        manifest = SweepManifest(path, stamp="s1")
        assert manifest.is_done("k1")
        assert manifest.poison_record("k2")["failure"] == "timeout"
        manifest.journal_done("k1")  # already journaled: no new line
        manifest.journal_done("k3")
        manifest.close()
        assert path.read_text() == (
            old + '{"kind": "cell", "status": "done", "key": "k3"}\n'
        )

    def test_resume_after_torn_tail_keeps_new_records(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path, stamp="s")
        manifest.journal_done("k1")
        manifest.close()
        with open(path, "a") as f:
            f.write('{"kind": "cell", "status": "do')  # crash mid-append
        resumed = SweepManifest(path, stamp="s")
        resumed.journal_done("k2")
        resumed.journal_done("k3")
        resumed.close()
        again = SweepManifest(path, stamp="s")
        assert [again.is_done(k) for k in ("k1", "k2", "k3")] == [True] * 3
        assert again.done_count == 3

    def test_stale_stamp_rotates_aside(self, tmp_path):
        path = tmp_path / "m.jsonl"
        old = SweepManifest(path, stamp="old")
        old.journal_done("k")
        old.close()
        fresh = SweepManifest(path, stamp="new")
        assert not fresh.is_done("k")
        assert path.with_name("m.jsonl.stale").exists()
        fresh.journal_done("k2")
        fresh.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["stamp"] == "new"
