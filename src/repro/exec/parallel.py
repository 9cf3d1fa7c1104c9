"""Supervised worker-pool execution of independent simulation cells.

Simulation cells are embarrassingly parallel — each one owns its engine,
policy, and fault state — so a batch of cells fans out across cores.
Unlike the ``Pool.map`` fan-out this module replaces, execution is
*supervised*: paper-scale sweeps run for hours, and a single worker
crash, hang, or OOM kill must cost one retry, not the whole suite.

* **Long-lived workers, per-worker pipes.**  Workers are forked once per
  batch and fed one cell at a time over a private duplex pipe, so a
  ``SIGKILL``-ed worker can never corrupt a shared queue lock.  With the
  ``fork`` start method nothing is pickled on the way in — workers
  inherit the task list (policy factories may be arbitrary closures);
  only small control tuples and the resulting
  :class:`~repro.sim.metrics.SimulationReport` cross the pipe.
* **Longest-first scheduling.**  Tasks are ordered by estimated cost
  (trace length, or a scale-derived estimate for lazy tasks) so the
  biggest cells start first and the tail of the batch stays balanced.
  Cells sharing a workload are interleaved across distinct workloads so
  concurrent workers build *different* traces under the single-builder
  lock (:meth:`repro.exec.cache.Store.get_or_build`) instead of
  serializing on one.
* **Supervision.**  The parent waits on worker pipes *and* process
  sentinels: a death (exit code, kill, OOM) or a hang (per-cell
  wall-clock deadline derived from the cell's estimated size) is
  detected, the worker is killed/reaped, a replacement is forked, and
  the cell is retried at once.  A cell that raises is *not* retried:
  simulation is deterministic, so the same inputs raise again.  It is
  quarantined into a poison list with the captured traceback on its
  first attempt, as is a cell that exhausts its attempt budget — the
  rest of the sweep completes.
* **Bit identity.**  Every cell is simulated by exactly the same code as
  the serial path, so results are bit-identical to running the loop
  in-process (asserted in ``tests/exec``), including under injected
  worker kills.

Chaos injection (used by tests and the CI chaos-smoke job): setting
``REPRO_CHAOS_KILL_EVERY=N`` makes each *worker* SIGKILL itself before
the first attempt of every N-th cell.  The supervisor must recover and
the final reports must stay bit-identical.  The knob has no effect on
serial (in-process) execution.

Platforms without ``fork`` (or ``jobs <= 1``) fall back to a serial loop
with the same quarantine semantics.  It has nothing to retry: no worker
can die under it, and a hang cannot be killed without process isolation.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Sequence

from repro.faults import FaultSchedule
from repro.obs.tracing import NULL_TRACER, activate, current
from repro.sim import (
    SimulationEngine,
    SimulationReport,
    SystemConfig,
)
from repro.workloads.base import WorkloadScale
from repro.workloads.trace import Workload

CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_EVERY"

# A cell's derived wall-clock deadline: a deliberately pessimistic
# throughput floor, so a legitimate big cell is never killed but a
# wedged worker does not stall the sweep forever.
TIMEOUT_FLOOR_S = 60.0
TIMEOUT_ACCESSES_PER_S = 20_000.0


@dataclass
class CellTask:
    """Everything needed to simulate one cell.

    The workload may be *lazy*: with ``workload=None`` and
    ``workload_name``/``scale`` set, the trace is materialized where the
    task runs (in a worker, under the trace cache's single-builder lock)
    instead of serially in the parent — overlapping trace generation
    with simulation across workers.
    """

    workload: Workload | None
    config: SystemConfig
    policy_factory: Callable[[], object]
    faults: FaultSchedule | None = None
    workload_name: str | None = None
    scale: WorkloadScale | None = None
    label: str = ""

    def materialize(self) -> Workload:
        if self.workload is None:
            if self.workload_name is None:
                raise ValueError("lazy CellTask needs workload_name")
            from repro.workloads import build

            self.workload = build(self.workload_name, self.scale)
        return self.workload

    def est_accesses(self) -> int:
        """Estimated trace length, for scheduling and timeout derivation."""
        if self.workload is not None:
            return len(self.workload.trace)
        if self.scale is not None:
            return int(self.scale.n_cores * self.scale.accesses_per_core)
        return 0

    def run(self) -> SimulationReport:
        tracer = current()
        with tracer.span("task.materialize", cat="task"):
            workload = self.materialize()
        engine = SimulationEngine(self.config, faults=self.faults)
        with tracer.span("task.simulate", cat="task"):
            return engine.run(workload, self.policy_factory())


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and deadline of a pooled batch.

    ``max_attempts`` bounds the tries per cell (first attempt included)
    that worker deaths and timeouts may use up.  The per-cell wall-clock
    deadline is ``timeout_s`` when set; otherwise it is derived from the
    cell's estimated trace length (``TIMEOUT_FLOOR_S``,
    ``TIMEOUT_ACCESSES_PER_S``).
    """

    max_attempts: int = 3
    timeout_s: float | None = None

    def timeout_for(self, est_accesses: int) -> float:
        if self.timeout_s is not None:
            return self.timeout_s
        return max(TIMEOUT_FLOOR_S, est_accesses / TIMEOUT_ACCESSES_PER_S)


@dataclass
class PoisonedCell:
    """One cell that raised, or exhausted its attempt budget."""

    index: int
    attempts: int
    kind: str  # "exception" | "worker-death" | "timeout"
    error: str
    label: str = ""


@dataclass
class PoolOutcome:
    """What a supervised batch produced, successes and casualties both."""

    reports: list[SimulationReport | None]
    poisoned: list[PoisonedCell] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    attempts: int = 0


class CellExecutionError(RuntimeError):
    """Raised when a batch finishes with quarantined cells."""

    def __init__(self, poisoned: Sequence[PoisonedCell]) -> None:
        self.poisoned = list(poisoned)
        lines = [
            f"{len(self.poisoned)} cell(s) quarantined:"
        ]
        for cell in self.poisoned:
            head = cell.error.strip().splitlines()
            lines.append(
                f"  [{cell.index}] {cell.label or 'cell'}: {cell.kind} after "
                f"{cell.attempts} attempt(s): {head[-1] if head else ''}"
            )
        super().__init__("\n".join(lines))


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# `--jobs auto` never asks for more workers than this: past a moderate
# fan-out the single-builder trace lock and the supervisor pipe become
# the bottleneck, and oversubscribing CPUs only adds scheduling noise.
AUTO_JOBS_CAP = 8


def auto_jobs(cap: int = AUTO_JOBS_CAP) -> int:
    """Derive a worker count from the machine (`--jobs auto`).

    Leaves one CPU for the supervisor/OS on multi-core boxes, capped at
    ``cap``; single-CPU machines get one worker (serial — the pool
    cannot win there, as the bench floors document).
    """
    cpus = os.cpu_count() or 1
    if cpus <= 2:
        # 1 CPU -> serial; 2 CPUs -> both (a lone worker would serialize
        # anyway, and the supervisor mostly sleeps in poll()).
        return cpus
    return max(1, min(cap, cpus - 1))


def schedule_order(tasks: Sequence[CellTask]) -> list[int]:
    """Longest-first task order, interleaved across workload groups.

    Groups sharing one workload are round-robined (group order by
    estimated cost, descending) so that concurrent workers materialize
    *distinct* traces — the single-builder lock then never idles a
    worker that could be generating a different workload.
    """
    groups: dict[tuple, list[int]] = {}
    for i, task in enumerate(tasks):
        if task.workload is not None:
            key = ("obj", id(task.workload))
        else:
            key = ("lazy", task.workload_name, task.scale)
        groups.setdefault(key, []).append(i)
    ranked = sorted(
        groups.values(),
        key=lambda idxs: max(tasks[i].est_accesses() for i in idxs),
        reverse=True,
    )
    order: list[int] = []
    for rank in range(max(len(g) for g in ranked)):
        for group in ranked:
            if rank < len(group):
                order.append(group[rank])
    return order


def _noop_event(kind: str, **fields) -> None:
    return None


def _quarantine(
    outcome: PoolOutcome, emit, index: int, label: str, attempts: int,
    kind: str, error: str,
) -> None:
    outcome.poisoned.append(
        PoisonedCell(
            index=index, attempts=attempts, kind=kind, error=error, label=label
        )
    )
    emit(
        "exec_quarantine",
        index=index,
        label=label,
        attempts=attempts,
        failure=kind,
        error=error[-2000:],
    )


# ---------------------------------------------------------------------------
# Worker side.


def _worker_main(conn, tasks: Sequence[CellTask]) -> None:
    """Worker loop: receive (index, attempt), simulate, send the report.

    SIGINT is ignored so a Ctrl+C in the parent's terminal (delivered to
    the whole process group) leaves shutdown sequencing to the
    supervisor — which stores completed cells before dying.  The
    worker runs under the null tracer: a tracer active in the parent
    observes the parent process only.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        chaos_every = int(os.environ.get(CHAOS_KILL_ENV, "0") or 0)
    except ValueError:
        chaos_every = 0
    with activate(NULL_TRACER):
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, index, attempt = msg
            if chaos_every > 0 and attempt == 0 and index % chaos_every == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                report = tasks[index].run()
                conn.send(("done", index, attempt, report))
            except BaseException:
                try:
                    conn.send(("error", index, attempt, traceback.format_exc()))
                except (OSError, ValueError):
                    break


# ---------------------------------------------------------------------------
# Supervisor side.


class _Worker:
    __slots__ = ("proc", "conn", "index", "deadline")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.index: int | None = None  # in-flight task, None when idle
        self.deadline: float = 0.0


class _Supervisor:
    """Drives one batch: assignment, liveness, deadlines, retries."""

    def __init__(
        self,
        tasks: Sequence[CellTask],
        jobs: int,
        policy: RetryPolicy,
        outcome: PoolOutcome,
        on_result,
        emit,
    ) -> None:
        self.tasks = tasks
        self.jobs = jobs
        self.policy = policy
        self.outcome = outcome
        self.on_result = on_result
        self.emit = emit
        self.ctx = multiprocessing.get_context("fork")
        self.pending: deque[int] = deque(schedule_order(tasks))
        self.attempts = [0] * len(tasks)
        self.workers: list[_Worker] = []
        self.done = 0

    # -- lifecycle ----------------------------------------------------

    def spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.tasks),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self.workers.append(worker)
        return worker

    def shutdown(self) -> None:
        for worker in self.workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in self.workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()
        self.workers.clear()

    # -- bookkeeping --------------------------------------------------

    def assign(self, worker: _Worker, index: int) -> None:
        worker.index = index
        worker.deadline = time.monotonic() + self.policy.timeout_for(
            self.tasks[index].est_accesses()
        )
        worker.conn.send(("run", index, self.attempts[index]))

    def succeed(self, index: int, report: SimulationReport) -> None:
        self.outcome.attempts += 1
        self.outcome.reports[index] = report
        self.done += 1
        if self.on_result is not None:
            self.on_result(index, report)

    def fail(self, index: int, kind: str, error: str) -> None:
        self.attempts[index] += 1
        self.outcome.attempts += 1
        if kind == "timeout":
            self.outcome.timeouts += 1
        elif kind == "worker-death":
            self.outcome.worker_deaths += 1
        label = self.tasks[index].label
        if kind == "exception" or self.attempts[index] >= self.policy.max_attempts:
            _quarantine(
                self.outcome, self.emit, index, label, self.attempts[index],
                kind, error,
            )
            self.done += 1
        else:
            self.outcome.retries += 1
            self.emit(
                "exec_retry",
                index=index,
                label=label,
                attempt=self.attempts[index],
                failure=kind,
            )
            self.pending.append(index)

    def handle_message(self, worker: _Worker, msg) -> None:
        kind, index, _attempt, payload = msg
        worker.index = None
        if kind == "done":
            self.succeed(index, payload)
        else:
            self.fail(index, "exception", payload)

    def drain(self, worker: _Worker) -> bool:
        """Deliver a buffered final message from a dying/dead worker.

        Returns True when the in-flight cell was resolved by it — a
        worker killed just after sending its report must not cost a
        retry (and must never double-count the result).
        """
        try:
            if not worker.conn.poll(0):
                return False
            msg = worker.conn.recv()
        except Exception:
            return False
        self.handle_message(worker, msg)
        return True

    def reap(self, worker: _Worker, kind: str, error: str) -> None:
        """Remove a dead (or killed) worker, failing its in-flight cell."""
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join()
        if worker.index is not None and not self.drain(worker):
            self.fail(worker.index, kind, error)
            worker.index = None
        worker.conn.close()
        self.workers.remove(worker)

    # -- main loop ----------------------------------------------------

    def run(self) -> PoolOutcome:
        total = len(self.tasks)
        try:
            for _ in range(min(self.jobs, total)):
                self.spawn()
            while self.done < total:
                for worker in self.workers:
                    if not self.pending:
                        break
                    if worker.index is None:
                        self.assign(worker, self.pending.popleft())
                # The pool is resized below to every unresolved cell, so
                # with cells left some worker always holds one.
                busy = [w for w in self.workers if w.index is not None]
                if not busy:
                    break  # pragma: no cover - defensive
                ready = connection.wait(
                    [w.conn for w in busy] + [w.proc.sentinel for w in busy],
                    timeout=max(
                        0.0, min(w.deadline for w in busy) - time.monotonic()
                    ),
                )
                for worker in list(busy):
                    if worker not in self.workers:
                        continue  # already reaped this round
                    if worker.conn in ready:
                        try:
                            msg = worker.conn.recv()
                        except Exception:
                            # EOF or a torn pickle from a dying worker.
                            self.reap(
                                worker,
                                "worker-death",
                                f"worker pid {worker.proc.pid} died "
                                f"(exitcode {worker.proc.exitcode})",
                            )
                            continue
                        self.handle_message(worker, msg)
                    elif worker.proc.sentinel in ready:
                        self.reap(
                            worker,
                            "worker-death",
                            f"worker pid {worker.proc.pid} died "
                            f"(exitcode {worker.proc.exitcode})",
                        )
                now = time.monotonic()
                for worker in [w for w in self.workers if w.index is not None]:
                    if worker.deadline <= now:
                        index = worker.index
                        limit = self.policy.timeout_for(
                            self.tasks[index].est_accesses()
                        )
                        self.reap(
                            worker,
                            "timeout",
                            f"cell {index} exceeded its {limit:.1f}s "
                            "wall-clock deadline; worker killed",
                        )
                # Keep the pool sized to the remaining work.
                remaining = total - self.done
                while len(self.workers) < min(self.jobs, max(remaining, 0)):
                    self.spawn()
        finally:
            self.shutdown()
        return self.outcome


def _run_serial(
    tasks: Sequence[CellTask],
    outcome: PoolOutcome,
    on_result,
    emit,
) -> PoolOutcome:
    tracer = current()
    for index, task in enumerate(tasks):
        outcome.attempts += 1
        try:
            with tracer.span("task", cat="task", index=index, label=task.label):
                report = task.run()
        except Exception:
            _quarantine(
                outcome, emit, index, task.label, 1, "exception",
                traceback.format_exc(),
            )
            continue
        outcome.reports[index] = report
        if on_result is not None:
            on_result(index, report)
    return outcome


def run_supervised(
    tasks: Sequence[CellTask],
    jobs: int = 1,
    policy: RetryPolicy | None = None,
    on_result: Callable[[int, SimulationReport], None] | None = None,
    on_event: Callable[..., None] | None = None,
) -> PoolOutcome:
    """Run a batch under supervision; never raises for cell failures.

    ``on_result(index, report)`` fires in the parent as each cell
    completes (in completion order, not submission order) — callers use
    it to persist results incrementally, so an interrupt loses at most
    the in-flight cells.  ``on_event(kind, **fields)`` mirrors retry /
    quarantine decisions into the caller's recorder.  ``policy`` bounds
    the pool's attempts and deadlines; the serial path makes one attempt
    per cell and ignores it.  Reports come back indexed by submission
    order; quarantined cells leave ``None`` and an entry in
    ``outcome.poisoned``.

    The serial path records one ``task`` span per cell on the ambient
    tracer (:func:`~repro.obs.tracing.current`); pool workers run
    untraced.
    """
    tasks = list(tasks)
    outcome = PoolOutcome(reports=[None] * len(tasks))
    emit = on_event or _noop_event
    if not tasks:
        return outcome
    if jobs <= 1 or not fork_available():
        return _run_serial(tasks, outcome, on_result, emit)
    return _Supervisor(
        tasks, min(jobs, len(tasks)), policy or RetryPolicy(), outcome,
        on_result, emit,
    ).run()

