"""The resident serving loop.

:class:`ServeLoop` keeps one :class:`~repro.sim.engine.EngineSession`
(and therefore the policy runtime — miss-curve samplers, configurator,
placement tables) alive across epochs and feeds it request batches from
many named tenants:

* ``submit`` is the synchronous ingress edge: admission control per
  tenant (bounded queue quota), then global load shedding if the total
  backlog exceeds capacity — the caller always learns immediately what
  happened to its batch.
* ``step`` pops the highest-priority queued batch (FIFO within a
  tenant, deterministic tie-breaks) and runs it through the engine as
  one epoch; queued batches whose simulated deadline passed are dropped
  and counted as timed out before anything is scheduled.
* The clock is *simulated* time: ``now_ns`` is the engine's cumulative
  runtime converted through the core cycle time, so batch latencies,
  deadlines, and shedding decisions replay bit-identically.
* Every admitted batch is journaled (append-only, fsync'd) the moment
  it is accepted and again at its terminal outcome, so ``drain`` can
  stop serving at any point and a restarted loop resumes exactly the
  batches that never reached an outcome.

A fault schedule on the engine flows through unchanged: each step's
:class:`~repro.obs.timeline.EpochRecord` fault counts and the session's
:meth:`FaultState.health_summary` feed the
:class:`~repro.serve.health.HealthMonitor`, which forces capacity-aware
re-placement on unit loss and pauses reconfiguration while hardware is
flapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.histogram import LatencyHistogram
from repro.serve.admission import (
    REASON_DRAINING,
    REASON_RESUMED,
    REASON_UNKNOWN_TENANT,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.health import HealthMonitor
from repro.serve.journal import (
    OUTCOME_COMPLETED,
    OUTCOME_SHED,
    OUTCOME_TIMEOUT,
    ServeJournal,
)
from repro.serve.report import ServeReport, TenantStats
from repro.serve.tenants import Batch, TenantQueue, TenantSpec


@dataclass(frozen=True)
class ServeOptions:
    """Loop-wide robustness knobs (tenant specs can override quotas)."""

    default_max_queued: int = 8
    max_total_queued: int = 32
    flap_window: int = 8
    flap_threshold: int = 3


class ServeLoop:
    """One resident engine session serving many tenant queues."""

    def __init__(
        self,
        engine,
        workload,
        policy,
        tenants: list[TenantSpec],
        options: ServeOptions | None = None,
        journal_path=None,
        scenario_key: str = "",
        admission: AdmissionController | None = None,
        slo=None,
    ) -> None:
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.engine = engine
        self.policy = policy
        self.options = options or ServeOptions()
        self.recorder = engine.recorder
        self.queues: dict[str, TenantQueue] = {
            t.name: TenantQueue(t) for t in tenants
        }
        self.stats: dict[str, TenantStats] = {
            t.name: TenantStats() for t in tenants
        }
        self.latency = LatencyHistogram()
        # Both optional hooks default to the pre-SLO behavior: fixed
        # quota admission and no objective evaluation — a loop built
        # without them is bit-identical to one predating the SLO layer.
        self.slo = slo
        self.admission = admission or AdmissionController(
            self.options.default_max_queued, self.options.max_total_queued
        )
        self.health = HealthMonitor(
            policy,
            self.recorder,
            flap_window=self.options.flap_window,
            flap_threshold=self.options.flap_threshold,
        )
        self.journal = (
            ServeJournal(journal_path, scenario_key=scenario_key)
            if journal_path is not None
            else None
        )
        self.session = engine.begin_session(workload, policy)
        self.resumed_skips = 0
        self.epochs = 0
        self._draining = False
        self._finished = False

    # -- clock ----------------------------------------------------------

    @property
    def now_ns(self) -> float:
        """Simulated time elapsed: cumulative engine cycles in ns."""
        return self.session.cycles_total * self.engine.config.core.cycle_ns

    # -- ingress --------------------------------------------------------

    def submit(self, batch: Batch) -> AdmissionDecision:
        """Offer one batch; returns synchronously what happened to it."""
        stats = self.stats.get(batch.tenant)
        if stats is None:
            return AdmissionDecision(False, REASON_UNKNOWN_TENANT)
        stats.submitted += 1
        if self.journal is not None and self.journal.is_done(batch.key):
            # Already reached a terminal outcome in a previous run of
            # this scenario: resume recomputes nothing journaled.
            stats.resumed += 1
            self.resumed_skips += 1
            return AdmissionDecision(False, REASON_RESUMED)
        if self._draining:
            stats.rejected += 1
            return AdmissionDecision(False, REASON_DRAINING)
        queue = self.queues[batch.tenant]
        decision = self.admission.admit(queue)
        if not decision:
            stats.rejected += 1
            if self.slo is not None:
                self.slo.on_reject(batch.tenant)
            self.recorder.event(
                "serve_reject",
                tenant=batch.tenant,
                batch=batch.batch_id,
                reason=decision.reason,
            )
            return decision
        stats.admitted += 1
        now = self.now_ns
        batch.enqueued_ns = now
        if queue.spec.deadline_ns is not None:
            batch.deadline_ns = now + queue.spec.deadline_ns
        queue.batches.append(batch)
        if self.journal is not None:
            self.journal.journal_queued(
                batch.key,
                tenant=batch.tenant,
                batch=batch.batch_id,
                start=batch.start,
                stop=batch.stop,
                enqueued_ns=batch.enqueued_ns,
                deadline_ns=batch.deadline_ns,
            )
        self._shed_overload()
        return decision

    def _shed_overload(self) -> None:
        now = self.now_ns
        for victim in self.admission.select_shed(self.queues):
            stats = self.stats[victim.tenant]
            stats.shed += 1
            if self.slo is not None:
                self.slo.on_shed(victim.tenant)
            self.recorder.event(
                "serve_shed",
                tenant=victim.tenant,
                batch=victim.batch_id,
                priority=self.queues[victim.tenant].spec.priority,
                queued_ns=now - victim.enqueued_ns,
            )
            if self.journal is not None:
                self.journal.journal_done(victim.key, OUTCOME_SHED)

    # -- serving --------------------------------------------------------

    def _health_summary(self) -> dict | None:
        fault_state = self.session.fault_state
        return fault_state.health_summary() if fault_state is not None else None

    def _expire_deadlines(self) -> int:
        """Drop queued batches whose simulated deadline already passed."""
        now = self.now_ns
        expired: list[Batch] = []
        for queue in self.queues.values():
            keep = [
                b
                for b in queue.batches
                if b.deadline_ns is None or b.deadline_ns > now
            ]
            if len(keep) != len(queue.batches):
                expired.extend(
                    b
                    for b in queue.batches
                    if b.deadline_ns is not None and b.deadline_ns <= now
                )
                queue.batches.clear()
                queue.batches.extend(keep)
        for batch in sorted(expired, key=lambda b: b.batch_id):
            stats = self.stats[batch.tenant]
            stats.timed_out += 1
            if self.slo is not None:
                self.slo.on_timeout(batch.tenant)
            self.recorder.event(
                "serve_timeout",
                tenant=batch.tenant,
                batch=batch.batch_id,
                deadline_ns=batch.deadline_ns,
                now_ns=now,
            )
            if self.journal is not None:
                self.journal.journal_done(batch.key, OUTCOME_TIMEOUT)
        return len(expired)

    def _next_batch(self) -> Batch | None:
        """Highest priority first; FIFO within a tenant; deterministic
        (enqueue time, batch id) tie-break across equal-priority tenants."""
        candidates = [q for q in self.queues.values() if len(q)]
        if not candidates:
            return None
        queue = min(
            candidates,
            key=lambda q: (
                -q.spec.priority,
                q.head.enqueued_ns,
                q.head.batch_id,
            ),
        )
        return queue.batches.popleft()

    def step(self) -> Batch | None:
        """Serve one queued batch through the engine; None when idle."""
        if self._finished:
            raise RuntimeError("ServeLoop already finished")
        self._expire_deadlines()
        batch = self._next_batch()
        if batch is None:
            return None
        record = self.session.step(batch.trace)
        self.epochs += 1
        latency = self.now_ns - batch.enqueued_ns
        stats = self.stats[batch.tenant]
        stats.completed += 1
        stats.latency.observe([latency])
        self.latency.observe([latency])
        if self.journal is not None:
            self.journal.journal_done(batch.key, OUTCOME_COMPLETED)
        self.health.observe(
            record.epoch,
            bool(record.fault_units or record.fault_rows),
            self._health_summary(),
        )
        if self.slo is not None:
            self.slo.on_complete(batch.tenant, latency)
            self.slo.end_epoch(record.epoch)
        return batch

    def run_until_idle(self, max_steps: int | None = None) -> int:
        """Serve queued batches until empty (or ``max_steps``)."""
        steps = 0
        while max_steps is None or steps < max_steps:
            if self.step() is None:
                break
            steps += 1
        return steps

    # -- shutdown -------------------------------------------------------

    @property
    def queued(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def drain(self) -> int:
        """Graceful shutdown: stop admitting, leave the backlog journaled.

        The in-flight batch (if any) already finished — ``step`` is
        synchronous — and every queued batch was journaled ``queued`` at
        admission with no terminal outcome, so a restarted loop resumes
        exactly these.  Returns the number of batches left behind.
        """
        self._draining = True
        return self.queued

    def snapshot_report(self, scenario: str = "") -> ServeReport:
        """A point-in-time :class:`ServeReport` for the live endpoints.

        Unlike :meth:`finish` this closes nothing: the session stays
        resident, the health monitor keeps its open window, and the
        loop continues serving afterwards.  ``sim`` is ``None`` — the
        engine-level report only exists once the session finishes.
        """
        return ServeReport(
            scenario=scenario,
            tenants=self.stats,
            latency=self.latency,
            epochs=self.epochs,
            reconfigs=getattr(self.policy, "applied_reconfigs", 0),
            health_reconfig_requests=self.health.reconfig_requests,
            degraded_windows=self.health.windows_view(),
            final_health=self._health_summary(),
            drained_queued=self.queued,
            resumed_skips=self.resumed_skips,
            sim=None,
            slo=self.slo.status() if self.slo is not None else None,
        )

    def finish(self, scenario: str = "") -> ServeReport:
        """Close the session and assemble the :class:`ServeReport`."""
        if self._finished:
            raise RuntimeError("ServeLoop already finished")
        self._finished = True
        drained = self.queued
        if self.slo is not None:
            self.slo.emit_status()
        sim = self.session.finish()
        if self.journal is not None:
            self.journal.close()
        return ServeReport(
            scenario=scenario,
            tenants=self.stats,
            latency=self.latency,
            epochs=self.epochs,
            reconfigs=getattr(self.policy, "applied_reconfigs", 0),
            health_reconfig_requests=self.health.reconfig_requests,
            degraded_windows=self.health.finish(),
            final_health=self._health_summary(),
            drained_queued=drained,
            resumed_skips=self.resumed_skips,
            sim=sim,
            slo=self.slo.status() if self.slo is not None else None,
        )
