"""Shared experiment infrastructure.

Every figure/table reproduction builds on the same three ingredients: a
system preset, a workload scale, and a set of policies.  This module
centralizes policy construction, runs simulations behind a two-layer
result cache — a bounded in-process LRU plus the persistent
content-addressed store of :mod:`repro.exec.cache` (experiments share
many (workload, policy) cells: Fig. 5, 6 and 7 all need the Nexus runs,
and repeated invocations reuse whole suites across processes) — fans
batches of cells across cores via :mod:`repro.exec.parallel`, and
provides the speedup arithmetic the paper's figures report.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.baselines import (
    HostJigsawPolicy,
    JigsawPolicy,
    NexusPolicy,
    StaticNucaPolicy,
    WhirlpoolPolicy,
    host_config,
)
from repro.core import NdpExtPolicy
from repro.exec.cache import ReportCache, cache_enabled, cache_root, cell_key
from repro.exec.parallel import (
    CellExecutionError,
    CellTask,
    fork_available,
    run_supervised,
)
from repro.faults import FaultSchedule
from repro.obs import NullRecorder
from repro.obs.tracing import current
from repro.sim import (
    DramCachePolicy,
    SimulationEngine,
    SimulationReport,
    SystemConfig,
    small,
    tiny,
)
from repro.sim.params import medium, paper_hbm, paper_hmc
from repro.util import geomean
from repro.workloads import SMALL, TINY, WorkloadScale, build
from repro.workloads.trace import Workload

# Each entry is a policy class, or a ``partial`` of one when the name
# stands for a variant: ``ndpext-static`` is NDPExt that never
# reconfigures (the ablation baseline of Figs. 5 and 9(e)).
POLICIES: dict[str, Callable[..., DramCachePolicy]] = {
    "jigsaw": JigsawPolicy,
    "whirlpool": WhirlpoolPolicy,
    "nexus": NexusPolicy,
    "ndpext-static": partial(NdpExtPolicy, mode="static"),
    "ndpext": NdpExtPolicy,
    "static-nuca": StaticNucaPolicy,
}

PRESETS: dict[str, Callable[[], SystemConfig]] = {
    "small": small,
    "small-hmc": lambda: small("hmc"),
    "medium": medium,
    "tiny": tiny,
    "paper": paper_hbm,
    "paper-hmc": paper_hmc,
}

MEDIUM_SCALE = SMALL.scaled(
    n_cores=32, footprint_bytes=SMALL.footprint_bytes * 2, processes=8
)

SCALES: dict[str, WorkloadScale] = {
    "small": SMALL,
    "small-hmc": SMALL,
    "medium": MEDIUM_SCALE,
    "tiny": TINY,
}


@dataclass
class Cell:
    """One requested simulation cell, before workloads are materialized.

    ``options`` are the keyword arguments of ``POLICIES[policy]``: a
    policy variant is plain data.  The cell key hashes what the engine
    runs (:func:`repro.exec.cache.cell_key`), so editing a variant
    misses the cache, while a spelled-out default, an alias such as
    ``ndpext-static`` or a renamed config hits it.  The policy
    ``"host"`` is the non-NDP host baseline (see
    :meth:`ExperimentContext.host_cell`).
    Experiments build lists of these and hand them to
    :meth:`ExperimentContext.run_many` for batched (and optionally
    parallel) execution.
    """

    workload: str
    policy: str
    config: SystemConfig | None = None
    scale: WorkloadScale | None = None
    options: dict = field(default_factory=dict)
    faults: FaultSchedule | None = None


@dataclass
class ExperimentContext:
    """Caches workloads and simulation reports across experiments.

    Reports live behind two cache layers keyed by the same
    content-addressed cell key (:func:`repro.exec.cache.cell_key`): a
    bounded in-process LRU of ``max_reports`` entries, and — unless
    ``REPRO_DISK_CACHE=0`` — the persistent on-disk store shared by all
    processes.  ``jobs`` sets the default fan-out width for
    :meth:`run_many` (the CLI's ``--jobs``); 1 means serial.
    """

    preset: str = "small"
    jobs: int = 1
    max_reports: int = 512
    cache_hits_mem: int = 0
    cache_hits_disk: int = 0
    cache_misses: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    quarantined_cells: int = 0
    _workloads: dict[tuple, Workload] = field(default_factory=dict)
    _reports: "OrderedDict[str, SimulationReport]" = field(
        default_factory=OrderedDict
    )
    _disk: ReportCache | None | str = "unset"

    @property
    def config(self) -> SystemConfig:
        return PRESETS[self.preset]()

    @property
    def scale(self) -> WorkloadScale:
        return SCALES.get(self.preset, SMALL)

    @property
    def disk_cache(self) -> ReportCache | None:
        """The persistent report cache, or None when disabled by env."""
        if self._disk == "unset":
            self._disk = ReportCache(cache_root()) if cache_enabled() else None
        return self._disk

    def counters(self) -> dict[str, int]:
        """The cache/resilience counters as one dict (exporters, tests)."""
        disk = self.disk_cache
        return {
            "cache_hits_mem": self.cache_hits_mem,
            "cache_hits_disk": self.cache_hits_disk,
            "cache_misses": self.cache_misses,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "quarantined_cells": self.quarantined_cells,
            "cache_quarantined": disk.quarantined if disk is not None else 0,
        }

    def clear(self) -> None:
        """Drop all in-process cached state and reset the counters.

        The persistent on-disk cache is left alone — delete its
        directory (``repro.exec.cache.cache_root()``) to cold-start.
        """
        self._workloads.clear()
        self._reports.clear()
        self._disk = "unset"
        self.cache_hits_mem = 0
        self.cache_hits_disk = 0
        self.cache_misses = 0
        self.retries = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.quarantined_cells = 0

    def workload(self, name: str, scale: WorkloadScale | None = None) -> Workload:
        scale = scale or self.scale
        key = (name, scale)
        if key not in self._workloads:
            # No span here: the registry opens workload.build around
            # actual generation only, so warm trace-store hits are not
            # double-counted as build time (they show up as the cache's
            # trace_load io span instead).
            self._workloads[key] = build(name, scale)
        return self._workloads[key]

    # ------------------------------------------------------------------
    # Cache plumbing.

    @staticmethod
    def _policy(cell: Cell) -> Callable[..., DramCachePolicy]:
        return HostJigsawPolicy if cell.policy == "host" else POLICIES[cell.policy]

    def _cell_key(self, cell: Cell) -> str:
        return cell_key(
            cell.workload,
            self._policy(cell),
            cell.config if cell.config is not None else self.config,
            cell.scale or self.scale,
            options=cell.options,
            faults=cell.faults,
        )

    def _remember(self, key: str, report: SimulationReport) -> None:
        """Insert into the bounded in-process LRU."""
        self._reports[key] = report
        self._reports.move_to_end(key)
        while len(self._reports) > self.max_reports:
            self._reports.popitem(last=False)

    def _lookup(
        self, key: str, recorder: NullRecorder | None
    ) -> SimulationReport | None:
        """Check memory then disk; counts the outcome on self + recorder."""
        rec = recorder or NullRecorder()
        if key in self._reports:
            self._reports.move_to_end(key)
            self.cache_hits_mem += 1
            rec.counter("runner.cache_hit_mem")
            return self._reports[key]
        disk = self.disk_cache
        if disk is not None:
            report = disk.get(key)
            if report is not None:
                self._remember(key, report)
                self.cache_hits_disk += 1
                rec.counter("runner.cache_hit_disk")
                return report
        self.cache_misses += 1
        rec.counter("runner.cache_miss")
        return None

    def _store(self, key: str, report: SimulationReport) -> None:
        with current().span("runner.cache_write", cat="io"):
            self._remember(key, report)
            disk = self.disk_cache
            if disk is not None:
                disk.put(key, report)

    def _task(self, cell: Cell, prebuild: bool = True) -> CellTask:
        """Turn a cell into a ready-to-run task.

        With ``prebuild=False`` (parallel batches) the workload is left
        lazy unless this context already holds it in memory: the worker
        that draws the task materializes the trace under the trace
        cache's single-builder lock, overlapping generation with
        simulation instead of serializing it all in the parent.
        """
        scale = cell.scale or self.scale
        label = f"{cell.workload}/{cell.policy}"
        config = cell.config if cell.config is not None else self.config
        factory = partial(self._policy(cell), **cell.options)
        if prebuild or (cell.workload, scale) in self._workloads:
            return CellTask(
                workload=self.workload(cell.workload, scale),
                config=config,
                policy_factory=factory,
                faults=cell.faults,
                label=label,
            )
        return CellTask(
            workload=None,
            config=config,
            policy_factory=factory,
            faults=cell.faults,
            workload_name=cell.workload,
            scale=scale,
            label=label,
        )

    # ------------------------------------------------------------------
    # Execution.

    def run(
        self,
        workload_name: str,
        policy_name: str,
        config: SystemConfig | None = None,
        scale: WorkloadScale | None = None,
        faults: FaultSchedule | None = None,
        recorder: NullRecorder | None = None,
    ) -> SimulationReport:
        """Run (or fetch) one simulation cell: ``run_many`` of one.

        A live ``recorder`` bypasses both result-cache layers entirely:
        the caller wants this run's event trace, which a cached report
        does not carry (and the recorded run must not poison the caches
        for trace-free callers either).
        """
        cell = Cell(workload_name, policy_name, config, scale, faults=faults)
        if recorder is None or not recorder.enabled:
            return self.run_many([cell], jobs=1, recorder=recorder)[0]
        recorder.counter("runner.recorded_runs")
        task = self._task(cell)
        engine = SimulationEngine(task.config, faults=faults, recorder=recorder)
        with current().span("runner.recorded_run"):
            return engine.run(task.workload, task.policy_factory())

    def run_many(
        self,
        cells: list[Cell],
        jobs: int | None = None,
        recorder: NullRecorder | None = None,
    ) -> list[SimulationReport]:
        """Run a batch of cells, fanning cache misses across processes.

        Cached cells (memory or disk) are served without simulation; the
        rest — deduplicated by cell key — fan out over the supervised
        worker pool (:func:`repro.exec.parallel.run_supervised`) with
        ``jobs`` workers (default: the context's ``jobs`` field).
        Reports come back in ``cells`` order and are bit-identical to
        serial execution, including under worker crashes (each death
        costs a retry, not the batch).

        Every cell is written to the report cache as it finishes, so a
        rerun of an interrupted sweep simulates only the cells it had not
        finished.  A cell that raises is quarantined on its first attempt
        (the same inputs would raise again); the rest of the batch still
        completes, after which a :class:`CellExecutionError` is raised.
        Options a cell's policy does not take raise ``TypeError`` while
        the keys are derived, before any cell runs.
        """
        jobs = self.jobs if jobs is None else jobs
        rec = recorder or NullRecorder()
        keys = [self._cell_key(cell) for cell in cells]
        resolved: dict[str, SimulationReport] = {}
        missing: dict[str, Cell] = {}
        for key, cell in zip(keys, cells):
            if key in resolved or key in missing:
                continue
            report = self._lookup(key, recorder)
            if report is None:
                missing[key] = cell
            else:
                resolved[key] = report
        if missing:
            # Serial batches (and cache-less runs) materialize workloads
            # in the parent as before; parallel batches hand workers
            # lazy tasks so trace generation overlaps simulation.
            prebuild = (
                jobs <= 1 or not fork_available() or not cache_enabled()
            )
            batch = list(missing.items())
            tasks = [self._task(cell, prebuild=prebuild) for _, cell in batch]

            def on_result(index: int, report: SimulationReport) -> None:
                key = batch[index][0]
                self._store(key, report)
                resolved[key] = report

            def on_event(kind: str, **fields) -> None:
                rec.event(kind, **fields)
                rec.counter(f"runner.{kind}")

            outcome = run_supervised(
                tasks, jobs=jobs, on_result=on_result, on_event=on_event
            )
            self.retries += outcome.retries
            self.timeouts += outcome.timeouts
            self.worker_deaths += outcome.worker_deaths
            self.quarantined_cells += len(outcome.poisoned)
            if outcome.poisoned:
                raise CellExecutionError(outcome.poisoned)
        return [resolved[key] for key in keys]

    def host_cell(
        self, workload_name: str, scale: WorkloadScale | None = None
    ) -> Cell:
        """The non-NDP host baseline cell for ``workload_name``."""
        return Cell(
            workload_name, "host", config=host_config(self.config), scale=scale
        )


# A module-level default context so benchmarks share cached results
# within one pytest session.
DEFAULT_CONTEXT = ExperimentContext()


def speedup_table(
    context: ExperimentContext,
    workload_names: list[str],
    policy_names: list[str],
    baseline: str = "host",
) -> dict[str, dict[str, float]]:
    """Speedups of each policy over the baseline, per workload.

    Mirrors Fig. 5's normalization: every bar is runtime(baseline) /
    runtime(policy).
    """
    grid = []
    for wname in workload_names:
        grid.append(
            context.host_cell(wname) if baseline == "host" else Cell(wname, baseline)
        )
        grid += [Cell(wname, pname) for pname in policy_names]
    reports = iter(context.run_many(grid))
    table: dict[str, dict[str, float]] = {}
    for wname in workload_names:
        base = next(reports)
        if base.runtime_cycles <= 0:
            raise ValueError(
                f"baseline {baseline!r} on {wname!r} reported "
                f"non-positive runtime ({base.runtime_cycles}); cannot normalize"
            )
        table[wname] = {}
        for pname in policy_names:
            report = next(reports)
            if report.runtime_cycles <= 0:
                raise ValueError(
                    f"policy {pname!r} on {wname!r} reported non-positive "
                    f"runtime ({report.runtime_cycles}); cannot normalize"
                )
            table[wname][pname] = base.runtime_cycles / report.runtime_cycles
    return table


def add_geomean_row(table: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    policies = next(iter(table.values())).keys() if table else []
    table = dict(table)
    table["geomean"] = {
        p: geomean([row[p] for w, row in table.items() if w != "geomean"])
        for p in policies
    }
    return table
