"""The benchmark's three workloads, driven through the package's public API.

Each workload is a *pass* that :func:`measure` repeats, with the run's
seed, while the run lasts.  A pass starts from a cold, private cache
directory, sets the simulation up, runs it, and returns a :class:`Pass`
holding host timings, simulated results and correctness checks.  Every
pass of one run simulates the same thing, step for step, so host times
are taken as the best pass (and, per engine step, the best of that
step across passes): on a shared machine that filters out the seconds
in which other tenants slowed the run.  Set-up time is the median.
:func:`measure_traced` repeats one pass under :class:`spans.SpanRecorder`
for the per-layer metrics.

* ``paper-mv`` — the Table II mesh (128 units, HBM3) at 6 MB per unit,
  ``mv`` at the paper preset's workload scale, ``ndpext``.  Set-up is
  dominated by consistent-hash ring construction.
* ``fig5-small`` — the Fig. 5 HBM grid on the ``small`` system: 13
  workloads x 5 policies plus the host baseline, 78 cells through
  ``ExperimentContext.run_many``, at 5,000 accesses per core.
* ``serve-storm`` — ``two_tenant_scenario`` on ``medium`` with the
  CLI's ``--storm`` faults, ``slo`` admission and 1,000-access batches,
  the first 320 batches of the trace.

In every workload a *batch* is one engine step: an epoch of a batch
cell, or one served request batch.  Host baselines that exist only to
give ``ndpext_speedup`` (``paper-mv``, ``serve-storm``) run once per
run, outside the timed pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro.workloads.registry as registry
from repro.baselines import HostJigsawPolicy, host_config
from repro.core import NdpExtPolicy
from repro.core.consistent import ConsistentRing
from repro.experiments import fig5
from repro.experiments.runner import PRESETS, SCALES, Cell, ExperimentContext
from repro.obs.histogram import LatencyHistogram
from repro.serve import ServeHarness, two_tenant_scenario
from repro.serve.loop import ServeLoop
from repro.sim import EngineOptions, SimulationEngine
from repro.sim.engine import EngineSession
from repro.sim.metrics import SimulationReport
from repro.sim.params import MB, paper_hbm
from repro.workloads import SMALL, SUITE, TINY
from repro.workloads.trace import Trace, Workload

from spans import SpanRecorder

# The serve CLI's --storm fault mix.
STORM = {"unit_failures": 1, "row_faults": 1, "crc_bursts": 1, "downtrains": 1}
# Fewest passes in a run: the medians and minima need at least three.
MIN_PASSES = 3


def now() -> float:
    return time.perf_counter()


def rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """What one pass measured and simulated."""

    setup_s: float
    run_s: float  # wall time of the pass, set-up included
    accesses: int  # trace accesses the timed pass simulated
    # (layer, host seconds) of the pass's timed segments, in call order;
    # every pass of one seed makes the same segments.
    segments: list[tuple[str, float]]
    batch_s: list[float]  # host seconds of each batch step, in order
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_rss_mb: float = 0.0
    # Simulated outputs, deterministic in the inputs.
    cells: dict[str, float] = field(default_factory=dict)  # label -> cycles
    ndpext_cycles: list[float] = field(default_factory=list)
    speedups: list[float] = field(default_factory=list)  # host / ndpext cycles
    # Simulated batch latencies (epoch durations for batch cells).
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    served: int = 0
    submitted: int = 0

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def cell_problem(label: str, report: SimulationReport, accesses: int) -> str | None:
    """What is wrong with one cell's report, if anything."""
    cycles = report.runtime_cycles
    if not (math.isfinite(cycles) and cycles > 0):
        return f"{label}: runtime_cycles {cycles!r} not positive and finite"
    counted = report.hits.l1_hits + report.hits.cache_accesses
    if counted > accesses:
        return f"{label}: {counted} L1 hits + cache accesses exceed {accesses} trace accesses"
    return None


def epoch_durations_ns(report: SimulationReport, cycle_ns: float) -> np.ndarray:
    """Simulated duration of each epoch (the cumulative cycles' steps)."""
    cumulative = np.asarray(report.per_epoch_cycles, dtype=np.float64)
    return np.diff(cumulative, prepend=0.0) * cycle_ns


class SegmentClock:
    """Times the outermost calls of some methods, in call order: the
    untraced runs' only hook.

    ``targets`` maps a layer name to ``(class, method)``.  A call made
    inside another timed call is part of that one, so the segments never
    overlap.  ``samples`` holds ``(layer, seconds, note)`` per call, where
    ``note(instance, result)`` is taken when the call returns.
    """

    def __init__(self, targets: dict[str, tuple[type, str]], note: Callable | None = None):
        self.targets = targets
        self.note = note or (lambda obj, result: None)
        self.samples: list[tuple[str, float, object]] = []
        self._patched: list[tuple[type, str, object]] = []

    def __enter__(self) -> "SegmentClock":
        samples, note, depth = self.samples, self.note, [0]

        def timer(layer: str, original):
            def timed(obj, *args, **kwargs):
                depth[0] += 1
                start = now()
                try:
                    result = original(obj, *args, **kwargs)
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    samples.append((layer, now() - start, note(obj, result)))
                return result

            return timed

        for layer, (owner, method) in self.targets.items():
            original = vars(owner)[method]
            self._patched.append((owner, method, original))
            setattr(owner, method, timer(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    def seconds(self, layer: str | None = None) -> list[float]:
        return [s for name, s, _note in self.samples if layer in (None, name)]

    def segments(self) -> list[tuple[str, float]]:
        return [(name, s) for name, s, _note in self.samples]


# ---------------------------------------------------------------------------
# Workload sizes: the benchmark's inputs, and their tiny self-test twins.


@dataclass(frozen=True)
class Sizes:
    preset: str
    scale: object  # WorkloadScale; its seed is replaced by the run's
    config: object = None  # SystemConfig override (paper-mv)
    workloads: tuple[str, ...] = SUITE
    batch_accesses: int = 1000
    max_batches: int | None = None


SIZES = {
    "paper-mv": {
        # Table II mesh and DRAM, unit cache cut from 256 MB to 6 MB so
        # a pass fits the run budget; the scale is the paper preset's.
        False: Sizes("paper", SCALES.get("paper", SMALL), paper_hbm().scaled(unit_cache_bytes=6 * MB)),
        True: Sizes("tiny", TINY, PRESETS["tiny"]()),
    },
    "fig5-small": {
        # The small system with 5,000 instead of 20,000 accesses per
        # core (two 40,000-access epochs per cell), so a run holds
        # several grids.
        False: Sizes("small", SMALL.scaled(accesses_per_core=5_000)),
        True: Sizes("tiny", TINY, workloads=("mv", "pr", "hotspot")),
    },
    "serve-storm": {
        False: Sizes("medium", SCALES["medium"], max_batches=320),
        True: Sizes("tiny", TINY, batch_accesses=500),
    },
}


# ---------------------------------------------------------------------------
# Passes.  ``baseline`` adds the untimed host baseline the pass needs for
# ``ndpext_speedup``; a run asks for it on its first pass only.


def paper_mv_pass(sizes: Sizes, seed: int, baseline: bool) -> Pass:
    config = sizes.config
    targets = {"ring": (ConsistentRing, "__init__"), "step": (EngineSession, "step")}
    with SegmentClock(targets) as clock:
        t0 = now()
        workload = registry.build("mv", sizes.scale.scaled(seed=seed))
        session = SimulationEngine(config, EngineOptions()).begin_session(
            workload, NdpExtPolicy()
        )
        t_setup = now()
        setup_rss = rss_mb()
        for epoch in workload.trace.epochs(config.epoch_accesses):
            session.step(epoch)
        ndpext = session.finish()
        t_end = now()
    n = len(workload.trace)
    result = Pass(
        setup_s=t_setup - t0,
        run_s=t_end - t0,
        accesses=n,
        segments=clock.segments(),
        batch_s=clock.seconds("step"),
        attempted=1,
        setup_rss_mb=setup_rss,
        served=1,
        submitted=1,
    )
    reports = [("mv/ndpext", ndpext)]
    if baseline:
        host = SimulationEngine(host_config(config)).run(workload, HostJigsawPolicy())
        reports.append(("mv/host", host))
        result.attempted += 1
        result.speedups.append(host.runtime_cycles / ndpext.runtime_cycles)
    for label, report in reports:
        problem = cell_problem(label, report, n)
        if problem:
            result.fail(1, problem)
    result.cells["mv/ndpext"] = ndpext.runtime_cycles
    result.ndpext_cycles.append(ndpext.runtime_cycles)
    result.latency.observe(epoch_durations_ns(ndpext, config.core.cycle_ns))
    return result


def fig5_pass(sizes: Sizes, seed: int, baseline: bool) -> Pass:
    # The host cells are part of the grid, so ``baseline`` changes nothing.
    scale = sizes.scale.scaled(seed=seed)
    targets = {"build": (registry, "build"), "step": (EngineSession, "step")}
    with SegmentClock(targets) as clock:
        t0 = now()
        # Set-up: the cold ``workloads.build`` calls made before the grid.
        lengths = {name: len(registry.build(name, scale).trace) for name in sizes.workloads}
        t_setup = now()
        setup_rss = rss_mb()
        context = ExperimentContext(preset=sizes.preset, jobs=1)
        names = list(sizes.workloads)
        cells = [context.host_cell(name, scale) for name in names] + [
            Cell(name, policy, scale=scale) for name in names for policy in fig5.POLICIES
        ]
        reports = context.run_many(cells, jobs=1)
        t_end = now()
    result = Pass(
        setup_s=t_setup - t0,
        run_s=t_end - t0,
        accesses=sum(lengths[cell.workload] for cell in cells),
        segments=clock.segments(),
        batch_s=clock.seconds("step"),
        attempted=len(cells),
        setup_rss_mb=setup_rss,
        served=len(cells),
        submitted=len(cells),
    )
    cycle_ns = context.config.core.cycle_ns
    by_label = {}
    for cell, report in zip(cells, reports):
        label = f"{cell.workload}/{cell.policy}"
        problem = cell_problem(label, report, lengths[cell.workload])
        if problem:
            result.fail(1, problem)
        result.cells[label] = report.runtime_cycles
        by_label[label] = report
    for name in names:
        ndpext = by_label[f"{name}/ndpext"]
        result.ndpext_cycles.append(ndpext.runtime_cycles)
        result.speedups.append(by_label[f"{name}/host"].runtime_cycles / ndpext.runtime_cycles)
        result.latency.observe(epoch_durations_ns(ndpext, cycle_ns))
    return result


def served_batch(loop: ServeLoop, batch):
    """What a ServeLoop.step served: (batch, simulated latency ns)."""
    if batch is None:
        return None
    return batch, loop.now_ns - batch.enqueued_ns


def host_replay(harness: ServeHarness, served: list) -> SimulationReport:
    """The served batches, in service order, as one batch run on the
    matched host system."""
    traces = [batch.trace for batch in served]
    replay = Workload(
        name="pr-served",
        streams=harness.workload.streams,
        trace=Trace(
            core=np.concatenate([t.core for t in traces]),
            addr=np.concatenate([t.addr for t in traces]),
            write=np.concatenate([t.write for t in traces]),
            sid=np.concatenate([t.sid for t in traces]),
        ),
        compute_cycles_per_access=harness.workload.compute_cycles_per_access,
    )
    return SimulationEngine(host_config(harness.config)).run(replay, HostJigsawPolicy())


def serve_pass(sizes: Sizes, seed: int, baseline: bool) -> Pass:
    scenario = two_tenant_scenario(
        workload="pr",
        policy="ndpext",
        seed=seed,
        batch_accesses=sizes.batch_accesses,
        max_batches=sizes.max_batches,
        wave_size=4,
        steps_per_wave=3,
        faults=STORM,
        admission="slo",
    )
    with SegmentClock({"step": (ServeLoop, "step")}, served_batch) as clock:
        t0 = now()
        harness = ServeHarness(scenario, preset=sizes.preset)
        t_setup = now()
        setup_rss = rss_mb()
        report = harness.run()
        t_end = now()
    steps = [(s, note) for _layer, s, note in clock.samples if note is not None]
    served = [batch for _s, (batch, _lat) in steps]
    n_served = sum(len(batch.trace) for batch in served)
    result = Pass(
        setup_s=t_setup - t0,
        run_s=t_end - t0,
        accesses=n_served,
        segments=clock.segments(),
        batch_s=[s for s, _note in steps],
        attempted=report.submitted,
        setup_rss_mb=setup_rss,
        served=report.completed,
        submitted=report.submitted,
    )
    for _s, (batch, latency_ns) in steps:
        if not (math.isfinite(latency_ns) and latency_ns >= 0):
            result.fail(1, f"batch {batch.batch_id}: latency {latency_ns!r} ns")
    accounted = (
        report.completed
        + report.rejected
        + report.shed
        + report.timed_out
        + report.drained_queued
        + report.resumed_skips
    )
    problems = [cell_problem(f"storm {seed}/ndpext", report.sim, n_served)]
    if accounted != report.submitted or len(served) != report.completed:
        problems.append(
            f"storm {seed}: submitted {report.submitted} != completed "
            f"{report.completed} + rejected {report.rejected} + shed "
            f"{report.shed} + timed out {report.timed_out} + drained "
            f"{report.drained_queued} + resumed {report.resumed_skips}"
        )
    if baseline:
        host = host_replay(harness, served)
        problems.append(cell_problem(f"storm {seed}/host", host, n_served))
        result.speedups.append(host.runtime_cycles / report.sim.runtime_cycles)
    problems = [text for text in problems if text]
    if problems:
        # A storm-level failure taints every batch the storm submitted.
        result.failed = report.submitted
        result.problems += problems
    result.cells[f"storm{seed}/ndpext"] = report.sim.runtime_cycles
    result.ndpext_cycles.append(report.sim.runtime_cycles)
    result.latency = report.latency
    return result


PASSES: dict[str, Callable[[Sizes, int, bool], Pass]] = {
    "paper-mv": paper_mv_pass,
    "fig5-small": fig5_pass,
    "serve-storm": serve_pass,
}


# ---------------------------------------------------------------------------
# Runs.


class Workdir:
    """Private cold cache directories inside the checkout, one per pass."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.count = 0

    def __call__(self, fn: Callable, *args):
        path = self.root / f"pass{self.count}"
        self.count += 1
        os.environ["REPRO_CACHE_DIR"] = str(path)
        gc.collect()
        try:
            return fn(*args)
        finally:
            shutil.rmtree(path, ignore_errors=True)


def sim_outputs(first: Pass) -> dict:
    """The simulated metrics and the digest material of a run, from its
    first pass (the one with the host baseline)."""
    return {
        "cells": first.cells,
        "sim_cycles": statistics.geometric_mean(first.ndpext_cycles),
        "ndpext_speedup": statistics.geometric_mean(first.speedups),
        "sim_p95_ns": first.latency.percentile(95.0),
        "sim_p99_ns": first.latency.percentile(99.0),
        "served_frac": first.served / first.submitted,
    }


def digest(outputs: dict) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def layers(p: Pass) -> list[str]:
    return [layer for layer, _s in p.segments]


def determinism_check(passes: list[Pass]) -> tuple[int, list[str]]:
    """Passes of one seed, traced or not, must simulate identical cycles
    in the same segments and batch steps."""
    first = passes[0]
    failed, problems = 0, []
    for index, p in enumerate(passes[1:], start=1):
        if (
            p.cells != first.cells
            or layers(p) != layers(first)
            or len(p.batch_s) != len(first.batch_s)
        ):
            failed += p.attempted
            problems.append(f"pass {index} simulated differently from pass 0")
    return failed, problems


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def best_pass(passes: list[Pass]) -> dict[str, float]:
    """Host seconds per layer of a pass made of every segment's best
    time across the passes (segment i of every pass does the same work),
    plus the best untimed remainder under ``"rest"``."""
    best = np.min([[s for _layer, s in p.segments] for p in passes], axis=0)
    totals: dict[str, float] = {}
    for layer, seconds in zip(layers(passes[0]), best):
        totals[layer] = totals.get(layer, 0.0) + float(seconds)
    totals["rest"] = min(p.run_s - sum(s for _layer, s in p.segments) for p in passes)
    return totals


def end_to_end(passes: list[Pass], outputs: dict) -> dict[str, float]:
    best = best_pass(passes)
    batch_ms = np.min([p.batch_s for p in passes], axis=0) * 1e3
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "run_s": sum(best.values()),
        "accesses_per_s": passes[0].accesses / best["step"],
        "peak_rss_mb": rss_mb(),
        "ndpext_speedup": outputs["ndpext_speedup"],
        "sim_cycles": outputs["sim_cycles"],
        "batch_ms_p50": percentile(batch_ms, 50),
        "batch_ms_p95": percentile(batch_ms, 95),
        "served_frac": outputs["served_frac"],
    }


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    outputs: dict
    notes: dict


def warm_up(name: str, workdir: Workdir) -> None:
    """A discarded tiny pass, so no timed pass carries the process's
    first-call costs (lazy imports, first numpy dispatch)."""
    workdir(PASSES[name], SIZES[name][True], 0, True)


def measure(name: str, seed: int, seconds: float, workdir: Workdir, tiny: bool = False) -> RunResult:
    """One untraced run: passes of one seed while ``seconds`` last."""
    run_pass, sizes = PASSES[name], SIZES[name][tiny]
    warm_up(name, workdir)
    start = now()
    passes = [workdir(run_pass, sizes, seed, True)]
    while len(passes) < MIN_PASSES or now() - start + passes[-1].run_s <= seconds:
        passes.append(workdir(run_pass, sizes, seed, False))
    failed, problems = determinism_check(passes)
    outputs = sim_outputs(passes[0])
    # A pass that failed the check has no segments to line up with.
    aligned = [p for p in passes if layers(p) == layers(passes[0]) and len(p.batch_s) == len(passes[0].batch_s)]
    return RunResult(
        metrics=end_to_end(aligned, outputs),
        attempted=sum(p.attempted for p in passes),
        failed=failed + sum(p.failed for p in passes),
        problems=problems + [text for p in passes for text in p.problems],
        outputs=outputs,
        notes={
            "passes": len(passes),
            "batch_samples": len(passes[0].batch_s),
            "accesses_per_pass": passes[0].accesses,
            # Printed, not bounded: they follow the storm's fault timing,
            # which the seed sets, more than any bound allows.
            "sim_p95_ns": outputs["sim_p95_ns"],
            "sim_p99_ns": outputs["sim_p99_ns"],
        },
    )


def per_layer(
    recorder: SpanRecorder,
    traced: Pass,
    trace_overhead: float,
    builds: list[tuple[int, tuple]],
    policies: list[NdpExtPolicy],
) -> dict[str, float]:
    totals = recorder.totals()

    def seconds(*layers: str) -> float:
        return sum(totals.get(layer, {}).get("s", 0.0) for layer in layers)

    def calls(layer: str) -> int:
        return int(totals.get(layer, {}).get("calls", 0))

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0)

    configured = calls("configure.solve")
    applied = sum(p.applied_reconfigs for p in policies)
    return {
        "ring.build_s": seconds("ring.build"),
        "ring.build_calls": calls("ring.build"),
        "ring.positions": sum(positions for positions, _key in builds),
        "ring.rebuild_frac": (
            (len(builds) - len({key for _p, key in builds})) / len(builds) if builds else 0.0
        ),
        "ring.lookup_s": seconds("ring.lookup"),
        "ring.decode_s": seconds("ring.decode"),
        "mapper.apply_s": seconds("mapper.apply"),
        "mapper.apply_calls": calls("mapper.apply"),
        "mapper.process_s": seconds("mapper.process"),
        "engine.begin_session_s": seconds("engine.begin_session"),
        "policy.setup_s": seconds("policy.setup"),
        "setup_rss_mb": traced.setup_rss_mb,
        "policy.begin_epoch_s": seconds("policy.begin_epoch"),
        "policy.process_s": seconds("policy.process"),
        "policy.end_epoch_s": seconds("policy.end_epoch"),
        "sampler.observe_s": seconds("sampler.observe"),
        "sampler.observe_calls": calls("sampler.observe"),
        "configure.solve_s": seconds("configure.solve"),
        "configure.solve_calls": configured,
        "assign.solve_s": seconds("assign.solve"),
        "slb.process_s": seconds("slb.process"),
        "engine.step_s": seconds("engine.step"),
        "engine.step_calls": calls("engine.step"),
        "engine.step_self_s": self_s("engine.step"),
        "engine.finish_s": seconds("engine.finish"),
        "baselines.process_s": seconds("baselines.process"),
        "baselines.epoch_s": seconds("baselines.epoch"),
        "workloads.build_s": seconds("workloads.build"),
        "workloads.build_calls": calls("workloads.build"),
        "exec.report_put_s": seconds("exec.report_put"),
        "exec.report_get_s": seconds("exec.report_get"),
        "serve.submit_s": seconds("serve.submit"),
        "serve.step_self_s": self_s("serve.step"),
        "serve.admit_s": seconds("serve.admit"),
        "health.observe_s": seconds("health.observe"),
        "slo.eval_s": seconds("slo.eval"),
        "faults.advance_s": seconds("faults.advance"),
        "policy.on_faults_s": seconds("policy.on_faults"),
        "reconfig.applied_frac": applied / configured if configured else 0.0,
        "layer_coverage": recorder.top_level_s() / traced.run_s,
        "trace_overhead": trace_overhead,
    }


def measure_traced(
    name: str, seed: int, workdir: Workdir, trace_path: Path | None, tiny: bool = False
) -> RunResult:
    """One traced run: a pass that warms the process up and runs the host
    baseline, then twice an untraced pass followed by the same pass
    traced.  The per-layer metrics come from the first traced pass;
    ``trace_overhead`` compares the best traced and untraced passes."""
    from repro.core.consistent import VIRTUAL_NODES

    run_pass, sizes = PASSES[name], SIZES[name][tiny]
    warm_up(name, workdir)
    first = workdir(run_pass, sizes, seed, True)
    # (positions, (salt, spots)) per ring build; NDPExt policies set up.
    builds: list[tuple[int, tuple]] = []
    policies: list[NdpExtPolicy] = []

    def on_ring_build(args, kwargs) -> None:
        spots = args[1] if len(args) > 1 else kwargs["spots"]
        salt = args[2] if len(args) > 2 else kwargs.get("salt", 0)
        builds.append((len(spots) * VIRTUAL_NODES, (salt, hash(tuple(spots)))))

    def on_policy_setup(args, kwargs) -> None:
        if isinstance(args[0], NdpExtPolicy):
            policies.append(args[0])

    hooks = {"ring.build": on_ring_build, "policy.setup": on_policy_setup}
    untraced: list[Pass] = []
    traced: list[Pass] = []
    for round_ in range(2):
        untraced.append(workdir(run_pass, sizes, seed, False))
        with SpanRecorder(hooks=None if round_ else hooks) as spans:
            traced.append(workdir(run_pass, sizes, seed, False))
        if not round_:
            recorder = spans
    overhead = sum(best_pass(traced).values()) / sum(best_pass(untraced).values()) - 1.0
    metrics = per_layer(recorder, traced[0], overhead, builds, policies)
    passes = [first] + untraced + traced
    failed, problems = determinism_check(passes)
    notes = {"spans": len(recorder.spans), "batch_samples": len(first.batch_s)}
    if trace_path is not None:
        notes["trace_events"] = recorder.write_chrome_trace(
            str(trace_path), meta={"workload": name, "seed": seed}
        )
        notes["trace_file"] = str(trace_path)
    return RunResult(
        metrics=metrics,
        attempted=sum(p.attempted for p in passes),
        failed=failed + sum(p.failed for p in passes),
        problems=problems + [text for p in passes for text in p.problems],
        outputs=sim_outputs(first),
        notes=notes,
    )
