"""The ``python -m repro bench`` harness.

Measures what the end-to-end benchmark (``perfbench/``) cannot see, and
writes one ``BENCH_<date>.json`` so numbers can be committed alongside
the code they describe:

* **kernels** — throughput of every kernel backend on one kernel-bound
  cell, the reports asserted bit-identical, and ``kernel_speedup``:
  numpy kernels over the pure-python reference loops.
* **engine_paper** — throughput on the full 128-unit paper mesh with a
  shrunk unit cache, the guard against collapses that only show at
  paper-scale topology.
* **paper_setup** — NDPExt set-up seconds, ring positions and peak RSS
  on the unshrunk paper preset (full runs only).
* **suite** — wall clock for a policy-comparison grid run three ways:
  serial with a cold cache, parallel (``--jobs``) with a cold cache, and
  serial again against the warm persistent cache.  The warm run must
  perform zero simulations.

``--quick`` shrinks everything to the tiny preset for CI smoke runs.
``--check PREV.json`` feeds the fresh result through the regression
gate (:mod:`repro.obs.regress`): warn-only by default, hard exit with
``--check-strict``.
"""

from __future__ import annotations

import datetime
import json
import os
import time

from repro.util import render_table


def _time(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def _assert_reports_identical(a, b, context: str) -> None:
    """Recursive dataclass-field equality — the timed backend runs must
    produce the same report bit for bit, or the speedup is meaningless."""
    from dataclasses import fields

    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if hasattr(va, "__dataclass_fields__"):
            _assert_reports_identical(va, vb, context)
        elif va != vb:
            raise AssertionError(
                f"{context}: report field {f.name} diverged: {va!r} != {vb!r}"
            )


def _kernel_cell(quick: bool):
    """The kernel-bound cell the backend speedup is measured on.

    A cell at the preset's own epoch size spends much of its wall clock
    in shared float math (policy configure, miss-curve sampling) that is
    identical across backends and dilutes the ratio; this cell enlarges
    the epoch so the keyed scans the backends actually swap dominate.
    """
    from dataclasses import replace

    from repro.experiments.runner import PRESETS
    from repro.workloads import SMALL, TINY, build

    if quick:
        scale = TINY.scaled(accesses_per_core=12_000)
        config = replace(PRESETS["tiny"](), epoch_accesses=12_000)
    else:
        scale = SMALL.scaled(accesses_per_core=40_000)
        config = replace(PRESETS["small"](), epoch_accesses=160_000)
    return build("pr", scale), config


def bench_kernels(quick: bool, repeats: int) -> dict:
    """Per-backend throughput on the kernel-bound cell.

    Both backends run the same workload ``repeats`` times
    (min-of-repeats wall clock on both sides — single runs on this class
    of shared machine are ±20% noisy) and the reports are asserted
    bit-identical before any ratio is published.  ``kernel_speedup`` is
    the headline: numpy kernels over the pure-python reference loops.
    """
    from repro.core import NdpExtPolicy
    from repro.sim import SimulationEngine
    from repro.sim.engine import EngineOptions

    workload, config = _kernel_cell(quick)
    n_accesses = len(workload.trace)
    backends: dict = {}
    reports: dict = {}
    for name in ("numpy", "python"):
        times = []
        for _ in range(repeats):
            engine = SimulationEngine(config, EngineOptions(backend=name))
            dt, report = _time(engine.run, workload, NdpExtPolicy())
            times.append(dt)
        best = min(times)
        reports[name] = report
        backends[name] = {
            "seconds_best": best,
            "seconds_all": times,
            "accesses_per_second": n_accesses / best if best else 0.0,
        }
    _assert_reports_identical(
        reports["numpy"], reports["python"], "backend numpy vs python"
    )
    aps_numpy = backends["numpy"]["accesses_per_second"]
    aps_python = backends["python"]["accesses_per_second"]
    return {
        "workload": "pr",
        "accesses": n_accesses,
        "epoch_accesses": config.epoch_accesses,
        "backends": backends,
        "kernel_speedup": aps_numpy / aps_python if aps_python else 0.0,
        "reports_identical": True,
    }


def bench_paper(repeats: int) -> dict:
    """Throughput on a paper-scale *topology*: the full 128-unit mesh
    with million-access epoch structure, with the workload footprint and
    trace length scaled down so the cell finishes inside the CI budget
    (full PAPER scale is a 128M-access, tens-of-GB run).
    """
    from repro.core import NdpExtPolicy
    from repro.experiments.runner import PRESETS
    from repro.sim import SimulationEngine
    from repro.sim.params import MB
    from repro.workloads import PAPER, build

    scale = PAPER.scaled(
        accesses_per_core=4_096, footprint_bytes=512 * MB
    )
    config = PRESETS["paper"]().scaled(
        epoch_accesses=131_072, unit_cache_bytes=4 * MB
    )
    workload = build("mv", scale)
    n_accesses = len(workload.trace)
    times = []
    for _ in range(repeats):
        dt, _report = _time(
            SimulationEngine(config).run, workload, NdpExtPolicy()
        )
        times.append(dt)
    best = min(times)
    return {
        "preset": "paper",
        "workload": "mv",
        "n_units": config.n_units,
        "accesses": n_accesses,
        "epoch_accesses": config.epoch_accesses,
        "sim_seconds_best": best,
        "sim_seconds_all": times,
        "accesses_per_second": n_accesses / best if best else 0.0,
    }


def _paper_setup_cell(preset: str, workload_name: str) -> dict:
    """Child-process body of :func:`bench_paper_setup`."""
    import resource

    from repro.core import NdpExtPolicy
    from repro.experiments.runner import PRESETS, SCALES
    from repro.sim import SimulationEngine
    from repro.workloads import SMALL, build

    config = PRESETS[preset]()
    workload = build(workload_name, SCALES.get(preset, SMALL))
    policy = NdpExtPolicy()
    setup_s, _session = _time(SimulationEngine(config).begin_session, workload, policy)
    return {
        "preset": preset,
        "workload": workload_name,
        "n_units": config.n_units,
        "unit_cache_mb": config.unit_cache_bytes / 2**20,
        "setup_s": setup_s,
        "ring_positions": policy.mapper.ring_positions(),
        # Linux reports ru_maxrss in kB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pid": os.getpid(),
    }


def bench_paper_setup(preset: str = "paper", workload_name: str = "mv") -> dict:
    """NDPExt set-up (``begin_session``) on the unshrunk paper preset.

    Unlike :func:`bench_paper`, which shrinks the unit cache until ring
    construction is negligible, this cell keeps Table II's 256 MB per
    unit, so ring construction and ring memory dominate.  It runs in a
    freshly spawned process so ``peak_rss_mb`` is the cell's own high
    water mark, not the bench process's.
    """
    import multiprocessing

    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_paper_setup_cell, (preset, workload_name))


def _suite_grid(workloads, policies):
    from repro.experiments.runner import Cell

    return [Cell(w, p) for w in workloads for p in policies]


def _run_suite(preset: str, workloads, policies, jobs: int) -> tuple[float, dict]:
    """One full grid pass in a fresh context; returns (seconds, counters)."""
    from repro.experiments.runner import ExperimentContext

    context = ExperimentContext(preset=preset, jobs=jobs)
    dt, _ = _time(context.run_many, _suite_grid(workloads, policies))
    counters = {
        "cache_hits_mem": context.cache_hits_mem,
        "cache_hits_disk": context.cache_hits_disk,
        "cache_misses": context.cache_misses,
    }
    return dt, counters


def bench_suite(preset: str, workloads, policies, jobs: int) -> dict:
    """Grid wall-clock: serial cold vs parallel cold vs warm cache."""
    result: dict = {
        "preset": preset,
        "workloads": list(workloads),
        "policies": list(policies),
        "cells": len(workloads) * len(policies),
        "jobs": jobs,
    }
    from repro.exec.cache import throwaway_cache_dir

    with throwaway_cache_dir(prefix="repro-bench-") as tmp:
        # The manager restores REPRO_CACHE_DIR on any exit; inside the
        # block we point it at per-phase subdirectories so the serial
        # and parallel passes each start cold.
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "serial")
        result["serial_cold_s"], result["serial_counters"] = _run_suite(
            preset, workloads, policies, jobs=1
        )
        # Same cache dir, fresh context: everything comes from disk.
        result["warm_s"], result["warm_counters"] = _run_suite(
            preset, workloads, policies, jobs=1
        )
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "parallel")
        result["parallel_cold_s"], result["parallel_counters"] = _run_suite(
            preset, workloads, policies, jobs=jobs
        )
    result["parallel_speedup"] = (
        result["serial_cold_s"] / result["parallel_cold_s"]
        if result["parallel_cold_s"]
        else 0.0
    )
    result["warm_speedup"] = (
        result["serial_cold_s"] / result["warm_s"] if result["warm_s"] else 0.0
    )
    return result


def run_bench(quick: bool = False, jobs: int | None = None) -> dict:
    from repro.exec.cache import code_stamp
    from repro.exec.parallel import auto_jobs

    if jobs is None:
        # At least 2 so the parallel pass actually exercises the pool.
        jobs = max(2, auto_jobs())
    if quick:
        preset = "tiny"
        workloads = ("pr", "hotspot")
        policies = ("ndpext", "nexus")
        repeats = 2
    else:
        preset = "small"
        workloads = ("pr", "hotspot", "recsys", "mv")
        policies = ("ndpext", "nexus", "ndpext-static", "jigsaw")
        repeats = 3
    result = {
        "date": datetime.date.today().isoformat(),
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "code_stamp": code_stamp()[:16],
        "kernels": bench_kernels(quick, max(repeats, 3)),
        "engine_paper": bench_paper(max(1, repeats - 1)),
    }
    if not quick:
        result["paper_setup"] = bench_paper_setup()
    result["suite"] = bench_suite(preset, workloads, policies, jobs)
    return result


HISTORY_CAP = 20


def _history_snapshot(payload: dict) -> dict:
    """The few headline numbers one bench run contributes to the rolling
    history carried inside the JSON (flat dotted keys so the regression
    gate can look them up the same way it reads the live payload)."""
    from repro.obs.regress import _lookup

    snap = {
        "date": payload.get("date"),
        "code_stamp": payload.get("code_stamp"),
        "quick": bool(payload.get("quick")),
    }
    for dotted in (
        "kernels.kernel_speedup",
        "kernels.backends.numpy.accesses_per_second",
        "engine_paper.accesses_per_second",
        "paper_setup.setup_s",
        "paper_setup.peak_rss_mb",
    ):
        value = _lookup(payload, dotted)
        if value is not None:
            snap[dotted] = value
    return snap


def roll_history(result: dict, previous: dict | None) -> None:
    """Attach the rolling throughput history to a fresh bench payload.

    The previous file's history is carried forward with the previous
    run's own headline numbers appended, capped at :data:`HISTORY_CAP`
    entries (oldest dropped).  Only entries recorded in the fresh run's
    mode (quick or full) are carried.  The regression gate compares the
    fresh run against the *best* of this history, so one slow baseline
    run can never mask a real regression ratchet-style.
    """
    from repro.obs.regress import same_mode

    history = []
    if previous is not None:
        entries = [*(previous.get("history") or []), _history_snapshot(previous)]
        history = same_mode(entries, bool(result.get("quick")))
    result["history"] = history[-HISTORY_CAP:]


def cmd_bench(args) -> None:
    jobs = getattr(args, "jobs", 1)
    result = run_bench(quick=args.quick, jobs=jobs if jobs > 1 else None)
    previous = None
    check_path = getattr(args, "check", None)
    if check_path and os.path.exists(check_path):
        from repro.obs.regress import load_bench

        try:
            previous = load_bench(check_path)
        except ValueError:
            previous = None
    roll_history(result, previous)
    out = args.out or f"BENCH_{result['date']}.json"
    with open(out, "w") as f:
        json.dump(result, f, indent=2)
    kernels = result["kernels"]
    paper = result["engine_paper"]
    suite = result["suite"]
    setup = result.get("paper_setup")
    setup_rows = (
        [
            [
                f"paper set-up ({setup['unit_cache_mb']:.0f} MB/unit, "
                f"{setup['ring_positions']:,} ring positions)",
                f"{setup['setup_s']:.2f} s, {setup['peak_rss_mb']:,.0f} MB peak RSS",
            ]
        ]
        if setup
        else []
    )
    backend_row = " / ".join(
        f"{name} {row['accesses_per_second']:,.0f}/s"
        for name, row in kernels["backends"].items()
    )
    print(
        render_table(
            ["metric", "value"],
            [
                ["kernel backends", backend_row],
                [
                    "kernel speedup (numpy vs python)",
                    f"{kernels['kernel_speedup']:.2f}x",
                ],
                [
                    f"paper mesh ({paper['n_units']} units) accesses/s",
                    f"{paper['accesses_per_second']:,.0f}",
                ],
                *setup_rows,
                ["suite cells", str(suite["cells"])],
                ["suite serial cold", f"{suite['serial_cold_s']:.2f} s"],
                [
                    f"suite parallel cold (jobs={suite['jobs']})",
                    f"{suite['parallel_cold_s']:.2f} s ({suite['parallel_speedup']:.2f}x)",
                ],
                ["suite warm cache", f"{suite['warm_s']:.2f} s ({suite['warm_speedup']:.2f}x)"],
                [
                    "warm run simulations",
                    str(suite["warm_counters"]["cache_misses"]),
                ],
            ],
            title=f"bench ({'quick' if result['quick'] else 'full'})",
        )
    )
    print(f"[bench] wrote {out}")
    _check_floors(result, args)
    if getattr(args, "check", None):
        _check_against(result, args)


def _check_floors(result: dict, args) -> None:
    """Absolute invariants (e.g. parallel_speedup > 1) — no baseline
    file required, so the gate holds on first runs too."""
    from repro.obs.regress import check_floors, floor_rows

    checks = check_floors(result)
    if not checks:
        return
    print(
        render_table(
            ["metric", "floor", "current", "status"],
            floor_rows(checks),
            title="absolute invariants",
        )
    )
    failed = [c for c in checks if c.failed]
    if failed:
        names = ", ".join(c.metric for c in failed)
        if getattr(args, "check_strict", False):
            raise SystemExit(f"[bench] BELOW FLOOR: {names}")
        print(
            f"[bench] warning: below floor: {names} "
            "(warn-only; use --check-strict to fail)"
        )


def _check_against(result: dict, args) -> None:
    """Compare the fresh result against ``args.check`` via the gate."""
    from repro.obs.regress import DEFAULT_THRESHOLD, check_bench, delta_rows

    strict = bool(getattr(args, "check_strict", False))
    if not os.path.exists(args.check):
        message = f"[bench] previous bench {args.check} not found; skipping check"
        if strict:
            raise SystemExit(message.replace("skipping check", "--check-strict"))
        print(message)
        return
    try:
        deltas, failed = check_bench(result, args.check)
    except ValueError as exc:
        if strict:
            raise SystemExit(f"[bench] {exc}") from exc
        print(f"[bench] check skipped: {exc}")
        return
    print(
        render_table(
            ["metric", "previous", "current", "regression", "status"],
            delta_rows(deltas),
            title=f"regression gate vs {args.check} (threshold {DEFAULT_THRESHOLD:.0%})",
        )
    )
    if failed:
        names = ", ".join(d.metric for d in failed)
        if strict:
            raise SystemExit(
                f"[bench] REGRESSED beyond {DEFAULT_THRESHOLD:.0%}: {names}"
            )
        print(
            f"[bench] warning: regressed beyond {DEFAULT_THRESHOLD:.0%}: {names} "
            "(warn-only; use --check-strict to fail)"
        )
    else:
        print(f"[bench] regression gate passed ({len(deltas)} metrics)")
