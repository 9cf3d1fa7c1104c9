"""Fault injection & graceful degradation sweeps.

Not a paper figure: a robustness study enabled by the fault layer in
:mod:`repro.faults`.  Two sweeps:

* **unit failure** — an NDP unit's memory vault fail-stops mid-run.
  NDPExt's consistent-hash remap recovery (evict the dead unit's ring
  spots, re-optimize around the survivors) is compared against the
  fail-stop fallback every baseline gets for free (lost lines bypass to
  extended memory) on both NDPExt itself and Nexus.  The remap variant
  must finish the post-failure epochs strictly faster.
* **link degradation** — transient CXL CRC-retry bursts and sustained
  lane down-training (x16 -> x8 -> x4).  Reports the retry/serialization
  penalties and the end-to-end slowdown.

Shapes to check: remap recovery beats fail-stop after the failure;
narrower links cost more only in proportion to extended-memory traffic.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.runner import DEFAULT_CONTEXT, Cell, ExperimentContext
from repro.faults import CxlCrcBurst, CxlLaneDowntrain, FaultSchedule, UnitFailure
from repro.util import render_table

WORKLOADS = ("pr",)
FAIL_EPOCH = 3

# variant -> (policy, options).
VARIANTS = {
    "ndpext-remap": ("ndpext", {"name": "ndpext-remap"}),
    "ndpext-failstop": (
        "ndpext",
        {"fault_recovery": False, "name": "ndpext-failstop"},
    ),
    "nexus-failstop": ("nexus", {}),
}


def _post_failure_cycles(report, fail_epoch: int) -> float:
    """Cycles spent from the failure epoch to the end of the run."""
    cumulative = report.per_epoch_cycles
    before = cumulative[fail_epoch - 1] if fail_epoch >= 1 else 0.0
    return report.runtime_cycles - before


def run_unit_failure(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = WORKLOADS,
    fail_epoch: int = FAIL_EPOCH,
    fail_unit: int = 0,
    verbose: bool = True,
) -> dict:
    context = context or DEFAULT_CONTEXT
    # The faulted runs depend on each clean run's epoch count (to place
    # the failure), so the clean batch runs first.
    clean_cells = [
        Cell(wname, policy, options=options)
        for wname in workloads
        for policy, options in VARIANTS.values()
    ]
    clean_reports = context.run_many(clean_cells)
    # Short runs (test scales) have few epochs: strike no later than the
    # final one so the failure always lands.
    whens = [
        max(1, min(fail_epoch, len(clean.per_epoch_cycles) - 1))
        for clean in clean_reports
    ]
    faulted_reports = context.run_many(
        [
            replace(
                cell,
                faults=FaultSchedule(
                    (UnitFailure(epoch=when, unit=fail_unit),), seed=1
                ),
            )
            for cell, when in zip(clean_cells, whens)
        ]
    )
    runs = iter(zip(clean_reports, faulted_reports, whens))
    result: dict[str, dict] = {}
    for wname in workloads:
        row: dict[str, dict] = {}
        for vname in VARIANTS:
            clean, faulted, when = next(runs)
            row[vname] = {
                "clean_cycles": clean.runtime_cycles,
                "faulted_cycles": faulted.runtime_cycles,
                "fail_epoch": when,
                "post_failure_cycles": _post_failure_cycles(faulted, when),
                "slowdown": faulted.runtime_cycles / clean.runtime_cycles,
                "demoted": faulted.faults.demoted_requests,
                "fault_invalidations": faulted.faults.fault_invalidations,
                "fault_movements": faulted.faults.fault_movements,
            }
        result[wname] = row
    if verbose:
        rows = []
        for wname, row in result.items():
            for vname, r in row.items():
                rows.append(
                    [
                        wname,
                        vname,
                        f"{r['slowdown']:.3f}",
                        f"{r['post_failure_cycles']:.3e}",
                        r["demoted"],
                        r["fault_invalidations"],
                        r["fault_movements"],
                    ]
                )
        print(
            render_table(
                [
                    "workload",
                    "variant",
                    "slowdown",
                    "post-fail cycles",
                    "demoted",
                    "inval",
                    "preserved",
                ],
                rows,
                title=f"Degradation: unit {fail_unit} fail-stop",
            )
        )
    return result


def run_link_degradation(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = WORKLOADS,
    verbose: bool = True,
) -> dict:
    context = context or DEFAULT_CONTEXT
    lanes = context.config.cxl.lanes
    scenarios = {
        "crc-burst": FaultSchedule(
            (CxlCrcBurst(epoch=2, duration=2, retry_prob=0.3),), seed=2
        ),
        f"downtrain-x{max(1, lanes // 2)}": FaultSchedule(
            (CxlLaneDowntrain(epoch=2, lanes=max(1, lanes // 2)),), seed=2
        ),
        f"downtrain-x{max(1, lanes // 4)}": FaultSchedule(
            (CxlLaneDowntrain(epoch=2, lanes=max(1, lanes // 4)),), seed=2
        ),
    }
    reports = iter(
        context.run_many(
            [
                Cell(wname, "ndpext", faults=schedule)
                for wname in workloads
                for schedule in (None, *scenarios.values())
            ]
        )
    )
    result: dict[str, dict] = {}
    for wname in workloads:
        clean = next(reports)
        row: dict[str, dict] = {}
        for sname in scenarios:
            faulted = next(reports)
            row[sname] = {
                "slowdown": faulted.runtime_cycles / clean.runtime_cycles,
                "crc_retries": faulted.faults.crc_retries,
                "crc_reissues": faulted.faults.crc_reissues,
                "penalty_ns": faulted.faults.penalty_ns,
                "min_lanes": faulted.faults.min_lanes,
            }
        result[wname] = row
    if verbose:
        rows = [
            [
                wname,
                sname,
                f"{r['slowdown']:.3f}",
                r["crc_retries"],
                r["crc_reissues"],
                f"{r['penalty_ns']:.1f}",
                r["min_lanes"],
            ]
            for wname, row in result.items()
            for sname, r in row.items()
        ]
        print(
            render_table(
                [
                    "workload",
                    "scenario",
                    "slowdown",
                    "retries",
                    "reissues",
                    "penalty ns",
                    "min lanes",
                ],
                rows,
                title="Degradation: CXL link faults (ndpext)",
            )
        )
    return result


def run(context: ExperimentContext | None = None, verbose: bool = True) -> dict:
    context = context or DEFAULT_CONTEXT
    return {
        "unit_failure": run_unit_failure(context, verbose=verbose),
        "link_degradation": run_link_degradation(context, verbose=verbose),
    }
