"""Section V-D: consistent hashing vs bulk invalidation at reconfiguration.

NDPExt remaps stream data with consistent hashing so a reconfiguration
only moves the elements whose ring spot changed; the paper measures 9.4%
less invalidation traffic and a 3.7% speedup over bulk invalidation.

We run the dynamic policy in both placement modes and report, per
workload: invalidated entries (cache contents dropped at epoch
boundaries), preserved/moved entries, and the runtime ratio.

Shapes to check: consistent hashing invalidates less and is never
slower; the speedup is a few percent.
"""

from __future__ import annotations

from repro.experiments.runner import DEFAULT_CONTEXT, Cell, ExperimentContext
from repro.util import geomean, render_table

WORKLOADS = ("pr", "recsys", "bfs", "cc", "gnn")

PLACEMENTS = ("consistent", "hash")


def run(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = WORKLOADS,
    verbose: bool = True,
) -> dict:
    context = context or DEFAULT_CONTEXT
    reports = context.run_many(
        [
            Cell(wname, "ndpext", options={"placement": placement})
            for wname in workloads
            for placement in PLACEMENTS
        ]
    )
    result: dict[str, dict] = {}
    for wname, consistent, bulk in zip(workloads, reports[0::2], reports[1::2]):
        result[wname] = {
            "bulk_invalidations": bulk.reconfig_invalidations,
            "consistent_invalidations": consistent.reconfig_invalidations,
            "preserved": consistent.reconfig_movements,
            "speedup": bulk.runtime_cycles / consistent.runtime_cycles,
        }
    if verbose:
        rows = [
            [
                w,
                r["bulk_invalidations"],
                r["consistent_invalidations"],
                r["preserved"],
                f"{r['speedup']:.3f}",
            ]
            for w, r in result.items()
        ]
        print(
            render_table(
                ["workload", "inval (bulk)", "inval (consistent)", "preserved", "speedup"],
                rows,
                title="Sec V-D: consistent hashing vs bulk invalidation",
            )
        )
        reductions = [
            1.0 - r["consistent_invalidations"] / r["bulk_invalidations"]
            for r in result.values()
            if r["bulk_invalidations"]
        ]
        mean_red = sum(reductions) / len(reductions) if reductions else 0.0
        print(
            f"mean invalidation reduction {mean_red:.1%} (paper 9.4%); "
            f"geomean speedup {geomean([r['speedup'] for r in result.values()]):.3f} (paper 1.037)"
        )
    return result
