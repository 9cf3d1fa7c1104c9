"""Fig. 7: interconnect latency and miss rate, NDPExt vs Nexus.

Two series per workload: the average interconnect latency of a request
(the paper's hotspot example: 113 ns under Nexus falling to 38 ns under
NDPExt thanks to small replication groups), and the DRAM-cache miss rate
(stream-level block prefetching cuts it for spatially-local workloads;
replication may raise it slightly, e.g. mv).

Also covers the Section VII-A metadata observation: the baselines'
128 kB metadata cache hits >95% on regular workloads but degrades
sharply on large-scale graph workloads.

Shapes to check: NDPExt interconnect latency <= Nexus on most
workloads; NDPExt miss rate < Nexus for affine-heavy workloads; the
baseline metadata hit penalty is much larger for graph workloads.
"""

from __future__ import annotations

from repro.experiments.runner import DEFAULT_CONTEXT, Cell, ExperimentContext
from repro.util import render_table

WORKLOADS = ("recsys", "mv", "hotspot", "pathfinder", "pr", "bfs", "cc", "tc")


def run(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = WORKLOADS,
    verbose: bool = True,
) -> dict:
    context = context or DEFAULT_CONTEXT
    reports = context.run_many(
        [Cell(w, p) for w in workloads for p in ("nexus", "ndpext")]
    )
    result: dict[str, dict] = {}
    for wname, nexus, ndpext in zip(workloads, reports[0::2], reports[1::2]):
        result[wname] = {
            "nexus_ic_ns": nexus.avg_interconnect_ns,
            "ndpext_ic_ns": ndpext.avg_interconnect_ns,
            "nexus_miss": nexus.hits.miss_rate,
            "ndpext_miss": ndpext.hits.miss_rate,
            "nexus_meta_ns": nexus.breakdown.metadata_ns
            / max(1, nexus.hits.cache_accesses),
            "ndpext_meta_ns": ndpext.breakdown.metadata_ns
            / max(1, ndpext.hits.cache_accesses),
        }
    if verbose:
        headers = [
            "workload",
            "ic ns (nexus)",
            "ic ns (ndpext)",
            "miss (nexus)",
            "miss (ndpext)",
            "meta ns (nexus)",
            "meta ns (ndpext)",
        ]
        rows = [
            [
                w,
                f"{r['nexus_ic_ns']:.1f}",
                f"{r['ndpext_ic_ns']:.1f}",
                f"{r['nexus_miss']:.3f}",
                f"{r['ndpext_miss']:.3f}",
                f"{r['nexus_meta_ns']:.1f}",
                f"{r['ndpext_meta_ns']:.1f}",
            ]
            for w, r in result.items()
        ]
        print(
            render_table(
                headers, rows, title="Fig 7: interconnect latency and miss rate"
            )
        )
    return result
