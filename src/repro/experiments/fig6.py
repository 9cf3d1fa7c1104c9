"""Fig. 6: energy breakdown, NDPExt vs Nexus.

The paper reports NDPExt saving 40.3% total energy over Nexus on
average: static energy follows the shorter execution time, DRAM energy
drops 8.3% (no metadata accesses, fewer extended-memory misses), and
interconnect energy falls from 6.6% to 3.2% of the total.

Shapes to check: NDPExt total < Nexus total on (nearly) every workload;
the static component shrinks proportionally to runtime; the interconnect
share falls.
"""

from __future__ import annotations

from repro.experiments.runner import DEFAULT_CONTEXT, Cell, ExperimentContext
from repro.util import render_table
from repro.workloads import SUITE

COMPONENTS = ("static_nj", "sram_nj", "ndp_dram_nj", "noc_nj", "cxl_nj", "ext_dram_nj")


def run(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = SUITE,
    verbose: bool = True,
) -> dict:
    context = context or DEFAULT_CONTEXT
    reports = context.run_many(
        [Cell(w, p) for w in workloads for p in ("nexus", "ndpext")]
    )
    result: dict[str, dict] = {}
    for wname, nexus, ndpext in zip(workloads, reports[0::2], reports[1::2]):
        norm = nexus.energy.total_nj or 1.0
        result[wname] = {
            "nexus": {c: getattr(nexus.energy, c) / norm for c in COMPONENTS},
            "ndpext": {c: getattr(ndpext.energy, c) / norm for c in COMPONENTS},
            "ndpext_total": ndpext.energy.total_nj / norm,
        }
    savings = [1.0 - r["ndpext_total"] for r in result.values()]
    if verbose:
        headers = ["workload", "policy"] + [c.replace("_nj", "") for c in COMPONENTS] + ["total"]
        rows = []
        for wname, r in result.items():
            for policy in ("nexus", "ndpext"):
                comps = r[policy]
                rows.append(
                    [wname, policy]
                    + [f"{comps[c]:.3f}" for c in COMPONENTS]
                    + [f"{sum(comps.values()):.3f}"]
                )
        print(render_table(headers, rows, title="Fig 6: energy, normalized to Nexus total"))
        print(
            f"mean energy saving of NDPExt over Nexus: "
            f"{sum(savings) / len(savings):.1%} (paper: 40.3%)"
        )
    return result
