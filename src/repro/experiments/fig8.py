"""Fig. 8: sensitivity to NDP scale and CXL link latency.

(a) Speedup of NDPExt over Nexus as the system grows: more stacks (same
total units), fewer/more units, down to a single unit where the design
degenerates to a conventional DRAM cache and the win comes from the
stream abstraction alone (paper: 1.16x).  Shape: the speedup grows with
stack count / core count because interconnect costs — what NDPExt's
placement attacks — grow with distance; the single-unit speedup is the
smallest but still > 1.

(b) Speedup of NDPExt over Nexus vs CXL link latency (50..400 ns).
Shape: monotonically increasing (paper: 1.33x at 50 ns to 1.50x at
400 ns) because expensive misses reward NDPExt's lower miss rate.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.runner import DEFAULT_CONTEXT, Cell, ExperimentContext
from repro.util import geomean, render_table
from repro.workloads import REPRESENTATIVE

# (label, stacks_x, stacks_y, mesh_x, mesh_y) — total units vary like the
# paper's stack/core sweeps, scaled to the small preset.
SCALE_POINTS = (
    ("1x(4x4)", 1, 1, 4, 4),  # one big stack, 16 units
    ("4x(2x2)", 2, 2, 2, 2),  # default: 4 stacks
    ("16x(1x1)", 4, 4, 1, 1),  # many small stacks, 16 units
    ("1x(2x2)", 1, 1, 2, 2),  # scaled-down: 4 units
    ("8x(2x2)", 4, 2, 2, 2),  # scaled-up: 32 units
)

CXL_LATENCIES_NS = (50.0, 100.0, 200.0, 400.0)


def _speedups(context: ExperimentContext, configs: dict, workloads) -> dict:
    """Geomean NDPExt-over-Nexus speedup per config, from one batch."""
    reports = context.run_many(
        [
            Cell(wname, policy, config=config)
            for config in configs.values()
            for wname in workloads
            for policy in ("ndpext", "nexus")
        ]
    )
    speedups = [
        nexus.runtime_cycles / ndpext.runtime_cycles
        for ndpext, nexus in zip(reports[0::2], reports[1::2])
    ]
    n = len(workloads)
    return {
        label: geomean(speedups[i * n : (i + 1) * n])
        for i, label in enumerate(configs)
    }


def run_scaling(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = REPRESENTATIVE,
    verbose: bool = True,
) -> dict[str, float]:
    context = context or DEFAULT_CONTEXT
    base = context.config
    configs: dict[str, object] = {
        label: base.scaled(
            name=f"{base.name}-{label}", stacks_x=sx, stacks_y=sy, mesh_x=mx, mesh_y=my
        )
        for label, sx, sy, mx, my in SCALE_POINTS
    }
    # Single unit: conventional DRAM cache; the static variants isolate
    # the stream abstraction (no configuration algorithm needed).
    configs["single-unit"] = base.scaled(
        name=f"{base.name}-1unit", stacks_x=1, stacks_y=1, mesh_x=1, mesh_y=1
    )
    result = _speedups(context, configs, workloads)
    if verbose:
        rows = [[label, f"{x:.2f}"] for label, x in result.items()]
        print(
            render_table(
                ["system", "ndpext/nexus"],
                rows,
                title="Fig 8(a): speedup vs NDP scale (stacks x units)",
            )
        )
        print("paper shape: grows with stacks/cores; 1.16x at a single unit")
    return result


def run_cxl(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = REPRESENTATIVE,
    verbose: bool = True,
) -> dict[float, float]:
    context = context or DEFAULT_CONTEXT
    base = context.config
    configs = {
        latency: base.scaled(
            name=f"{base.name}-cxl{int(latency)}",
            cxl=replace(base.cxl, link_ns=latency),
        )
        for latency in CXL_LATENCIES_NS
    }
    result = _speedups(context, configs, workloads)
    if verbose:
        rows = [[f"{int(l)} ns", f"{x:.2f}"] for l, x in result.items()]
        print(
            render_table(
                ["CXL link latency", "ndpext/nexus"],
                rows,
                title="Fig 8(b): speedup vs CXL link latency",
            )
        )
        print("paper: 1.33x at 50 ns rising to 1.50x at 400 ns")
    return result
