"""Graph analytics campaign: policy comparison and placement inspection.

Runs the GAP graph kernels (bfs, pr, cc) under every cache-management
policy, then opens up NDPExt's final stream remap table for PageRank to
show where each stream landed: capacity per stream, replication degree,
and which units hold it — the paper's Section V output, made visible.

Run:  python examples/graph_analytics.py
"""

from functools import partial

import numpy as np

from repro import sim, workloads
from repro.baselines import JigsawPolicy, NexusPolicy, StaticNucaPolicy
from repro.core import NdpExtPolicy
from repro.core.remap import group_ids
from repro.util import render_table

KERNELS = ("bfs", "pr", "cc")


def compare_policies(config, kernels):
    engine = sim.SimulationEngine(config)
    policies = {
        "static-nuca": StaticNucaPolicy,
        "jigsaw": JigsawPolicy,
        "nexus": NexusPolicy,
        "ndpext-static": partial(NdpExtPolicy, mode="static"),
        "ndpext": NdpExtPolicy,
    }
    rows = []
    for kernel in kernels:
        workload = workloads.build(kernel, workloads.SMALL)
        baseline_cycles = None
        for name, factory in policies.items():
            report = engine.run(workload, factory())
            if baseline_cycles is None:
                baseline_cycles = report.runtime_cycles
            rows.append(
                [
                    kernel,
                    name,
                    f"{report.runtime_cycles:.0f}",
                    f"{baseline_cycles / report.runtime_cycles:.2f}",
                    f"{report.hits.cache_hit_rate:.3f}",
                    f"{report.avg_interconnect_ns:.1f}",
                ]
            )
    print(
        render_table(
            ["kernel", "policy", "cycles", "speedup vs static", "hit rate", "interconnect ns"],
            rows,
            title="Graph kernels across cache-management policies",
        )
    )


def inspect_placement(config):
    workload = workloads.build("pr", workloads.SMALL)
    policy = NdpExtPolicy()
    sim.SimulationEngine(config).run(workload, policy)

    rows = []
    row_bytes = config.ndp_dram.row_bytes
    table = policy.mapper.table
    for stream in workload.streams:
        shares = table.shares[stream.sid]
        if not shares.any():
            continue
        units = [int(u) for u in np.flatnonzero(shares)]
        rows.append(
            [
                stream.name,
                stream.kind.value,
                f"{int(shares.sum()) * row_bytes // 1024} kB",
                max(1, len(group_ids(table.groups[stream.sid]))),
                ",".join(map(str, units[:8])) + ("..." if len(units) > 8 else ""),
            ]
        )
    print()
    print(
        render_table(
            ["stream", "kind", "capacity", "copies", "units"],
            rows,
            title="NDPExt final placement for PageRank (stream remap table)",
        )
    )


def main() -> None:
    config = sim.small()
    compare_policies(config, KERNELS)
    inspect_placement(config)


if __name__ == "__main__":
    main()
