"""Recommendation inference: replication of hot embedding tables.

DLRM-style recommendation is the paper's best case (up to 2.43x over
Nexus): Zipf-skewed embedding gathers concentrate on hot rows that are
read-only and shared by every core — exactly what per-stream replication
exploits.  This example runs recsys under NDPExt with and without the
runtime's replication-capable configuration, and reports per-stream hit
rates and the interconnect latency the replicas save.

Run:  python examples/recommendation.py
"""

import numpy as np

from repro import sim, workloads
from repro.baselines import NexusPolicy
from repro.core import NdpExtPolicy
from repro.core.remap import group_ids
from repro.sim.engine import SimulationEngine
from repro.sim.sram_cache import filter_cores_through_l1
from repro.util import render_table


def per_stream_hit_rates(config, workload, policy):
    """Re-run the final epoch by hand to expose per-stream outcomes."""
    engine = SimulationEngine(config)
    engine.run(workload, policy)  # train the policy end to end
    epoch = workload.trace.epochs(config.epoch_accesses)[-1]
    l1_hit = filter_cores_through_l1(epoch.addr, epoch.core, config.core.l1d)
    post = epoch.select(~l1_hit)
    outcome = policy.process(post)
    rates = {}
    for stream in workload.streams:
        mask = post.sid == stream.sid
        if mask.sum() >= 50:
            rates[stream.name] = float(outcome.hit[mask].mean())
    return rates


def main() -> None:
    config = sim.small()
    workload = workloads.build("recsys", workloads.SMALL)
    print(f"workload: {workload.summary()}\n")

    engine = sim.SimulationEngine(config)
    ndpext_policy = NdpExtPolicy()
    ndpext = engine.run(workload, ndpext_policy)
    nexus = engine.run(workload, NexusPolicy())

    print(f"NDPExt:  {ndpext.runtime_cycles:.0f} cycles, "
          f"hit {ndpext.hits.cache_hit_rate:.3f}, "
          f"interconnect {ndpext.avg_interconnect_ns:.1f} ns")
    print(f"Nexus:   {nexus.runtime_cycles:.0f} cycles, "
          f"hit {nexus.hits.cache_hit_rate:.3f}, "
          f"interconnect {nexus.avg_interconnect_ns:.1f} ns")
    print(f"speedup: {ndpext.speedup_over(nexus):.2f}x\n")

    # Where did the embedding tables land?
    rows = []
    row_bytes = config.ndp_dram.row_bytes
    table = ndpext_policy.mapper.table
    for stream in list(workload.streams)[:12]:
        rows.append(
            [
                stream.name,
                "yes" if stream.read_only else "no",
                f"{int(table.shares[stream.sid].sum()) * row_bytes // 1024} kB",
                max(1, len(group_ids(table.groups[stream.sid]))),
            ]
        )
    print(
        render_table(
            ["stream", "read-only", "capacity", "copies"],
            rows,
            title="Embedding-table placement under NDPExt (first process)",
        )
    )

    rates = per_stream_hit_rates(config, workload, NdpExtPolicy())
    emb = [v for k, v in rates.items() if "emb" in k]
    if emb:
        print(f"\nmean embedding-gather hit rate in the final epoch: "
              f"{np.mean(emb):.3f}")


if __name__ == "__main__":
    main()
