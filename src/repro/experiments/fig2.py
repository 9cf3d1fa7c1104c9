"""Fig. 2(a): access-latency breakdown, NDP vs conventional NUCA.

The paper motivates NDPExt by running PageRank under a simple static
cacheline-interleaving policy on (1) the NDP system with extended memory
and (2) a conventional NUCA chip (our host model), and showing that the
NDP system spends a far larger latency fraction on the interconnect
(32% vs 13%) while enjoying a much higher cache hit rate (70% vs 47%)
thanks to its larger capacity.

We reproduce both series: the breakdown fractions per component and the
two hit rates.  The shape to check: interconnect fraction NDP >> NUCA;
hit rate NDP >> NUCA; next-level-memory fraction NUCA >> NDP.
"""

from __future__ import annotations

from repro.baselines import host_config
from repro.experiments.runner import DEFAULT_CONTEXT, Cell, ExperimentContext
from repro.util import render_table

WORKLOAD = "pr"


def _fig2_nuca_config(context: ExperimentContext):
    """The Fig. 2 comparison chip: a Jigsaw-style NUCA with 512 kB banks
    per core — much more LLC than the Fig. 5 host (32 MB against the
    NDP's 16 GB), so its hit rate is meaningful (paper: 47%) while still
    well below the NDP system's (70%)."""
    config = host_config(context.config)
    return config.scaled(
        name=f"{config.name}-fig2",
        unit_cache_bytes=max(
            config.unit_cache_bytes,
            context.config.total_cache_bytes // (8 * config.n_units),
        ),
    )


def run(context: ExperimentContext | None = None, verbose: bool = True) -> dict:
    context = context or DEFAULT_CONTEXT
    ndp, nuca = context.run_many(
        [
            Cell(WORKLOAD, "static-nuca"),
            Cell(WORKLOAD, "static-nuca", config=_fig2_nuca_config(context)),
        ]
    )

    def row(report):
        frac = report.breakdown.fractions()
        interconnect = frac["intra_noc_ns"] + frac["inter_noc_ns"]
        return {
            "sram": frac["sram_ns"],
            "metadata": frac["metadata_ns"],
            "dram": frac["dram_ns"],
            "interconnect": interconnect,
            "next_level": frac["extended_ns"],
            "hit_rate": report.hits.cache_hit_rate,
        }

    result = {"ndp": row(ndp), "nuca": row(nuca)}
    if verbose:
        headers = ["system", "sram", "metadata", "dram", "interconnect", "next-level", "hit-rate"]
        rows = [
            [
                name,
                f"{r['sram']:.2f}",
                f"{r['metadata']:.2f}",
                f"{r['dram']:.2f}",
                f"{r['interconnect']:.2f}",
                f"{r['next_level']:.2f}",
                f"{r['hit_rate']:.2f}",
            ]
            for name, r in result.items()
        ]
        print(render_table(headers, rows, title="Fig 2(a): latency breakdown (fractions), pr under static interleave"))
        print(
            "paper: NDP interconnect 32% vs NUCA 13%; hit rate 70% vs 47%"
        )
    return result
