"""Fig. 9: design-choice studies (six panels).

Each panel sweeps one NDPExt design parameter and reports runtime
normalized to the paper's default.  Panels (a)-(d) vary hardware, so
they sweep the system's ``StreamCacheParams``; (e), (f) and (b)'s
``adaptive`` case vary the runtime, so they set ``NdpExtPolicy``
options.

(a) indirect-stream cache associativity (1 -> 64 ways): direct-mapped is
    acceptable; higher associativity brings only minor gains, largest
    for graph workloads (paper: 10-20% at 64 ways).
(b) affine block size (256 B -> 4 kB): larger blocks help spatial
    workloads slightly; 1 kB is the sweet spot.
(c) affine space restriction: the 16 MB (scaled) cap costs ~2% at most
    vs unrestricted, concentrated on affine-heavy mv/gnn.
(d) sampler set count k: performance is insensitive over a wide range.
(e) reconfiguration method Static / Partial / Full: partial
    reconfiguration loses on stream-rich or dynamic workloads
    (paper: mv 14.7%, pr 20.7% slower than full).
(f) reconfiguration interval: longer intervals degrade (paper: 2x the
    epoch costs 26%).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.runner import DEFAULT_CONTEXT, Cell, ExperimentContext
from repro.sim import SystemConfig
from repro.util import geomean, render_table
from repro.workloads import REPRESENTATIVE

INDIRECT_WAYS = (1, 4, 16, 64)
BLOCK_BYTES = (256, 512, 1024, 2048, 4096)
SAMPLER_SETS = (8, 32, 256)
INTERVALS = (1, 2, 4)


def _stream_config(context: ExperimentContext, **fields) -> SystemConfig:
    """The context's system with ``fields`` of its stream cache replaced."""
    config = context.config
    return config.scaled(stream=replace(config.stream, **fields))


def _sweep(
    context: ExperimentContext,
    workloads: tuple[str, ...],
    label: str,
    cases: dict[str, dict],
    verbose: bool,
    paper_note: str,
    title: str | None = None,
) -> dict[str, float]:
    """Run NDPExt on every workload per case, all cases in one batch;
    normalize the geomean runtimes to 'default'.

    Each case is the keyword arguments of its :class:`Cell`: a system
    ``config`` for a hardware parameter, ``options`` for a runtime one.
    """
    reports = iter(
        context.run_many(
            [
                Cell(wname, "ndpext", **fields)
                for fields in cases.values()
                for wname in workloads
            ]
        )
    )
    runtimes = {
        case: geomean([next(reports).runtime_cycles for _ in workloads])
        for case in cases
    }
    base = runtimes.get("default") or next(iter(runtimes.values()))
    normalized = {case: base / runtime for case, runtime in runtimes.items()}
    if verbose:
        rows = [[case, f"{x:.3f}"] for case, x in normalized.items()]
        title = title or f"Fig 9: {label}"
        print(render_table([label, "speedup vs default"], rows, title=title))
        print(f"paper: {paper_note}")
    return normalized


def run_associativity(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = REPRESENTATIVE,
    verbose: bool = True,
) -> dict[str, float]:
    context = context or DEFAULT_CONTEXT
    default_ways = context.config.stream.indirect_ways
    cases = {
        ("default" if w == default_ways else f"{w}-way"): {
            "config": _stream_config(context, indirect_ways=w)
        }
        for w in INDIRECT_WAYS
    }
    return _sweep(
        context, workloads, "indirect associativity", cases, verbose,
        "direct-mapped acceptable; <= 10-20% gain at 64 ways (graphs)",
    )


def run_block_size(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = REPRESENTATIVE,
    verbose: bool = True,
) -> dict[str, float]:
    context = context or DEFAULT_CONTEXT
    default_bytes = context.config.stream.affine_block_bytes
    cases = {
        ("default" if b == default_bytes else f"{b}B"): {
            "config": _stream_config(context, affine_block_bytes=b)
        }
        for b in BLOCK_BYTES
    }
    # This repo's extension of the panel's future-work note: per-stream
    # block sizes picked from profiled run lengths.
    cases["adaptive"] = {"options": {"adaptive_blocks": True}}
    return _sweep(
        context, workloads, "affine block size", cases, verbose,
        "larger blocks slightly better for spatial locality; 1 kB default"
        " (adaptive = this repo's per-stream extension)",
    )


def run_affine_space(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = ("mv", "gnn", "hotspot", "pr"),
    verbose: bool = True,
) -> dict[str, float]:
    context = context or DEFAULT_CONTEXT
    base_space = context.config.stream.affine_space_bytes
    spaces = {
        "quarter": base_space // 4,
        "half": base_space // 2,
        "default": base_space,
        "unlimited": context.config.unit_cache_bytes,
    }
    cases = {
        case: {"config": _stream_config(context, affine_space_bytes=space)}
        for case, space in spaces.items()
    }
    return _sweep(
        context, workloads, "affine space", cases, verbose,
        "16 MB cap is negligible; unlimited gains ~2% (mv, gnn)",
        title="Fig 9(c): affine space restriction",
    )


def run_sampler_sets(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = REPRESENTATIVE,
    verbose: bool = True,
) -> dict[str, float]:
    context = context or DEFAULT_CONTEXT
    default_k = context.config.stream.sampler_sets
    cases = {
        ("default" if k == default_k else f"k={k}"): {
            "config": _stream_config(context, sampler_sets=k)
        }
        for k in sorted(set(SAMPLER_SETS) | {default_k})
    }
    return _sweep(
        context, workloads, "sampler sets", cases, verbose,
        "insensitive to k over a wide range",
    )


def run_reconfig_method(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = ("mv", "pr", "recsys", "bfs", "backprop", "bc"),
    verbose: bool = True,
) -> dict[str, dict[str, float]]:
    context = context or DEFAULT_CONTEXT
    methods = {
        "static": {"mode": "static"},
        "partial": {"mode": "partial", "partial_epochs": 2},
        "full": {"mode": "full"},
    }
    reports = iter(
        context.run_many(
            [
                Cell(wname, "ndpext", options=options)
                for wname in workloads
                for options in methods.values()
            ]
        )
    )
    result: dict[str, dict[str, float]] = {}
    for wname in workloads:
        runtimes = {method: next(reports).runtime_cycles for method in methods}
        result[wname] = {
            m: runtimes["full"] / r for m, r in runtimes.items()
        }
    if verbose:
        rows = [
            [w] + [f"{result[w][m]:.3f}" for m in methods] for w in result
        ]
        print(
            render_table(
                ["workload", "static", "partial", "full"],
                rows,
                title="Fig 9(e): reconfiguration method (speedup vs full)",
            )
        )
        print("paper: partial 14.7% (mv) / 20.7% (pr) slower than full")
    return result


def run_reconfig_interval(
    context: ExperimentContext | None = None,
    workloads: tuple[str, ...] = ("pr", "recsys", "bfs"),
    verbose: bool = True,
) -> dict[str, float]:
    context = context or DEFAULT_CONTEXT
    cases = {
        ("default" if i == 1 else f"x{i}"): {"options": {"reconfig_interval": i}}
        for i in INTERVALS
    }
    return _sweep(
        context, workloads, "reconfiguration interval", cases, verbose,
        "50M-cycle epochs suffice; 2x interval costs 26%",
    )
