"""Command-line interface: run simulations, regenerate paper figures,
and capture/inspect observability traces.

Usage::

    python -m repro run --workload pr --policy ndpext [--preset small]
    python -m repro run --workload pr --policy ndpext --trace-out t.jsonl
    python -m repro compare --workload pr [--trace-out prefix] [--jobs 4]
    python -m repro figure fig5 [--preset small] [--jobs 4]
    python -m repro suite [--preset small] [--jobs 4]
    python -m repro report [--output results.md]
    python -m repro trace --workload pr --policy ndpext --out trace.jsonl
    python -m repro stats trace.jsonl [other.jsonl]
    python -m repro dash trace.jsonl --out dash.html [--prom m.prom]
    python -m repro bench [--quick] [--out BENCH.json] [--check PREV.json]
    python -m repro profile --workload pr --policy ndpext [--perf-out prof.json]
    python -m repro profile --suite --jobs 4 [--report-out bottleneck.json]
    python -m repro serve --workload pr [--storm] [--journal serve.jsonl]

``--jobs N`` (or ``--jobs auto``, which sizes the pool from the CPU
count with a cap) fans uncached simulation cells across N *supervised*
worker processes: crashed or hung workers are detected, the affected
cell is retried with exponential backoff, and repeat offenders are
quarantined into a poison list instead of aborting the sweep — results
stay bit-identical to serial runs.  ``--timeout`` caps per-cell wall
clock, ``--max-retries`` bounds the attempt budget, and ``--resume
MANIFEST`` journals completed cells so an interrupted sweep picks up
exactly where it stopped.  Completed cells persist in a
content-addressed disk cache (``REPRO_CACHE_DIR``, disable with
``REPRO_DISK_CACHE=0``), so repeated invocations skip simulation
entirely.  ``bench`` measures the kernel backends, the paper-scale
cells, parallel fan-out, and cache behaviour, writing a
``BENCH_<date>.json``.

``figure`` accepts: fig2, fig4b, fig5, fig6, fig7, fig8a, fig8b,
fig9a..fig9f, sec5d, faults.

``trace`` runs one simulation with a live recorder and writes a
schema-versioned JSONL event trace (epoch timeline, reconfiguration
decisions with predicted-vs-realized per-stream hit rates, sampled miss
curves, fault events, and a wall-clock self-profile of the simulator).
``stats`` summarizes one such trace, or diffs two.  ``--trace-out`` on
``run`` writes the same trace alongside the result table; on
``compare`` it is a prefix and one ``<prefix>.<policy>.jsonl`` file is
written per policy.

``dash`` renders a trace (or a ``--report-out`` JSON) into one
self-contained HTML page: per-tier latency CDFs with exact percentiles,
the per-unit served-request heatmap, the stack-to-stack link matrix,
and the epoch timeline.  ``--prom``/``--json`` additionally export the
same content in Prometheus text format / as a metrics JSON payload.
``bench --check PREV.json`` compares the fresh bench against a previous
one and warns on regressions beyond 20%; ``--check-strict`` exits
non-zero instead of warning.

``profile`` answers *where the simulator's own wall clock goes*: it
runs one cell (or, with ``--suite``, a small grid fanned through the
worker pool) against a temporary cache directory so nothing is served
warm, then writes a Chrome/Perfetto trace-event JSON (``--perf-out``,
load it at https://ui.perfetto.dev) and prints a bottleneck report —
engine phases ranked by exclusive time, cache I/O spans, the pool
critical path, and per-worker utilization.  Do not confuse the two
trace flags: ``--trace-out`` (on ``run``/``compare``/``trace``) is the
*semantic* JSONL event trace of the simulated system, consumed by
``stats`` and ``dash``; ``--perf-out`` is a *performance* trace of the
simulator process itself, consumed by Perfetto.

``serve`` keeps one engine + policy session resident and replays a
multi-tenant request-batch scenario through it: bounded per-tenant
queues with admission control, priority-ordered scheduling with load
shedding and per-batch deadlines, and a health monitor that turns fault
events into forced re-placements (and pauses reconfiguration while a
unit is flapping).  ``--journal`` makes the run resumable after a
drain; ``--storm`` injects a seeded fault storm.  ``--slo`` declares
per-tenant objectives (p99 bound, availability, shed-rate ceiling)
evaluated live with Google-SRE multi-window burn-rate alerting, and
``--admission slo`` switches to the error-budget-aware admission
controller.  ``--listen HOST:PORT`` exposes the live telemetry plane
while serving — GET ``/metrics`` (Prometheus text), ``/healthz``,
``/slo``, ``/report``, and POST ``/ingest`` to drive the loop from
outside; ``--pace``/``--linger`` slow the replay and keep the endpoint
up so it can be scraped mid-run and after.  See DESIGN.md § "Serving
mode" and § "SLO & live telemetry".
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import faults, fig2, fig4b, fig5, fig6, fig7, fig8, fig9, sec5d
from repro.experiments.runner import POLICIES, PRESETS, Cell, ExperimentContext
from repro.obs import Recorder, diff_rows, read_trace, summarize, summary_rows
from repro.sim.kernels import BACKENDS
from repro.sim.metrics import SimulationReport
from repro.util import render_table
from repro.workloads import SUITE

FIGURES = {
    "fig2": lambda ctx: fig2.run(ctx),
    "fig4b": lambda ctx: fig4b.run(),
    "fig5": lambda ctx: fig5.run(ctx),
    "fig6": lambda ctx: fig6.run(ctx),
    "fig7": lambda ctx: fig7.run(ctx),
    "fig8a": lambda ctx: fig8.run_scaling(ctx),
    "fig8b": lambda ctx: fig8.run_cxl(ctx),
    "fig9a": lambda ctx: fig9.run_associativity(ctx),
    "fig9b": lambda ctx: fig9.run_block_size(ctx),
    "fig9c": lambda ctx: fig9.run_affine_space(ctx),
    "fig9d": lambda ctx: fig9.run_sampler_sets(ctx),
    "fig9e": lambda ctx: fig9.run_reconfig_method(ctx),
    "fig9f": lambda ctx: fig9.run_reconfig_interval(ctx),
    "sec5d": lambda ctx: sec5d.run(ctx),
    "faults": lambda ctx: faults.run(ctx),
}


def _jobs_arg(value: str) -> int:
    """``--jobs N`` or ``--jobs auto`` (resolved here so every consumer
    downstream still sees a plain int)."""
    if value.strip().lower() == "auto":
        from repro.exec.parallel import auto_jobs

        return auto_jobs()
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs expects an integer or 'auto', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NDPExt reproduction toolkit"
    )
    parser.add_argument(
        "--preset",
        default="small",
        choices=sorted(PRESETS),
        help="system preset (default: small)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N|auto",
        help="fan uncached simulation cells across N supervised worker "
        "processes (default: 1 = serial; 'auto' sizes the pool from the "
        "machine's CPU count, capped; results are bit-identical "
        "either way, including across worker crashes and retries)",
    )
    parser.add_argument(
        "--resume",
        metavar="MANIFEST",
        default=None,
        help="journal completed cells to this checkpoint manifest and "
        "skip cells it already records — an interrupted sweep rerun "
        "with the same manifest recomputes nothing it finished",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock limit; a hung worker is killed and the "
        "cell retried (default: derived from the cell's size)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per cell after the first attempt before it is "
        "quarantined into the poison list (default: 2)",
    )
    parser.add_argument(
        "--backend",
        default="numpy",
        choices=sorted(BACKENDS),
        help="engine kernel backend (default: numpy). 'python' is the "
        "pure-python reference; both backends produce bit-identical reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload under one policy")
    run_p.add_argument("--workload", required=True, choices=sorted(SUITE))
    run_p.add_argument("--policy", required=True, choices=sorted(POLICIES))
    run_p.add_argument(
        "--trace-out",
        default=None,
        help="also write a JSONL observability trace to this path",
    )
    run_p.add_argument(
        "--report-out",
        default=None,
        help="also write the full report (histograms, spatial map) as JSON",
    )

    cmp_p = sub.add_parser("compare", help="all policies on one workload")
    cmp_p.add_argument("--workload", required=True, choices=sorted(SUITE))
    cmp_p.add_argument(
        "--trace-out",
        default=None,
        help="write one <prefix>.<policy>.jsonl trace per policy",
    )

    fig_p = sub.add_parser("figure", help="regenerate one paper figure")
    fig_p.add_argument("name", choices=sorted(FIGURES))

    sub.add_parser("suite", help="Fig. 5 table over the whole suite")

    rep_p = sub.add_parser(
        "report", help="regenerate every figure into a markdown report"
    )
    rep_p.add_argument(
        "--output", default="results.md", help="report path (default: results.md)"
    )

    trace_p = sub.add_parser(
        "trace", help="run with full observability and write a JSONL trace"
    )
    trace_p.add_argument("--workload", required=True, choices=sorted(SUITE))
    trace_p.add_argument("--policy", required=True, choices=sorted(POLICIES))
    trace_p.add_argument(
        "--out", default="trace.jsonl", help="trace path (default: trace.jsonl)"
    )
    trace_p.add_argument(
        "--csv", default=None, help="also export the epoch timeline as CSV"
    )

    bench_p = sub.add_parser(
        "bench", help="benchmark kernel backends, paper-scale cells, parallel fan-out, caching"
    )
    bench_p.add_argument(
        "--quick",
        action="store_true",
        help="tiny preset / reduced workload set (CI smoke run)",
    )
    bench_p.add_argument(
        "--out",
        default=None,
        help="result JSON path (default: BENCH_<date>.json)",
    )
    bench_p.add_argument(
        "--check",
        default=None,
        metavar="PREV.json",
        help="compare against a previous bench file and flag regressions",
    )
    bench_p.add_argument(
        "--check-strict",
        action="store_true",
        help="exit non-zero on regressions instead of warning",
    )

    prof_p = sub.add_parser(
        "profile",
        help="profile a cold run: Perfetto perf trace + bottleneck report",
    )
    prof_p.add_argument("--workload", default=None, choices=sorted(SUITE))
    prof_p.add_argument("--policy", default=None, choices=sorted(POLICIES))
    prof_p.add_argument(
        "--suite",
        action="store_true",
        help="profile the quick suite grid (pr/hotspot x ndpext/nexus) "
        "through the worker pool instead of a single cell",
    )
    prof_p.add_argument(
        "--perf-out",
        default="prof.json",
        help="Chrome/Perfetto trace-event JSON path (default: prof.json); "
        "this is a performance trace of the simulator itself — load it at "
        "ui.perfetto.dev — not the semantic JSONL trace of --trace-out",
    )
    prof_p.add_argument(
        "--report-out",
        default=None,
        help="also write the bottleneck report as JSON",
    )

    dash_p = sub.add_parser(
        "dash", help="render a trace or report JSON as a standalone HTML page"
    )
    dash_p.add_argument(
        "input", help="JSONL trace (run/trace --trace-out) or report JSON"
    )
    dash_p.add_argument(
        "--out", default="dash.html", help="HTML path (default: dash.html)"
    )
    dash_p.add_argument(
        "--prom", default=None, help="also export Prometheus text format here"
    )
    dash_p.add_argument(
        "--json", default=None, help="also export the metrics JSON payload here"
    )

    stats_p = sub.add_parser(
        "stats", help="summarize one JSONL trace, or diff two"
    )
    stats_p.add_argument(
        "trace", nargs="+", help="one trace to summarize, two to diff"
    )
    stats_p.add_argument(
        "--csv", default=None, help="export the first trace's timeline as CSV"
    )

    serve_p = sub.add_parser(
        "serve",
        help="multi-tenant serving loop: replay a tenant-mix scenario",
    )
    serve_p.add_argument(
        "--workload", default="pr", choices=sorted(SUITE)
    )
    serve_p.add_argument(
        "--policy", default="ndpext", choices=sorted(POLICIES)
    )
    serve_p.add_argument(
        "--name", default="serve", help="scenario name (default: serve)"
    )
    serve_p.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME[:PRIO[:QUOTA[:DEADLINE_NS]]]",
        help="add a tenant (repeatable); omitted fields default to "
        "priority 0, the loop's default quota, and no deadline. "
        "Default roster: interactive:10:8 + analytics:0:4",
    )
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument(
        "--batch-accesses",
        type=int,
        default=None,
        help="accesses per batch (default: the preset's epoch size)",
    )
    serve_p.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf exponent for the tenant traffic skew (default: 1.1)",
    )
    serve_p.add_argument(
        "--phase-shift-at",
        type=float,
        default=None,
        metavar="FRACTION",
        help="invert the hot/cold tenant ranking after this fraction of "
        "batches (traffic drift; default: off)",
    )
    serve_p.add_argument("--max-batches", type=int, default=None)
    serve_p.add_argument(
        "--wave-size",
        type=int,
        default=4,
        help="batches submitted between serving bursts (default: 4)",
    )
    serve_p.add_argument(
        "--steps-per-wave",
        type=int,
        default=None,
        help="serving budget per wave; small values build backlog and "
        "exercise shedding/timeouts (default: drain fully each wave)",
    )
    serve_p.add_argument(
        "--drain-after",
        type=int,
        default=None,
        metavar="BATCHES",
        help="stop submitting after this many batches and drain (the "
        "interrupted-run half of a drain/resume pair)",
    )
    serve_p.add_argument(
        "--storm",
        action="store_true",
        help="inject a seeded fault storm (unit fail-stop, row faults, "
        "CRC burst, lane downtrain) through the health monitor",
    )
    serve_p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal admitted batches here; rerunning with the same "
        "journal skips everything already served (drain/resume)",
    )
    serve_p.add_argument(
        "--report-out", default=None, help="write the ServeReport as JSON"
    )
    serve_p.add_argument(
        "--trace-out",
        default=None,
        help="also write the JSONL observability trace (serve_* events)",
    )
    serve_p.add_argument(
        "--prom",
        default=None,
        help="also export serving metrics in Prometheus text format",
    )
    serve_p.add_argument(
        "--admission",
        default="quota",
        choices=("quota", "slo"),
        help="admission controller: 'quota' is the fixed per-tenant "
        "quota (default, bit-identical to previous releases); 'slo' "
        "flexes quotas and shed order by each tenant's error-budget "
        "state (tenants without --slo objectives get defaults)",
    )
    serve_p.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="NAME:P99_NS[:AVAIL[:SHED_RATE]]",
        help="declare one tenant's SLO (repeatable); empty fields are "
        "skipped, e.g. 'analytics:2000000' or 'batch::0.99:0.05'. "
        "Evaluated live with burn-rate alerting whenever present",
    )
    serve_p.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="expose the live telemetry plane while serving: GET "
        "/metrics (Prometheus), /healthz, /slo, /report; POST /ingest "
        "to drive the loop externally. ':9090' binds loopback",
    )
    serve_p.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock sleep between submission waves so a live "
        "endpoint can be scraped mid-run (simulated results are "
        "unaffected; default: 0)",
    )
    serve_p.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the --listen endpoint up this long after the run "
        "finishes, serving the final report (default: 0)",
    )
    return parser


def _new_recorder(context: ExperimentContext, workload: str, policy: str) -> Recorder:
    return Recorder(workload=workload, policy=policy, preset=context.preset)


def _print_run_table(
    context: ExperimentContext, args, report: SimulationReport, policy: str
) -> None:
    print(
        render_table(
            ["metric", "value"],
            [
                ["runtime cycles", f"{report.runtime_cycles:.0f}"],
                ["cache hit rate", f"{report.hits.cache_hit_rate:.3f}"],
                ["avg access latency ns", f"{report.avg_access_latency_ns:.1f}"],
                ["avg interconnect ns", f"{report.avg_interconnect_ns:.1f}"],
                ["energy mJ", f"{report.energy.total_nj / 1e6:.3f}"],
            ],
            title=f"{args.workload} under {policy} ({context.preset})",
        )
    )


def cmd_run(context: ExperimentContext, args) -> None:
    # --report-out needs a live recorder too: histograms and the spatial
    # map only exist on recorded runs (NullRecorder keeps the hot path
    # bit-identical to an uninstrumented build).
    recorder = (
        _new_recorder(context, args.workload, args.policy)
        if (args.trace_out or args.report_out)
        else None
    )
    report = context.run(args.workload, args.policy, recorder=recorder)
    _print_run_table(context, args, report, args.policy)
    if recorder is not None and args.trace_out:
        lines = recorder.write_jsonl(args.trace_out)
        print(f"[trace] wrote {args.trace_out} ({lines} lines)")
    if args.report_out:
        from repro.obs.export import write_json

        write_json(args.report_out, report.to_json(include_obs=True))
        print(f"[report] wrote {args.report_out}")


def cmd_compare(context: ExperimentContext, args) -> None:
    """Every registered policy on one workload, normalized to the host.

    The host baseline runs first so the speedup column means the same
    thing as the paper's figures (runtime(host) / runtime(policy)),
    independent of registration order.
    """
    if not args.trace_out:
        # Batch the whole column so uncached cells share the fan-out
        # (recorded runs bypass the caches, so prefetching would only
        # duplicate work when traces were requested).
        context.run_many(
            [context.host_cell(args.workload)]
            + [Cell(args.workload, name) for name in sorted(POLICIES)]
        )
    host = context.run_host(args.workload)
    rows = [
        [
            "host",
            f"{host.runtime_cycles:.0f}",
            "1.00",
            f"{host.hits.cache_hit_rate:.3f}",
        ]
    ]
    for name in sorted(POLICIES):
        recorder = (
            _new_recorder(context, args.workload, name) if args.trace_out else None
        )
        report = context.run(args.workload, name, recorder=recorder)
        if recorder is not None:
            path = f"{args.trace_out}.{name}.jsonl"
            recorder.write_jsonl(path)
            print(f"[trace] wrote {path}")
        rows.append(
            [
                name,
                f"{report.runtime_cycles:.0f}",
                f"{host.runtime_cycles / report.runtime_cycles:.2f}",
                f"{report.hits.cache_hit_rate:.3f}",
            ]
        )
    print(
        render_table(
            ["policy", "cycles", "speedup vs host", "hit rate"],
            rows,
            title=f"{args.workload} across policies ({context.preset})",
        )
    )


def cmd_report(context: ExperimentContext, args) -> None:
    """Run every figure, capturing its printed table into one document."""
    import contextlib
    import io

    sections = []
    for name in sorted(FIGURES):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            FIGURES[name](context)
        sections.append(f"## {name}\n\n```\n{buffer.getvalue().strip()}\n```\n")
        print(f"[report] {name} done")
    body = (
        f"# NDPExt reproduction results ({context.preset} preset)\n\n"
        "Regenerated by `python -m repro report`. See EXPERIMENTS.md for\n"
        "the paper-vs-measured discussion of each figure.\n\n"
        + "\n".join(sections)
    )
    with open(args.output, "w") as f:
        f.write(body)
    print(f"[report] wrote {args.output}")


def cmd_trace(context: ExperimentContext, args) -> None:
    recorder = _new_recorder(context, args.workload, args.policy)
    report = context.run(args.workload, args.policy, recorder=recorder)
    lines = recorder.write_jsonl(args.out)
    if args.csv and report.timeline is not None:
        report.timeline.to_csv(args.csv)
        print(f"[trace] wrote {args.csv}")
    timeline = report.timeline
    rows = [
        ["epochs", str(len(timeline) if timeline else 0)],
        ["events", str(len(recorder.events))],
        ["trace lines", str(lines)],
        ["runtime cycles", f"{report.runtime_cycles:.0f}"],
        ["cache hit rate", f"{report.hits.cache_hit_rate:.3f}"],
        ["reconfig events", str(len(recorder.events_of('reconfig')))],
    ]
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"trace of {args.workload} under {args.policy} -> {args.out}",
        )
    )
    profile = recorder.profile()[:8]
    if profile:
        print(
            render_table(
                ["span", "calls", "total s", "mean us"],
                [
                    [
                        row["label"],
                        str(row["calls"]),
                        f"{row['total_s']:.3f}",
                        f"{row['mean_us']:.1f}",
                    ]
                    for row in profile
                ],
                title="simulator self-profile (slowest spans)",
            )
        )


def cmd_profile(args) -> None:
    """Attribute a cold run's wall clock and export a Perfetto trace.

    The run happens inside a throwaway ``REPRO_CACHE_DIR`` so workload
    generation and simulation actually execute — profiled against a warm
    cache, the whole run would collapse into one ``cache.report_load``
    span and the report would say nothing.
    """
    from repro.exec.cache import throwaway_cache_dir
    from repro.obs.perfreport import (
        bottleneck_report,
        render_bottleneck,
        write_chrome_trace,
    )
    from repro.obs.tracing import PerfTracer, activate

    if not args.suite and not (args.workload and args.policy):
        raise SystemExit(
            "profile: pass --workload and --policy, or --suite for the grid"
        )
    tracer = PerfTracer(process_label="main")
    accesses = 0
    with throwaway_cache_dir(prefix="repro-profile-"):
        context = ExperimentContext(
            preset=args.preset,
            jobs=args.jobs,
            timeout_s=args.timeout,
            max_retries=args.max_retries,
            backend=args.backend,
        )
        with activate(tracer):
            if args.suite:
                cells = [
                    Cell(wname, pname)
                    for wname in ("pr", "hotspot")
                    for pname in ("ndpext", "nexus")
                ]
                reports = context.run_many(cells)
                accesses = sum(
                    r.hits.total_requests for r in reports if r is not None
                )
            else:
                report = context.run(args.workload, args.policy)
                accesses = report.hits.total_requests
    events = write_chrome_trace(
        tracer,
        args.perf_out,
        meta={
            "preset": args.preset,
            "jobs": args.jobs,
            "suite": bool(args.suite),
            "workload": args.workload,
            "policy": args.policy,
        },
    )
    print(
        f"[profile] wrote {args.perf_out} ({events} events) — "
        "open it at https://ui.perfetto.dev"
    )
    prof = bottleneck_report(tracer, accesses=accesses or None)
    print(render_bottleneck(prof))
    if args.report_out:
        from repro.obs.export import write_json

        write_json(args.report_out, prof)
        print(f"[profile] wrote {args.report_out}")


def _parse_tenant(spec: str):
    """``name[:priority[:quota[:deadline_ns]]]`` with empty fields allowed
    (``batch::4`` = default priority, quota 4)."""
    from repro.serve import TenantSpec

    parts = spec.split(":")
    if not parts[0]:
        raise SystemExit(f"serve: tenant spec {spec!r} needs a name")
    if len(parts) > 4:
        raise SystemExit(
            f"serve: tenant spec {spec!r} has too many fields "
            "(name[:priority[:quota[:deadline_ns]]])"
        )
    try:
        priority = int(parts[1]) if len(parts) > 1 and parts[1] else 0
        quota = int(parts[2]) if len(parts) > 2 and parts[2] else None
        deadline = int(parts[3]) if len(parts) > 3 and parts[3] else None
    except ValueError:
        raise SystemExit(
            f"serve: non-integer field in tenant spec {spec!r}"
        ) from None
    return TenantSpec(
        parts[0], priority=priority, max_queued=quota, deadline_ns=deadline
    )


def _parse_slo(spec: str):
    """``name:p99_ns[:availability[:max_shed_rate]]`` with empty fields
    allowed (``batch::0.99`` = availability only)."""
    from repro.obs.slo import SloObjective

    parts = spec.split(":")
    if not parts[0]:
        raise SystemExit(f"serve: SLO spec {spec!r} needs a tenant name")
    if len(parts) > 4:
        raise SystemExit(
            f"serve: SLO spec {spec!r} has too many fields "
            "(name:p99_ns[:availability[:max_shed_rate]])"
        )
    try:
        p99 = float(parts[1]) if len(parts) > 1 and parts[1] else None
        avail = float(parts[2]) if len(parts) > 2 and parts[2] else None
        shed = float(parts[3]) if len(parts) > 3 and parts[3] else None
        return SloObjective(
            parts[0], p99_ns=p99, availability=avail, max_shed_rate=shed
        )
    except ValueError as exc:
        raise SystemExit(f"serve: bad SLO spec {spec!r}: {exc}") from None


def cmd_serve(args) -> None:
    """Replay a tenant-mix scenario through the resident serving loop."""
    from repro.serve import (
        STORM_FAULTS,
        ServeHarness,
        ServeScenario,
        two_tenant_scenario,
    )

    faults = dict(STORM_FAULTS) if args.storm else None
    common = dict(
        workload=args.workload,
        policy=args.policy,
        seed=args.seed,
        batch_accesses=args.batch_accesses,
        zipf_s=args.zipf_s,
        phase_shift_at=args.phase_shift_at,
        max_batches=args.max_batches,
        wave_size=args.wave_size,
        steps_per_wave=args.steps_per_wave,
        drain_after_batches=args.drain_after,
        faults=faults,
        admission=args.admission,
        objectives=(
            tuple(_parse_slo(spec) for spec in args.slo) if args.slo else ()
        ),
    )
    if args.tenant:
        tenants = tuple(_parse_tenant(spec) for spec in args.tenant)
        scenario = ServeScenario(name=args.name, tenants=tenants, **common)
    else:
        scenario = two_tenant_scenario(name=args.name, **common)
    recorder = (
        Recorder(
            workload=args.workload, policy=args.policy, preset=args.preset
        )
        if args.trace_out
        else None
    )
    harness = ServeHarness(
        scenario,
        preset=args.preset,
        recorder=recorder,
        journal_path=args.journal,
        backend=args.backend,
    )
    server = None
    if args.listen:
        import time as _time

        from repro.serve import LiveServeServer, parse_listen

        host, port = parse_listen(args.listen)
        server = LiveServeServer(
            harness.loop,
            make_batch=harness.make_batch,
            scenario=scenario.name,
            host=host,
            port=port,
            extra_labels={"preset": args.preset},
        ).start()
        print(f"[serve] live endpoint at {server.url} "
              "(/metrics /healthz /slo /report; POST /ingest)")
    try:
        report = harness.run(pace_s=args.pace, lock=server.lock if server else None)
        if server is not None:
            server.set_final(report)
            if args.linger > 0:
                print(f"[serve] lingering {args.linger:g}s at {server.url}")
                _time.sleep(args.linger)
    finally:
        if server is not None:
            server.close()
    print(report.summary())
    if args.report_out:
        from repro.obs.export import write_json

        write_json(args.report_out, report.to_json())
        print(f"[serve] wrote {args.report_out}")
    if recorder is not None and args.trace_out:
        lines = recorder.write_jsonl(args.trace_out)
        print(f"[serve] wrote {args.trace_out} ({lines} lines)")
    if args.prom:
        from repro.obs.export import serve_prometheus

        with open(args.prom, "w") as f:
            f.write(serve_prometheus(report, {"preset": args.preset}))
        print(f"[serve] wrote {args.prom}")


def cmd_stats(args) -> None:
    traces = [read_trace(path) for path in args.trace]
    if len(traces) == 1:
        trace = traces[0]
        print(
            render_table(
                ["metric", "value"],
                summary_rows(summarize(trace)),
                title=f"summary of {trace.path}",
            )
        )
        if trace.profile:
            print(
                render_table(
                    ["span", "calls", "total s"],
                    [
                        [row["label"], str(row["calls"]), f"{row['total_s']:.3f}"]
                        for row in trace.profile[:8]
                    ],
                    title="simulator self-profile",
                )
            )
    elif len(traces) == 2:
        a, b = traces
        print(
            render_table(
                ["metric", a.path, b.path, "delta"],
                diff_rows(summarize(a), summarize(b)),
                title="trace diff",
            )
        )
    else:
        raise SystemExit("stats takes one trace (summary) or two (diff)")
    if args.csv:
        traces[0].timeline.to_csv(args.csv)
        print(f"[stats] wrote {args.csv}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "stats":
        cmd_stats(args)
        return 0
    if args.command == "dash":
        from repro.obs.dash import cmd_dash

        cmd_dash(args)
        return 0
    if args.command == "bench":
        from repro.exec.bench import cmd_bench

        cmd_bench(args)
        return 0
    if args.command == "profile":
        # Builds its own context *after* redirecting REPRO_CACHE_DIR,
        # so the profiled run cannot be served from the user's cache.
        cmd_profile(args)
        return 0
    if args.command == "serve":
        # The serving harness owns its engine/policy lifetime (the whole
        # point is one resident session), so no ExperimentContext.
        cmd_serve(args)
        return 0
    context = ExperimentContext(
        preset=args.preset,
        jobs=args.jobs,
        manifest_path=args.resume,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        backend=args.backend,
    )
    if args.command == "run":
        cmd_run(context, args)
    elif args.command == "compare":
        cmd_compare(context, args)
    elif args.command == "figure":
        FIGURES[args.name](context)
    elif args.command == "suite":
        fig5.run(context)
    elif args.command == "report":
        cmd_report(context, args)
    elif args.command == "trace":
        cmd_trace(context, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
