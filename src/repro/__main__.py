"""Command-line interface: run simulations, regenerate paper figures,
and capture/inspect observability traces.

Usage::

    python -m repro run --workload pr --policy ndpext [--preset small]
    python -m repro run --workload pr --policy ndpext --trace-out t.jsonl
    python -m repro compare --workload pr [--trace-out prefix] [--jobs 4]
    python -m repro figure fig5 [--preset small] [--jobs 4]
    python -m repro report [--output results.md]
    python -m repro stats trace.jsonl [other.jsonl]
    python -m repro dash trace.jsonl --out dash.html [--prom m.prom]
    python -m repro profile --workload pr --policy ndpext [--perf-out prof.json]
    python -m repro profile --suite [--report-out bottleneck.json]
    python -m repro serve --workload pr [--storm] [--journal serve.jsonl]

``--jobs N`` (or ``--jobs auto``, which sizes the pool from the CPU
count with a cap) fans uncached simulation cells across N *supervised*
worker processes: a crashed or hung worker is replaced and its cell
retried at once, a cell that raises (or keeps losing its worker) is
quarantined into a poison list instead of aborting the sweep, and
results stay bit-identical to serial runs.  Completed cells persist in a
content-addressed disk cache (``REPRO_CACHE_DIR``, disable with
``REPRO_DISK_CACHE=0``) as each one finishes, so repeated invocations
skip simulation entirely and an interrupted sweep, rerun, simulates
only the cells it had not finished.

``figure`` accepts: fig2, fig4b, fig5, fig6, fig7, fig8a, fig8b,
fig9a..fig9f, sec5d, faults.

``--trace-out`` on ``run`` runs the simulation with a live recorder and
writes a schema-versioned JSONL event trace (reconfiguration decisions
with predicted-vs-realized per-stream hit rates, sampled miss curves,
fault events, the finished report with its epoch timeline, and a
wall-clock self-profile of the simulator) alongside the result table;
on ``compare`` it is a prefix and one ``<prefix>.<policy>.jsonl`` file
is written per policy.  ``stats`` summarizes one such trace (``--csv``
exports its timeline), or diffs two.

``dash`` renders a trace (or a ``--report-out`` JSON) into one
self-contained HTML page: per-tier latency CDFs with exact percentiles,
the per-unit served-request heatmap, the stack-to-stack link matrix,
and the epoch timeline.  ``--prom``/``--json`` additionally export the
same content in Prometheus text format / as a metrics JSON payload.

``profile`` answers *where the simulator's own wall clock goes*: it
runs one cell (or, with ``--suite``, a small grid, serially) in this
process against a temporary cache directory so nothing is served warm,
then writes a Chrome/Perfetto trace-event JSON (``--perf-out``, load it
at https://ui.perfetto.dev) and prints a bottleneck report — engine
phases and policy internals (``configure.*``, ``profile.*``) ranked by
exclusive time, and cache I/O spans.  It refuses ``--jobs`` above 1:
one tracer attributes one process.  Do not confuse the two
trace flags: ``--trace-out`` (on ``run``/``compare``/``serve``) is the
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
from repro.obs.tracing import NullTracer, PerfTracer, activate, current
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
        help="also write the full report (timeline, histograms, spatial map) as JSON",
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

    rep_p = sub.add_parser(
        "report", help="regenerate every figure into a markdown report"
    )
    rep_p.add_argument(
        "--output", default="results.md", help="report path (default: results.md)"
    )

    prof_p = sub.add_parser(
        "profile",
        help="profile a cold run in this process: Perfetto perf trace + "
        "bottleneck report, policy internals included (no --jobs)",
    )
    prof_p.add_argument("--workload", default=None, choices=sorted(SUITE))
    prof_p.add_argument("--policy", default=None, choices=sorted(POLICIES))
    prof_p.add_argument(
        "--suite",
        action="store_true",
        help="profile the quick suite grid (pr/hotspot x ndpext/nexus), "
        "run serially in this process, instead of a single cell",
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
        "input", help="JSONL trace (run/serve --trace-out) or report JSON"
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


def _span_sink(trace_out: str | None) -> NullTracer:
    """The tracer to activate around a run: a fresh aggregates-only one
    when the run's trace is written (its rows become the trace's
    ``profile`` lines), else the tracer already ambient."""
    return PerfTracer(keep_events=False) if trace_out else current()


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
    # --report-out needs a live recorder too: the timeline, histograms
    # and the spatial map only exist on recorded runs (NullRecorder keeps
    # the hot path bit-identical to an uninstrumented build).
    recorder = (
        _new_recorder(context, args.workload, args.policy)
        if (args.trace_out or args.report_out)
        else None
    )
    tracer = _span_sink(args.trace_out)
    with activate(tracer):
        report = context.run(args.workload, args.policy, recorder=recorder)
    _print_run_table(context, args, report, args.policy)
    if recorder is not None and args.trace_out:
        lines = recorder.write_jsonl(args.trace_out, tracer)
        print(f"[trace] wrote {args.trace_out} ({lines} lines)")
    if args.report_out:
        from repro.obs.export import write_json

        write_json(args.report_out, report.to_json())
        print(f"[report] wrote {args.report_out}")


def cmd_compare(context: ExperimentContext, args) -> None:
    """Every registered policy on one workload, normalized to the host.

    The speedup column means the same thing as the paper's figures:
    runtime(host) / runtime(policy).  Without ``--trace-out`` the host
    and every policy resolve in one ``run_many`` batch.
    """
    names = sorted(POLICIES)
    host_cell = context.host_cell(args.workload)
    if args.trace_out:
        # Recorded runs bypass the caches, so each policy runs on its own.
        reports = []
        for name in names:
            recorder = _new_recorder(context, args.workload, name)
            tracer = _span_sink(args.trace_out)
            with activate(tracer):
                reports.append(
                    context.run(args.workload, name, recorder=recorder)
                )
            path = f"{args.trace_out}.{name}.jsonl"
            recorder.write_jsonl(path, tracer)
            print(f"[trace] wrote {path}")
        (host,) = context.run_many([host_cell])
    else:
        host, *reports = context.run_many(
            [host_cell] + [Cell(args.workload, name) for name in names]
        )
    rows = [
        [
            "host",
            f"{host.runtime_cycles:.0f}",
            "1.00",
            f"{host.hits.cache_hit_rate:.3f}",
        ]
    ]
    for name, report in zip(names, reports):
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


def cmd_profile(args) -> None:
    """Attribute a cold run's wall clock and export a Perfetto trace.

    The run happens inside a throwaway ``REPRO_CACHE_DIR`` so workload
    generation and simulation actually execute — profiled against a warm
    cache, the whole run would collapse into one ``cache.report_load``
    span and the report would say nothing.  Every cell runs in this
    process, so one tracer sees every span, policy internals included.
    """
    from repro.exec.cache import throwaway_cache_dir
    from repro.obs.perfreport import (
        bottleneck_report,
        render_bottleneck,
        write_chrome_trace,
    )

    if not args.suite and not (args.workload and args.policy):
        raise SystemExit(
            "profile: pass --workload and --policy, or --suite for the grid"
        )
    if args.jobs > 1:
        raise SystemExit(
            f"profile: attributes one process and runs its cells serially; "
            f"drop --jobs {args.jobs}"
        )
    tracer = PerfTracer(process_label="main")
    accesses = 0
    with throwaway_cache_dir(prefix="repro-profile-"):
        context = ExperimentContext(preset=args.preset, jobs=1)
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
    tracer = _span_sink(args.trace_out)
    try:
        with activate(tracer):
            report = harness.run(
                pace_s=args.pace, lock=server.lock if server else None
            )
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
        lines = recorder.write_jsonl(args.trace_out, tracer)
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
            rows = sorted(trace.profile, key=lambda row: -row.get("exclusive_s", 0.0))
            print(
                render_table(
                    ["span", "calls", "excl s", "total s"],
                    [
                        [
                            row["label"],
                            str(row["calls"]),
                            f"{row.get('exclusive_s', 0.0):.3f}",
                            f"{row['total_s']:.3f}",
                        ]
                        for row in rows[:8]
                    ],
                    title="simulator self-profile (by exclusive time)",
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
        traces[0].report.timeline.to_csv(args.csv)
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
    context = ExperimentContext(preset=args.preset, jobs=args.jobs)
    if args.command == "run":
        cmd_run(context, args)
    elif args.command == "compare":
        cmd_compare(context, args)
    elif args.command == "figure":
        FIGURES[args.name](context)
    elif args.command == "report":
        cmd_report(context, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
