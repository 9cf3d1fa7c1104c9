"""``python -m repro dash``: a self-contained HTML report for one run.

Input is either a JSONL observability trace (``repro run --trace-out``),
read through its ``report`` line, or a report JSON (``repro run
--report-out``); both hold :meth:`SimulationReport.to_json` output.  Output
is a single HTML file with no external assets or scripts: stat tiles,
per-tier latency CDFs, the per-unit served-request heatmap, the
stack-to-stack link-traffic matrix, and the epoch timeline — the
distributional and spatial view behind the run's averages.

Rendering follows a small design system declared once as CSS custom
properties (light and dark values; the dark palette is selected, not a
flip): four fixed categorical hues for the serving tiers, one blue
sequential ramp for magnitude (heatmap and matrix), text always in ink
tokens with colored swatches carrying series identity, and a data table
next to every chart so no value is color-alone.
"""

from __future__ import annotations

import html
import json
import math

from repro.obs.histogram import TIERS, LatencyHistogram
from repro.obs.spatial import SpatialReport
from repro.obs.timeline import Timeline
from repro.sim.metrics import SimulationReport

# Categorical slots (fixed order, one per serving tier) and chart chrome
# from the validated reference palette; dark values are selected steps,
# not an automatic flip.
_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --tier-local: #2a78d6; --tier-intra: #eb6834;
  --tier-inter: #1baf7a; --tier-extended: #eda100;
  --heat-0: #cde2fb; --heat-1: #9ec5f4; --heat-2: #6da7ec;
  --heat-3: #3987e5; --heat-4: #256abf; --heat-5: #1c5cab;
  --heat-6: #104281; --heat-7: #0d366b;
  --heat-ink-strong: #ffffff;
  --slo-ok: var(--tier-inter); --slo-warn: var(--tier-extended);
  --slo-page: var(--tier-intra);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --tier-local: #3987e5; --tier-intra: #d95926;
    --tier-inter: #199e70; --tier-extended: #c98500;
    --heat-0: #0d366b; --heat-1: #104281; --heat-2: #1c5cab;
    --heat-3: #256abf; --heat-4: #3987e5; --heat-5: #6da7ec;
    --heat-6: #9ec5f4; --heat-7: #cde2fb;
    --heat-ink-strong: #0b0b0b;
  }
}
body { background: var(--page); color: var(--ink); margin: 0;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 60px; }
h1 { font-size: 20px; font-weight: 650; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 10px; }
.sub { color: var(--ink-2); font-size: 13px; margin: 0 0 18px; }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 10px; padding: 14px 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { flex: 1 1 150px; }
.tile .v { font-size: 22px; font-weight: 650; }
.tile .k { font-size: 12px; color: var(--ink-2); margin-top: 2px; }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--ink-2);
  margin: 0 0 8px; flex-wrap: wrap; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
table { border-collapse: collapse; font-size: 12px; margin-top: 10px; }
th, td { padding: 4px 10px; text-align: right;
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; border-bottom: 1px solid var(--axis); }
th:first-child, td:first-child { text-align: left; }
td { border-bottom: 1px solid var(--grid); }
.matrix td.cell { text-align: center; min-width: 46px; border: 2px solid var(--surface);
  border-radius: 4px; }
.matrix td.hs { color: var(--heat-ink-strong); }
.note { color: var(--muted); font-size: 12px; margin-top: 8px; }
svg text { font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
"""

_TIER_VARS = {tier: f"var(--tier-{tier})" for tier in TIERS}


def _fmt_ns(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f} us"
    return f"{value:.1f} ns"


def _fmt_count(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def _heat_class(value: float, peak: float) -> int:
    if peak <= 0 or value <= 0:
        return 0
    return min(7, int(round(value / peak * 7)))


def _tiles(report: SimulationReport) -> str:
    tiles = [
        (f"{report.runtime_cycles:,.0f}", "runtime cycles"),
        (f"{report.hits.cache_hit_rate:.1%}", "cache hit rate"),
    ]
    if report.tier_histograms:
        local = report.tier_histograms.get("local")
        ext = report.tier_histograms.get("extended")
        if local is not None and local.n:
            tiles.append((_fmt_ns(local.percentile(99)), "p99 local tier"))
        if ext is not None and ext.n:
            tiles.append((_fmt_ns(ext.percentile(99)), "p99 extended tier"))
    if report.spatial is not None:
        tiles.append((f"{report.spatial.load_imbalance:.2f}x", "load imbalance (max/mean)"))
    cells = "".join(
        f'<div class="card tile"><div class="v">{html.escape(v)}</div>'
        f'<div class="k">{html.escape(k)}</div></div>'
        for v, k in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _cdf_svg(histograms: dict[str, LatencyHistogram]) -> str:
    """Per-tier latency CDFs on a shared log-x axis."""
    width, height = 640, 260
    pad_l, pad_r, pad_t, pad_b = 46, 80, 10, 28
    populated = {t: h for t, h in histograms.items() if h.n}
    if not populated:
        return '<p class="note">no latency samples recorded</p>'
    lo = max(0.01, min(h.min_ns for h in populated.values()))
    hi = max(h.max_ns for h in populated.values())
    if hi <= lo:
        hi = lo * 10
    log_lo, log_hi = math.log10(lo), math.log10(hi)

    def x_of(v: float) -> float:
        v = max(v, lo)
        return pad_l + (math.log10(v) - log_lo) / (log_hi - log_lo) * (
            width - pad_l - pad_r
        )

    def y_of(frac: float) -> float:
        return pad_t + (1.0 - frac) * (height - pad_t - pad_b)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'role="img" aria-label="latency CDF by serving tier">'
    ]
    # Decade gridlines + tick labels; quarter gridlines on y.
    for exp in range(math.ceil(log_lo), math.floor(log_hi) + 1):
        x = x_of(10.0**exp)
        parts.append(
            f'<line x1="{x:.1f}" y1="{pad_t}" x2="{x:.1f}" '
            f'y2="{height - pad_b}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - 10}" font-size="11" '
            f'fill="var(--muted)" text-anchor="middle">'
            f"{_fmt_ns(10.0 ** exp)}</text>"
        )
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(q)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" y2="{y:.1f}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{pad_l - 6}" y="{y + 4:.1f}" font-size="11" '
            f'fill="var(--muted)" text-anchor="end">{q:.2f}</text>'
        )
    parts.append(
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="var(--axis)" stroke-width="1"/>'
    )
    label_slots: list[float] = []
    for tier in TIERS:
        hist = populated.get(tier)
        if hist is None:
            continue
        points = hist.cdf_points()
        coords = [(x_of(lo), y_of(0.0))] + [
            (x_of(v), y_of(frac)) for v, frac in points
        ]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        color = _TIER_VARS[tier]
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round">'
            f"<title>{tier}: n={hist.n}, p50={_fmt_ns(hist.percentile(50))}, "
            f"p99={_fmt_ns(hist.percentile(99))}</title></polyline>"
        )
        # Direct label at the line's end: ink text with a colored marker.
        end_x, end_y = coords[-1]
        while any(abs(end_y - used) < 14 for used in label_slots):
            end_y -= 14
        label_slots.append(end_y)
        parts.append(
            f'<circle cx="{end_x:.1f}" cy="{coords[-1][1]:.1f}" r="4" '
            f'fill="{color}" stroke="var(--surface)" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{end_x + 8:.1f}" y="{end_y + 4:.1f}" font-size="11" '
            f'fill="var(--ink-2)">{tier}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _percentile_table(histograms: dict[str, LatencyHistogram]) -> str:
    rows = []
    for tier in TIERS:
        hist = histograms.get(tier)
        if hist is None or hist.n == 0:
            continue
        p = hist.percentiles()
        rows.append(
            f'<tr><td><span class="sw legend-sw" style="background:'
            f'{_TIER_VARS[tier]};display:inline-block;width:10px;height:10px;'
            f'border-radius:3px;margin-right:5px;vertical-align:-1px"></span>'
            f"{tier}</td><td>{hist.n:,}</td>"
            f"<td>{_fmt_ns(hist.mean_ns)}</td>"
            f"<td>{_fmt_ns(p['p50'])}</td><td>{_fmt_ns(p['p95'])}</td>"
            f"<td>{_fmt_ns(p['p99'])}</td><td>{_fmt_ns(p['p999'])}</td></tr>"
        )
    return (
        "<table><tr><th>tier</th><th>requests</th><th>mean</th><th>p50</th>"
        "<th>p95</th><th>p99</th><th>p99.9</th></tr>" + "".join(rows) + "</table>"
    )


def _legend(tiers: list[str]) -> str:
    items = "".join(
        f'<span><span class="sw" style="background:{_TIER_VARS[t]}"></span>'
        f"{t}</span>"
        for t in tiers
    )
    return f'<div class="legend">{items}</div>'


def _unit_heatmap_svg(spatial: SpatialReport) -> str:
    """Grid of NDP units colored by served requests (sequential ramp)."""
    n = spatial.n_units
    if n == 0:
        return '<p class="note">no spatial data recorded</p>'
    per_stack = max(1, n // max(1, spatial.n_stacks))
    mesh = max(1, int(math.isqrt(per_stack)))
    stack_cols = max(1, int(math.isqrt(spatial.n_stacks)))
    cell, gap, stack_gap = 26, 2, 14
    stack_w = mesh * (cell + gap)
    rows_per_stack = (per_stack + mesh - 1) // mesh
    stack_h = rows_per_stack * (cell + gap)
    stack_rows = (spatial.n_stacks + stack_cols - 1) // stack_cols
    width = stack_cols * (stack_w + stack_gap) + 4
    height = stack_rows * (stack_h + stack_gap + 16) + 4
    peak = max(spatial.served) if spatial.served else 0
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{min(width, 960)}" '
        f'role="img" aria-label="requests served per NDP unit">'
    ]
    for unit in range(n):
        stack, local = divmod(unit, per_stack)
        sy, sx = divmod(stack, stack_cols)
        my, mx = divmod(local, mesh)
        x = sx * (stack_w + stack_gap) + mx * (cell + gap) + 2
        y = sy * (stack_h + stack_gap + 16) + my * (cell + gap) + 16
        served = spatial.served[unit]
        step = _heat_class(served, peak)
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" rx="4" '
            f'fill="var(--heat-{step})">'
            f"<title>unit {unit} (stack {stack}): served {served:,}, "
            f"issued {spatial.issued[unit]:,}, "
            f"occupancy {_fmt_ns(spatial.occupancy_ns[unit])}</title></rect>"
        )
    for stack in range(spatial.n_stacks):
        sy, sx = divmod(stack, stack_cols)
        x = sx * (stack_w + stack_gap) + 2
        y = sy * (stack_h + stack_gap + 16) + 11
        parts.append(
            f'<text x="{x}" y="{y}" font-size="10" fill="var(--muted)">'
            f"stack {stack}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _top_units_table(spatial: SpatialReport, top: int = 8) -> str:
    order = sorted(
        range(spatial.n_units), key=lambda u: spatial.served[u], reverse=True
    )[:top]
    rows = "".join(
        f"<tr><td>unit {u}</td><td>{spatial.served[u]:,}</td>"
        f"<td>{spatial.issued[u]:,}</td>"
        f"<td>{_fmt_ns(spatial.occupancy_ns[u])}</td></tr>"
        for u in order
    )
    return (
        "<table><tr><th>hottest units</th><th>served</th><th>issued</th>"
        "<th>occupancy</th></tr>" + rows + "</table>"
    )


def _link_matrix(spatial: SpatialReport) -> str:
    n = spatial.n_stacks
    if n == 0:
        return '<p class="note">no spatial data recorded</p>'
    peak = max((max(row) for row in spatial.link_bytes), default=0)
    head = "".join(f"<th>to {d}</th>" for d in range(n))
    body = []
    for src in range(n):
        cells = []
        for dst in range(n):
            value = spatial.link_bytes[src][dst]
            step = _heat_class(value, peak)
            strong = ' hs' if step >= 4 else ""
            cells.append(
                f'<td class="cell{strong}" style="background:var(--heat-{step})" '
                f'title="stack {src} -> stack {dst}: {value:,} bytes">'
                f"{_fmt_count(value)}</td>"
            )
        body.append(f"<tr><td>from {src}</td>{''.join(cells)}</tr>")
    return (
        f'<table class="matrix"><tr><th></th>{head}</tr>'
        + "".join(body)
        + "</table>"
        + '<p class="note">diagonal = intra-stack round trips; '
        "off-diagonal = inter-stack link pressure (the roofline input)</p>"
    )


def _timeline_svg(timeline: Timeline) -> str:
    """Per-epoch duration (delta of cumulative cycles), one line."""
    records = timeline.records
    if len(records) < 2:
        return '<p class="note">timeline too short to plot</p>'
    deltas = []
    prev = 0.0
    for rec in records:
        deltas.append(max(0.0, rec.cycles_total - prev))
        prev = rec.cycles_total
    width, height = 640, 160
    pad_l, pad_r, pad_t, pad_b = 56, 14, 8, 22
    peak = max(deltas) or 1.0
    step = (width - pad_l - pad_r) / max(1, len(deltas) - 1)

    def y_of(v: float) -> float:
        return pad_t + (1.0 - v / peak) * (height - pad_t - pad_b)

    pts = " ".join(
        f"{pad_l + i * step:.1f},{y_of(v):.1f}" for i, v in enumerate(deltas)
    )
    grid = "".join(
        f'<line x1="{pad_l}" y1="{y_of(peak * q):.1f}" x2="{width - pad_r}" '
        f'y2="{y_of(peak * q):.1f}" stroke="var(--grid)" stroke-width="1"/>'
        f'<text x="{pad_l - 6}" y="{y_of(peak * q) + 4:.1f}" font-size="10" '
        f'fill="var(--muted)" text-anchor="end">{_fmt_count(peak * q)}</text>'
        for q in (0.5, 1.0)
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'aria-label="cycles per epoch">{grid}'
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="var(--axis)" stroke-width="1"/>'
        f'<text x="{width - pad_r}" y="{height - 8}" font-size="10" '
        f'fill="var(--muted)" text-anchor="end">epoch {len(deltas) - 1}</text>'
        f'<polyline points="{pts}" fill="none" stroke="var(--tier-local)" '
        f'stroke-width="2" stroke-linejoin="round">'
        f"<title>cycles per epoch (peak {_fmt_count(peak)})</title>"
        f"</polyline></svg>"
    )


_SLO_VARS = {"ok": "var(--slo-ok)", "warn": "var(--slo-warn)", "page": "var(--slo-page)"}


def _slo_tenant_svg(
    transitions: list[tuple[int, str]],
    history: list[list[float]],
    last_epoch: int,
) -> str:
    """One tenant's SLO view: an alert-state band strip over epochs with
    the error-budget burn-down line beneath it, on a shared x axis."""
    width, height = 640, 150
    pad_l, pad_r, pad_t, pad_b = 56, 14, 8, 22
    band_h = 14
    chart_top = pad_t + band_h + 8
    span = max(1, last_epoch)

    def x_of(epoch: float) -> float:
        return pad_l + min(1.0, epoch / span) * (width - pad_l - pad_r)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'aria-label="SLO alert timeline and budget burn-down">'
    ]
    # Alert-state bands: each transition opens a segment until the next.
    segments = transitions or [(0, "ok")]
    for i, (epoch, state) in enumerate(segments):
        end = segments[i + 1][0] if i + 1 < len(segments) else last_epoch + 1
        x0, x1 = x_of(epoch), x_of(end)
        parts.append(
            f'<rect x="{x0:.1f}" y="{pad_t}" width="{max(1.0, x1 - x0):.1f}" '
            f'height="{band_h}" rx="3" fill="{_SLO_VARS.get(state, _SLO_VARS["ok"])}">'
            f"<title>{state} from epoch {epoch}</title></rect>"
        )
    # Budget burn-down (1.0 at the top, 0.0 line emphasized; the series
    # may go negative once the budget is overspent).
    lo = min([v for _, v in history] + [0.0]) if history else 0.0
    hi = 1.0

    def y_of(v: float) -> float:
        return chart_top + (hi - v) / (hi - lo or 1.0) * (height - chart_top - pad_b)

    for q, label in ((1.0, "1.0"), (0.0, "0.0")):
        y = y_of(q)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" y2="{y:.1f}" '
            f'stroke="var(--{"axis" if q == 0.0 else "grid"})" stroke-width="1"/>'
            f'<text x="{pad_l - 6}" y="{y + 4:.1f}" font-size="10" '
            f'fill="var(--muted)" text-anchor="end">{label}</text>'
        )
    if history:
        pts = " ".join(
            f"{x_of(e):.1f},{y_of(v):.1f}" for e, v in history
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="var(--tier-local)" '
            f'stroke-width="2" stroke-linejoin="round">'
            f"<title>error budget remaining (final "
            f"{history[-1][1]:.2f})</title></polyline>"
        )
    parts.append(
        f'<text x="{width - pad_r}" y="{height - 8}" font-size="10" '
        f'fill="var(--muted)" text-anchor="end">epoch {last_epoch}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _slo_panel(slo_events: list[dict]) -> str:
    """The SLO section: per-tenant alert timeline bands, budget
    burn-down, and a rollup table — built from schema-3 ``slo_burn`` /
    ``slo_recovered`` / ``slo_status`` trace events."""
    transitions: dict[str, list[tuple[int, str]]] = {}
    status: dict[str, dict] = {}
    burns: dict[str, int] = {}
    last_epoch = 0
    for event in slo_events:
        kind = event.get("kind")
        tenant = str(event.get("tenant"))
        if kind in ("slo_burn", "slo_recovered"):
            epoch = int(event.get("epoch", 0))
            last_epoch = max(last_epoch, epoch)
            transitions.setdefault(tenant, [(0, "ok")]).append(
                (epoch, str(event.get("state", "ok")))
            )
            if kind == "slo_burn":
                burns[tenant] = burns.get(tenant, 0) + 1
        elif kind == "slo_status":
            status[tenant] = event
            for point in event.get("budget_history") or []:
                last_epoch = max(last_epoch, int(point[0]))
    tenants = sorted(set(transitions) | set(status))
    if not tenants:
        return ""
    sections = ["<h2>SLO error budgets</h2>"]
    legend = "".join(
        f'<span><span class="sw" style="background:{_SLO_VARS[s]}"></span>'
        f"{s}</span>"
        for s in ("ok", "warn", "page")
    )
    rows = []
    for tenant in tenants:
        info = status.get(tenant, {})
        history = [
            [int(p[0]), float(p[1])]
            for p in (info.get("budget_history") or [])
        ]
        sections.append('<div class="card">')
        sections.append(
            f'<div class="legend"><span>{html.escape(tenant)}</span>{legend}</div>'
        )
        sections.append(
            _slo_tenant_svg(transitions.get(tenant, []), history, last_epoch)
        )
        sections.append("</div>")
        rows.append(
            f"<tr><td>{html.escape(tenant)}</td>"
            f"<td>{html.escape(str(info.get('alert', '?')))}</td>"
            f"<td>{float(info.get('budget_remaining', 1.0)):.2f}</td>"
            f"<td>{float(info.get('worst_burn', 0.0)):.1f}x</td>"
            f"<td>{burns.get(tenant, 0)}</td></tr>"
        )
    sections.append('<div class="card">')
    sections.append(
        "<table><tr><th>tenant</th><th>final alert</th>"
        "<th>budget remaining</th><th>worst burn</th><th>escalations</th></tr>"
        + "".join(rows)
        + "</table>"
    )
    sections.append("</div>")
    return "\n".join(sections)


def render_dash(
    report: SimulationReport,
    source: str = "",
    slo_events: list[dict] | None = None,
) -> str:
    """One report (ideally from a recorded trace) -> standalone HTML."""
    title = f"{report.workload} under {report.policy}"
    sections = [f"<h1>{html.escape(title)}</h1>"]
    if source:
        sections.append(f'<p class="sub">rendered from {html.escape(source)}</p>')
    sections.append(_tiles(report))
    if report.tier_histograms:
        populated = [
            t for t in TIERS if report.tier_histograms.get(t, None) and report.tier_histograms[t].n
        ]
        sections.append("<h2>Latency CDF by serving tier</h2>")
        sections.append('<div class="card">')
        sections.append(_legend(populated))
        sections.append(_cdf_svg(report.tier_histograms))
        sections.append(_percentile_table(report.tier_histograms))
        sections.append("</div>")
    else:
        sections.append(
            '<p class="note">no latency histograms in this input — render '
            "from a trace (repro run --trace-out) for the distributional "
            "view</p>"
        )
    if report.spatial is not None:
        sections.append("<h2>Requests served per NDP unit</h2>")
        sections.append('<div class="card">')
        sections.append(_unit_heatmap_svg(report.spatial))
        sections.append(_top_units_table(report.spatial))
        sections.append(
            f'<p class="note">load imbalance (max/mean served): '
            f"{report.spatial.load_imbalance:.2f}x</p>"
        )
        sections.append("</div>")
        sections.append("<h2>Stack-to-stack link traffic</h2>")
        sections.append('<div class="card">')
        sections.append(_link_matrix(report.spatial))
        sections.append("</div>")
    if report.timeline is not None and len(report.timeline):
        sections.append("<h2>Epoch timeline</h2>")
        sections.append('<div class="card">')
        sections.append(_timeline_svg(report.timeline))
        sections.append("</div>")
    if slo_events:
        panel = _slo_panel(slo_events)
        if panel:
            sections.append(panel)
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n"
        f"<title>{html.escape(title)} — repro dash</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n<main>\n{body}\n</main>\n"
        "</body>\n</html>\n"
    )


def _is_trace(path: str) -> bool:
    """Whether ``path`` starts with a JSONL trace's header line."""
    with open(path) as f:
        first = f.readline().strip()
    try:
        head = json.loads(first) if first else {}
    except json.JSONDecodeError:
        return False
    return isinstance(head, dict) and head.get("kind") == "header"


def load_input(path: str) -> tuple[SimulationReport, list[dict], dict]:
    """The dashboard's inputs from one read of ``path``: the report, the
    SLO events and the counters.  A trace gives all three (its
    ``report`` line is a :meth:`SimulationReport.to_json` dict); a
    report JSON gives the report alone."""
    from repro.obs.traceio import read_trace

    if _is_trace(path):
        trace = read_trace(path)
        slo_events = [
            e
            for e in trace.events
            if e.get("kind") in ("slo_burn", "slo_recovered", "slo_status")
        ]
        return trace.report, slo_events, trace.counters
    try:
        with open(path) as f:
            payload = json.load(f)
    except json.JSONDecodeError:
        payload = None
    if not isinstance(payload, dict) or "runtime_cycles" not in payload:
        raise ValueError(
            f"{path}: neither a JSONL trace (header line) nor a report JSON"
        )
    return SimulationReport.from_json(payload), [], {}


def cmd_dash(args) -> None:
    report, slo_events, counters = load_input(args.input)
    html_text = render_dash(report, source=args.input, slo_events=slo_events)
    with open(args.out, "w") as f:
        f.write(html_text)
    print(f"[dash] wrote {args.out}")
    if args.prom:
        from repro.obs.export import prometheus_text

        with open(args.prom, "w") as f:
            f.write(prometheus_text(report))
        print(f"[dash] wrote {args.prom}")
    if args.json:
        from repro.obs.export import json_payload, write_json

        write_json(args.json, json_payload(report, counters=counters))
        print(f"[dash] wrote {args.json}")
