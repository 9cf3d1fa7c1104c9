"""The ``repro dash`` renderer: structurally valid standalone HTML from
either input shape (JSONL trace or report JSON), with every section the
acceptance criteria name — CDF, unit heatmap, link matrix, timeline."""

from dataclasses import replace
from html.parser import HTMLParser

import pytest

from repro.core import NdpExtPolicy
from repro.obs import Recorder
from repro.obs.dash import load_input, render_dash
from repro.obs.export import write_json
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build


class TagChecker(HTMLParser):
    """Minimal well-formedness check: every non-void tag closes in order."""

    VOID = {"meta", "br", "hr", "img", "input", "link", "line", "rect", "circle", "path"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []
        self.tags: dict[str, int] = {}

    def handle_starttag(self, tag, attrs):
        self.tags[tag] = self.tags.get(tag, 0) + 1
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.tags[tag] = self.tags.get(tag, 0) + 1

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}> (stack: {self.stack[-3:]})")
        else:
            self.stack.pop()


def checked(html_text: str) -> TagChecker:
    checker = TagChecker()
    checker.feed(html_text)
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"
    return checker


@pytest.fixture(scope="module")
def recorded():
    recorder = Recorder(workload="pr", policy="ndpext", preset="tiny")
    engine = SimulationEngine(tiny(), recorder=recorder)
    report = engine.run(build("pr", TINY), NdpExtPolicy())
    return report, recorder


class TestRenderDash:
    def test_standalone_well_formed_html(self, recorded):
        report, _ = recorded
        html_text = render_dash(report, source="test")
        checker = checked(html_text)
        assert html_text.startswith("<!DOCTYPE html>")
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html_text
        assert "http://" not in html_text and "https://" not in html_text

    def test_all_sections_present(self, recorded):
        report, _ = recorded
        html_text = render_dash(report)
        for heading in (
            "Latency CDF by serving tier",
            "Requests served per NDP unit",
            "Stack-to-stack link traffic",
            "Epoch timeline",
        ):
            assert heading in html_text, heading
        checker = checked(html_text)
        assert checker.tags.get("svg", 0) >= 3
        assert checker.tags.get("polyline", 0) >= 2  # CDFs + timeline
        assert checker.tags.get("rect", 0) >= report.spatial.n_units
        assert checker.tags.get("table", 0) >= 3  # percentiles, units, matrix
        assert checker.tags.get("title", 0) >= 3  # native tooltips

    def test_percentile_table_carries_each_populated_tier(self, recorded):
        report, _ = recorded
        html_text = render_dash(report)
        for tier, hist in report.tier_histograms.items():
            if hist.n:
                assert f">{tier}<" in html_text or f"{tier}</td>" in html_text

    def test_report_without_obs_degrades_gracefully(self, recorded):
        report, _ = recorded
        bare = replace(report, timeline=None, tier_histograms=None, spatial=None)
        html_text = render_dash(bare)
        checked(html_text)
        assert "no latency histograms" in html_text

    def test_text_never_wears_series_color(self, recorded):
        """SVG text elements use ink tokens, never the tier hues."""
        report, _ = recorded
        html_text = render_dash(report)
        import re

        for match in re.finditer(r"<text[^>]*fill=\"([^\"]+)\"", html_text):
            assert match.group(1) in (
                "var(--ink)",
                "var(--ink-2)",
                "var(--muted)",
            ), match.group(0)


class TestLoadInput:
    def test_loads_jsonl_trace(self, recorded, tmp_path):
        report, recorder = recorded
        path = tmp_path / "t.jsonl"
        recorder.write_jsonl(str(path))
        loaded, slo_events, counters = load_input(str(path))
        assert loaded.runtime_cycles == report.runtime_cycles
        assert loaded.tier_histograms is not None
        assert loaded.spatial is not None
        assert slo_events == [] and counters == recorder.counters

    def test_loads_report_json(self, recorded, tmp_path):
        report, _ = recorded
        path = tmp_path / "r.json"
        write_json(str(path), report.to_json())
        loaded, slo_events, counters = load_input(str(path))
        assert loaded.runtime_cycles == report.runtime_cycles
        assert loaded.spatial.served == report.spatial.served
        assert slo_events == [] and counters == {}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(ValueError, match="neither"):
            load_input(str(path))


SLO_EVENTS = [
    {"kind": "slo_burn", "tenant": "interactive", "state": "warn",
     "epoch": 13, "burn_fast": 8.0},
    {"kind": "slo_burn", "tenant": "interactive", "state": "page",
     "epoch": 15, "burn_fast": 21.0},
    {"kind": "slo_recovered", "tenant": "interactive", "state": "ok",
     "epoch": 22},
    {"kind": "slo_status", "tenant": "interactive", "alert": "ok",
     "budget_remaining": 0.4, "worst_burn": 21.0,
     "budget_history": [[0, 1.0], [15, 0.1], [22, 0.4]]},
    {"kind": "slo_status", "tenant": "analytics", "alert": "ok",
     "budget_remaining": 0.9, "worst_burn": 1.2,
     "budget_history": [[0, 1.0], [22, 0.9]]},
]


class TestSloPanel:
    def test_panel_renders_bands_burndown_and_rollup(self, recorded):
        report, _ = recorded
        html_text = render_dash(report, slo_events=SLO_EVENTS)
        checker = checked(html_text)
        assert "SLO error budgets" in html_text
        # Alert-state bands use the dedicated SLO color tokens.
        for token in ("var(--slo-ok)", "var(--slo-warn)", "var(--slo-page)"):
            assert token in html_text, token
        # Rollup table: both tenants, final alert, burn multiple,
        # escalation count (two slo_burn events for interactive).
        assert ">interactive<" in html_text
        assert ">analytics<" in html_text
        assert "21.0x" in html_text
        assert "<td>2</td>" in html_text
        assert "page from epoch 15" in html_text
        # One SVG per tenant card on top of the base dashboard's three.
        assert checker.tags.get("svg", 0) >= 5

    def test_no_slo_events_no_panel(self, recorded):
        report, _ = recorded
        html_text = render_dash(report, slo_events=[])
        checked(html_text)
        assert "SLO error budgets" not in html_text

    def test_status_only_tenant_still_gets_a_card(self, recorded):
        """A tenant that never alerted renders from its final status
        alone — an all-ok band plus the budget line."""
        report, _ = recorded
        html_text = render_dash(
            report, slo_events=[e for e in SLO_EVENTS if e["tenant"] == "analytics"]
        )
        checked(html_text)
        assert ">analytics<" in html_text
        assert "0.90" in html_text


class TestLoadSloEvents:
    def test_pulls_slo_events_from_trace(self, recorded, tmp_path):
        report, _ = recorded
        rec = Recorder(workload="pr", policy="ndpext")
        rec.event("epoch", epoch=0)
        rec.event("slo_burn", tenant="a", state="page", epoch=3)
        rec.event("slo_status", tenant="a", alert="page",
                  budget_remaining=-0.2, worst_burn=30.0)
        rec.event("report", **report.to_json())
        path = tmp_path / "t.jsonl"
        rec.write_jsonl(str(path))
        _, events, _ = load_input(str(path))
        assert [e["kind"] for e in events] == ["slo_burn", "slo_status"]

    def test_report_json_input_yields_no_events(self, recorded, tmp_path):
        report, _ = recorded
        path = tmp_path / "r.json"
        write_json(str(path), report.to_json())
        assert load_input(str(path))[1] == []


class TestCli:
    def test_dash_verb_end_to_end(self, recorded, tmp_path, capsys):
        from repro.__main__ import main

        _, recorder = recorded
        trace = tmp_path / "t.jsonl"
        recorder.write_jsonl(str(trace))
        out = tmp_path / "dash.html"
        prom = tmp_path / "m.prom"
        assert (
            main(
                [
                    "dash",
                    str(trace),
                    "--out",
                    str(out),
                    "--prom",
                    str(prom),
                ]
            )
            == 0
        )
        checked(out.read_text())
        assert prom.read_text().startswith("# HELP")
        assert "wrote" in capsys.readouterr().out

    def test_dash_reads_a_trace_once(self, recorded, tmp_path, monkeypatch):
        from repro.__main__ import main
        from repro.obs import traceio

        _, recorder = recorded
        trace = tmp_path / "t.jsonl"
        recorder.write_jsonl(str(trace))
        calls = []
        real = traceio.read_trace

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(traceio, "read_trace", counting)
        assert main(["dash", str(trace), "--out", str(tmp_path / "d.html")]) == 0
        assert calls == [str(trace)]

    def test_dash_json_carries_the_trace_counters(self, tmp_path):
        import json

        from repro.__main__ import main

        trace = tmp_path / "run.jsonl"
        assert main([
            "--preset", "tiny", "run", "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(trace),
        ]) == 0
        out = tmp_path / "d.json"
        assert main([
            "dash", str(trace), "--out", str(tmp_path / "d.html"),
            "--json", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["counters"]["runner.recorded_runs"] == 1
