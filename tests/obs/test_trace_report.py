"""A recorded trace carries its run's finished report, whole.

The trace's one ``report`` line is ``SimulationReport.to_json()``, so
``read_trace(path).report`` must equal the report the run returned,
field by field with nothing skipped: faults, static energy, the epoch
timeline, the tier histograms and the spatial map.  Everything read from
a trace (``stats``, ``dash``, ``dash --prom``) goes through it.
"""

import re

import pytest

from repro.__main__ import main
from repro.core import NdpExtPolicy
from repro.faults import CxlCrcBurst, FaultSchedule, UnitFailure
from repro.obs import Recorder, read_trace
from repro.obs.export import prometheus_text
from repro.serve import STORM_FAULTS, ServeHarness, two_tenant_scenario
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical


def _faulted_run(tmp_path):
    recorder = Recorder(workload="pr", policy="ndpext", preset="tiny")
    schedule = FaultSchedule(
        (UnitFailure(epoch=1, unit=2), CxlCrcBurst(epoch=1, duration=1))
    )
    engine = SimulationEngine(tiny(), faults=schedule, recorder=recorder)
    report = engine.run(build("pr", TINY), NdpExtPolicy())
    path = str(tmp_path / "run.jsonl")
    recorder.write_jsonl(path)
    return report, path


def _storm(tmp_path):
    recorder = Recorder(workload="pr", policy="ndpext", preset="tiny")
    scenario = two_tenant_scenario(
        name="storm-report",
        batch_accesses=500,
        wave_size=6,
        steps_per_wave=3,
        faults=dict(STORM_FAULTS),
    )
    report = ServeHarness(scenario, preset="tiny", recorder=recorder).run()
    path = str(tmp_path / "serve.jsonl")
    recorder.write_jsonl(path)
    return report.sim, path


@pytest.mark.parametrize("record", [_faulted_run, _storm], ids=["run", "serve-storm"])
def test_trace_report_equals_returned_report(record, tmp_path):
    report, path = record(tmp_path)
    trace = read_trace(path)
    assert len(trace.events_of("report")) == 1
    assert_reports_identical(trace.report, report)
    # The recording-only fields are really there, not None on both sides.
    assert report.faults is not None
    assert report.energy.static_nj > 0.0
    assert len(report.timeline) == len(report.per_epoch_cycles) > 0
    assert report.tier_histograms and report.spatial is not None
    # The per-epoch copies and the gauges line are gone (an unknown line
    # kind would land in ``events``).
    kinds = {e["kind"] for e in trace.events}
    assert not kinds & {"epoch", "histogram", "spatial", "gauges"}


@pytest.mark.parametrize("record", [_faulted_run, _storm], ids=["run", "serve-storm"])
def test_prometheus_of_trace_report_keeps_faults_and_static_energy(record, tmp_path):
    report, path = record(tmp_path)
    text = prometheus_text(read_trace(path).report)
    assert "repro_faults_total{" in text
    static = re.search(
        r'^repro_energy_nj_total\{[^}]*component="static"[^}]*\} (\S+)$',
        text,
        re.MULTILINE,
    )
    assert static is not None
    assert float(static.group(1)) == pytest.approx(report.energy.static_nj)
    assert float(static.group(1)) > 0.0


def test_dash_prom_of_a_serve_trace(tmp_path, capsys):
    _, path = _storm(tmp_path)
    prom = tmp_path / "dash.prom"
    out = tmp_path / "dash.html"
    assert main(["dash", path, "--out", str(out), "--prom", str(prom)]) == 0
    assert "repro_faults_total{" in prom.read_text()
    assert "Epoch timeline" in out.read_text()


def test_schema_3_trace_without_report_line_is_refused(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"kind": "header", "schema": 3, "workload": "pr"}\n'
        '{"seq": 0, "kind": "epoch", "epoch": 0}\n'
        '{"kind": "footer", "events": 1}\n'
    )
    trace = read_trace(str(path))
    with pytest.raises(ValueError, match="schema 3.*re-recorded"):
        trace.report


def test_trace_with_two_report_lines_is_refused(tmp_path):
    recorder = Recorder(workload="pr", policy="ndpext")
    engine = SimulationEngine(tiny(), recorder=recorder)
    for _ in range(2):
        engine.run(build("pr", TINY), NdpExtPolicy())
    path = str(tmp_path / "two.jsonl")
    recorder.write_jsonl(path)
    with pytest.raises(ValueError, match="found 2"):
        read_trace(path).report
