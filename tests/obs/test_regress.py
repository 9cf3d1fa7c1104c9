"""Regression-gate semantics: direction normalization, thresholds,
missing metrics, quick-vs-full refusal, and CLI exit behavior."""

import json

import pytest

from repro.obs.regress import (
    DEFAULT_THRESHOLD,
    GUARDED_METRICS,
    METRIC_THRESHOLDS,
    PHASE_SHARE_WARN_PTS,
    check_bench,
    check_floors,
    compare_bench,
    compare_phase_shares,
    delta_rows,
    floor_rows,
    load_bench,
    phase_share_rows,
    regressions,
)


def bench(
    aps=500_000.0,
    l1=2.0,
    serial=10.0,
    parallel=4.0,
    warm=0.5,
    speedup=2.5,
    kernel=4.0,
    kernel_aps=400_000.0,
    paper_aps=80_000.0,
    paper_setup_s=30.0,
    paper_rss=2800.0,
    serve_ms=20.0,
    quick=False,
):
    return {
        "quick": quick,
        "engine": {"accesses_per_second": aps, "l1_speedup": l1},
        "kernels": {
            "kernel_speedup": kernel,
            "backends": {"numpy": {"accesses_per_second": kernel_aps}},
        },
        "engine_paper": {"accesses_per_second": paper_aps},
        "paper_setup": {"setup_s": paper_setup_s, "peak_rss_mb": paper_rss},
        "serve": {"ms_per_batch": serve_ms},
        "suite": {
            "serial_cold_s": serial,
            "parallel_cold_s": parallel,
            "warm_s": warm,
            "parallel_speedup": speedup,
        },
    }


class TestCompare:
    def test_identical_runs_have_zero_regression(self):
        deltas = compare_bench(bench(), bench())
        assert len(deltas) == len(GUARDED_METRICS)
        assert all(d.regression == pytest.approx(0.0) for d in deltas)
        assert not regressions(deltas)

    def test_throughput_drop_is_positive_regression(self):
        """Lower accesses/s is worse: +x% regression."""
        deltas = compare_bench(bench(aps=500.0), bench(aps=1000.0))
        by_name = {d.metric: d for d in deltas}
        assert by_name["engine.accesses_per_second"].regression == pytest.approx(1.0)
        assert by_name["engine.accesses_per_second"].failed

    def test_numpy_kernel_throughput_is_guarded_absolutely(self):
        """The numpy backend's own acc/s is gated, not only its ratio
        to the python reference: a slower numpy kernel cell regresses
        even when the ratio holds."""
        deltas = compare_bench(
            bench(kernel_aps=200_000.0), bench(kernel_aps=400_000.0)
        )
        by_name = {d.metric: d for d in deltas}
        metric = by_name["kernels.backends.numpy.accesses_per_second"]
        assert metric.regression == pytest.approx(1.0)
        assert metric.failed
        assert not by_name["kernels.kernel_speedup"].failed
        faster = compare_bench(
            bench(kernel_aps=600_000.0), bench(kernel_aps=400_000.0)
        )
        assert not regressions(faster)

    def test_paper_setup_time_and_memory_are_lower_is_better(self):
        deltas = compare_bench(
            bench(paper_setup_s=45.0, paper_rss=2000.0),
            bench(paper_setup_s=30.0, paper_rss=2800.0),
        )
        by_name = {d.metric: d for d in deltas}
        assert by_name["paper_setup.setup_s"].regression == pytest.approx(0.5)
        assert by_name["paper_setup.setup_s"].failed
        assert by_name["paper_setup.peak_rss_mb"].regression < 0
        assert not by_name["paper_setup.peak_rss_mb"].failed

    def test_serve_ms_per_batch_is_lower_is_better(self):
        deltas = compare_bench(bench(serve_ms=30.0), bench(serve_ms=20.0))
        by_name = {d.metric: d for d in deltas}
        assert by_name["serve.ms_per_batch"].regression == pytest.approx(0.5)
        assert by_name["serve.ms_per_batch"].failed
        faster = compare_bench(bench(serve_ms=15.0), bench(serve_ms=20.0))
        assert not {d.metric: d for d in faster}["serve.ms_per_batch"].failed

    def test_wall_clock_growth_is_positive_regression(self):
        """Higher wall clock is worse: the sign is normalized."""
        deltas = compare_bench(bench(serial=15.0), bench(serial=10.0))
        by_name = {d.metric: d for d in deltas}
        assert by_name["suite.serial_cold_s"].regression == pytest.approx(0.5)
        assert by_name["suite.serial_cold_s"].failed

    def test_improvement_never_fails(self):
        deltas = compare_bench(
            bench(aps=2000.0, serial=5.0), bench(aps=1000.0, serial=10.0)
        )
        assert not regressions(deltas)
        by_name = {d.metric: d for d in deltas}
        assert by_name["engine.accesses_per_second"].regression < 0

    def test_threshold_boundary_is_not_a_failure(self):
        deltas = compare_bench(
            bench(serial=12.0), bench(serial=10.0), threshold=0.20
        )
        by_name = {d.metric: d for d in deltas}
        assert by_name["suite.serial_cold_s"].regression == pytest.approx(0.2)
        assert not by_name["suite.serial_cold_s"].failed

    def test_missing_metrics_are_skipped_not_failed(self):
        previous = {"engine": {"accesses_per_second": 1000.0}}
        deltas = compare_bench(bench(), previous)
        assert [d.metric for d in deltas] == ["engine.accesses_per_second"]

    def test_non_positive_values_are_skipped(self):
        deltas = compare_bench(bench(aps=0.0), bench(aps=1000.0))
        assert "engine.accesses_per_second" not in {d.metric for d in deltas}

    def test_delta_rows_render_status(self):
        rows = delta_rows(compare_bench(bench(aps=100.0), bench(aps=1000.0)))
        status = {row[0]: row[4] for row in rows}
        assert status["engine.accesses_per_second"] == "REGRESSED"
        assert status["suite.warm_s"] == "ok"


class TestMetricThresholds:
    """Per-metric leashes tighter than the global threshold."""

    def test_l1_speedup_has_a_ten_percent_leash(self):
        # The exact drift that motivated the override: 1.16x -> 1.01x
        # is a 14.9% regression — under the 20% default it passed
        # silently; the 10% leash catches it.
        deltas = compare_bench(bench(l1=1.01), bench(l1=1.16))
        by_name = {d.metric: d for d in deltas}
        delta = by_name["engine.l1_speedup"]
        assert delta.threshold == pytest.approx(0.10)
        assert delta.regression == pytest.approx(1.16 / 1.01 - 1.0)
        assert delta.failed

    def test_override_never_loosens_the_cli_threshold(self):
        # A user-tightened global threshold (5%) beats the 10% override.
        deltas = compare_bench(bench(l1=1.08), bench(l1=1.16), threshold=0.05)
        by_name = {d.metric: d for d in deltas}
        assert by_name["engine.l1_speedup"].threshold == pytest.approx(0.05)
        assert by_name["engine.l1_speedup"].failed

    def test_other_metrics_keep_the_global_threshold(self):
        deltas = compare_bench(bench(), bench())
        by_name = {d.metric: d for d in deltas}
        assert by_name["suite.warm_s"].threshold == pytest.approx(
            DEFAULT_THRESHOLD
        )
        assert set(METRIC_THRESHOLDS) == {"engine.l1_speedup"}


class TestPhaseShares:
    """Engine phase-share drift: always warn-only attribution news."""

    def _payload(self, **shares):
        return {
            "engine": {
                "phases": {
                    name: {"share": share} for name, share in shares.items()
                }
            }
        }

    def test_identical_shares_are_quiet(self):
        cur = self._payload(**{"policy.process": 0.4, "engine.charge": 0.1})
        deltas = compare_phase_shares(cur, cur)
        assert all(not d.failed for d in deltas)
        assert all(d.status == "ok" for d in deltas)

    def test_large_shift_is_flagged_in_percentage_points(self):
        deltas = compare_phase_shares(
            self._payload(**{"policy.process": 0.45}),
            self._payload(**{"policy.process": 0.30}),
        )
        (delta,) = deltas
        assert delta.moved_pts == pytest.approx(15.0)
        assert delta.threshold_pts == PHASE_SHARE_WARN_PTS
        assert delta.failed and delta.status == "SHIFTED"

    def test_phase_present_in_only_one_payload_compares_against_zero(self):
        deltas = compare_phase_shares(
            self._payload(**{"engine.queueing": 0.15}), self._payload()
        )
        (delta,) = deltas
        assert delta.previous_pts == 0.0
        assert delta.failed

    def test_sorted_by_magnitude_of_move(self):
        deltas = compare_phase_shares(
            self._payload(**{"a": 0.50, "b": 0.10}),
            self._payload(**{"a": 0.45, "b": 0.30}),
        )
        assert [d.phase for d in deltas] == ["b", "a"]

    def test_missing_phase_sections_yield_no_deltas(self):
        assert compare_phase_shares({}, {}) == []
        assert compare_phase_shares({"engine": {}}, {}) == []

    def test_rows_render_signed_moves(self):
        rows = phase_share_rows(
            compare_phase_shares(
                self._payload(**{"x": 0.42}), self._payload(**{"x": 0.30})
            )
        )
        assert rows[0] == ["x", "30.0", "42.0", "+12.0", "SHIFTED"]

    def test_bench_cli_phase_check_is_warn_only(self, tmp_path, capsys):
        import argparse

        from repro.exec.bench import _check_phase_shares

        prev = bench()
        prev["engine"]["phases"] = {"policy.process": {"share": 0.20}}
        path = tmp_path / "prev.json"
        path.write_text(json.dumps(prev))
        cur = bench()
        cur["engine"]["phases"] = {"policy.process": {"share": 0.45}}
        args = argparse.Namespace(check=str(path), check_strict=True)
        # Even under --check-strict a share shift must not exit.
        _check_phase_shares(cur, args)
        out = capsys.readouterr().out
        assert "SHIFTED" in out


class TestFloors:
    """Absolute invariants need no baseline file at all."""

    def test_speedup_above_floor_passes(self):
        checks = check_floors(bench(speedup=1.8))
        by_name = {c.metric: c for c in checks}
        assert "suite.parallel_speedup" in by_name
        assert not by_name["suite.parallel_speedup"].failed
        assert all(c.status == "ok" for c in checks)

    def test_speedup_at_or_below_floor_fails(self):
        # The floor is exclusive: exactly 1.0x (no faster than serial)
        # is a failure, not a pass.
        assert check_floors(bench(speedup=1.0))[0].failed
        assert check_floors(bench(speedup=0.8))[0].failed
        assert check_floors(bench(speedup=0.8))[0].status == "BELOW FLOOR"

    def test_missing_metric_is_skipped(self):
        assert check_floors({"suite": {}}) == []

    def test_single_cpu_machines_skip_the_parallel_floor(self):
        # One core cannot beat serial with process fan-out; the floor
        # only binds where parallelism is physically possible.
        payload = bench(speedup=0.9)
        payload["cpu_count"] = 1
        assert "suite.parallel_speedup" not in [
            c.metric for c in check_floors(payload)
        ]
        payload["cpu_count"] = 2
        by_name = {c.metric: c for c in check_floors(payload)}
        assert by_name["suite.parallel_speedup"].failed

    def test_floor_rows_render(self):
        rows = floor_rows(check_floors(bench(speedup=0.5)))
        assert rows[0][0] == "suite.parallel_speedup"
        assert rows[0][3] == "BELOW FLOOR"

    def test_bench_cli_strict_floor_exits(self, capsys):
        import argparse

        from repro.exec.bench import _check_floors

        payload = bench(speedup=0.7)
        args = argparse.Namespace(check_strict=False)
        _check_floors(payload, args)
        assert "below floor" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="BELOW FLOOR"):
            _check_floors(payload, argparse.Namespace(check_strict=True))

    def test_bench_cli_floor_pass_is_quiet(self, capsys):
        import argparse

        from repro.exec.bench import _check_floors

        _check_floors(bench(speedup=3.0), argparse.Namespace(check_strict=True))
        out = capsys.readouterr().out
        assert "BELOW FLOOR" not in out


class TestCheckBench:
    def _write(self, tmp_path, payload, name="prev.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_loads_and_splits_failures(self, tmp_path):
        path = self._write(tmp_path, bench(aps=1000.0))
        deltas, failed = check_bench(bench(aps=100.0), path)
        assert len(deltas) == len(GUARDED_METRICS)
        assert [d.metric for d in failed] == ["engine.accesses_per_second"]

    def test_refuses_quick_vs_full(self, tmp_path):
        path = self._write(tmp_path, bench(quick=True))
        with pytest.raises(ValueError, match="quick"):
            check_bench(bench(quick=False), path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not a valid bench JSON"):
            load_bench(str(path))

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_bench(str(path))

    def test_default_threshold_is_twenty_percent(self):
        assert DEFAULT_THRESHOLD == pytest.approx(0.20)


class TestBenchCliGate:
    """The ``bench --check`` wiring, without running a real bench."""

    def _args(self, **kw):
        import argparse

        defaults = dict(
            check=None, check_threshold=None, check_strict=False
        )
        defaults.update(kw)
        return argparse.Namespace(**defaults)

    def test_strict_mode_exits_nonzero_on_regression(self, tmp_path):
        from repro.exec.bench import _check_against

        path = tmp_path / "prev.json"
        path.write_text(json.dumps(bench(aps=10_000.0)))
        with pytest.raises(SystemExit):
            _check_against(
                bench(aps=100.0),
                self._args(check=str(path), check_strict=True),
            )

    def test_warn_only_returns_normally(self, tmp_path, capsys):
        from repro.exec.bench import _check_against

        path = tmp_path / "prev.json"
        path.write_text(json.dumps(bench(aps=10_000.0)))
        _check_against(bench(aps=100.0), self._args(check=str(path)))
        out = capsys.readouterr().out
        assert "warning: regressed" in out

    def test_missing_previous_file_warns_unless_strict(self, tmp_path, capsys):
        from repro.exec.bench import _check_against

        missing = str(tmp_path / "nope.json")
        _check_against(bench(), self._args(check=missing))
        assert "not found" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            _check_against(
                bench(), self._args(check=missing, check_strict=True)
            )

    def test_quick_mismatch_warns_unless_strict(self, tmp_path, capsys):
        from repro.exec.bench import _check_against

        path = tmp_path / "prev.json"
        path.write_text(json.dumps(bench(quick=True)))
        _check_against(bench(quick=False), self._args(check=str(path)))
        assert "check skipped" in capsys.readouterr().out


class TestHistory:
    """Rolling best-of-history: one slow baseline cannot hide a regression."""

    def test_history_best_picks_strongest_value(self):
        from repro.obs.regress import history_best

        prev = bench(aps=400_000.0)
        prev["history"] = [
            {"engine.accesses_per_second": 600_000.0},
            {"engine.accesses_per_second": 500_000.0},
        ]
        assert history_best(prev, "engine.accesses_per_second", True) == 600_000.0

    def test_history_best_without_history_is_payload_value(self):
        from repro.obs.regress import history_best

        assert history_best(bench(aps=123.0), "engine.accesses_per_second", True) == 123.0
        assert history_best({}, "engine.accesses_per_second", True) is None

    def test_compare_bench_uses_best_of_history(self):
        prev = bench(aps=400_000.0)
        prev["history"] = [{"engine.accesses_per_second": 800_000.0}]
        deltas = compare_bench(bench(aps=400_000.0), prev)
        by_name = {d.metric: d for d in deltas}
        # 400k vs best-of-history 800k: a 2x regression, not zero.
        assert by_name["engine.accesses_per_second"].regression == pytest.approx(1.0)
        assert by_name["engine.accesses_per_second"].failed

    def test_malformed_history_entries_are_ignored(self):
        from repro.obs.regress import history_best

        prev = bench(aps=100.0)
        prev["history"] = ["junk", {"engine.accesses_per_second": "NaN-ish"}, {}]
        assert history_best(prev, "engine.accesses_per_second", True) == 100.0

    def test_roll_history_appends_and_caps(self):
        from repro.exec.bench import HISTORY_CAP, roll_history

        prev = bench(aps=250_000.0)
        prev["date"] = "2026-01-01"
        prev["history"] = [
            {"date": f"2025-12-{d:02d}", "engine.accesses_per_second": 1.0 * d}
            for d in range(1, HISTORY_CAP + 3)
        ]
        fresh = bench(aps=300_000.0)
        roll_history(fresh, prev)
        assert len(fresh["history"]) == HISTORY_CAP
        newest = fresh["history"][-1]
        assert newest["date"] == "2026-01-01"
        assert newest["engine.accesses_per_second"] == 250_000.0
        assert newest["kernels.kernel_speedup"] == 4.0
        assert newest["serve.ms_per_batch"] == 20.0

    def test_roll_history_without_previous_is_empty(self):
        from repro.exec.bench import roll_history

        fresh = bench()
        roll_history(fresh, None)
        assert fresh["history"] == []
