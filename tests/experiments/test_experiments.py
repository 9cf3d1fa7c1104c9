"""Structural tests for the experiment drivers (tiny preset for speed)."""

import argparse

import pytest

from repro.__main__ import FIGURES, cmd_compare
from repro.experiments import (
    faults,
    fig2,
    fig4b,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    sec5d,
)
from repro.experiments.runner import (
    Cell,
    ExperimentContext,
    add_geomean_row,
    speedup_table,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(preset="tiny")


WORKLOADS = ("pr", "hotspot")


class TestRunner:
    def test_reports_cached(self, context):
        a = context.run("pr", "ndpext-static")
        b = context.run("pr", "ndpext-static")
        assert a is b

    def test_default_scale_shares_cache_with_explicit(self, context):
        # scale=None and the context's own default scale must normalize
        # to the same cache key — one simulation, not two.
        a = context.run("pr", "ndpext-static")
        b = context.run("pr", "ndpext-static", scale=context.scale)
        assert a is b

    def test_fault_schedule_extends_cache_key(self, context):
        from repro.faults import FaultSchedule, UnitFailure

        plain = context.run("pr", "ndpext-static")
        empty = context.run("pr", "ndpext-static", faults=FaultSchedule())
        assert plain is not empty  # distinct cells...
        assert plain.runtime_cycles == empty.runtime_cycles  # ...same result
        schedule = FaultSchedule((UnitFailure(epoch=1, unit=0),))
        faulted = context.run("pr", "ndpext-static", faults=schedule)
        assert faulted.runtime_cycles > plain.runtime_cycles
        # Value-equal schedules hit the same cell.
        again = context.run(
            "pr", "ndpext-static", faults=FaultSchedule((UnitFailure(epoch=1, unit=0),))
        )
        assert faulted is again

    def test_speedup_table_rejects_degenerate_runtime(self, context):
        from repro.sim.metrics import SimulationReport

        broken = ExperimentContext(preset="tiny")
        key = broken._cell_key(Cell("pr", "ndpext"))
        broken._reports[key] = SimulationReport(
            policy="ndpext", workload="pr", runtime_cycles=0.0
        )
        with pytest.raises(ValueError, match="non-positive runtime"):
            speedup_table(broken, ["pr"], ["ndpext"], baseline="ndpext")

    def test_speedup_table_shape(self, context):
        table = speedup_table(context, list(WORKLOADS), ["ndpext", "nexus"])
        assert set(table) == set(WORKLOADS)
        for row in table.values():
            assert set(row) == {"ndpext", "nexus"}
            assert all(v > 0 for v in row.values())

    def test_geomean_row(self):
        table = {"a": {"p": 2.0}, "b": {"p": 8.0}}
        extended = add_geomean_row(table)
        assert extended["geomean"]["p"] == pytest.approx(4.0)

    def test_alias_and_variant_are_one_cell(self, context):
        alias = Cell("pr", "ndpext-static")
        variant = Cell("pr", "ndpext", options={"mode": "static"})
        assert context._cell_key(alias) == context._cell_key(variant)
        a, b = context.run_many([alias, variant])
        assert a is b
        assert a.policy == "ndpext-static"

    def test_unknown_option_raises_before_any_cell_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        fresh = ExperimentContext(preset="tiny")
        cells = [Cell("pr", "nexus"), Cell("pr", "ndpext", options={"sampler_set": 8})]
        with pytest.raises(TypeError, match="sampler_set"):
            fresh.run_many(cells)
        assert fresh.cache_misses == 0
        assert not fresh._reports

    def test_host_runs(self, context):
        (report,) = context.run_many([context.host_cell("pr")])
        assert report.runtime_cycles > 0
        assert report.policy == "host"


class TestFigureDrivers:
    def test_fig2(self, context):
        result = fig2.run(context, verbose=False)
        assert set(result) == {"ndp", "nuca"}
        for row in result.values():
            assert 0 <= row["hit_rate"] <= 1
        # NDP's big cache hits more than the small NUCA LLC.
        assert result["ndp"]["hit_rate"] > result["nuca"]["hit_rate"]

    def test_fig4b(self):
        result = fig4b.run(n_units=8, verbose=False, repeats=1)
        assert all(r["ms"] > 0 for r in result.values())

    def test_fig5(self, context):
        table = fig5.run(context, workloads=WORKLOADS, verbose=False)
        assert "geomean" in table
        assert set(table["geomean"]) == set(fig5.POLICIES)

    def test_fig6(self, context):
        result = fig6.run(context, workloads=WORKLOADS, verbose=False)
        for row in result.values():
            assert row["ndpext_total"] > 0

    def test_fig7(self, context):
        result = fig7.run(context, workloads=WORKLOADS, verbose=False)
        for row in result.values():
            assert row["nexus_ic_ns"] >= 0
            assert 0 <= row["ndpext_miss"] <= 1

    def test_fig8_cxl(self, context):
        result = fig8.run_cxl(context, workloads=("pr",), verbose=False)
        assert set(result) == set(fig8.CXL_LATENCIES_NS)
        assert all(v > 0 for v in result.values())

    def test_fig9_reconfig_method(self, context):
        result = fig9.run_reconfig_method(
            context, workloads=("pr",), verbose=False
        )
        assert result["pr"]["full"] == pytest.approx(1.0)

    def test_fig9_associativity(self, context):
        result = fig9.run_associativity(context, workloads=("pr",), verbose=False)
        assert result["default"] == pytest.approx(1.0)
        # Associativity never hurts (hit monotonicity).
        assert all(v >= 0.95 for v in result.values())

    def test_sec5d(self, context):
        result = sec5d.run(context, workloads=("pr",), verbose=False)
        row = result["pr"]
        assert row["consistent_invalidations"] <= row["bulk_invalidations"] or (
            row["bulk_invalidations"] == 0
        )


# Every batched driver on one workload, each on a cold context.
DRIVERS = {
    "fig2": lambda ctx: fig2.run(ctx, verbose=False),
    "fig5": lambda ctx: fig5.run(ctx, workloads=("pr",), verbose=False),
    "fig6": lambda ctx: fig6.run(ctx, workloads=("pr",), verbose=False),
    "fig7": lambda ctx: fig7.run(ctx, workloads=("pr",), verbose=False),
    "fig8a": lambda ctx: fig8.run_scaling(ctx, workloads=("pr",), verbose=False),
    "fig8b": lambda ctx: fig8.run_cxl(ctx, workloads=("pr",), verbose=False),
    "fig9a": lambda ctx: fig9.run_associativity(
        ctx, workloads=("pr",), verbose=False
    ),
    "fig9b": lambda ctx: fig9.run_block_size(ctx, workloads=("pr",), verbose=False),
    "fig9c": lambda ctx: fig9.run_affine_space(
        ctx, workloads=("pr",), verbose=False
    ),
    "fig9d": lambda ctx: fig9.run_sampler_sets(
        ctx, workloads=("pr",), verbose=False
    ),
    "fig9e": lambda ctx: fig9.run_reconfig_method(
        ctx, workloads=("pr",), verbose=False
    ),
    "fig9f": lambda ctx: fig9.run_reconfig_interval(
        ctx, workloads=("pr",), verbose=False
    ),
    "sec5d": lambda ctx: sec5d.run(ctx, workloads=("pr",), verbose=False),
    "faults": lambda ctx: faults.run(ctx, verbose=False),
    "compare": lambda ctx: cmd_compare(
        ctx, argparse.Namespace(workload="pr", trace_out=None)
    ),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_simulates_each_cell_once_and_rereads_none(
    name, monkeypatch, capsys
):
    """A cold driver takes every report from the batches it submits:
    each distinct cell is one cache miss, and nothing is re-read from
    the in-process cache afterwards."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    context = ExperimentContext(preset="tiny")
    keys: set[str] = set()
    run_many = context.run_many

    def spy(cells, *args, **kwargs):
        keys.update(context._cell_key(cell) for cell in cells)
        return run_many(cells, *args, **kwargs)

    monkeypatch.setattr(context, "run_many", spy)
    DRIVERS[name](context)
    assert context.cache_hits_mem == 0
    assert context.cache_misses == len(keys) > 0


def test_figure_suite_simulates_each_distinct_cell_once(monkeypatch, capsys):
    """One cold shared context over every figure: a simulation per
    distinct cell key, and aliases, spelled-out defaults and renamed
    configs are not distinct cells (339 simulations before they were
    resolved, 273 after)."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    context = ExperimentContext(preset="tiny")
    keys: set[str] = set()
    run_many = context.run_many

    def spy(cells, *args, **kwargs):
        keys.update(context._cell_key(cell) for cell in cells)
        return run_many(cells, *args, **kwargs)

    monkeypatch.setattr(context, "run_many", spy)
    for driver in FIGURES.values():
        driver(context)
    assert context.cache_misses == len(keys) == 273
