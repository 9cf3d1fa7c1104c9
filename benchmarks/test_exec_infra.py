"""Benchmarks for the execution layer itself: cache round-trips and the
grouped L1 filter against the legacy per-core loop.

These complement the figure benchmarks: they time the infrastructure
(``repro.exec``) rather than the experiments that ride on it.
"""

import numpy as np
import pytest

from repro.core import NdpExtPolicy
from repro.exec.cache import ReportCache, cell_key
from repro.sim import SimulationEngine, small
from repro.workloads import SMALL, build


def _legacy_l1_filter(epochs, params):
    """The engine's pre-vectorization hot loop, kept verbatim for the
    benchmark comparison: per epoch, per core, an independent window-LRU
    pass with the results scattered back."""
    from repro.sim.sram_cache import filter_through_l1

    masks = []
    for epoch in epochs:
        mask = np.zeros(len(epoch), dtype=bool)
        for core in np.unique(epoch.core):
            sel = epoch.core == core
            mask[sel] = filter_through_l1(epoch.addr[sel], params).hit_mask
        masks.append(mask)
    return masks


def _grouped_l1_filter(epochs, params, engine_cls):
    from repro.sim.sram_cache import filter_cores_through_l1

    orders = engine_cls._epoch_core_orders(epochs)
    return [
        filter_cores_through_l1(epoch.addr, epoch.core, params, order=order)
        for epoch, order in zip(epochs, orders)
    ]


@pytest.fixture(scope="module")
def cell():
    config = small()
    workload = build("pr", SMALL)
    report = SimulationEngine(config).run(workload, NdpExtPolicy())
    return config, workload, report


def test_report_cache_round_trip(benchmark, tmp_path, cell):
    config, _workload, report = cell
    cache = ReportCache(tmp_path)
    key = cell_key("pr", "ndpext", config, SMALL)
    cache.put(key, report)

    result = benchmark(cache.get, key)
    assert result is not None
    assert result.runtime_cycles == report.runtime_cycles


def test_l1_filter_grouped(benchmark, cell):
    config, workload, _report = cell
    epochs = workload.trace.epochs(config.epoch_accesses)
    masks = benchmark(
        _grouped_l1_filter, epochs, config.core.l1d, SimulationEngine
    )
    assert sum(int(m.sum()) for m in masks) > 0


def test_l1_filter_legacy_loop(benchmark, cell):
    config, workload, _report = cell
    epochs = workload.trace.epochs(config.epoch_accesses)
    legacy = benchmark(_legacy_l1_filter, epochs, config.core.l1d)
    grouped = _grouped_l1_filter(epochs, config.core.l1d, SimulationEngine)
    for a, b in zip(legacy, grouped):
        assert np.array_equal(a, b)
