"""Workload registry: the paper's 13-workload suite by name.

``build(name, scale)`` constructs any workload; ``SUITE`` lists the full
evaluation set of Section VI, and ``REPRESENTATIVE`` is the subset used
by sweep-heavy experiments to keep bench time sane.
"""

from __future__ import annotations

from typing import Callable

from repro.workloads import graph, rodinia, tensor
from repro.workloads.base import WorkloadScale
from repro.workloads.trace import Workload, merge_processes

FACTORIES: dict[str, Callable[[WorkloadScale], Workload]] = {
    # Tensor workloads.
    "recsys": tensor.recsys,
    "mv": tensor.matvec,
    "gnn": tensor.gnn,
    # Rodinia.
    "backprop": rodinia.backprop,
    "hotspot": rodinia.hotspot,
    "lavaMD": rodinia.lavamd,
    "lud": rodinia.lud,
    "pathfinder": rodinia.pathfinder,
    # GAP graph workloads.
    "bfs": graph.bfs,
    "pr": graph.pagerank,
    "cc": graph.connected_components,
    "bc": graph.betweenness_centrality,
    "tc": graph.triangle_counting,
}

SUITE = tuple(FACTORIES)

# A balanced subset (one per category plus the replication-heavy ones)
# for parameter sweeps.
REPRESENTATIVE = ("recsys", "mv", "hotspot", "pathfinder", "pr", "bfs")


def _build_uncached(name: str, scale: WorkloadScale) -> Workload:
    # The span lives here — around actual generation only — so a warm
    # store hit (mmap load) is never attributed as build time.  The
    # store's own cache.trace_load / cache.trace_build io spans cover
    # the storage layer.
    from repro.obs.tracing import current

    with current().span("workload.build", cat="task", workload=name):
        factory = FACTORIES[name]
        if scale.processes <= 1:
            return factory(scale)
        instances = [
            factory(scale.per_process(p)) for p in range(scale.processes)
        ]
        return merge_processes(instances, name=name)


def build(name: str, scale: WorkloadScale | None = None) -> Workload:
    """Construct a workload by suite name.

    When ``scale.processes > 1``, independent instances are generated
    (distinct seeds, disjoint address spaces, separate core subsets) and
    merged — the paper's multi-process execution model.

    Generation is deterministic in ``(name, scale)``, so results are
    memoized on disk through the trace codec of :mod:`repro.exec.cache`.
    A hit verifies the entry's checksums and mmaps the stored arrays —
    page-cache shared across worker processes — skipping the whole
    generation pass (R-MAT synthesis is a suite-level hot spot); a
    damaged entry is quarantined and rebuilt.  Concurrent builders of
    the same cell are serialized by a per-key file lock so the trace is
    generated exactly once.  Set ``REPRO_DISK_CACHE=0`` to disable.
    """
    if name not in FACTORIES:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(FACTORIES)}"
        )
    scale = scale or WorkloadScale()

    from repro.exec.cache import TRACE, Store, cache_enabled, cache_root, content_key

    if not cache_enabled():
        return _build_uncached(name, scale)
    return Store(cache_root()).get_or_build(
        content_key(workload=name, scale=scale),
        TRACE,
        lambda: _build_uncached(name, scale),
    )


def build_suite(
    scale: WorkloadScale | None = None, names: tuple[str, ...] = SUITE
) -> dict[str, Workload]:
    return {name: build(name, scale) for name in names}
