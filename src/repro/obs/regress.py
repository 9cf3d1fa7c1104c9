"""Performance-regression gate over ``BENCH_*.json`` runs.

``python -m repro bench --check PREV.json`` compares the run it just
measured against a previous bench file and flags slowdowns beyond
:data:`DEFAULT_THRESHOLD`.  Wall-clock benchmarks are noisy — especially
on shared CI runners — so the gate defaults to *warn-only*;
``--check-strict`` turns regressions into a non-zero exit for repos that
pin runners.

Each guarded metric declares its direction (throughput: higher is
better; wall clock: lower is better); the relative change is always
normalized so ``+x%`` means *worse*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# (dotted path into the bench JSON, higher_is_better, short description)
GUARDED_METRICS: tuple[tuple[str, bool, str], ...] = (
    ("kernels.backends.numpy.accesses_per_second", True, "numpy kernel-cell throughput"),
    ("engine_paper.accesses_per_second", True, "paper-mesh throughput"),
    ("paper_setup.setup_s", False, "paper-preset NDPExt set-up wall clock"),
    ("paper_setup.peak_rss_mb", False, "paper-preset NDPExt set-up peak RSS"),
    ("suite.serial_cold_s", False, "suite serial cold wall clock"),
    ("suite.parallel_cold_s", False, "suite parallel cold wall clock"),
    ("suite.warm_s", False, "suite warm-cache wall clock"),
    ("suite.parallel_speedup", True, "parallel speedup over serial"),
)

# Absolute invariants, checked against the *current* run alone — no
# previous bench file needed.  (dotted path, exclusive floor, description)
FLOOR_METRICS: tuple[tuple[str, float, str], ...] = (
    ("suite.parallel_speedup", 1.0, "parallel fan-out must beat serial"),
    # Absolute throughput floors: machine-dependent, so deliberately
    # conservative — they catch order-of-magnitude collapses (an O(n^2)
    # slip, an accidental python fallback), not percent-level drift,
    # which the relative gate above handles.  The kernel cell's enlarged
    # epochs run it at 1.4-1.8x the acc/s of a preset-epoch `pr` cell,
    # so its floor is twice that cell's 100k.
    ("kernels.backends.numpy.accesses_per_second", 200_000.0, "numpy kernel-cell throughput floor"),
    ("engine_paper.accesses_per_second", 20_000.0, "paper-mesh throughput floor"),
)

DEFAULT_THRESHOLD = 0.20


@dataclass
class MetricDelta:
    """One guarded metric's comparison outcome."""

    metric: str
    description: str
    previous: float
    current: float
    regression: float  # relative change, + = worse

    @property
    def failed(self) -> bool:
        return self.regression > DEFAULT_THRESHOLD

    @property
    def status(self) -> str:
        return "REGRESSED" if self.failed else "ok"


def _lookup(payload: dict, dotted: str) -> float | None:
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _suite_preset(payload: dict):
    suite = payload.get("suite")
    return suite.get("preset") if isinstance(suite, dict) else None


def same_mode(entries, quick: bool) -> list[dict]:
    """The history entries recorded by a run in the given mode.

    Quick and full runs measure different cells, so one mode's numbers
    must never ratchet the other's.  Entries without a recorded
    ``quick`` flag predate the flag and are of unknown mode: dropped.
    """
    return [e for e in entries if isinstance(e, dict) and e.get("quick") == quick]


def history_best(
    previous: dict, dotted: str, higher_is_better: bool
) -> float | None:
    """The strongest value of one metric across the previous payload and
    the same-mode rolling history it carries (see
    ``repro.exec.bench.roll_history``).

    Comparing against best-of-history makes the gate a ratchet: one slow
    baseline run cannot mask a real regression, because the fresh run is
    held to the best the metric has ever measured within the window.
    """
    candidates = []
    value = _lookup(previous, dotted)
    if value is not None and value > 0:
        candidates.append(value)
    history = same_mode(previous.get("history") or [], bool(previous.get("quick")))
    for entry in history:
        if isinstance(entry.get(dotted), (int, float)):
            hist = float(entry[dotted])
            if hist > 0:
                candidates.append(hist)
    if not candidates:
        return None
    return max(candidates) if higher_is_better else min(candidates)


def compare_bench(
    current: dict,
    previous: dict,
    metrics: tuple[tuple[str, bool, str], ...] = GUARDED_METRICS,
) -> list[MetricDelta]:
    """Compare two bench payloads; one :class:`MetricDelta` per metric
    present in both (missing metrics are skipped, never failed).  The
    previous side of throughput metrics is the best of the previous run
    and its rolling history.  ``suite.*`` wall clocks are skipped when the
    two suite grids ran on different presets: they time different cells."""
    same_suite = _suite_preset(current) == _suite_preset(previous)
    deltas: list[MetricDelta] = []
    for dotted, higher_is_better, description in metrics:
        if dotted.startswith("suite.") and not same_suite:
            continue
        prev = history_best(previous, dotted, higher_is_better)
        cur = _lookup(current, dotted)
        if prev is None or cur is None or prev <= 0 or cur <= 0:
            continue
        if higher_is_better:
            regression = prev / cur - 1.0
        else:
            regression = cur / prev - 1.0
        deltas.append(
            MetricDelta(
                metric=dotted,
                description=description,
                previous=prev,
                current=cur,
                regression=regression,
            )
        )
    return deltas


def regressions(deltas: list[MetricDelta]) -> list[MetricDelta]:
    return [d for d in deltas if d.failed]


@dataclass
class FloorCheck:
    """One absolute-invariant comparison outcome."""

    metric: str
    description: str
    value: float
    floor: float  # exclusive: value must be strictly greater

    @property
    def failed(self) -> bool:
        return self.value <= self.floor

    @property
    def status(self) -> str:
        return "BELOW FLOOR" if self.failed else "ok"


def check_floors(
    current: dict,
    metrics: tuple[tuple[str, float, str], ...] = FLOOR_METRICS,
) -> list[FloorCheck]:
    """Evaluate absolute invariants on one bench payload.

    Unlike :func:`compare_bench` this needs no baseline file: a pool
    slower than serial is wrong on any multi-core machine, first run
    included.  Metrics missing from the payload are skipped, never
    failed — as is the parallel-speedup floor when the payload records
    a single-CPU machine (``cpu_count`` < 2), where beating serial
    with process fan-out is physically impossible.
    """
    cpus = current.get("cpu_count")
    parallelizable = not isinstance(cpus, int) or cpus >= 2
    checks: list[FloorCheck] = []
    for dotted, floor, description in metrics:
        if dotted == "suite.parallel_speedup" and not parallelizable:
            continue
        value = _lookup(current, dotted)
        if value is None:
            continue
        checks.append(
            FloorCheck(
                metric=dotted, description=description, value=value, floor=floor
            )
        )
    return checks


def floor_rows(checks: list[FloorCheck]) -> list[list[str]]:
    """Render floor checks as table rows for the CLI."""
    return [
        [c.metric, f"> {c.floor:g}", f"{c.value:.4g}", c.status] for c in checks
    ]


def delta_rows(deltas: list[MetricDelta]) -> list[list[str]]:
    """Render comparisons as table rows for the CLI."""
    return [
        [
            d.metric,
            f"{d.previous:.4g}",
            f"{d.current:.4g}",
            f"{d.regression:+.1%}",
            d.status,
        ]
        for d in deltas
    ]


def load_bench(path: str) -> dict:
    """Read one ``BENCH_*.json``; raises ValueError with context on
    malformed input rather than a bare decode error."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid bench JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def check_bench(
    current: dict,
    previous_path: str,
) -> tuple[list[MetricDelta], list[MetricDelta]]:
    """Convenience wrapper: load, compare, split out failures.

    Returns ``(all deltas, failed deltas)``.  Comparing a ``--quick``
    run against a full run (or vice versa) is refused: the workload sets
    differ, so wall-clock comparisons would be meaningless.
    """
    previous = load_bench(previous_path)
    if bool(previous.get("quick")) != bool(current.get("quick")):
        raise ValueError(
            f"{previous_path}: cannot compare a quick bench against a full "
            "bench (different workload sets)"
        )
    deltas = compare_bench(current, previous)
    return deltas, regressions(deltas)
