"""Ablation benchmarks for this reproduction's own design decisions.

DESIGN.md calls out the model-level mechanisms the reproduction adds on
top of the paper's algorithms; each gets an on/off comparison here so
their contribution is measurable rather than assumed:

* **warm-start persistence** — carrying cache contents across epoch
  boundaries (the scaled-down stand-in for the paper's epochs being long
  enough to amortize cold starts);
* **reconfiguration hysteresis** — installing a new configuration only
  on predicted gain (suppresses sampling-noise churn, which the paper's
  1000x-longer epochs suppress statistically);
* **adaptive per-stream block sizes** — the paper's Fig. 9(b) future
  work, implemented in this repo;
* **automatic stream annotation** — the paper's future-work compiler
  pass, implemented at trace level: performance on recovered streams
  should track hand annotation.
"""

from conftest import once

from repro.core import NdpExtPolicy, annotate_workload
from repro.experiments.runner import Cell
from repro.sim import SimulationEngine
from repro.util import geomean

WORKLOADS = ("pr", "recsys", "hotspot")


def _runtimes(context, options=None):
    """NDPExt's runtime per workload: cells of the shared context, so
    the plain arms are simulated once per session."""
    reports = context.run_many(
        [Cell(name, "ndpext", options=options or {}) for name in WORKLOADS]
    )
    return {name: r.runtime_cycles for name, r in zip(WORKLOADS, reports)}


def _engine_runtimes(context, policy_factory, transform=lambda w: w):
    """Direct engine runs, for arms no cell can express: a class
    attribute override or a workload transform."""
    engine = SimulationEngine(context.config)
    result = {}
    for name in WORKLOADS:
        workload = transform(context.workload(name))
        result[name] = engine.run(workload, policy_factory()).runtime_cycles
    return result


def test_warm_start_ablation(benchmark, context):
    def run():
        warm = _runtimes(context)
        cold = _runtimes(context, {"warm_start": False})
        return {w: cold[w] / warm[w] for w in warm}

    gains = once(benchmark, run)
    # Cross-epoch persistence should never hurt and should clearly help
    # somewhere (hot data survives epoch boundaries).
    assert all(g > 0.95 for g in gains.values())
    assert max(gains.values()) > 1.05


def test_hysteresis_ablation(benchmark, context):
    def make_churny():
        policy = NdpExtPolicy()
        policy.RECONFIG_GAIN_THRESHOLD = -10.0  # always install
        return policy

    def run():
        guarded = _runtimes(context)
        churny = _engine_runtimes(context, make_churny)
        return {w: churny[w] / guarded[w] for w in guarded}

    gains = once(benchmark, run)
    # The guard never hurts much and suppresses churn somewhere.
    assert all(g > 0.9 for g in gains.values())
    assert geomean(list(gains.values())) > 0.97


def test_adaptive_blocks_extension(benchmark, context):
    def run():
        fixed = _runtimes(context)
        adaptive = _runtimes(context, {"adaptive_blocks": True})
        return {w: fixed[w] / adaptive[w] for w in fixed}

    gains = once(benchmark, run)
    # Adapting block sizes is safe (never a large loss) at this scale.
    assert all(g > 0.85 for g in gains.values())


def test_auto_annotation_extension(benchmark, context):
    def run():
        manual = _runtimes(context)
        auto = _engine_runtimes(context, NdpExtPolicy, transform=annotate_workload)
        return {w: manual[w] / auto[w] for w in manual}

    ratios = once(benchmark, run)
    # Recovered streams deliver hand-annotation-class performance.
    assert all(0.7 < r < 1.4 for r in ratios.values())
