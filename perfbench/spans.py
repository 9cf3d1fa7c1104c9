"""In-memory span recording around the simulator's public methods.

The traced benchmark run wraps the methods listed in :data:`LAYERS`
from outside the package: nothing under ``src/`` knows it is being
measured.  Every call of a wrapped method records one span (name,
start, end, parent) in a plain list; the benchmark derives its
per-layer metrics from that list and writes it out once, at the end, as
Chrome trace-event JSON that Perfetto opens the same way as
``python -m repro profile --perf-out`` output.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# Layer name -> (module, class or None for a module function, methods).
# A class entry also wraps every subclass that overrides one of the
# methods, so each policy's own implementation is covered.
LAYERS: dict[str, tuple[str, str | None, tuple[str, ...]]] = {
    "ring.build": ("repro.core.consistent", "ConsistentRing", ("__init__",)),
    "ring.lookup": ("repro.core.consistent", "ConsistentRing", ("lookup",)),
    "ring.decode": (
        "repro.core.consistent",
        "ConsistentRing",
        ("units_of", "rows_of"),
    ),
    "mapper.apply": ("repro.core.stream_cache", "StreamCacheMapper", ("apply",)),
    "mapper.process": (
        "repro.core.stream_cache",
        "StreamCacheMapper",
        ("process",),
    ),
    "engine.begin_session": (
        "repro.sim.engine",
        "SimulationEngine",
        ("begin_session",),
    ),
    "engine.step": ("repro.sim.engine", "EngineSession", ("step",)),
    "engine.finish": ("repro.sim.engine", "EngineSession", ("finish",)),
    "policy.setup": ("repro.sim.engine", "DramCachePolicy", ("setup",)),
    "policy.on_faults": ("repro.sim.engine", "DramCachePolicy", ("on_faults",)),
    "policy.begin_epoch": ("repro.core.runtime", "NdpExtPolicy", ("begin_epoch",)),
    "policy.process": ("repro.core.runtime", "NdpExtPolicy", ("process",)),
    "policy.end_epoch": ("repro.core.runtime", "NdpExtPolicy", ("end_epoch",)),
    "sampler.observe": ("repro.core.sampler", "MissCurveSampler", ("observe",)),
    "configure.solve": (
        "repro.core.configure",
        "CacheConfigurator",
        ("configure",),
    ),
    "assign.solve": ("repro.core.assignment", "SamplerAssigner", ("assign",)),
    "slb.process": ("repro.core.slb", "StreamLookaheadBuffer", ("process",)),
    "baselines.process": (
        "repro.baselines.common",
        "PartitionedNucaPolicy",
        ("process",),
    ),
    "baselines.epoch": (
        "repro.baselines.common",
        "PartitionedNucaPolicy",
        ("begin_epoch", "end_epoch"),
    ),
    # ``build`` is imported by name into the runner and the serve
    # harness, so each binding is wrapped.
    "workloads.build": ("repro.workloads.registry", None, ("build",)),
    "workloads.build@runner": ("repro.experiments.runner", None, ("build",)),
    "workloads.build@serve": ("repro.serve.scenario", None, ("build",)),
    "exec.report_get": ("repro.exec.cache", "ReportCache", ("get",)),
    "exec.report_put": ("repro.exec.cache", "ReportCache", ("put",)),
    "serve.submit": ("repro.serve.loop", "ServeLoop", ("submit",)),
    "serve.step": ("repro.serve.loop", "ServeLoop", ("step",)),
    "serve.admit": (
        "repro.serve.admission",
        "AdmissionController",
        ("admit", "select_shed"),
    ),
    "health.observe": ("repro.serve.health", "HealthMonitor", ("observe",)),
    "slo.eval": ("repro.obs.slo", "SloEngine", ("on_complete", "end_epoch")),
    "faults.advance": ("repro.faults.state", "FaultState", ("advance",)),
}


def _classes(root: type) -> list[type]:
    """``root`` and every subclass, depth first."""
    out = [root]
    for sub in root.__subclasses__():
        out.extend(c for c in _classes(sub) if c not in out)
    return out


class SpanRecorder:
    """Records one span per wrapped call; ``install``/``remove`` patch
    and restore the wrapped methods."""

    def __init__(self, hooks: dict | None = None) -> None:
        # [name, start_s, end_s, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # layer -> fn(args, kwargs), called after each of its spans ends.
        self.hooks = hooks or {}

    # -- recording -------------------------------------------------------

    def _wrap(self, layer: str, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(layer)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # A subclass override calling super() stays one span.
            if stack and spans[stack[-1]][0] == layer:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs)

        return traced

    def install(self) -> "SpanRecorder":
        # The runner and the serve package import every policy class, so
        # the subclass lookups below see all of them.
        importlib.import_module("repro.experiments.runner")
        importlib.import_module("repro.serve")
        for key, (module_name, class_name, methods) in LAYERS.items():
            layer = key.split("@")[0]
            module = importlib.import_module(module_name)
            if class_name is None:
                owners = [module]
            else:
                owners = _classes(getattr(module, class_name))
            for owner in owners:
                for method in methods:
                    if method not in vars(owner):
                        continue
                    original = vars(owner)[method]
                    self._patched.append((owner, method, original))
                    setattr(owner, method, self._wrap(layer, original))
        return self

    def remove(self) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- derived numbers -------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds, self seconds (minus the
        direct child spans)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[index]
        return out

    def top_level_s(self) -> float:
        """Host seconds covered by spans with no parent (they never
        overlap: the benchmark is single-threaded)."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def write_chrome_trace(self, path: str, meta: dict | None = None) -> int:
        """Write the spans as Chrome trace-event JSON; returns the count."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        pid = os.getpid()
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "perfbench"},
            }
        ]
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "id": index,
                        "parent": self.spans[parent][0] if parent >= 0 else None,
                        "parent_id": parent if parent >= 0 else None,
                    },
                }
            )
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        if meta:
            payload["otherData"] = dict(meta)
        with open(path, "w") as f:
            json.dump(payload, f)
        return len(events)
