"""Workload trace memoization and the bench harness smoke test."""

import os

import numpy as np
import pytest

from repro.core.consistent import VIRTUAL_NODES
from repro.exec.cache import cache_root
from repro.exec.tracecache import TraceCache, workload_key
from repro.workloads import TINY, build
from repro.workloads.registry import _build_uncached


def assert_workloads_identical(a, b):
    assert a.name == b.name
    assert np.array_equal(a.trace.core, b.trace.core)
    assert np.array_equal(a.trace.addr, b.trace.addr)
    assert np.array_equal(a.trace.write, b.trace.write)
    assert np.array_equal(a.trace.sid, b.trace.sid)
    assert a.compute_cycles_per_access == b.compute_cycles_per_access
    assert a.phases == b.phases
    sa, sb = list(a.streams), list(b.streams)
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert (x.sid, x.kind, x.base, x.size, x.elem_size) == (
            y.sid,
            y.kind,
            y.base,
            y.size,
            y.elem_size,
        )
        assert (x.read_only, x.dims, x.order, x.name) == (
            y.read_only,
            y.dims,
            y.order,
            y.name,
        )


@pytest.fixture()
def cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _count_builds(counter_path):
    """Child-process body for the single-builder concurrency test.

    Builds "pr"/TINY through the registry (hitting the shared trace
    cache) with the real generator wrapped to log one line per actual
    generation — the flock must collapse four concurrent builders to
    one.
    """
    from repro.workloads import registry

    uncached = registry._build_uncached

    def logging_build(name, scale):
        workload = uncached(name, scale)
        with open(counter_path, "a") as f:
            f.write("built\n")
        return workload

    registry._build_uncached = logging_build
    workload = registry.build("pr", TINY)
    assert len(workload.trace) > 0


class TestTraceCache:
    def test_npz_round_trip(self, cache_dir):
        workload = _build_uncached("pr", TINY)
        cache = TraceCache(cache_dir)
        key = workload_key("pr", TINY)
        cache.put(key, workload)
        loaded = cache.get(key)
        assert loaded is not None
        assert_workloads_identical(workload, loaded)

    def test_registry_build_memoizes(self, cache_dir):
        first = build("pr", TINY)
        assert any(cache_root().rglob("meta.json"))
        cached = build("pr", TINY)
        assert_workloads_identical(first, cached)

    def test_cached_trace_is_mmapped_read_only(self, cache_dir):
        build("pr", TINY)  # populate
        cached = build("pr", TINY)
        # Served from the store via mmap: pages are shared read-only
        # across every process that loads the same entry.
        assert not cached.trace.addr.flags.writeable

    def test_multi_process_merge_round_trips(self, cache_dir):
        scale = TINY.scaled(processes=2, n_cores=4)
        assert_workloads_identical(build("pr", scale), build("pr", scale))

    def test_scale_changes_key(self):
        assert workload_key("pr", TINY) != workload_key(
            "pr", TINY.scaled(seed=7)
        )
        assert workload_key("pr", TINY) != workload_key("bfs", TINY)

    def test_corrupt_entry_is_quarantined_miss(self, cache_dir):
        workload = _build_uncached("pr", TINY)
        cache = TraceCache(cache_dir)
        key = workload_key("pr", TINY)
        cache.put(key, workload)
        (cache._dir(key) / "meta.json").write_text("not json")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        # The broken entry was moved aside, not left to fail forever.
        assert not cache._dir(key).exists()
        assert (cache.root / "quarantine" / key).exists()

    def test_truncated_array_is_quarantined_and_rebuilt(self, cache_dir):
        build("pr", TINY)  # populate the store
        # In-memory reference: the cached ``build`` result is mmapped to
        # the very file we are about to truncate, so comparing against
        # it would SIGBUS — the whole point of the corruption.
        expected = _build_uncached("pr", TINY)
        cache = TraceCache(cache_root())
        key = workload_key("pr", TINY)
        path = cache._dir(key) / "addr.npy"
        path.write_bytes(path.read_bytes()[:100])
        # The registry recovers transparently: quarantine + rebuild.
        rebuilt = build("pr", TINY)
        assert_workloads_identical(expected, rebuilt)
        assert (cache.root / "quarantine" / key).exists()

    def test_single_builder_under_concurrency(self, cache_dir, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        counter = tmp_path / "builds.log"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_count_builds, args=(str(counter),))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # Exactly one of the four concurrent processes generated the
        # trace; the rest blocked on the lock and mmapped its entry.
        assert counter.read_text().count("built\n") == 1

    def test_disabled_env_skips_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c2"))
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        build("pr", TINY)
        assert not (tmp_path / "c2").exists()


class TestBenchSmoke:
    def test_quick_bench_end_to_end(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "bench-cache"))
        from repro.exec.bench import run_bench
        from repro.obs.regress import check_floors

        result = run_bench(quick=True, jobs=2)
        # Only the cells perfbench cannot measure; the unshrunk
        # paper-preset set-up cell is a full-run cell only.
        assert set(result) == {
            "date", "quick", "cpu_count", "code_stamp",
            "kernels", "engine_paper", "suite",
        }
        suite = result["suite"]
        kernels = result["kernels"]
        paper = result["engine_paper"]
        # The backend comparison timed bit-identical reports.
        assert kernels["reports_identical"]
        assert set(kernels["backends"]) >= {"numpy", "python"}
        assert kernels["kernel_speedup"] > 1.0
        assert paper["n_units"] == 128
        assert paper["accesses_per_second"] > 0
        floors = {c.metric for c in check_floors(result)}
        assert "kernels.backends.numpy.accesses_per_second" in floors
        assert suite["cells"] == 4
        # The warm pass must be pure cache: zero simulations.
        assert suite["warm_counters"]["cache_misses"] == 0
        assert suite["warm_counters"]["cache_hits_disk"] == suite["cells"]
        assert suite["warm_speedup"] > 1.0

    def test_paper_setup_cell_runs_in_a_child_process(self, tmp_path, monkeypatch):
        """The cell's peak RSS must be its own, so it runs in a spawned
        child; on the tiny preset it still builds rings and reports them."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "setup-cache"))
        from repro.exec.bench import bench_paper_setup

        cell = bench_paper_setup(preset="tiny")
        assert cell["pid"] != os.getpid()
        assert cell["preset"] == "tiny" and cell["workload"] == "mv"
        assert cell["setup_s"] > 0
        assert cell["ring_positions"] > 0
        assert cell["ring_positions"] % VIRTUAL_NODES == 0
        assert cell["peak_rss_mb"] > 0

    def test_cli_bench_writes_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        monkeypatch.chdir(tmp_path)
        from repro.__main__ import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out


class TestBuildSpanAttribution:
    """The workload.build span must cover actual generation only: a warm
    TraceCache hit is storage I/O, not build time, and double-counting it
    skewed profile and bench attributions (the bug this class pins)."""

    def _spans(self, fn):
        from repro.obs.tracing import PerfTracer, activate

        tracer = PerfTracer(process_label="test")
        with activate(tracer):
            fn()
        return [e.name for e in tracer.events]

    def test_cold_build_emits_build_span(self, cache_dir):
        names = self._spans(lambda: build("pr", TINY))
        assert "workload.build" in names

    def test_warm_mmap_hit_emits_no_build_span(self, cache_dir):
        build("pr", TINY)  # populate the cache, untraced
        names = self._spans(lambda: build("pr", TINY))
        assert "workload.build" not in names
        assert any(n.startswith("cache.trace_load") for n in names)

    def test_cache_disabled_still_attributes_build(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c3"))
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        names = self._spans(lambda: build("pr", TINY))
        assert "workload.build" in names
