"""Workload trace memoization (the store's trace codec) and the bench
harness smoke test."""

import json
import os

import numpy as np
import pytest

from repro.core.consistent import VIRTUAL_NODES
from repro.exec.cache import TRACE, Store, cache_root, content_key
from repro.workloads import TINY, build, registry
from repro.workloads.registry import _build_uncached
from tests.reports import assert_workloads_identical


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
        store = Store(cache_dir)
        key = content_key(workload="pr", scale=TINY)
        store.save(key, workload, TRACE)
        loaded = store.load(key, TRACE)
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
        key = content_key(workload="pr", scale=TINY)
        assert key != content_key(workload="pr", scale=TINY.scaled(seed=7))
        assert key != content_key(workload="bfs", scale=TINY)

    def test_corrupt_entry_is_quarantined_miss(self, cache_dir):
        workload = _build_uncached("pr", TINY)
        store = Store(cache_dir)
        key = content_key(workload="pr", scale=TINY)
        store.save(key, workload, TRACE)
        (store._dir(key, TRACE) / "meta.json").write_text("not json")
        assert store.load(key, TRACE) is None
        assert store.quarantined == 1
        # The broken entry was moved aside, not left to fail forever.
        assert not store._dir(key, TRACE).exists()
        assert (store.root / "quarantine" / key).exists()

    def test_truncated_array_is_quarantined_and_rebuilt(self, cache_dir):
        build("pr", TINY)  # populate the store
        # In-memory reference: the cached ``build`` result is mmapped to
        # the very file we are about to truncate, so comparing against
        # it would SIGBUS — the whole point of the corruption.
        expected = _build_uncached("pr", TINY)
        store = Store(cache_root())
        key = content_key(workload="pr", scale=TINY)
        path = store._dir(key, TRACE) / "addr.npy"
        path.write_bytes(path.read_bytes()[:100])
        # The registry recovers transparently: quarantine + rebuild.
        rebuilt = build("pr", TINY)
        assert_workloads_identical(expected, rebuilt)
        assert (store.root / "quarantine" / key).exists()

    def test_same_size_flip_is_quarantined_and_rebuilt(self, cache_dir):
        build("pr", TINY)  # populate the store
        expected = _build_uncached("pr", TINY)
        (path,) = cache_root().glob("traces/*/*/addr.npy")
        # One byte of the array data flipped in place: the file keeps
        # its size, so only the checksum can tell.
        with open(path, "r+b") as f:
            f.seek(path.stat().st_size // 2)
            byte = f.read(1)[0]
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte ^ 0x01]))
        rebuilt = build("pr", TINY)
        assert (cache_root() / "quarantine" / path.parent.name).is_dir()
        assert_workloads_identical(expected, rebuilt)

    def test_stale_schema_entry_is_replaced(self, cache_dir, monkeypatch):
        build("pr", TINY)  # populate the store
        (meta_path,) = cache_root().glob("traces/*/*/meta.json")
        meta = json.loads(meta_path.read_text())
        meta["schema"] -= 1  # an older layout: stale, not corrupt
        meta_path.write_text(json.dumps(meta))
        generated = []
        uncached = registry._build_uncached

        def counting_build(name, scale):
            generated.append(name)
            return uncached(name, scale)

        monkeypatch.setattr(registry, "_build_uncached", counting_build)
        loaded = [build("pr", TINY) for _ in range(3)]
        # Regenerated once, published over the stale entry, then served
        # from it: every call gets the shared read-only mmap.
        assert generated == ["pr"]
        for workload in loaded:
            assert isinstance(workload.trace.addr.base, np.memmap)
            assert not workload.trace.addr.flags.writeable
        assert not (cache_root() / "quarantine").exists()

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
        # One kernel set, timed under the key earlier bench files carry.
        assert set(kernels["backends"]) == {"numpy"}
        assert kernels["backends"]["numpy"]["accesses_per_second"] > 0
        assert paper["n_units"] == 128
        assert paper["accesses_per_second"] > 0
        floors = {c.metric for c in check_floors(result)}
        assert "kernels.backends.numpy.accesses_per_second" in floors
        assert suite["cells"] == 4
        # Small cells: four tiny ones are too short to time a pool.
        assert suite["preset"] == "small"
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
        # The cell also steps every epoch of the trace.
        assert cell["epochs"] >= 1
        assert cell["epoch_s"] > 0

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
    trace-store hit is storage I/O, not build time, and double-counting it
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
