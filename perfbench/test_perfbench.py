"""The benchmark's own test, on the seconds-long ``--tiny`` sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import suite

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def results():
    return suite.run_all(seed=3, tiny=True, seconds=1)


def test_benchmark_json_follows_the_contract():
    bench = suite.spec()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    bounds = {}
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_every_run_is_correct_and_reports_every_declared_metric(results):
    bench = suite.spec()
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, (workload, trace)
        assert result["attempted"] >= 1
        declared = bench["per_layer"] if trace else bench["end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == {
            name: value["unit"] for name, value in result["metrics"].items()
        }
        if not trace:
            for name, value in result["metrics"].items():
                assert math.isfinite(value["value"]) and value["value"] > 0, name


def test_layers_show_up_where_they_run(results):
    serve = results["serve-storm", 1]["metrics"]
    grid = results["fig5-small", 1]["metrics"]
    for name in ("serve.submit_s", "serve.admit_s", "slo.eval_s", "faults.advance_s"):
        assert serve[name]["value"] > 0
        assert grid[name]["value"] == 0
    assert grid["exec.report_put_s"]["value"] > 0
    assert grid["baselines.process_s"]["value"] > 0
    for (workload, trace), result in results.items():
        if trace:
            assert result["metrics"]["ring.build_calls"]["value"] > 0, workload
            assert 0.5 < result["metrics"]["layer_coverage"]["value"] <= 1.0


def test_repeated_run_reproduces_the_digest(results):
    # run.py fails a run whose simulated outputs differ from an earlier
    # run of the same workload, seed and code.
    again = suite.run_one("serve-storm", seed=3, trace=0, seconds=1, tiny=True)
    assert again["correct"]
    first = results["serve-storm", 0]["metrics"]
    for name in ("sim_cycles", "served_frac", "ndpext_speedup"):
        assert again["metrics"][name] == first[name]


def test_trace_dump_is_chrome_trace_json(results):
    path = suite.ROOT / ".perfbench_out" / "fig5-small-seed3-tiny.trace.json"
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in spans)
    assert {"engine.step", "workloads.build", "ring.build"} <= {e["name"] for e in spans}


def test_fails_without_the_package_source():
    bare = suite.ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(suite.ROOT / "perfbench", bare / "perfbench")
    shutil.copy(suite.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper-mv",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
