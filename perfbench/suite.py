"""Run every benchmark workload, untraced and traced, and print one table.

Usage, from the root of a checkout::

    python3 perfbench/suite.py --seed 1            # the benchmark
    python3 perfbench/suite.py --seed 1 --tiny     # seconds-long self-test sizes

Each run is a fresh ``perfbench/run.py`` process, one after another.
The table lists every end-to-end metric (untraced runs) and every
per-layer metric (traced runs) by name and unit, per workload, followed
by the failed-operation share of each run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, trace: int, seconds: float, tiny: bool) -> dict:
    """One ``run.py`` process; returns its result line, parsed."""
    argv = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, tiny: bool = False, seconds: float | None = None) -> dict:
    """``{(workload, trace): result}`` for every workload and mode."""
    bench = spec()
    seconds = bench["run_seconds"] if seconds is None else seconds
    return {
        (w["name"], trace): run_one(w["name"], seed, trace, seconds, tiny)
        for w in bench["workloads"]
        for trace in (0, 1)
    }


def render(results: dict) -> str:
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    lines = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        header = f"{key:<24}{'unit':<8}" + "".join(f"{w:>16}" for w in workloads)
        lines += [header, "-" * len(header)]
        for metric in bench[key]:
            row = f"{metric['name']:<24}{metric['unit']:<8}"
            for w in workloads:
                row += f"{results[w, trace]['metrics'][metric['name']]['value']:>16.6g}"
            lines.append(row)
        lines.append("")
    lines.append("failed operations (untraced, traced):")
    for w in workloads:
        shares = [
            f"{results[w, t]['failed']}/{results[w, t]['attempted']}" for t in (0, 1)
        ]
        lines.append(f"  {w:<16}{shares[0]:>12}{shares[1]:>12}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    results = run_all(args.seed, args.tiny, args.seconds)
    print(render(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
