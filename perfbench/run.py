"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout (``BENCHMARK.json`` declares the
workloads and metrics)::

    python3 perfbench/run.py --workload fig5-small --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` prints the per-layer metrics of a traced run and writes its spans to
``.perfbench_out/<workload>-seed<seed>.trace.json`` (Chrome trace-event
JSON; open it at https://ui.perfetto.dev).  ``--tiny`` swaps every
workload for a seconds-long twin on the ``tiny`` preset (the self-test).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run writes stays inside the checkout: cold cache directories under
``.perfbench_work/`` (removed at exit) and traces plus the digest log
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Serial, single-threaded numerics: the benchmark measures one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-long self-test sizes"
    )
    return parser.parse_args(argv)


def source_stamp() -> str:
    """Hash of the package and benchmark sources: digests are compared
    only between runs of identical code."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digest(log: Path, key: str, value: str) -> str | None:
    """Record this run's digest; report a mismatch with an earlier run of
    the same workload, seed and code."""
    seen: dict[str, str] = {}
    if log.exists():
        for line in log.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # a torn line from an interrupted run
            seen.setdefault(entry["key"], entry["digest"])
    if key in seen:
        if seen[key] != value:
            return f"digest {value[:16]} differs from the earlier {seen[key][:16]} for {key}"
        return None
    with open(log, "a") as f:
        f.write(json.dumps({"key": key, "digest": value}) + "\n")
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs the package on sys.path

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(names)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir = workloads.Workdir(work)
        if args.trace:
            suffix = "-tiny" if args.tiny else ""
            trace_path = out_dir / f"{args.workload}-seed{args.seed}{suffix}.trace.json"
            result = workloads.measure_traced(args.workload, args.seed, workdir, trace_path, args.tiny)
        else:
            result = workloads.measure(args.workload, args.seed, args.seconds, workdir, args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = {m["name"] for m in declared} ^ set(result.metrics)
    if missing:
        raise RuntimeError(f"metrics declared and computed differ: {sorted(missing)}")
    digest = workloads.digest(result.outputs)
    key = (
        f"{args.workload}|seed={args.seed}|trace={args.trace}|"
        f"tiny={int(args.tiny)}|code={source_stamp()}"
    )
    mismatch = check_digest(out_dir / "digests.jsonl", key, digest)
    problems = list(result.problems)
    failed = result.failed
    if mismatch:
        problems.append(mismatch)
        failed = result.attempted

    print(f"# {args.workload} seed={args.seed} trace={args.trace} tiny={int(args.tiny)}")
    for note, value in sorted(result.notes.items()):
        print(f"#   {note}: {value}")
    print(f"#   digest: {digest}")
    for problem in problems:
        print(f"#   FAILED: {problem}")
    width = max(len(m["name"]) for m in declared)
    for m in declared:
        print(f"{m['name']:<{width}}  {result.metrics[m['name']]:>16.6g}  {m['unit']}")
    print(f"failed operations: {failed}/{result.attempted}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
