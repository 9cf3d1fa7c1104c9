"""Execution infrastructure: supervised fan-out and crash-safe caches.

See DESIGN.md § "Execution & caching" and § "Resilient execution".
Public surface:

* :mod:`repro.exec.cache` — content-addressed, checksummed report cache.
* :mod:`repro.exec.tracecache` — mmap-shared trace memoization with
  single-builder locking.
* :mod:`repro.exec.parallel` — supervised worker-pool execution
  (retry/timeout/backoff, poison-list quarantine).
* :mod:`repro.exec.checkpoint` — append-only sweep manifests (resume).
* :mod:`repro.exec.bench` — the ``python -m repro bench`` harness: the
  kernel-backend, paper-mesh, paper-preset set-up and pool cells that
  the end-to-end ``perfbench`` cannot see.
"""

from repro.exec.cache import (
    ReportCache,
    cache_enabled,
    cache_root,
    cell_key,
    code_stamp,
    throwaway_cache_dir,
)
from repro.exec.checkpoint import SweepManifest
from repro.exec.parallel import (
    CellExecutionError,
    CellTask,
    PoisonedCell,
    PoolOutcome,
    RetryPolicy,
    auto_jobs,
    run_cells,
    run_supervised,
)
from repro.exec.tracecache import TraceCache, workload_key

__all__ = [
    "CellExecutionError",
    "CellTask",
    "PoisonedCell",
    "PoolOutcome",
    "ReportCache",
    "RetryPolicy",
    "SweepManifest",
    "TraceCache",
    "auto_jobs",
    "cache_enabled",
    "cache_root",
    "cell_key",
    "code_stamp",
    "run_cells",
    "run_supervised",
    "throwaway_cache_dir",
    "workload_key",
]
