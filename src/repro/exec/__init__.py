"""Execution infrastructure: supervised fan-out and crash-safe caches.

See DESIGN.md § "Execution & caching" and § "Resilient execution".
Public surface:

* :mod:`repro.exec.cache` — one content-addressed, checksummed store
  with two codecs: simulation reports, and mmap-shared workload traces
  built once per key under a file lock.
* :mod:`repro.exec.parallel` — supervised worker-pool execution
  (worker-death and timeout retries, poison-list quarantine).
"""

from repro.exec.cache import (
    ReportCache,
    cache_enabled,
    cache_root,
    cell_key,
    code_stamp,
    throwaway_cache_dir,
)
from repro.exec.parallel import (
    CellExecutionError,
    CellTask,
    PoisonedCell,
    PoolOutcome,
    RetryPolicy,
    auto_jobs,
    run_supervised,
)

__all__ = [
    "CellExecutionError",
    "CellTask",
    "PoisonedCell",
    "PoolOutcome",
    "ReportCache",
    "RetryPolicy",
    "auto_jobs",
    "cache_enabled",
    "cache_root",
    "cell_key",
    "code_stamp",
    "run_supervised",
    "throwaway_cache_dir",
]
