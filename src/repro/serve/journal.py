"""Append-only serve journal: drain a serving loop, resume it later.

A schema over :class:`repro.exec.checkpoint.AppendJournal` (the same
fsync'd JSONL file, torn-tail truncation and stale rotation as the
sweep manifest) journaling *batches* instead of sweep cells::

    {"kind": "header", "schema": 1, "stamp": "<code stamp>",
     "scenario": "<scenario key>"}
    {"kind": "batch", "status": "queued", "key": "tenant:7",
     "tenant": ..., "batch": 7, "start": ..., "stop": ...,
     "enqueued_ns": ..., "deadline_ns": ...}
    {"kind": "batch", "status": "done", "key": "tenant:7",
     "outcome": "completed"}

A batch is journaled ``queued`` the moment admission accepts it and
``done`` when it reaches *any* terminal outcome — completed, shed, or
timed out — so after a drain (or a crash) the pending set is exactly
``queued - done``: the restart re-submits the scenario, already-done
batches are skipped without recomputation, and only the batches that
were still waiting are processed.

The header pins the caller-supplied *scenario key* next to the code
stamp: a journal written for a different scenario describes different
batches, so it is rotated to ``<path>.stale`` rather than silently
resumed against the wrong run.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.checkpoint import AppendJournal

SERVE_JOURNAL_SCHEMA = 1

OUTCOME_COMPLETED = "completed"
OUTCOME_SHED = "shed"
OUTCOME_TIMEOUT = "timeout"


class ServeJournal(AppendJournal):
    """Journal of queued/terminal batches for one resumable serve run."""

    def __init__(
        self,
        path: Path | str,
        scenario_key: str = "",
        stamp: str | None = None,
    ) -> None:
        self._queued: dict[str, dict] = {}
        self._done: dict[str, str] = {}  # key -> outcome
        super().__init__(path, SERVE_JOURNAL_SCHEMA, stamp, scenario=scenario_key)

    def _fold(self, record: dict) -> None:
        if record.get("kind") != "batch" or "key" not in record:
            return
        key = record["key"]
        status = record.get("status")
        if status == "queued":
            self._queued[key] = record
        elif status == "done":
            self._done[key] = record.get("outcome", OUTCOME_COMPLETED)

    def is_done(self, key: str) -> bool:
        return key in self._done

    def outcome(self, key: str) -> str | None:
        return self._done.get(key)

    def pending(self) -> list[dict]:
        """Queued records with no terminal outcome, in journal order."""
        return [
            record
            for key, record in self._queued.items()
            if key not in self._done
        ]

    @property
    def done_count(self) -> int:
        return len(self._done)

    @property
    def queued_count(self) -> int:
        return len(self._queued)

    def journal_queued(self, key: str, **meta) -> None:
        if key in self._queued:
            return
        record = {"kind": "batch", "status": "queued", "key": key, **meta}
        self._queued[key] = record
        self.append(record)

    def journal_done(self, key: str, outcome: str = OUTCOME_COMPLETED) -> None:
        if key in self._done:
            return
        self._done[key] = outcome
        self.append(
            {"kind": "batch", "status": "done", "key": key, "outcome": outcome}
        )
