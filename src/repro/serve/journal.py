"""Append-only serve journal: drain a serving loop, resume it later.

:class:`AppendJournal` is the journal primitive: a JSONL file whose
every line is flushed and fsync'd as it is appended, so a run killed
mid-flight (``SIGINT``, ``kill -9``, OOM) leaves a readable journal of
everything it recorded.  A schema subclasses it and only folds records
into its own state (``_fold``).

The header pins the schema version, :func:`repro.exec.cache.code_stamp`,
and any caller-supplied fields: a journal written by different simulator
code, or for a different run, describes different results, so it is
rotated aside (``<path>.stale``) and the run starts fresh rather than
silently skipping work that would now compute differently.

A torn tail (crash mid-append) is tolerated: a line counts only once
its newline is written, and parsing stops at the first undecodable
line.  Before the first append the file is truncated to the end of the
last line it kept, so a resumed run's records never fuse onto the
fragment (which would hide them from every later load).

:class:`ServeJournal` is the schema that journals a serving loop's
*batches*::

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

import json
import os
from pathlib import Path

SERVE_JOURNAL_SCHEMA = 1

OUTCOME_COMPLETED = "completed"
OUTCOME_SHED = "shed"
OUTCOME_TIMEOUT = "timeout"


class AppendJournal:
    """One fsync'd JSONL journal; subclasses fold its records."""

    def __init__(
        self, path: Path | str, schema: int, stamp: str | None = None, **pins
    ) -> None:
        if stamp is None:
            from repro.exec.cache import code_stamp

            stamp = code_stamp()
        self.path = Path(path)
        self._header = {"kind": "header", "schema": schema, "stamp": stamp, **pins}
        self._fh = None
        self._kept_bytes = 0  # end of the last line the load kept
        for record in self._load():
            self._fold(record)

    def _fold(self, record: dict) -> None:
        raise NotImplementedError

    def _load(self) -> list[dict]:
        try:
            data = self.path.read_bytes()
        except OSError:
            return []
        records: list[dict] | None = None  # None until the header matches
        start = 0
        while (end := data.find(b"\n", start)) != -1:
            line = data[start:end]
            start = end + 1
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if records is not None:
                if not isinstance(record, dict):
                    break  # corrupt line; keep the prefix before it
                records.append(record)
            elif isinstance(record, dict) and all(
                record.get(k) == v for k, v in self._header.items()
            ):
                records = []
            else:
                try:
                    os.replace(
                        self.path, self.path.with_name(self.path.name + ".stale")
                    )
                except OSError:
                    pass
                return []
            self._kept_bytes = start
        return records or []

    def append(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists() and self.path.stat().st_size != self._kept_bytes:
                os.truncate(self.path, self._kept_bytes)  # drop a torn tail
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._kept_bytes == 0:
                self._fh.write(json.dumps(self._header) + "\n")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


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
