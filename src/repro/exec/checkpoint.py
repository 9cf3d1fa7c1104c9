"""Append-only journals: resume an interrupted sweep or serve run.

:class:`AppendJournal` is the one primitive both resumable loops share:
a JSONL file whose every line is flushed and fsync'd as it is appended,
so a run killed mid-flight (``SIGINT``, ``kill -9``, OOM) leaves a
readable journal of everything it recorded.  A schema subclasses it and
only folds records into its own state (``_fold``)::

    {"kind": "header", "schema": N, "stamp": "<code stamp>", ...pins}
    {"kind": "<record kind>", ...}

The header pins the schema version, :func:`repro.exec.cache.code_stamp`,
and any caller-supplied fields (the serve journal's ``scenario``): a
journal written by different simulator code, or for a different run,
describes different results, so it is rotated aside (``<path>.stale``)
and the run starts fresh rather than silently skipping work that would
now compute differently.

A torn tail (crash mid-append) is tolerated: a line counts only once
its newline is written, and parsing stops at the first undecodable
line.  Before the first append the file is truncated to the end of the
last line it kept, so a resumed run's records never fuse onto the
fragment (which would hide them from every later load).

:class:`SweepManifest` journals a sweep's cells (the CLI's
``--resume``) — ``done`` cells by content-addressed key, ``poisoned``
cells with the captured failure::

    {"kind": "cell", "status": "done", "key": "<sha256>", ...metadata}
    {"kind": "cell", "status": "poisoned", "key": "...", "failure": ...,
     "attempts": N, "error": "<traceback tail>", ...metadata}

Re-running with the same manifest skips journaled cells: ``done``
reports are served from the persistent report cache, and
previously-poisoned cells are not burned through their retry budget
again.  A later ``done`` entry for a poisoned key overrides the
poisoning (a quarantined cell that was fixed and re-run).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

MANIFEST_SCHEMA = 1


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


class SweepManifest(AppendJournal):
    """Journal of completed/poisoned cells for one resumable sweep."""

    def __init__(self, path: Path | str, stamp: str | None = None) -> None:
        self._done: set[str] = set()
        self._poisoned: dict[str, dict] = {}
        super().__init__(path, MANIFEST_SCHEMA, stamp)

    def _fold(self, record: dict) -> None:
        if record.get("kind") != "cell" or "key" not in record:
            return
        key = record["key"]
        if record.get("status") == "done":
            self._done.add(key)
            self._poisoned.pop(key, None)
        elif record.get("status") == "poisoned":
            if key not in self._done:
                self._poisoned[key] = record

    def is_done(self, key: str) -> bool:
        return key in self._done

    def is_poisoned(self, key: str) -> bool:
        return key in self._poisoned

    def poison_record(self, key: str) -> dict | None:
        return self._poisoned.get(key)

    @property
    def done_count(self) -> int:
        return len(self._done)

    @property
    def poisoned_count(self) -> int:
        return len(self._poisoned)

    def journal_done(self, key: str, **meta) -> None:
        if key in self._done:
            return
        self._done.add(key)
        self._poisoned.pop(key, None)
        self.append({"kind": "cell", "status": "done", "key": key, **meta})

    def journal_poisoned(
        self, key: str, failure: str, attempts: int, error: str, **meta
    ) -> None:
        record = {
            "kind": "cell",
            "status": "poisoned",
            "key": key,
            "failure": failure,
            "attempts": attempts,
            "error": error[-2000:],
            **meta,
        }
        self._poisoned[key] = record
        self.append(record)
