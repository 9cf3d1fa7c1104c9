"""ServeJournal: fsync'd append-only drain/resume bookkeeping."""

import json

from repro.serve import (
    OUTCOME_COMPLETED,
    OUTCOME_SHED,
    ServeJournal,
)


def _journal(path, scenario="s1", stamp="stamp-a"):
    return ServeJournal(path, scenario_key=scenario, stamp=stamp)


class TestRoundTrip:
    def test_pending_is_queued_minus_done(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.journal_queued("a:1", tenant="a", batch=1)
        j.journal_done("a:0", OUTCOME_COMPLETED)
        j.close()

        reopened = _journal(path)
        assert reopened.is_done("a:0")
        assert reopened.outcome("a:0") == OUTCOME_COMPLETED
        assert not reopened.is_done("a:1")
        assert [r["key"] for r in reopened.pending()] == ["a:1"]
        assert (reopened.queued_count, reopened.done_count) == (2, 1)

    def test_reads_and_extends_the_existing_byte_format(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        old = (
            '{"kind": "header", "schema": 1, "stamp": "stamp-a", "scenario": "s1"}\n'
            '{"kind": "batch", "status": "queued", "key": "a:0", "tenant": "a", "batch": 0}\n'
            '{"kind": "batch", "status": "queued", "key": "a:1", "tenant": "a", "batch": 1}\n'
            '{"kind": "batch", "status": "done", "key": "a:0", "outcome": "completed"}\n'
        )
        path.write_text(old)
        j = _journal(path)
        assert j.is_done("a:0")
        assert [r["key"] for r in j.pending()] == ["a:1"]
        j.journal_done("a:1", OUTCOME_SHED)
        j.close()
        assert path.read_text() == (
            old + '{"kind": "batch", "status": "done", "key": "a:1", "outcome": "shed"}\n'
        )

    def test_duplicate_appends_are_idempotent(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.journal_done("a:0", OUTCOME_SHED)
        j.journal_done("a:0", OUTCOME_COMPLETED)  # first outcome wins
        j.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + one queued + one done
        assert _journal(path).outcome("a:0") == OUTCOME_SHED


class TestCrashSafety:
    def test_torn_tail_keeps_prefix(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.journal_done("a:0")
        j.close()
        with open(path, "a") as f:
            f.write('{"kind": "batch", "status": "que')  # crash mid-append
        reopened = _journal(path)
        assert reopened.is_done("a:0")
        assert reopened.queued_count == 1

    def test_resume_after_torn_tail_keeps_new_records(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.close()
        with open(path, "a") as f:
            f.write('{"kind": "batch", "status": "do')  # crash mid-append
        resumed = _journal(path)
        assert [r["key"] for r in resumed.pending()] == ["a:0"]
        resumed.journal_done("a:0")
        resumed.close()
        again = _journal(path)
        assert again.is_done("a:0")
        assert again.pending() == []

    def test_wrong_scenario_rotates_stale(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path, scenario="s1")
        j.journal_queued("a:0", tenant="a", batch=0)
        j.close()
        other = _journal(path, scenario="s2")
        assert other.queued_count == 0
        stale = path.with_name(path.name + ".stale")
        assert stale.exists()
        header = json.loads(stale.read_text().splitlines()[0])
        assert header["scenario"] == "s1"

    def test_wrong_code_stamp_rotates_stale(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path, stamp="stamp-a")
        j.journal_queued("a:0", tenant="a", batch=0)
        j.close()
        assert _journal(path, stamp="stamp-b").queued_count == 0
        assert path.with_name(path.name + ".stale").exists()
