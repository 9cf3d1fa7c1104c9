"""Tests for the append journal behind the serve journal
(:mod:`repro.serve.journal`): a crash may cut the file at any byte, and
a resumed run must see exactly the records whose lines were complete,
plus every record it appends afterwards."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.journal import AppendJournal, ServeJournal

RECORD = st.fixed_dictionaries(
    {"kind": st.sampled_from(["cell", "batch", "other"])},
    optional={
        "key": st.text(max_size=6),
        "n": st.integers(-(2**63), 2**63),
        "x": st.floats(allow_nan=False, allow_infinity=False),
    },
)


class ListJournal(AppendJournal):
    def __init__(self, path, stamp="s", **pins):
        self.records = []
        super().__init__(path, 1, stamp, **pins)

    def _fold(self, record):
        self.records.append(record)


def _cut(path: Path, offset: int) -> bytes:
    data = path.read_bytes()
    path.write_bytes(data[:offset])
    return data


def _complete_lines(data: bytes, offset: int) -> int:
    """Number of lines of ``data`` whose newline lies before ``offset``."""
    return data[:offset].count(b"\n")


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(RECORD, min_size=1, max_size=8),
    more=st.lists(RECORD, max_size=8),
    cut=st.floats(0.0, 1.0),
)
def test_reload_after_any_cut_is_complete_lines_plus_appends(records, more, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        journal = ListJournal(path)
        for record in records:
            journal.append(record)
        journal.close()
        offset = round(cut * path.stat().st_size)
        data = _cut(path, offset)

        # Line 0 is the header; a cut inside it leaves no journal at all.
        kept = max(_complete_lines(data, offset) - 1, 0)
        reopened = ListJournal(path)
        assert reopened.records == records[:kept]

        for record in more:
            reopened.append(record)
        reopened.close()
        again = ListJournal(path)
        assert again.records == records[:kept] + more
        if records[:kept] or more:
            header = json.loads(path.read_bytes().split(b"\n", 1)[0])
            assert header == {"kind": "header", "schema": 1, "stamp": "s"}
        assert not path.with_name("j.jsonl.stale").exists()


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
    done=st.lists(st.sampled_from("abcdef"), max_size=4),
    resumed=st.lists(st.sampled_from("abcdef"), max_size=4),
    cut=st.floats(0.0, 1.0),
)
def test_schemas_fold_the_surviving_records(keys, done, resumed, cut):
    """The serve schema folds exactly the kept records plus the new ones."""
    with tempfile.TemporaryDirectory() as tmp:
        unique = list(dict.fromkeys(keys))
        path = Path(tmp) / "serve.jsonl"
        journal = ServeJournal(path, scenario_key="sc", stamp="s")
        for key in unique:
            journal.journal_queued(key)
        for key in done:
            journal.journal_done(key)
        journal.close()
        offset = round(cut * path.stat().st_size)
        data = _cut(path, offset)
        lines = [json.loads(line) for line in data[:offset].split(b"\n")[1:-1]]
        queued = [r["key"] for r in lines if r["status"] == "queued"]
        finished = {r["key"] for r in lines if r["status"] == "done"}
        journal = ServeJournal(path, scenario_key="sc", stamp="s")
        assert [r["key"] for r in journal.pending()] == [
            k for k in queued if k not in finished
        ]
        for key in resumed:
            journal.journal_done(key)
        journal.close()
        journal = ServeJournal(path, scenario_key="sc", stamp="s")
        assert [r["key"] for r in journal.pending()] == [
            k for k in queued if k not in finished | set(resumed)
        ]


@settings(max_examples=60, deadline=None)
@given(
    written=st.tuples(st.sampled_from("xy"), st.sampled_from("pq")),
    opened=st.tuples(st.sampled_from("xy"), st.sampled_from("pq")),
    keys=st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
)
def test_mismatched_pins_rotate_to_stale(written, opened, keys):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "serve.jsonl"
        stale = path.with_name("serve.jsonl.stale")
        journal = ServeJournal(path, scenario_key=written[1], stamp=written[0])
        for key in keys:
            journal.journal_queued(key)
        journal.close()
        data = path.read_bytes()

        reopened = ServeJournal(path, scenario_key=opened[1], stamp=opened[0])
        if opened == written:
            assert reopened.queued_count == len(set(keys))
            assert not stale.exists()
            return
        assert (reopened.queued_count, reopened.done_count) == (0, 0)
        assert stale.read_bytes() == data
        assert not path.exists()
        reopened.journal_queued("z")
        reopened.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert (header["stamp"], header["scenario"]) == opened
        resumed = ServeJournal(path, scenario_key=opened[1], stamp=opened[0])
        assert [r["key"] for r in resumed.pending()] == ["z"]


def test_torn_tail_is_tolerated(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = ListJournal(path)
    journal.append({"kind": "cell", "key": "k1"})
    journal.append({"kind": "cell", "key": "k2"})
    journal.close()
    with open(path, "a") as f:
        f.write('{"kind": "cell", "key": "k3"')
    assert [r["key"] for r in ListJournal(path).records] == ["k1", "k2"]


def test_resume_after_torn_tail_keeps_new_records(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = ListJournal(path)
    journal.append({"kind": "cell", "key": "k1"})
    journal.close()
    with open(path, "a") as f:
        f.write('{"kind": "cell", "ke')  # crash mid-append
    resumed = ListJournal(path)
    resumed.append({"kind": "cell", "key": "k2"})
    resumed.append({"kind": "cell", "key": "k3"})
    resumed.close()
    assert [r["key"] for r in ListJournal(path).records] == ["k1", "k2", "k3"]


def test_reads_and_extends_the_existing_byte_format(tmp_path):
    path = tmp_path / "j.jsonl"
    old = (
        '{"kind": "header", "schema": 1, "stamp": "s"}\n'
        '{"kind": "cell", "key": "k1", "workload": "pr"}\n'
    )
    path.write_text(old)
    journal = ListJournal(path)
    assert journal.records == [{"kind": "cell", "key": "k1", "workload": "pr"}]
    journal.append({"kind": "cell", "key": "k2"})
    journal.close()
    assert path.read_text() == old + '{"kind": "cell", "key": "k2"}\n'


def test_stale_stamp_rotates_aside(tmp_path):
    path = tmp_path / "j.jsonl"
    old = ListJournal(path, stamp="old")
    old.append({"kind": "cell", "key": "k"})
    old.close()
    fresh = ListJournal(path, stamp="new")
    assert fresh.records == []
    assert path.with_name("j.jsonl.stale").exists()
    fresh.append({"kind": "cell", "key": "k2"})
    fresh.close()
    header = json.loads(path.read_text().splitlines()[0])
    assert header["stamp"] == "new"
