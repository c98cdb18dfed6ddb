"""Write-ahead journal: append discipline, snapshots, durable stores."""

import pytest

from dcrobot.core.journal import (
    JOURNAL_SCHEMA_VERSION,
    FileJournalStore,
    JournalRecord,
    MemoryJournalStore,
    RecordKind,
    WriteAheadJournal,
)


def test_appends_are_sequenced_and_typed():
    journal = WriteAheadJournal()
    first = journal.append(10.0, RecordKind.INCIDENT_OPENED,
                           link_id="link-1", symptom="link-down")
    second = journal.append(20.0, RecordKind.ORDER_DISPATCHED,
                            order_id=1, link_id="link-1")
    assert (first.seq, second.seq) == (0, 1)
    assert journal.record_count == 2
    records = journal.records()
    assert [r.kind for r in records] == [RecordKind.INCIDENT_OPENED,
                                         RecordKind.ORDER_DISPATCHED]
    assert records[0].payload["link_id"] == "link-1"


def test_non_durable_payloads_are_rejected_at_append_time():
    journal = WriteAheadJournal()

    class Live:
        pass

    with pytest.raises(TypeError, match="non-durable"):
        journal.append(0.0, RecordKind.INCIDENT_OPENED, thing=Live())
    with pytest.raises(TypeError, match="not a string"):
        journal.append(0.0, RecordKind.INCIDENT_OPENED,
                       mapping={1: "x"})
    # Nothing half-written: the failed appends left no record behind.
    assert journal.record_count == 0


def test_tail_returns_latest_snapshot_and_records_after_it():
    journal = WriteAheadJournal()
    journal.append(1.0, RecordKind.INCIDENT_OPENED, link_id="a")
    journal.snapshot(2.0, {"open_incidents": []})
    journal.append(3.0, RecordKind.INCIDENT_OPENED, link_id="b")
    journal.snapshot(4.0, {"open_incidents": ["b"]})
    journal.append(5.0, RecordKind.INCIDENT_CLOSED, link_id="b")

    snapshot, tail = journal.tail()
    assert snapshot is not None
    assert snapshot.payload["state"] == {"open_incidents": ["b"]}
    assert snapshot.payload["schema_version"] == JOURNAL_SCHEMA_VERSION
    assert [r.kind for r in tail] == [RecordKind.INCIDENT_CLOSED]
    assert journal.snapshot_count == 2


def test_tail_without_snapshot_is_the_whole_journal():
    journal = WriteAheadJournal()
    journal.append(1.0, RecordKind.INCIDENT_OPENED, link_id="a")
    snapshot, tail = journal.tail()
    assert snapshot is None
    assert len(tail) == 1


def test_memory_store_survives_journal_object_death():
    store = MemoryJournalStore()
    journal = WriteAheadJournal(store)
    journal.append(1.0, RecordKind.INCIDENT_OPENED, link_id="a")
    journal.snapshot(2.0, {"x": 1})
    del journal  # the "controller crash"

    reborn = WriteAheadJournal(store)
    assert reborn.record_count == 2  # sequence continues, never reuses
    assert reborn.snapshot_count == 1
    assert [r.kind for r in reborn.records()] == [
        RecordKind.INCIDENT_OPENED, RecordKind.SNAPSHOT]


def test_record_json_round_trip():
    record = JournalRecord(seq=7, time=123.5,
                           kind=RecordKind.ORDER_CONCLUDED,
                           payload={"order_id": 3, "link_id": "l",
                                    "nested": [1, 2.5, None, True]})
    assert JournalRecord.from_json(record.to_json()) == record


def test_file_store_round_trips_and_tolerates_torn_tail(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    store = FileJournalStore(path, fsync=False)
    journal = WriteAheadJournal(store)
    journal.append(1.0, RecordKind.INCIDENT_OPENED, link_id="a")
    journal.append(2.0, RecordKind.INCIDENT_CLOSED, link_id="a")
    store.close()

    # Simulate a crash mid-append: a torn, unparseable final line.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 2, "time": 3.0, "kin')

    recovered = WriteAheadJournal(FileJournalStore(path, fsync=False))
    records = recovered.records()
    assert [r.kind for r in records] == [RecordKind.INCIDENT_OPENED,
                                         RecordKind.INCIDENT_CLOSED]
    assert recovered.record_count == 2
