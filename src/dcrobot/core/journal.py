"""Write-ahead journal for the maintenance controller's state.

The controller (see :mod:`dcrobot.core.controller`) keeps every work
order, retry budget, and breaker state in process memory — which means a
controller crash loses every in-flight incident.  This module provides
the durability layer that makes the control plane itself recoverable:

* every state transition is appended to the journal **before** it takes
  effect in memory (write-ahead discipline), as a plain-data
  :class:`JournalRecord`;
* periodic **snapshots** capture the controller's full logical state, so
  recovery replays only the journal tail, not the whole history;
* storage is pluggable: :class:`MemoryJournalStore` models the durable
  device inside a simulation (it outlives any controller object), and
  :class:`FileJournalStore` writes fsynced JSONL for real processes.

Replay itself lives in :mod:`dcrobot.core.recovery`; lease and fencing
records come from :mod:`dcrobot.core.leadership`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from typing import Any, Dict, List, Optional, Tuple

#: Version of the journal record / snapshot layout.  Bump on any change
#: to record payload shapes or the snapshot schema; recovery refuses to
#: replay a journal written under a different version, and the trial
#: cache keys on it so recovery-format changes can never serve stale
#: cached trials.
JOURNAL_SCHEMA_VERSION = 1


class RecordKind(enum.Enum):
    """Journalled controller state transitions."""

    INCIDENT_OPENED = "incident-opened"
    ORDER_DISPATCHED = "order-dispatched"
    ORDER_CONCLUDED = "order-concluded"
    ORDER_TIMED_OUT = "order-timed-out"
    RETRY_SCHEDULED = "retry-scheduled"
    INCIDENT_CLOSED = "incident-closed"
    INCIDENT_UNRESOLVABLE = "incident-unresolvable"
    BREAKER_TRANSITION = "breaker-transition"
    LEASE_ACQUIRED = "lease-acquired"
    LEASE_LOST = "lease-lost"
    SNAPSHOT = "snapshot"


@dataclasses.dataclass(frozen=True)
class JournalRecord:
    """One durable entry: a state transition or a snapshot."""

    seq: int
    time: float
    kind: RecordKind
    payload: Dict[str, Any]

    def to_json(self) -> str:
        return json.dumps({"seq": self.seq, "time": self.time,
                           "kind": self.kind.value,
                           "payload": self.payload},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "JournalRecord":
        raw = json.loads(line)
        return cls(seq=int(raw["seq"]), time=float(raw["time"]),
                   kind=RecordKind(raw["kind"]), payload=raw["payload"])


def _ensure_plain(value: Any, path: str = "payload") -> None:
    """Reject payloads that could not survive a process boundary.

    A record holding a live object (an Event, a Process, a controller)
    would replay as garbage after a real crash; catching it at append
    time keeps the write-ahead contract honest.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _ensure_plain(item, f"{path}[{index}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"journal {path} key {key!r} is not a string")
            _ensure_plain(item, f"{path}.{key}")
        return
    raise TypeError(
        f"journal {path} holds non-durable value {value!r} "
        f"({type(value).__name__})")


class MemoryJournalStore:
    """The durable device of a simulated world.

    Lives outside any controller object, so it survives a controller
    "crash" (object death) exactly as a disk survives a process crash.
    """

    def __init__(self) -> None:
        self.records: List[JournalRecord] = []
        #: Appends performed, including those later compacted away.
        self.appends = 0

    def append(self, record: JournalRecord) -> None:
        self.records.append(record)
        self.appends += 1

    def load(self) -> List[JournalRecord]:
        return list(self.records)


class FileJournalStore:
    """JSONL-on-disk journal storage with per-record fsync."""

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, record: JournalRecord) -> None:
        self._handle.write(record.to_json() + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def load(self) -> List[JournalRecord]:
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(JournalRecord.from_json(line))
                except (ValueError, KeyError):
                    # A torn final write (crash mid-append) is expected;
                    # anything after it is unreachable anyway.
                    break
        return records

    def close(self) -> None:
        self._handle.close()


class WriteAheadJournal:
    """Append-only journal plus snapshot support for one control plane.

    The write-ahead contract: callers append the record describing a
    state transition *before* applying the transition in memory, so
    after a crash the journal is never behind the controller's
    externally visible actions.
    """

    def __init__(self, store: Optional[object] = None) -> None:
        self.store = store if store is not None else MemoryJournalStore()
        existing = self.store.load()
        self._next_seq = (existing[-1].seq + 1) if existing else 0
        self.snapshot_count = sum(
            1 for record in existing
            if record.kind is RecordKind.SNAPSHOT)

    @property
    def record_count(self) -> int:
        return self._next_seq

    def append(self, time: float, kind: RecordKind,
               **payload: Any) -> JournalRecord:
        """Durably record one state transition (call *before* applying)."""
        _ensure_plain(payload)
        record = JournalRecord(seq=self._next_seq, time=float(time),
                               kind=kind, payload=payload)
        self.store.append(record)
        self._next_seq += 1
        return record

    def snapshot(self, time: float, state: Dict[str, Any]) -> JournalRecord:
        """Record a full logical-state snapshot (replay starts here)."""
        record = self.append(
            time, RecordKind.SNAPSHOT,
            schema_version=JOURNAL_SCHEMA_VERSION, state=state)
        self.snapshot_count += 1
        return record

    def records(self) -> List[JournalRecord]:
        return self.store.load()

    def tail(self) -> Tuple[Optional[JournalRecord], List[JournalRecord]]:
        """The latest snapshot (or None) and every record after it."""
        records = self.store.load()
        snapshot = None
        start = 0
        for index, record in enumerate(records):
            if record.kind is RecordKind.SNAPSHOT:
                snapshot = record
                start = index + 1
        return snapshot, records[start:]


__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "RecordKind",
    "JournalRecord",
    "MemoryJournalStore",
    "FileJournalStore",
    "WriteAheadJournal",
]
