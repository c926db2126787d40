"""Property-based tests for the write-ahead log.

``WriteAheadLog`` keeps only what replay reads: the last committed state of
each folder, plus the record count and payload bytes since the last fold.
Whatever sequence of commits, deletions and folds it sees, it must answer
exactly what a log that kept every record answers; the list-of-records
model below is that reference, and ``src/`` no longer has it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import WriteAheadLog
from repro.store.wal import WalRecord, apply_states


def collapse(records) -> Dict[Tuple[str, str], Optional[Tuple[bytes, ...]]]:
    """Last-wins states of *records*, in first-record order."""
    states = {}
    for record in records:
        states[record.cabinet, record.folder] = record.elements
    return states


def as_tuple(record: WalRecord):
    return (record.seq, record.cabinet, record.folder, record.elements,
            record.size_bytes, record.committed_at)


class RecordListModel:
    """A write-ahead log that keeps every record until a fold."""

    def __init__(self) -> None:
        self.records: List[WalRecord] = []
        self.next_seq = 1
        self.total_committed = 0

    def commit(self, captures, at: float) -> List[WalRecord]:
        records = []
        for cabinet, folder, elements in captures:
            records.append(WalRecord(self.next_seq, cabinet, folder, elements, at))
            self.next_seq += 1
        self.records.extend(records)
        self.total_committed += len(records)
        return records

    def fold_into(self, images) -> int:
        folded = len(self.records)
        apply_states(collapse(self.records), images)
        self.records = []
        return folded


elements = st.none() | st.lists(st.binary(max_size=24), max_size=3).map(tuple)
captures = st.lists(st.tuples(st.sampled_from(["cab", "other"]),
                              st.sampled_from(["f1", "f2", "f3", "f4"]), elements),
                    max_size=5)
operations = st.lists(st.one_of(captures, st.just("fold")), max_size=30)


@given(operations)
@settings(max_examples=150, deadline=None)
def test_the_collapsed_log_answers_what_the_record_list_answers(operations):
    wal, model = WriteAheadLog(), RecordListModel()
    images: Dict[str, Dict[str, Tuple[bytes, ...]]] = {"cab": {"f1": (b"base",)}}
    model_images = {"cab": dict(images["cab"])}
    for at, operation in enumerate(operations):
        if operation == "fold":
            assert wal.fold_into(images) == model.fold_into(model_images)
            assert images == model_images
            assert all(list(images[name]) == list(model_images[name]) for name in images)
        else:
            assert (list(map(as_tuple, wal.commit(operation, at=float(at))))
                    == list(map(as_tuple, model.commit(operation, at=float(at)))))
        # Order too: recovery restores folders in this order.
        assert list(wal.replay_states().items()) == list(collapse(model.records).items())
        assert len(wal) == len(model.records)
        assert wal.bytes_pending == sum(record.size_bytes for record in model.records)
        assert wal.total_committed == model.total_committed


def test_replay_states_is_a_copy():
    wal = WriteAheadLog()
    wal.commit([("cab", "f", (b"one",))], at=1.0)
    wal.replay_states().clear()
    assert wal.replay_states() == {("cab", "f"): (b"one",)}

