"""Property-based tests for the write-ahead log.

``WriteAheadLog`` keeps only what replay reads: the last committed state of
each folder, plus the record count and payload bytes since the last fold.
Whatever sequence of commits, deletions and folds it sees, it must answer
exactly what a log that kept every record answers; the list-of-records
model below is that reference, and ``src/`` no longer has it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import WriteAheadLog
from repro.store.wal import apply_states


class Record(NamedTuple):
    """One committed redo record: the state of one folder at commit time."""

    cabinet: str
    folder: str
    elements: Optional[Tuple[bytes, ...]]

    @property
    def size_bytes(self) -> int:
        return sum(map(len, self.elements)) if self.elements else 0


def collapse(records) -> Dict[Tuple[str, str], Optional[Tuple[bytes, ...]]]:
    """Last-wins states of *records*, in first-record order."""
    states = {}
    for record in records:
        states[record.cabinet, record.folder] = record.elements
    return states


class RecordListModel:
    """A write-ahead log that keeps every record until a fold."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.total_committed = 0

    def commit(self, captures) -> List[Record]:
        records = [Record(*capture) for capture in captures]
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
    for operation in operations:
        if operation == "fold":
            assert wal.fold_into(images) == model.fold_into(model_images)
            assert images == model_images
            assert all(list(images[name]) == list(model_images[name]) for name in images)
        else:
            records = model.commit(operation)
            wal.commit(operation, sum(record.size_bytes for record in records))
        # Order too: recovery restores folders in this order.
        assert list(wal.replay_states().items()) == list(collapse(model.records).items())
        assert len(wal) == len(model.records)
        assert wal.bytes_pending == sum(record.size_bytes for record in model.records)
        assert wal.total_committed == model.total_committed


def test_replay_states_is_a_copy():
    wal = WriteAheadLog()
    wal.commit([("cab", "f", (b"one",))], 3)
    wal.replay_states().clear()
    assert wal.replay_states() == {("cab", "f"): (b"one",)}

