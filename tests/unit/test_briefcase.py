"""Unit tests for repro.core.briefcase.Briefcase."""

from __future__ import annotations

import pytest

from contracts import BaseTestFolderContainer
from repro.core import Briefcase, Folder
from repro.core.errors import BriefcaseError, MissingFolderError


class TestBriefcaseContract(BaseTestFolderContainer):
    @pytest.fixture
    def opened(self):
        return Briefcase(), lambda briefcase: briefcase

    @pytest.fixture
    def error(self):
        return BriefcaseError


class TestBriefcaseSnapshotContract(BaseTestFolderContainer):
    @pytest.fixture
    def opened(self):  # reopened as a move does: snapshot, rebuilt on arrival
        return Briefcase(), lambda briefcase: Briefcase.from_stored_items(
            briefcase.snapshot().stored_items())

    @pytest.fixture
    def error(self):
        return BriefcaseError


class TestElementConveniences:
    def test_set_replaces_contents(self):
        briefcase = Briefcase()
        briefcase.put("V", 1)
        briefcase.put("V", 2)
        briefcase.set("V", 3)
        assert briefcase.folder("V").elements() == [3]

    def test_discard_is_silent_for_missing(self):
        assert Briefcase().discard("X") is None

    def test_take_pops_top(self):
        briefcase = Briefcase()
        briefcase.put("V", 1)
        assert briefcase.take("V") == 1
        assert briefcase.get("V") is None


class TestWholeBriefcaseOperations:
    def test_merge_appends_same_named_folders(self):
        left = Briefcase([Folder("X", [1])])
        right = Briefcase([Folder("X", [2]), Folder("Y", ["y"])])
        left.merge(right)
        assert left.folder("X").elements() == [1, 2]
        assert left.folder("Y").elements() == ["y"]

    def test_merge_with_replace_overwrites(self):
        left = Briefcase([Folder("X", [1])])
        right = Briefcase([Folder("X", [2])])
        left.merge(right, replace=True)
        assert left.folder("X").elements() == [2]

    def test_merge_copies_folders_not_references(self):
        left = Briefcase()
        right = Briefcase([Folder("X", [1])])
        left.merge(right)
        right.folder("X").push(2)
        assert left.folder("X").elements() == [1]

    def test_merge_append_path_does_not_alias_stored_elements(self):
        # Regression: the non-replace merge path spliced the source folder's
        # stored element objects straight into the destination, while the
        # replace path copied — a mutable buffer that bypassed the bytes
        # normalisation (here: a raw-tagged bytearray, as a hand-built wire
        # payload might carry) ended up shared by both briefcases.
        source = Briefcase([Folder("DATA", [b"one"])])
        raw = bytearray(b"Rmutable")
        source.folder("DATA")._elements.append(raw)
        destination = Briefcase([Folder("DATA", [b"zero"])])
        destination.merge(source)
        raw[1:] = b"CHANGED!"
        assert destination.folder("DATA").raw_elements()[-1] == b"Rmutable"
        # And the merged elements honour the "stored elements are immutable
        # bytes" folder contract in both merge paths.
        fresh = Briefcase()
        fresh.merge(source)
        for briefcase in (destination, fresh):
            for stored in briefcase.folder("DATA").raw_elements():
                assert type(stored) is bytes

    def test_split_extracts_named_folders(self):
        briefcase = Briefcase([Folder("A", [1]), Folder("B", [2]), Folder("C", [3])])
        extracted = briefcase.split(["A", "C"])
        assert sorted(extracted.names()) == ["A", "C"]
        assert briefcase.names() == ["B"]

    def test_split_missing_folder_raises(self):
        with pytest.raises(MissingFolderError):
            Briefcase().split(["A"])

    def test_copy_is_deep_for_folder_lists(self):
        original = Briefcase([Folder("X", [1])])
        clone = original.copy()
        clone.folder("X").push(2)
        assert original.folder("X").elements() == [1]

    def test_clear_removes_everything(self):
        briefcase = Briefcase([Folder("X"), Folder("Y")])
        briefcase.clear()
        assert len(briefcase) == 0

    def test_equality(self):
        assert Briefcase([Folder("X", [1])]) == Briefcase([Folder("X", [1])])
        assert Briefcase([Folder("X", [1])]) != Briefcase([Folder("X", [2])])
        assert Briefcase() != 42

    def test_iter_yields_the_folders_in_order(self):
        briefcase = Briefcase([Folder("X"), Folder("Y")])
        assert [folder.name for folder in briefcase] == ["X", "Y"]


class TestWireModel:
    def test_wire_size_counts_all_folders(self):
        briefcase = Briefcase()
        base = briefcase.wire_size()
        briefcase.put("A", "x" * 100)
        assert briefcase.wire_size() > base + 100

    def test_to_wire_from_wire_round_trip(self):
        briefcase = Briefcase([Folder("A", [b"raw"]), Folder("B", ["text", {"n": 1}])])
        rebuilt = Briefcase.from_wire(briefcase.to_wire())
        assert rebuilt == briefcase
