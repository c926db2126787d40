"""Unit tests for repro.core.cabinet.FileCabinet."""

from __future__ import annotations

import pytest

from contracts import BaseTestFolderContainer
from repro.core import Briefcase, FileCabinet, Folder
from repro.core.errors import CabinetError


class TestFileCabinetContract(BaseTestFolderContainer):
    @pytest.fixture
    def opened(self):
        return FileCabinet("c", site="tromso"), lambda cabinet: cabinet

    @pytest.fixture
    def error(self):
        return CabinetError


class TestNaming:
    def test_requires_name(self):
        with pytest.raises(CabinetError):
            FileCabinet("")


class TestElementIndex:
    def test_contains_element_after_put(self):
        cabinet = FileCabinet("c")
        cabinet.put("VISITED", "site-a")
        assert cabinet.contains_element("VISITED", "site-a")
        assert not cabinet.contains_element("VISITED", "site-b")

    def test_contains_element_for_missing_folder(self):
        assert not FileCabinet("c").contains_element("X", "anything")

    def test_contains_element_after_add_indexes_existing(self):
        cabinet = FileCabinet("c")
        cabinet.add(Folder("X", ["a", "b"]))
        assert cabinet.contains_element("X", "a")
        assert cabinet.contains_element("X", "b")

    def test_elements_for_missing_folder_is_empty(self):
        assert FileCabinet("c").elements("nope") == []

    def test_elements_returns_decoded_values(self):
        cabinet = FileCabinet("c")
        cabinet.put("X", {"k": 1})
        assert cabinet.elements("X") == [{"k": 1}]


class TestBriefcaseInterchange:
    def test_deposit_copies_folders(self):
        cabinet = FileCabinet("c")
        briefcase = Briefcase([Folder("RESULTS", [1, 2])])
        cabinet.deposit(briefcase)
        briefcase.folder("RESULTS").push(3)
        assert cabinet.elements("RESULTS") == [1, 2]

    def test_deposit_merges_into_existing_folder(self):
        cabinet = FileCabinet("c")
        cabinet.put("RESULTS", 0)
        cabinet.deposit(Briefcase([Folder("RESULTS", [1])]))
        assert cabinet.elements("RESULTS") == [0, 1]
        assert cabinet.contains_element("RESULTS", 1)

    def test_deposit_normalises_stored_elements_like_merge(self):
        # A mutable buffer that slipped past the bytes normalisation (a
        # raw-tagged bytearray, as a hand-built wire payload might carry)
        # used to be appended as-is: shared with the briefcase, and — now
        # that the element index is keyed by the stored element itself —
        # unhashable when contains_element builds the index.
        source = Briefcase([Folder("DATA", [b"one"])])
        raw = bytearray(b"Rmutable")
        source.folder("DATA")._elements.append(raw)
        merged, fresh = FileCabinet("merged"), FileCabinet("fresh")
        merged.put("DATA", b"zero")
        for cabinet in (merged, fresh):
            cabinet.deposit(source)
        raw[1:] = b"CHANGED!"
        for cabinet in (merged, fresh):
            assert all(type(stored) is bytes
                       for stored in cabinet.folder("DATA").raw_elements())
            assert cabinet.contains_element("DATA", b"mutable")
            assert not cabinet.contains_element("DATA", b"CHANGED!")

    def test_deposit_with_name_filter(self):
        cabinet = FileCabinet("c")
        cabinet.deposit(Briefcase([Folder("KEEP", [1]), Folder("SKIP", [2])]),
                        names=["KEEP"])
        assert cabinet.has("KEEP")
        assert not cabinet.has("SKIP")

    def test_withdraw_copies_and_keeps(self):
        cabinet = FileCabinet("c")
        cabinet.put("X", 1)
        briefcase = cabinet.withdraw(["X", "MISSING"])
        assert briefcase.folder("X").elements() == [1]
        assert cabinet.has("X")
        assert not briefcase.has("MISSING")


class TestCostModel:
    def test_move_cost_exceeds_storage_size(self):
        cabinet = FileCabinet("c")
        cabinet.put("X", "x" * 500)
        assert cabinet.move_cost() == cabinet.storage_size() * FileCabinet.MOVE_COST_FACTOR
        assert cabinet.move_cost() > cabinet.storage_size()

    def test_briefcase_is_cheaper_to_move_than_cabinet_with_same_content(self):
        """The design point of paper section 2: briefcases move, cabinets stay."""
        briefcase = Briefcase([Folder("X", ["x" * 100] * 10)])
        cabinet = FileCabinet("c")
        cabinet.deposit(briefcase)
        assert briefcase.wire_size() < cabinet.move_cost()


class TestRewrite:
    def test_a_rewrite_rebuilds_the_element_index(self):
        cabinet = FileCabinet("spool")
        cabinet.put("letters", {"id": 1})
        cabinet.put("letters", {"id": 2})
        assert cabinet.contains_element("letters", {"id": 1})
        cabinet.add(Folder("letters", [{"id": 2}]), replace=True)
        assert not cabinet.contains_element("letters", {"id": 1})
        assert cabinet.contains_element("letters", {"id": 2})

    def test_every_put_gives_exactly_one_notice(self):
        seen = []
        cabinet = FileCabinet("spool")
        cabinet.attach_store(seen.append)
        cabinet.put("letters", {"id": 1})         # creates the folder
        assert seen == ["letters"]
        cabinet.put("letters", {"id": 2})
        cabinet.remove("letters")
        cabinet.put("letters", {"id": 3})         # creates it again
        assert seen == ["letters"] * 4
        assert cabinet.elements("letters") == [{"id": 3}]

    def test_a_rewrite_notifies_the_store_hook(self):
        seen = []
        cabinet = FileCabinet("spool")
        cabinet.attach_store(seen.append)
        cabinet.put("letters", {"id": 1})
        seen.clear()
        cabinet.add(Folder("letters"), replace=True)
        assert seen == ["letters"]
        assert cabinet.elements("letters") == []
