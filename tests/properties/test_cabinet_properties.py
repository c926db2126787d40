"""Property-based tests for FileCabinet invariants (index consistency, persistence)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Briefcase, FileCabinet, Folder
from repro.store.snapshot import capture_cabinet, restore_cabinet

element_strategy = st.one_of(st.binary(max_size=32), st.text(max_size=16), st.integers())


@given(st.lists(element_strategy, max_size=20), element_strategy)
def test_contains_element_matches_membership(elements, probe):
    cabinet = FileCabinet("c")
    for element in elements:
        cabinet.put("X", element)
    expected = probe in elements
    # The element index must agree with a linear scan of the decoded values.
    assert cabinet.contains_element("X", probe) == expected


@given(st.lists(element_strategy, max_size=20))
def test_elements_reflect_every_put_in_order(elements):
    cabinet = FileCabinet("c")
    for element in elements:
        cabinet.put("X", element)
    assert cabinet.elements("X") == list(elements)


@given(st.lists(element_strategy, min_size=1, max_size=15))
def test_deposit_indexes_everything(elements):
    cabinet = FileCabinet("c")
    cabinet.deposit(Briefcase([Folder("F", elements)]))
    for element in elements:
        assert cabinet.contains_element("F", element)


@given(st.lists(element_strategy, max_size=15))
def test_withdraw_copies_do_not_alias(elements):
    cabinet = FileCabinet("c")
    for element in elements:
        cabinet.put("F", element)
    briefcase = cabinet.withdraw(["F"])
    if elements:
        briefcase.folder("F").push(b"mutation")
        assert cabinet.elements("F") == list(elements)


@given(st.lists(element_strategy, max_size=12))
@settings(max_examples=30, deadline=None)
def test_store_image_round_trip(elements):
    # The one permanence path: a durable store keeps a cabinet's image and
    # rebuilds the cabinet from it at recovery.
    cabinet = FileCabinet("persist", site="alpha")
    for element in elements:
        cabinet.put("DATA", element)
    recovered = FileCabinet("persist", site="alpha")
    restore_cabinet(recovered, capture_cabinet(cabinet))
    assert recovered.elements("DATA") == cabinet.elements("DATA")


@given(st.lists(element_strategy, max_size=15))
def test_move_cost_dominates_storage(elements):
    cabinet = FileCabinet("c")
    for element in elements:
        cabinet.put("X", element)
    assert cabinet.move_cost() >= cabinet.storage_size()
    if elements:
        assert cabinet.move_cost() >= FileCabinet.MOVE_COST_FACTOR


@given(st.lists(element_strategy, max_size=12), st.lists(element_strategy, max_size=12),
       element_strategy)
def test_put_indexes_exactly_the_element_it_stored(before, after, probe):
    # put() indexes the stored bytes it just appended (no folder copy): the
    # index a query built part-way and put() kept up must equal the one a
    # query builds from the finished folder, duplicates included.
    cabinet = FileCabinet("c")
    cabinet.deposit(Briefcase([Folder("X", before)]))
    for element in after:
        cabinet.put("X", element)
        assert cabinet.contains_element("X", element)
    assert cabinet.contains_element("X", probe) == (probe in before + after)
    rebuilt = FileCabinet("c")
    rebuilt.add(Folder("X", before + after))
    assert rebuilt._index == {}                      # nobody has asked yet
    rebuilt.contains_element("X", probe)
    assert cabinet._index == rebuilt._index


@given(st.lists(element_strategy, min_size=1, max_size=10),
       st.lists(st.tuples(
           st.sampled_from(["put", "rewrite", "remove", "deposit", "add", "recover",
                            "query"]),
           element_strategy), max_size=12),
       element_strategy)
def test_the_index_is_derived_state(initial, edits, probe):
    # A folder that was only ever put to has no index entry; one that was
    # queried keeps answering exactly what a scan of the decoded elements
    # answers, whatever happens to the folder in between — every other edit
    # drops the entry and the next query rebuilds it from the stored bytes.
    cabinet = FileCabinet("c")
    for element in initial:
        cabinet.put("QUIET", element)
        cabinet.put("ASKED", element)
    assert cabinet._index == {}
    assert cabinet.contains_element("ASKED", initial[0])
    for edit, element in edits:
        if edit == "put":
            cabinet.put("ASKED", element)
        elif edit == "rewrite":  # the whole folder again, one element longer
            cabinet.add(Folder("ASKED", cabinet.elements("ASKED") + [element]),
                        replace=True)
        elif edit == "remove":
            if cabinet.has("ASKED"):
                cabinet.remove("ASKED")
        elif edit == "deposit":
            cabinet.deposit(Briefcase([Folder("ASKED", [element])]))
        elif edit == "add":
            cabinet.add(Folder("ASKED", [element]), replace=True)
        elif edit == "recover":  # crash -> recover: clear, then restore the image
            restore_cabinet(cabinet, capture_cabinet(cabinet))
        for candidate in (element, probe):
            assert (cabinet.contains_element("ASKED", candidate)
                    == (candidate in cabinet.elements("ASKED")))
    assert "QUIET" not in cabinet._index


@given(st.lists(element_strategy, min_size=1, max_size=8),
       st.sampled_from(["remove", "clear", "add", "deposit", "restore"]))
def test_derived_state_lives_and_dies_with_the_index(elements, edit):
    cabinet = FileCabinet("c")
    cabinet.put("X", elements[0])
    cabinet.derived("X")["seen"] = 1
    cabinet.derived("Y")["seen"] = 1       # a slot may precede its folder
    for element in elements[1:]:
        cabinet.put("X", element)          # appends leave it alone
    assert cabinet.derived("X") == {"seen": 1}
    size = cabinet.storage_size()
    if edit == "remove":
        cabinet.remove("X")
    elif edit == "clear":
        cabinet.clear()
    elif edit == "add":
        cabinet.add(Folder("X", elements), replace=True)
    elif edit == "deposit":
        cabinet.deposit(Briefcase([Folder("X", elements)]))
    else:
        restore_cabinet(cabinet, capture_cabinet(cabinet))
    assert cabinet.derived("X") == {}
    if edit in ("add", "restore"):
        assert cabinet.storage_size() == size      # never counted as stored
    cabinet.add(Folder("Y"))               # creating the folder drops its slot
    assert cabinet.derived("Y") == {}
