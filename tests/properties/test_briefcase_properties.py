"""Property-based tests for Briefcase invariants and the wire codec."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import Briefcase, Folder
from repro.core.codec import receive_briefcase, wire_size_of
from repro.core.errors import (BriefcaseError, FolderError, MissingFolderError,
                               TacomaError)

element_strategy = st.one_of(
    st.binary(max_size=48),
    st.text(max_size=24),
    st.integers(),
    st.lists(st.integers(), max_size=4),
)

folder_name_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_-"),
    min_size=1, max_size=12)


@st.composite
def briefcases(draw, max_folders=6):
    names = draw(st.lists(folder_name_strategy, max_size=max_folders, unique=True))
    briefcase = Briefcase()
    for name in names:
        elements = draw(st.lists(element_strategy, max_size=8))
        briefcase.add(Folder(name, elements))
    return briefcase


@given(briefcases())
def test_receive_of_a_snapshot_round_trips(briefcase):
    assert receive_briefcase(briefcase.snapshot()) == briefcase


@given(briefcases())
def test_copy_equals_original_but_is_independent(briefcase):
    clone = briefcase.copy()
    assert clone == briefcase
    clone.put("EXTRA_FOLDER_XYZ", b"x")
    assert not briefcase.has("EXTRA_FOLDER_XYZ")


@given(briefcases())
def test_wire_size_counts_every_folder(briefcase):
    total = briefcase.wire_size()
    assert total >= 32
    assert total == wire_size_of(briefcase)
    # The whole is the framing plus the parts.
    parts = sum(folder.wire_size() for folder in briefcase.folders())
    assert total == 32 + parts


@given(briefcases(), briefcases())
@settings(max_examples=60)
def test_merge_conserves_element_count(left, right):
    left_count = sum(len(folder) for folder in left.folders())
    right_count = sum(len(folder) for folder in right.folders())
    left.merge(right)
    merged_count = sum(len(folder) for folder in left.folders())
    assert merged_count == left_count + right_count


@given(briefcases())
def test_split_then_merge_restores_every_element(briefcase):
    original_elements = {folder.name: folder.elements() for folder in briefcase.folders()}
    names = briefcase.names()
    taken = names[: len(names) // 2]
    extracted = briefcase.split(taken)
    briefcase.merge(extracted)
    restored = {folder.name: folder.elements() for folder in briefcase.folders()}
    assert restored == original_elements


@given(briefcases())
def test_names_match_folders(briefcase):
    assert briefcase.names() == [folder.name for folder in briefcase.folders()]
    assert len(briefcase) == len(briefcase.names())


# ---------------------------------------------------------------------------
# inline / eager equivalence
# ---------------------------------------------------------------------------
#
# A briefcase holds a one-element folder nobody has asked for as an object
# as that one stored element (see repro.core.briefcase).  Nothing observable
# may depend on it, so random programs over the whole API run against the
# real Briefcase and against the representation it replaced — every folder a
# Folder object from the start — which survives only here, as the oracle.

class EagerBriefcase:
    """The oracle: a plain ``Dict[str, Folder]``, no inline form."""

    def __init__(self, folders=()):
        self.folders = {folder.name: folder for folder in folders}

    def add(self, folder, replace=False):
        if folder.name in self.folders and not replace:
            raise BriefcaseError(folder.name)
        self.folders[folder.name] = folder
        return folder

    def folder(self, name, create=False):
        if name not in self.folders:
            if not create:
                raise MissingFolderError(name)
            self.folders[name] = Folder(name)
        return self.folders[name]

    def put(self, name, element):
        self.folder(name, create=True).push(element)

    def set(self, name, element):
        self.folder(name, create=True).replace([element])

    def get(self, name, default=None):
        folder = self.folders.get(name)
        return folder.peek() if folder else default

    def take(self, name):
        return self.folder(name).pop()

    def has(self, name):
        return name in self.folders

    def remove(self, name):
        self.folder(name)
        return self.folders.pop(name)

    def discard(self, name):
        return self.folders.pop(name, None)

    def merge(self, other, replace=False):
        for folder in other.folders.values():
            if folder.name in self.folders and not replace:
                # the very same stored objects, as Briefcase.merge shares them
                self.folders[folder.name]._elements.extend(folder._elements)
            else:
                self.folders[folder.name] = folder.copy()

    def split(self, names):
        return EagerBriefcase([self.remove(name) for name in names])

    def copy(self):
        return EagerBriefcase([folder.copy() for folder in self.folders.values()])

    def stored_items(self):
        return [(name, folder.raw_elements()) for name, folder in self.folders.items()]

    def wire_size(self):
        return 32 + sum(folder.wire_size() for folder in self.folders.values())

    def to_wire(self):
        return {"folders": [folder.to_wire() for folder in self.folders.values()]}


def view(value):
    """What an operation returned, comparable across the two representations."""
    if isinstance(value, Folder):
        return ("folder", value.name, value.raw_elements())
    if isinstance(value, (Briefcase, EagerBriefcase)):
        return ("briefcase", value.stored_items())
    return value


# Few names, so programs keep hitting the same folders; one is not ASCII
# because the size model charges the UTF-8 length of a name.
names = st.sampled_from(["A", "B", "HOST", "Ω-ö"])
slots = st.integers(min_value=0, max_value=1)


class InlineEagerEquivalence(RuleBasedStateMachine):
    """Two briefcases (so merge/split/copy have a partner), each kept twice."""

    def __init__(self):
        super().__init__()
        self.pairs = [[Briefcase(), EagerBriefcase()], [Briefcase(), EagerBriefcase()]]
        #: (Folder handle from the Briefcase, the oracle's handle) taken so far
        self.handles = []

    def both(self, slot, call):
        """Run *call* on the briefcase and the oracle in *slot*: same result
        or the same error.  Returns the two raw results (None if it raised)."""
        results, outcomes = [], []
        for briefcase in self.pairs[slot]:
            try:
                results.append(call(briefcase))
                outcomes.append(("returned", view(results[-1])))
            except TacomaError as error:
                results.append(None)
                outcomes.append(("raised", type(error)))
        assert outcomes[0] == outcomes[1]
        return results

    @rule(slot=slots, name=names, elements=st.lists(element_strategy, max_size=3),
          replace=st.booleans())
    def add(self, slot, name, elements, replace):
        self.both(slot, lambda bc: bc.add(Folder(name, elements), replace))

    @rule(slot=slots, name=names, create=st.booleans())
    def folder(self, slot, name, create):
        mine, theirs = self.both(slot, lambda bc: bc.folder(name, create))
        if mine is not None:
            assert self.pairs[slot][0].folder(name) is mine
            self.handles.append((mine, theirs))

    @rule(slot=slots, name=names, element=element_strategy)
    def put(self, slot, name, element):
        self.both(slot, lambda bc: bc.put(name, element))

    @rule(slot=slots, name=names, element=element_strategy)
    def set(self, slot, name, element):
        self.both(slot, lambda bc: bc.set(name, element))

    @rule(slot=slots, name=names)
    def read(self, slot, name):
        self.both(slot, lambda bc: (bc.has(name), bc.get(name), bc.get(name, "absent")))

    @rule(slot=slots, name=names)
    def take(self, slot, name):
        self.both(slot, lambda bc: bc.take(name))

    @rule(slot=slots, name=names)
    def remove(self, slot, name):
        self.both(slot, lambda bc: bc.remove(name))

    @rule(slot=slots, name=names)
    def discard(self, slot, name):
        self.both(slot, lambda bc: bc.discard(name))

    @rule(data=st.data(), element=element_strategy)
    def push_through_a_handle(self, data, element):
        if self.handles:
            for handle in data.draw(st.sampled_from(self.handles)):
                handle.push(element)

    @rule(slot=slots, replace=st.booleans())
    def merge(self, slot, replace):
        (mine, theirs), (other_mine, other_theirs) = self.pairs[slot], self.pairs[1 - slot]
        mine.merge(other_mine, replace)
        theirs.merge(other_theirs, replace)

    @rule(slot=slots, wanted=st.lists(names, max_size=3, unique=True))
    def split_into_the_other(self, slot, wanted):
        extracted = self.both(slot, lambda bc: bc.split(wanted))
        if extracted[0] is not None:
            self.pairs[1 - slot] = extracted

    @rule(slot=slots)
    def copy_over_the_other(self, slot):
        self.pairs[1 - slot] = self.both(slot, lambda bc: bc.copy())

    @rule(slot=slots)
    def ship_pickled(self, slot):
        # A process shard's handoff: the snapshot is pickled with its message.
        mine, theirs = self.pairs[slot]
        shipped = pickle.loads(pickle.dumps(theirs.stored_items()))
        self.pairs[slot] = [
            receive_briefcase(pickle.loads(pickle.dumps(mine.snapshot()))),
            EagerBriefcase([Folder.from_stored(name, elements)
                            for name, elements in shipped])]

    @rule(slot=slots)
    def ship_as_snapshot(self, slot):
        # The in-engine wire: it moves the very same stored objects, so the
        # oracle's counterpart is its copy.
        mine, theirs = self.pairs[slot]
        self.pairs[slot] = [receive_briefcase(mine.snapshot()), theirs.copy()]

    @rule(slot=slots)
    def ship_as_wire_dict(self, slot):
        mine, theirs = self.pairs[slot]
        self.pairs[slot] = [
            Briefcase.from_wire(mine.to_wire()),
            EagerBriefcase([Folder.from_wire(folder)
                            for folder in theirs.to_wire()["folders"]])]

    @invariant()
    def the_two_agree(self):
        # Only through readers that never ask for a Folder: the check must
        # not itself turn the inline folders into objects.
        for mine, theirs in self.pairs:
            assert mine.names() == list(theirs.folders)
            assert len(mine) == len(theirs.folders)
            assert mine.stored_items() == theirs.stored_items()
            assert mine.wire_size() == theirs.wire_size() == wire_size_of(mine)
            assert mine.to_wire() == theirs.to_wire()
        (a, eager_a), (b, eager_b) = self.pairs
        assert (a == b) == (eager_a.folders == eager_b.folders)
        assert a == a.copy()
        for mine, theirs in self.handles:
            assert mine.raw_elements() == theirs.raw_elements()


TestInlineEagerEquivalence = InlineEagerEquivalence.TestCase
TestInlineEagerEquivalence.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None)


def test_a_folder_gets_its_object_on_first_touch_and_keeps_it():
    # White box, once: what the machine above runs really has both forms.
    briefcase = Briefcase()
    briefcase.set("HOST", "tromso")
    briefcase.put("SEQ", 1)
    assert all(type(slot) is bytes for slot in briefcase._folders.values())
    assert receive_briefcase(briefcase.snapshot())._folders == briefcase._folders
    briefcase.get("HOST"), briefcase.has("SEQ"), briefcase.wire_size(), briefcase.copy()
    assert all(type(slot) is bytes for slot in briefcase._folders.values())
    handle = briefcase.folder("HOST")
    briefcase.put("SEQ", 2)                      # a second element: a real list
    assert [type(slot) for slot in briefcase._folders.values()] == [Folder, Folder]
    briefcase.set("HOST", "cornell")             # edits the object it already has
    assert briefcase.folder("HOST") is handle and handle.elements() == ["cornell"]
    assert briefcase.names() == ["HOST", "SEQ"]  # materialising keeps the order


@pytest.mark.parametrize("name", ["", None, 7, b"HOST"])
def test_set_and_put_still_validate_the_name_of_a_folder_they_create(name):
    briefcase = Briefcase()
    with pytest.raises(FolderError):
        briefcase.set(name, 1)
    with pytest.raises(FolderError):
        briefcase.put(name, 1)
    assert len(briefcase) == 0


def test_a_briefcase_in_both_forms_survives_pickle():
    # The process shard backend ships launch briefcases to its workers so.
    briefcase = Briefcase([Folder("EMPTY"), Folder("MANY", [1, "two", b"3"])])
    briefcase.set("HOST", "tromso")
    briefcase.set("TOUCHED", 4)
    briefcase.folder("TOUCHED")
    assert {type(slot) for slot in briefcase._folders.values()} == {bytes, Folder}
    clone = pickle.loads(pickle.dumps(briefcase))
    assert clone == briefcase and clone.names() == briefcase.names()
    assert clone.stored_items() == briefcase.stored_items()
    clone.put("HOST", "cornell")
    assert briefcase.get("HOST") == "tromso"


# ---------------------------------------------------------------------------
# the in-engine wire: snapshot -> receive
# ---------------------------------------------------------------------------
#
# A message carries Briefcase.snapshot() and the arrival builds the receiver's
# briefcase with receive_briefcase: three independent briefcases over one copy
# of the stored bits.  A briefcase rebuilt from a pickle of the stored items,
# which shares nothing with the sender, is the oracle.

@st.composite
def briefcases_in_every_form(draw):
    """Inline, touched (one element, has its object), multi-element and empty."""
    briefcase = Briefcase()
    for name in draw(st.lists(folder_name_strategy, max_size=6, unique=True)):
        form = draw(st.sampled_from(["inline", "touched", "many", "empty"]))
        if form in ("inline", "touched"):
            briefcase.set(name, draw(element_strategy))
            if form == "touched":
                briefcase.folder(name)
        else:
            briefcase.add(Folder(name, draw(st.lists(
                element_strategy, min_size=2, max_size=5)) if form == "many" else None))
    return briefcase


def mutate(draw, briefcase):
    """One edit drawn from every way a briefcase's contents can change."""
    names = briefcase.names() + ["NEW_FOLDER_XYZ"]
    name = draw(st.sampled_from(names))
    edit = draw(st.sampled_from(["put", "set", "remove", "push", "pop"]))
    if edit == "put":
        briefcase.put(name, draw(element_strategy))
    elif edit == "set":
        briefcase.set(name, draw(element_strategy))
    elif edit == "push":
        briefcase.folder(name, create=True).push(draw(element_strategy))
    elif briefcase.has(name) and edit == "remove":
        briefcase.remove(name)
    elif briefcase.has(name) and briefcase.folder(name):
        briefcase.folder(name).pop()


@given(briefcases_in_every_form(), st.data())
def test_receive_of_a_snapshot_is_unpack_of_a_pack_over_the_same_elements(sender, data):
    oracle = Briefcase.from_stored_items(pickle.loads(pickle.dumps(sender.stored_items())))
    before = oracle.stored_items()
    carried = sender.snapshot()
    receiver, again = receive_briefcase(carried), receive_briefcase(carried)
    parties = [sender, carried, receiver, again]     # one message, delivered twice
    for party in parties:
        assert party == oracle and party.names() == oracle.names()
        assert party.stored_items() == before
        assert party.wire_size() == oracle.wire_size()
    # Moved, not copied: every name and every stored element is the sender's object.
    for theirs in (carried.stored_items(), receiver.stored_items()):
        for (name, elements), (their_name, their_elements) in zip(
                sender.stored_items(), theirs):
            assert their_name is name
            assert all(a is b for a, b in zip(elements, their_elements))
    # A one-element folder is received inline, as the oracle holds it.
    assert ({name for name, slot in receiver._folders.items() if type(slot) is bytes}
            == {name for name, slot in oracle._folders.items() if type(slot) is bytes})
    # And nothing else is shared: an edit to any party is invisible to the rest.
    for index in data.draw(st.permutations(range(len(parties)))):
        mutate(data.draw, parties[index])
        if parties[index].stored_items() == before:  # e.g. set to what it held
            parties[index].put("NEW_FOLDER_XYZ", b"")
        parties[index] = None
        assert all(party.stored_items() == before for party in parties if party)
