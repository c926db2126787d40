"""Unit tests for repro.core.codec: code shipping and the carried briefcase."""

from __future__ import annotations

import pickle

import pytest

from repro.core import Briefcase, Folder
from repro.core.codec import (behaviour_from_code, code_element_of, code_for,
                              code_from_source, receive_briefcase, wire_size_of)
from repro.core.errors import CodecError, CodeCompilationError, UnknownBehaviourError
from repro.core.registry import BehaviourRegistry


@pytest.fixture
def registry():
    registry = BehaviourRegistry()

    def sample(ctx, bc):
        yield None

    registry.register("sample", sample)
    return registry


class TestCodeElements:
    def test_code_for_names_a_registered_behaviour(self):
        element = code_for("rexec")
        assert element == {"kind": "registered", "name": "rexec"}

    def test_code_from_source_requires_entry_point(self):
        with pytest.raises(CodecError):
            code_from_source("def other(ctx, bc):\n    pass\n")

    def test_code_from_source_builds_element(self):
        element = code_from_source("def agent_main(ctx, bc):\n    return 1\n")
        assert element["kind"] == "source"
        assert element["entry"] == "agent_main"

    def test_code_element_of_accepts_name(self, registry):
        assert code_element_of("sample", registry)["name"] == "sample"

    def test_code_element_of_accepts_existing_element(self, registry):
        element = {"kind": "source", "source": "def agent_main(c,b): pass", "entry": "agent_main"}
        assert code_element_of(element, registry) == element

    def test_code_element_of_registered_callable(self, registry):
        behaviour = registry.resolve("sample")
        assert code_element_of(behaviour, registry) == {"kind": "registered", "name": "sample"}

    def test_code_element_of_unregistered_callable_raises(self, registry):
        def anonymous(ctx, bc):
            yield None

        with pytest.raises(UnknownBehaviourError):
            code_element_of(anonymous, registry)

    def test_code_element_of_garbage_raises(self, registry):
        with pytest.raises(CodecError):
            code_element_of(12345, registry)


class TestBehaviourFromCode:
    def test_registered_element_resolves(self, registry):
        behaviour = behaviour_from_code(code_for("sample"), registry)
        assert behaviour is registry.resolve("sample")

    def test_source_element_compiles_and_returns_entry(self):
        source = """
def helper(x):
    return x * 2

def agent_main(ctx, bc):
    return helper(21)
"""
        behaviour = behaviour_from_code(code_from_source(source))
        assert behaviour(None, None) == 42

    def test_source_with_syntax_error_raises(self):
        element = {"kind": "source", "source": "def agent_main(:\n", "entry": "agent_main"}
        with pytest.raises(CodeCompilationError):
            behaviour_from_code(element)

    def test_source_that_raises_at_import_time_raises(self):
        element = {"kind": "source",
                   "source": "raise RuntimeError('boom')\ndef agent_main(c, b): pass\n",
                   "entry": "agent_main"}
        with pytest.raises(CodeCompilationError):
            behaviour_from_code(element)

    def test_source_without_entry_callable_raises(self):
        element = {"kind": "source", "source": "agent_main = 42\n", "entry": "agent_main"}
        with pytest.raises(CodeCompilationError):
            behaviour_from_code(element)

    def test_unknown_kind_raises(self):
        with pytest.raises(CodecError):
            behaviour_from_code({"kind": "quantum"})


def _snapshot_over(folders):
    """A carried snapshot whose folders hold *folders* (name -> stored slot)
    unchecked, as only a faulty sender could build one."""
    carried = Briefcase()
    for name, elements in folders.items():
        if type(elements) is bytes:
            carried._folders[name] = elements
        else:
            carried._folders[name] = folder = Folder(name)
            folder._elements = elements
    return carried


class TestBriefcaseWireFormat:
    def test_receive_of_a_snapshot_round_trips(self):
        briefcase = Briefcase([Folder("A", [b"raw", "text", {"x": [1, 2]}]),
                               Folder("B", [])])
        assert receive_briefcase(briefcase.snapshot()) == briefcase

    @pytest.mark.parametrize("carried", [
        _snapshot_over({"A": ["not-bytes"]}),        # a str element
        _snapshot_over({"A": [b"R-ok", 7]}),         # one bad element among good ones
        _snapshot_over({"A": [bytearray(b"R")]}),    # a mutable buffer, alone
        _snapshot_over({"": b"R-ok"}),               # the folder-name check still runs
        _snapshot_over({7: b"R-ok"}),                # a name that is not a str
        pickle.dumps(Briefcase([Folder("A", [b"R"])]).stored_items()),  # bytes
        {"folders": []},                             # the to_wire dict, not a briefcase
        None,
    ], ids=["str-element", "bad-among-good", "bytearray", "empty-name", "int-name",
            "bytes", "wire-dict", "none"])
    def test_receive_refuses_a_malformed_snapshot_or_a_non_briefcase(self, carried):
        with pytest.raises(CodecError):
            receive_briefcase(carried)

    def test_smuggled_non_bytes_element_is_caught_on_arrival(self):
        briefcase = Briefcase([Folder("A", [b"fine"])])
        briefcase.folder("A")._elements.append("smuggled past push()")
        with pytest.raises(CodecError):
            receive_briefcase(briefcase.snapshot())

    def test_received_folders_do_not_share_element_lists(self):
        briefcase = Briefcase([Folder("A", [b"one"])])
        rebuilt = receive_briefcase(briefcase.snapshot())
        rebuilt.put("A", b"two")
        assert len(briefcase.folder("A")) == 1 and len(rebuilt.folder("A")) == 2

    @pytest.mark.parametrize("briefcase, expected", [
        (Briefcase(), 32),
        (Briefcase([Folder("A", [])]), 49),
        (Briefcase([Folder("A", [b"raw"])]), 57),
        (Briefcase([Folder("ÅÄ", ["text", "ünï"])]), 71),
        (Briefcase([Folder("N", [7]), Folder("D", [{"x": [1, 2]}])]), 108),
        (Briefcase([Folder("HOST", ["site-9"]), Folder("CONTACT", ["ag_py"]),
                    Folder("REPORT", [b"\0" * 1000, bytearray(b"ab")])]), 1130),
    ])
    def test_wire_size_literals(self, briefcase, expected):
        # The modelled bytes are the bandwidth experiments' currency: pinned
        # as literals so a codec speed-up cannot move them by one byte.
        assert briefcase.wire_size() == wire_size_of(briefcase) == expected
        assert receive_briefcase(briefcase.snapshot()).wire_size() == expected

    def test_wire_size_matches_briefcase_model(self):
        briefcase = Briefcase([Folder("A", ["x" * 100])])
        assert wire_size_of(briefcase) == briefcase.wire_size()

    def test_wire_size_is_deterministic(self):
        briefcase = Briefcase([Folder("A", ["hello"])])
        assert wire_size_of(briefcase) == wire_size_of(briefcase.copy())
