"""Unit tests for repro.core.codec: code shipping and briefcase wire format."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Folder
from repro.core.codec import (behaviour_from_code, code_element_of, code_for,
                              code_from_source, pack_briefcase, unpack_briefcase,
                              wire_size_of)
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


class TestBriefcaseWireFormat:
    def test_pack_unpack_round_trip(self):
        briefcase = Briefcase([Folder("A", [b"raw", "text", {"x": [1, 2]}]),
                               Folder("B", [])])
        rebuilt = unpack_briefcase(pack_briefcase(briefcase))
        assert rebuilt == briefcase

    def test_unpack_garbage_raises(self):
        with pytest.raises(CodecError):
            unpack_briefcase(b"not a pickled briefcase")

    def test_unpack_wrong_version_raises(self):
        import pickle
        payload = pickle.dumps({"version": 999, "briefcase": Briefcase().to_wire()})
        with pytest.raises(CodecError):
            unpack_briefcase(payload)

    def test_unpack_previous_flat_or_dict_layouts_are_a_version_error(self):
        import pickle
        for wrapper in ((1, []), {"version": 2, "briefcase": {"folders": []}},
                        (2,), [2, []]):
            with pytest.raises(CodecError):
                unpack_briefcase(pickle.dumps(wrapper))

    def test_unpack_truncated_payload_raises(self):
        payload = pack_briefcase(Briefcase([Folder("A", [b"x" * 64, "text"])]))
        for cut in (1, len(payload) // 2, len(payload) - 1):
            with pytest.raises(CodecError):
                unpack_briefcase(payload[:cut])

    @pytest.mark.parametrize("folders", [
        [("A", ["not-bytes"])],          # a str element
        [("A", [b"R-ok", 7])],           # one bad element among good ones
        [("A", (b"R-ok",))],             # elements not a list
        [("", [b"R-ok"])],               # the folder-name check still runs
        [("A", [b"R-1"]), ("A", [b"R-2"])],  # duplicate folder names
        [("A",)],                        # malformed entry
        7,                               # not a folder list at all
    ])
    def test_unpack_validates_what_it_rebuilds(self, folders):
        import pickle
        with pytest.raises(CodecError):
            unpack_briefcase(pickle.dumps((2, folders)))

    def test_smuggled_non_bytes_element_is_caught_on_arrival(self):
        briefcase = Briefcase([Folder("A", [b"fine"])])
        briefcase.folder("A")._elements.append("smuggled past push()")
        with pytest.raises(CodecError):
            unpack_briefcase(pack_briefcase(briefcase))

    def test_unpacked_folders_do_not_share_element_lists(self):
        briefcase = Briefcase([Folder("A", [b"one"])])
        rebuilt = unpack_briefcase(pack_briefcase(briefcase))
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
        assert unpack_briefcase(pack_briefcase(briefcase)).wire_size() == expected

    def test_wire_size_matches_briefcase_model(self):
        briefcase = Briefcase([Folder("A", ["x" * 100])])
        assert wire_size_of(briefcase) == briefcase.wire_size()

    def test_wire_size_is_deterministic(self):
        briefcase = Briefcase([Folder("A", ["hello"])])
        assert wire_size_of(briefcase) == wire_size_of(briefcase.copy())
