"""The plain records on the import path behave as the dataclasses they replace.

Syscalls, ``MeetResult``, ``Message``, ``LinkStats``, ``NetworkStats``,
``CostModel``, ``LinkSpec``, ``FailureAction`` and ``FailureSchedule`` are
built with hand-written ``__init__`` methods: these tests pin the
constructor defaults, equality, ``repr``, the slots, the pickling process
shards rely on and ``CostModel``'s immutability.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import Briefcase
from repro.core.syscalls import (EndMeet, Meet, MeetResult, Sleep, Spawn, Terminate,
                                 Transmit)
from repro.flow import CostModel
from repro.net.failures import FailureAction, FailureSchedule
from repro.net.message import Message, MessageKind
from repro.net.stats import LinkStats, NetworkStats
from repro.net.topology import LinkSpec


def briefcase(**folders) -> Briefcase:
    carried = Briefcase()
    for name, value in folders.items():
        carried.set(name, value)
    return carried


class TestSyscalls:
    def test_defaults(self):
        assert EndMeet().value is None
        assert Sleep().duration == 0.0
        assert Terminate().result is None
        spawn = Spawn("worker")
        assert (spawn.name, spawn.code_element) == (None, None)
        assert Transmit("b", "ag_py", Briefcase()).kind == "agent-transfer"

    def test_meet_and_spawn_each_get_a_fresh_briefcase(self):
        first, second = Meet("rexec"), Meet("rexec")
        assert isinstance(first.briefcase, Briefcase)
        assert first.briefcase is not second.briefcase
        assert Spawn("w").briefcase is not Spawn("w").briefcase
        carried = Briefcase()
        assert Meet("rexec", carried).briefcase is carried
        assert Spawn("w", carried).briefcase is carried

    def test_equality_is_by_class_and_fields(self):
        carried = briefcase(HOST="b")
        assert Meet("rexec", carried) == Meet("rexec", carried)
        assert Meet("rexec", carried) != Meet("courier", carried)
        assert Sleep(1.0) == Sleep(1.0) != Sleep(2.0)
        assert EndMeet(None) != Terminate(None)       # same fields, other class
        assert MeetResult(1, carried, "a-1") == MeetResult(1, carried, "a-1")
        with pytest.raises(TypeError):
            hash(Sleep(1.0))                          # mutable, as the dataclass

    def test_repr_names_every_field(self):
        assert repr(Sleep(0.5)) == "Sleep(duration=0.5)"
        assert repr(EndMeet("ok")) == "EndMeet(value='ok')"
        assert repr(Terminate()) == "Terminate(result=None)"
        assert repr(Spawn("w", Briefcase())).startswith(
            "Spawn(behaviour='w', briefcase=")
        assert repr(Spawn("w", Briefcase())).endswith(", name=None, code_element=None)")
        assert repr(MeetResult(None, Briefcase(), "x")).startswith("MeetResult(value=None, ")

    def test_instances_carry_no_dict(self):
        carried = Briefcase()
        for syscall in (Meet("rexec"), EndMeet(), Sleep(), Spawn("w"),
                        Transmit("b", "ag_py", carried), Terminate(),
                        MeetResult(None, carried, "a-1")):
            assert not hasattr(syscall, "__dict__"), type(syscall).__name__


class TestMessage:
    def test_defaults_and_a_fresh_id_per_message(self):
        first = Message(source="a", destination="b", kind=MessageKind.STATUS)
        second = Message(source="a", destination="b", kind=MessageKind.STATUS)
        assert first.payload == {} and first.payload is not second.payload
        assert (first.declared_size, first.sent_at, first.delivered_at, first.hops,
                first.trace) == (None, 0.0, None, 1, None)
        assert second.message_id == first.message_id + 1
        assert not hasattr(first, "__dict__")

    def test_equality_leaves_out_the_trace_and_the_size_cache(self):
        traced = Message("a", "b", MessageKind.STATUS, message_id=7, trace=("t", None))
        plain = Message("a", "b", MessageKind.STATUS, message_id=7)
        traced.size_bytes()
        assert traced == plain
        assert plain != Message("a", "b", MessageKind.STATUS, message_id=8)

    def test_pickle_round_trip_keeps_every_field(self):
        message = Message("a", "b", MessageKind.FOLDER_DELIVERY,
                          payload={"contact": "sink", "briefcase": {"X": [1]}},
                          declared_size=40, trace=("t", "s"))
        message.sent_at, message.hops = 1.5, 2
        size = message.size_bytes()
        copy = pickle.loads(pickle.dumps(message))
        assert copy == message and copy.trace == ("t", "s")
        assert copy.size_bytes() == size == 104


class TestStats:
    def test_link_stats_defaults_equality_and_repr(self):
        assert LinkStats() == LinkStats(0, 0, 0) != LinkStats(messages=1)
        assert repr(LinkStats(1, 64, 0)) == "LinkStats(messages=1, bytes=64, drops=0)"
        assert not hasattr(LinkStats(), "__dict__")

    def test_network_stats_starts_at_zero_and_survives_a_pickle_round_trip(self):
        stats = NetworkStats()
        assert stats.meets == stats.messages_sent == stats.wal_commits == 0
        assert stats.recovery_seconds == 0.0 and stats.per_link == {}
        stats.record_send("a", "b", MessageKind.STATUS, 100)
        stats.record_delivery(100, 0.25)
        copy = pickle.loads(pickle.dumps(stats))
        assert vars(copy).keys() == vars(stats).keys()
        assert copy.snapshot() == stats.snapshot()
        assert copy.per_link[("a", "b")] == LinkStats(1, 100, 0)
        copy.per_kind["new-kind"] += 1                # still a defaultdict
        assert copy.per_kind["new-kind"] == 1


class TestCostModel:
    def test_defaults_equality_hash_and_repr(self):
        assert CostModel() == CostModel(0.0, 0.0, 0.0, 0.0)
        assert CostModel(sync=0.01) != CostModel(base=0.01)
        assert hash(CostModel(sync=0.01)) == hash(CostModel(sync=0.01))
        assert repr(CostModel(base=0.001, jitter=0.5)) == "CostModel(base=0.001, jitter=0.5)"

    def test_refuses_attribute_assignment_and_deletion(self):
        model = CostModel(base=0.001)
        with pytest.raises(AttributeError):
            model.base = 1.0
        with pytest.raises(AttributeError):
            model.other = 1.0
        with pytest.raises(AttributeError):
            del model.base
        assert model.base == 0.001

    def test_pickle_round_trip(self):
        model = CostModel(base=0.001, per_byte=1e-8, sync=0.004, jitter=0.1)
        assert pickle.loads(pickle.dumps(model)) == model


class TestTopologyAndFailureRecords:
    def test_link_spec_defaults_equality_and_vars(self):
        spec = LinkSpec(latency=0.01)
        assert spec == LinkSpec(0.01, 1_250_000.0, 0.0) != LinkSpec()
        assert vars(spec) == {"latency": 0.01, "bandwidth": 1_250_000.0, "loss_rate": 0.0}
        assert repr(spec) == "LinkSpec(latency=0.01, bandwidth=1250000.0, loss_rate=0.0)"

    def test_failure_records(self):
        action = FailureAction(at=1.5, kind="crash", site="s1")
        assert action.groups is None
        assert action == FailureAction(1.5, "crash", "s1", None)
        assert repr(action) == "FailureAction(at=1.5, kind='crash', site='s1', groups=None)"
        first, second = FailureSchedule(), FailureSchedule()
        assert first.actions == [] and first.actions is not second.actions
        assert first.crash("s1", at=1.5) is first
        assert first == FailureSchedule([action]) != second
