"""Seam contracts: each states once what every implementation of a seam owes.

A contract is a ``BaseTest…`` class.  pytest does not collect it (the name
does not start with ``Test``, and this module is not a ``test_*.py`` file).
An implementation runs the whole contract by subclassing it in its own test
module.  The subclass holds fixtures only, and the fixtures each contract
needs are named in its docstring::

    class TestTransport(BaseTestTransport):
        @pytest.fixture(params=["rsh", "tcp", "horus"])
        def transport_name(self, request):
            return request.param

A behaviour one implementation alone has (a cabinet's element index, the
channel cache of the cached transport rows, the ring's ``since``) stays in
that implementation's own module.

* :class:`BaseTestFolderContainer`: briefcases and file cabinets (paper
  section 2, "file cabinets support the same operations as briefcases").
* :class:`BaseTestTransport`: the rsh, TCP and Horus transports (section 6),
  on their own and behind the delivery fabric.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Briefcase, Folder, Kernel, KernelConfig
from repro.core.errors import MissingFolderError, TransportError
from repro.net import lan
from repro.net.message import Message, MessageKind
from repro.net.simclock import EventLoop
from repro.net.stats import NetworkStats
from repro.net.topology import LinkSpec, Topology
from repro.net.transport import BATCHABLE_KINDS, Transport


# ---------------------------------------------------------------------------
# folder containers
# ---------------------------------------------------------------------------

class BaseTestFolderContainer:
    """The folder surface a briefcase and a file cabinet share.

    Fixtures: ``opened``, a pair of a fresh empty container and its
    ``reopen``: a callable that takes the container and returns the one its
    folders are read back into (itself, a copy, a site recovered from its
    store); ``error``, the :class:`~repro.core.errors.TacomaError` subclass
    the container raises for an ``add`` it refuses.  Order is checked only while the container
    is live.  A durable cabinet recovered from its image lists a folder
    that was removed and re-added in the folder's old slot
    (:meth:`repro.core.FileCabinet.names`).
    """

    @pytest.fixture
    def container(self, opened):
        return opened[0]

    @pytest.fixture
    def reopen(self, opened):
        return opened[1]

    def test_add_and_fetch(self, container):
        folder = container.add(Folder("DATA", [1]))
        assert container.folder("DATA") is folder

    def test_add_rejects_a_non_folder(self, container, error):
        with pytest.raises(error, match="expected a Folder, got str"):
            container.add("not a folder")  # type: ignore[arg-type]
        assert len(container) == 0

    def test_add_duplicate_name_refused_without_replace(self, container, error):
        container.add(Folder("X", [1]))
        with pytest.raises(error, match="already has a folder named 'X'"):
            container.add(Folder("X", [2]))
        assert container.folder("X").elements() == [1]

    def test_add_duplicate_name_with_replace(self, container):
        container.add(Folder("X", [1]))
        container.add(Folder("X", [2]), replace=True)
        assert container.folder("X").elements() == [2]

    def test_folder_create_flag(self, container):
        folder = container.folder("NEW", create=True)
        assert (folder.name, folder.elements()) == ("NEW", [])
        assert container.has("NEW") and container.folder("NEW") is folder

    def test_missing_folder_raises(self, container):
        with pytest.raises(MissingFolderError):
            container.folder("ABSENT")
        assert not container.has("ABSENT")

    def test_remove_returns_the_folder(self, container):
        container.add(Folder("X", [1]))
        assert container.remove("X").elements() == [1]
        assert not container.has("X")
        with pytest.raises(MissingFolderError):
            container.remove("X")

    def test_put_appends_and_creates_and_get_reads_the_top(self, container):
        container.put("LOG", "one")
        container.put("LOG", "two")
        assert container.folder("LOG").elements() == ["one", "two"]
        assert container.get("LOG") == "two"

    def test_get_default_for_missing_or_empty(self, container):
        assert container.get("V") is None
        assert container.get("V", "fallback") == "fallback"
        container.folder("V", create=True)
        assert container.get("V", "fallback") == "fallback"

    def test_len_and_contains(self, container):
        container.put("X", 1)
        container.add(Folder("Y"))
        assert "X" in container and "Y" in container
        assert "Z" not in container
        assert len(container) == 2

    def test_names_and_folders_keep_insertion_order_while_live(self, container):
        for name in ("Z", "M", "A"):
            container.put(name, name)
        container.remove("M")
        container.put("M", "again")
        assert container.names() == ["Z", "A", "M"]
        assert [folder.name for folder in container.folders()] == ["Z", "A", "M"]

    def test_the_name_to_elements_mapping_survives_reopen(self, container, reopen):
        container.add(Folder("RAW", [b"\x00binary\xff"]))
        container.put("LOG", "one")
        container.put("LOG", {"n": 2})
        container.folder("EMPTY", create=True)
        container.put("GONE", 1)
        container.remove("GONE")
        container.put("BACK", "old")
        container.remove("BACK")
        container.put("BACK", "new")
        container.add(Folder("SWAPPED", [1]))
        container.add(Folder("SWAPPED", [2, 3]), replace=True)
        expected = {"RAW": [b"\x00binary\xff"], "LOG": ["one", {"n": 2}], "EMPTY": [],
                    "BACK": ["new"], "SWAPPED": [2, 3]}
        reopened = reopen(container)
        assert {name: reopened.folder(name).elements()
                for name in reopened.names()} == expected
        assert len(reopened) == len(expected)

    def test_a_reopened_container_keeps_the_folder_surface(self, container, reopen, error):
        container.put("V", 1)
        reopened = reopen(container)
        reopened.put("V", 2)
        assert reopened.get("V") == 2
        with pytest.raises(error):
            reopened.add(Folder("V"))


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def make_transport(name, topology=None, seed=0):
    """A bare transport *name* over a 3-site LAN (or *topology*) and its
    loop and stats."""
    loop = EventLoop()
    topology = topology or lan(["a", "b", "c"])
    stats = NetworkStats()
    transport = Transport(name, loop, topology, stats, rng=random.Random(seed))
    return transport, loop, topology, stats


def agent_message(source="a", destination="b", size=1000):
    return Message(source=source, destination=destination,
                   kind=MessageKind.AGENT_TRANSFER, payload={}, declared_size=size)


def fabric_kernel(transport="tcp", window=0.1, **config_kwargs):
    """A 3-site kernel whose delivery fabric batches over *window* seconds."""
    return Kernel(lan(["a", "b", "c"], latency=0.01), transport=transport,
                  config=KernelConfig(rng_seed=5, delivery_batch_window=window,
                                      **config_kwargs))


def install_receiver(kernel, site="b", name="receiver"):
    """A contact agent that files what it receives into a cabinet."""

    def receiver(ctx, bc):
        ctx.cabinet("received").put("payloads", dict(bc.items())
                                    if hasattr(bc, "items") else bc.get("X"))
        yield ctx.sleep(0)
        return "got-it"

    kernel.install_agent(site, name, receiver)
    return receiver


def transmit_n(kernel, n, destination="b", kind=MessageKind.FOLDER_DELIVERY,
               source="a", contact="receiver"):
    """Launch a system agent at *source* transmitting *n* messages at once."""

    def sender(ctx, bc):
        accepted = []
        for index in range(n):
            payload = Briefcase()
            payload.set("X", index)
            ok = yield ctx.transmit(destination, contact, payload, kind=kind)
            accepted.append(bool(ok))
        return accepted

    return kernel.launch(source, sender, system=True)


class BaseTestTransport:
    """What every transport owes: delivery, loss and drop accounting, and
    the delivery fabric's batch envelopes and byte accounting on top of it.

    Fixture: ``transport_name``, the :data:`~repro.net.transport.PRICES`
    row under test.  Setup costs differ between rows; nothing here depends
    on them.
    """

    def test_message_is_delivered_to_registered_handler(self, transport_name):
        transport, loop, _, stats = make_transport(transport_name)
        received = []
        transport.register_endpoint("b", received.append)
        event = transport.send(agent_message())
        assert event is not None
        loop.run()
        assert len(received) == 1
        assert received[0].delivered_at is not None
        assert stats.messages_delivered == 1
        assert stats.migrations == 1   # agent transfers count as migrations

    def test_unknown_source_raises(self, transport_name):
        transport, _, _, _ = make_transport(transport_name)
        with pytest.raises(TransportError):
            transport.send(agent_message(source="ghost"))

    def test_unknown_destination_raises(self, transport_name):
        transport, _, _, _ = make_transport(transport_name)
        with pytest.raises(TransportError):
            transport.send(agent_message(destination="ghost"))

    def test_send_from_down_site_is_dropped(self, transport_name):
        transport, _, topology, stats = make_transport(transport_name)
        topology.mark_down("a")
        assert transport.send(agent_message()) is None
        assert stats.messages_dropped == 1

    def test_send_to_down_site_is_dropped(self, transport_name):
        transport, _, topology, stats = make_transport(transport_name)
        topology.mark_down("b")
        assert transport.send(agent_message()) is None
        assert stats.messages_dropped == 1

    def test_destination_crash_while_in_flight_drops(self, transport_name):
        transport, loop, topology, stats = make_transport(transport_name)
        received = []
        transport.register_endpoint("b", received.append)
        transport.send(agent_message())
        topology.mark_down("b")      # crashes before the delivery event fires
        loop.run()
        assert received == []
        assert stats.messages_dropped == 1

    def test_partition_in_flight_drops(self, transport_name):
        transport, loop, topology, _ = make_transport(transport_name)
        received = []
        transport.register_endpoint("b", received.append)
        transport.send(agent_message())
        topology.set_partition([["a"], ["b", "c"]])
        loop.run()
        assert received == []

    def test_unregistered_destination_counts_as_drop(self, transport_name):
        transport, loop, _, stats = make_transport(transport_name)
        transport.send(agent_message())
        loop.run()
        assert stats.messages_dropped == 1

    def test_lossy_link_drops_randomly(self, transport_name):
        topology = Topology()
        topology.add_site("a")
        topology.add_site("b")
        topology.add_link("a", "b", LinkSpec(loss_rate=1.0))
        transport, _, _, stats = make_transport(transport_name, topology=topology)
        transport.register_endpoint("b", lambda message: None)
        assert transport.send(agent_message()) is None
        assert stats.messages_dropped == 1

    # -- behind the delivery fabric: batch envelopes ----------------------------

    def test_same_destination_messages_coalesce_into_one_wire_message(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.1)
        install_receiver(kernel)
        sender = transmit_n(kernel, 4)
        kernel.run()
        assert kernel.result_of(sender) == [True] * 4
        assert kernel.stats.messages_sent == 1
        assert kernel.stats.batches == 1
        assert kernel.stats.batched_messages == 4
        assert kernel.counters()["arrivals"] == 4          # every folder reached its contact
        assert kernel.counters()["undeliverable"] == 0

    def test_batch_saves_header_bytes(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.1)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run()
        assert kernel.stats.header_bytes_saved == 2 * Message.HEADER_BYTES

    def test_distinct_destinations_use_distinct_outboxes(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.1)
        install_receiver(kernel, site="b")
        install_receiver(kernel, site="c")

        def sender(ctx, bc):
            for destination in ("b", "c", "b", "c"):
                payload = Briefcase()
                payload.set("X", destination)
                yield ctx.transmit(destination, "receiver", payload,
                                   kind=MessageKind.FOLDER_DELIVERY)
            return "sent"

        kernel.launch("a", sender, system=True)
        kernel.run()
        assert kernel.stats.messages_sent == 2      # one batch per destination
        assert kernel.stats.batches == 2
        assert kernel.counters()["arrivals"] == 4

    def test_single_message_window_ships_unwrapped(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.05)
        install_receiver(kernel)
        transmit_n(kernel, 1)
        kernel.run()
        assert kernel.stats.messages_sent == 1
        assert kernel.stats.batches == 0             # no envelope was needed
        assert kernel.stats.per_kind[MessageKind.FOLDER_DELIVERY] == 1
        assert kernel.counters()["arrivals"] == 1

    def test_non_batchable_kinds_bypass_the_fabric(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.5)
        install_receiver(kernel)
        transmit_n(kernel, 3, kind="control")
        kernel.run(until=0.01)
        # A kind outside BATCHABLE_KINDS is on the wire immediately, no
        # window wait, and still reaches its contact.
        assert kernel.stats.messages_sent == 3
        assert kernel.transport.pending_outbox_messages() == 0
        kernel.run()
        assert kernel.counters()["arrivals"] == 3

    def test_window_zero_means_fabric_off(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.0)
        install_receiver(kernel)
        transmit_n(kernel, 4)
        kernel.run()
        assert kernel.stats.messages_sent == 4
        assert kernel.stats.batches == 0
        assert kernel.counters()["arrivals"] == 4

    def test_agent_transfers_are_never_batched(self, transport_name):
        assert MessageKind.AGENT_TRANSFER not in BATCHABLE_KINDS
        kernel = fabric_kernel(transport_name, window=0.5)
        transmit_n(kernel, 2, kind=MessageKind.AGENT_TRANSFER, contact="ag_py")
        kernel.run(until=0.01)
        assert kernel.stats.messages_sent == 2

    def test_status_reports_batch_and_reach_their_contact(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.1)
        install_receiver(kernel)
        sender = transmit_n(kernel, 3, kind=MessageKind.STATUS)
        kernel.run()
        assert kernel.result_of(sender) == [True] * 3
        assert kernel.stats.messages_sent == 1
        # STATUS payloads carrying a contact execute it like a folder
        # delivery instead of rotting in the message cabinet.
        assert kernel.counters()["arrivals"] == 3

    # -- behind the delivery fabric: byte and loss accounting -------------------

    def test_batch_declared_size_is_sum_of_bodies_plus_one_header(self, transport_name):
        batched = fabric_kernel(transport_name, window=0.1)
        unbatched = fabric_kernel(transport_name, window=0.0)
        for kernel in (batched, unbatched):
            install_receiver(kernel)
            transmit_n(kernel, 3)
            kernel.run()
            assert kernel.counters()["arrivals"] == 3
        # Identical payload traffic; the envelope pays exactly one header
        # where the unbatched wire paid three.
        assert batched.stats.bytes_sent == \
            unbatched.stats.bytes_sent - 2 * Message.HEADER_BYTES

    def test_in_flight_batch_loss_counts_every_coalesced_message(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.01)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.015)    # batch flushed and on the wire
        dropped_before = kernel.stats.messages_dropped
        kernel.site("b").mark_crashed()       # kernel side only...
        kernel.topology.mark_down("b")        # ...and now the link too
        kernel.run()
        assert kernel.stats.messages_dropped == dropped_before + 3
        assert kernel.counters()["arrivals"] == 0

    def test_batch_to_kernel_dead_site_counts_every_coalesced_message(self, transport_name):
        kernel = fabric_kernel(transport_name, window=0.1)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.05)
        # The kernel at b dies while the link stays up: the batch arrives at
        # a site the kernel cannot serve and every folder in it is lost.
        kernel.site("b").mark_crashed()
        kernel.run()
        assert kernel.counters()["undeliverable"] == 3
        assert kernel.site("b").undeliverable == 3
