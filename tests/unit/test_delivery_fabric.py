"""Unit tests for the delivery fabric: per-destination outboxes, batching,
crash/partition semantics, and the message size cache."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan
from repro.net.message import Message, MessageKind
from repro.net.transport import BATCHABLE_KINDS


def make_kernel(window=0.1, transport="tcp", **config_kwargs):
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


def transmit_spaced(kernel, n, gap, destination="b",
                    kind=MessageKind.FOLDER_DELIVERY, source="a",
                    contact="receiver"):
    """Like transmit_n, but sleeping *gap* simulated seconds between sends."""

    def sender(ctx, bc):
        for index in range(n):
            payload = Briefcase()
            payload.set("X", index)
            yield ctx.transmit(destination, contact, payload, kind=kind)
            yield ctx.sleep(gap)
        return "done"

    return kernel.launch(source, sender, system=True)


class TestBatching:
    def test_same_destination_messages_coalesce_into_one_wire_message(self):
        kernel = make_kernel(window=0.1)
        install_receiver(kernel)
        sender = transmit_n(kernel, 4)
        kernel.run()
        assert kernel.result_of(sender) == [True] * 4
        assert kernel.stats.messages_sent == 1
        assert kernel.stats.batches == 1
        assert kernel.stats.batched_messages == 4
        assert kernel.arrivals == 4          # every folder reached its contact
        assert kernel.undeliverable == 0

    def test_batch_saves_header_bytes(self):
        kernel = make_kernel(window=0.1)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run()
        assert kernel.stats.header_bytes_saved == 2 * Message.HEADER_BYTES

    def test_distinct_destinations_use_distinct_outboxes(self):
        kernel = make_kernel(window=0.1)
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
        assert kernel.arrivals == 4

    def test_single_message_window_ships_unwrapped(self):
        kernel = make_kernel(window=0.05)
        install_receiver(kernel)
        transmit_n(kernel, 1)
        kernel.run()
        assert kernel.stats.messages_sent == 1
        assert kernel.stats.batches == 0             # no envelope was needed
        assert kernel.stats.per_kind[MessageKind.FOLDER_DELIVERY] == 1
        assert kernel.arrivals == 1

    def test_non_batchable_kinds_bypass_the_fabric(self):
        kernel = make_kernel(window=0.5)
        transmit_n(kernel, 3, kind=MessageKind.CONTROL)
        kernel.run(until=0.01)
        # Control traffic is on the wire immediately, no window wait.
        assert kernel.stats.messages_sent == 3
        assert kernel.transport.pending_outbox_messages() == 0

    def test_window_zero_means_fabric_off(self):
        kernel = make_kernel(window=0.0)
        install_receiver(kernel)
        transmit_n(kernel, 4)
        kernel.run()
        assert kernel.stats.messages_sent == 4
        assert kernel.stats.batches == 0
        assert kernel.arrivals == 4

    def test_agent_transfers_are_never_batched(self):
        assert MessageKind.AGENT_TRANSFER not in BATCHABLE_KINDS
        kernel = make_kernel(window=0.5)
        transmit_n(kernel, 2, kind=MessageKind.AGENT_TRANSFER, contact="ag_py")
        kernel.run(until=0.01)
        assert kernel.stats.messages_sent == 2

    def test_status_reports_batch_and_reach_their_contact(self):
        kernel = make_kernel(window=0.1)
        install_receiver(kernel)
        sender = transmit_n(kernel, 3, kind=MessageKind.STATUS)
        kernel.run()
        assert kernel.result_of(sender) == [True] * 3
        assert kernel.stats.messages_sent == 1
        # STATUS payloads carrying a contact execute it like a folder
        # delivery instead of rotting in the message cabinet.
        assert kernel.arrivals == 3


class TestFailureSemantics:
    def test_crash_of_destination_drops_pending_outbox(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)     # transmits done, flush far in the future
        assert kernel.transport.pending_outbox_messages() == 3
        dropped_before = kernel.stats.messages_dropped
        kernel.crash_site("b")
        assert kernel.transport.pending_outbox_messages() == 0
        assert kernel.stats.messages_dropped == dropped_before + 3
        kernel.run()
        assert kernel.arrivals == 0

    def test_crash_of_source_drops_pending_outbox(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 2)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 2
        kernel.crash_site("a")
        assert kernel.transport.pending_outbox_messages() == 0
        kernel.run()
        assert kernel.arrivals == 0

    def test_partition_flushes_and_drops_cross_partition_batches(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 3
        dropped_before = kernel.stats.messages_dropped
        kernel.partition([["a"], ["b", "c"]])
        assert kernel.transport.pending_outbox_messages() == 0
        kernel.run()
        # The batch was flushed into the partitioned network and dropped;
        # the loss ledger counts every coalesced message, not one envelope.
        assert kernel.stats.messages_dropped == dropped_before + 3
        assert kernel.arrivals == 0
        kernel.heal_partition()

    def test_partition_leaves_same_side_outboxes_coalescing(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        kernel.partition([["a", "b"], ["c"]])   # sender and receiver together
        # The a->b pair is still routable: its outbox is untouched and keeps
        # coalescing until the window fires, then delivers normally.
        assert kernel.transport.pending_outbox_messages() == 3
        kernel.run()
        assert kernel.arrivals == 3
        kernel.heal_partition()

    def test_destination_down_at_post_time_is_refused_like_unbatched(self):
        # The fabric must not report "accepted" for a destination already
        # known to be unreachable: posting falls through to the immediate
        # path, so the sender sees the same False as with batching off.
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        kernel.crash_site("b")
        sender = transmit_n(kernel, 3)
        kernel.run()
        assert kernel.result_of(sender) == [False] * 3
        assert kernel.transport.pending_outbox_messages() == 0
        assert kernel.arrivals == 0

    def test_in_flight_batch_loss_counts_every_coalesced_message(self):
        kernel = make_kernel(window=0.01)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.015)    # batch flushed and on the wire
        dropped_before = kernel.stats.messages_dropped
        kernel.site("b").mark_crashed()       # kernel side only...
        kernel.topology.mark_down("b")        # ...and now the link too
        kernel.run()
        assert kernel.stats.messages_dropped == dropped_before + 3
        assert kernel.arrivals == 0

    def test_batch_to_kernel_dead_site_counts_every_coalesced_message(self):
        kernel = make_kernel(window=0.1)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.05)
        # The kernel at b dies while the link stays up: the batch arrives at
        # a site the kernel cannot serve and every folder in it is lost.
        kernel.site("b").mark_crashed()
        kernel.run()
        assert kernel.undeliverable == 3
        assert kernel.site("b").undeliverable == 3


class TestMessageSizeCache:
    def test_size_is_computed_once(self):
        message = Message(source="a", destination="b", kind=MessageKind.DATA,
                          payload={"k": "x" * 1000})
        first = message.size_bytes()
        # Payload mutation after the first size query does not change the
        # charged size: messages are sealed once handed to a transport.
        message.payload["k"] = "x" * 50_000
        assert message.size_bytes() == first

    def test_declared_size_still_takes_precedence(self):
        message = Message(source="a", destination="b", kind=MessageKind.DATA,
                          payload={"big": "x" * 10_000}, declared_size=100)
        assert message.size_bytes() == Message.HEADER_BYTES + 100
        assert message.body_bytes() == 100

    def test_batch_declared_size_is_sum_of_bodies_plus_one_header(self):
        batched = make_kernel(window=0.1)
        unbatched = make_kernel(window=0.0)
        for kernel in (batched, unbatched):
            install_receiver(kernel)
            transmit_n(kernel, 3)
            kernel.run()
            assert kernel.arrivals == 3
        # Identical payload traffic; the envelope pays exactly one header
        # where the unbatched wire paid three.
        assert batched.stats.bytes_sent == \
            unbatched.stats.bytes_sent - 2 * Message.HEADER_BYTES


class TestTheWindowIsTheOnlyTrigger:
    """An outbox ships when its window fires — never because it filled up or
    because traffic kept arriving."""

    def test_a_full_outbox_waits_for_its_window(self):
        kernel = make_kernel(window=0.2)
        install_receiver(kernel)
        transmit_n(kernel, 50)
        kernel.run(until=0.15)
        assert kernel.transport.pending_outbox_messages() == 50
        kernel.run()
        assert (kernel.arrivals, kernel.stats.batches) == (50, 1)
        assert kernel.stats.flush_causes == {"window": 1}

    def test_a_fixed_window_does_not_slide_with_traffic(self):
        # The second message joins the first window's batch; it does not
        # postpone the flush past first-message + window.
        kernel = make_kernel(window=0.2)
        install_receiver(kernel)
        transmit_spaced(kernel, 2, gap=0.15)
        kernel.run(until=0.25)
        assert kernel.transport.pending_outbox_messages() == 0
        assert (kernel.stats.messages_sent, kernel.stats.batches) == (1, 1)

    def test_a_stream_ships_one_batch_per_window(self):
        kernel = make_kernel(window=0.25)
        install_receiver(kernel)
        transmit_spaced(kernel, 6, gap=0.1)
        kernel.run()
        assert (kernel.arrivals, kernel.stats.batched_messages) == (6, 6)
        assert kernel.stats.flush_causes == {"window": 2}   # two windows of three

    def test_window_max_bounds_a_cold_pair_wait(self):
        # A lone message on a pair with no rate yet waits its seed window
        # clamped to window_max, however wide target_batch would make it.
        kernel = make_kernel(window=5.0, flow_window_min=0.01,
                             flow_window_max=0.3, flow_target_batch=1000)
        install_receiver(kernel)
        transmit_n(kernel, 1)
        kernel.run(until=0.25)
        assert kernel.transport.pending_outbox_messages() == 1
        kernel.run(until=0.35)
        assert kernel.stats.messages_sent == 1

    def test_early_flushes_reads_zero_whatever_ships_the_outbox(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel, site="b")
        transmit_n(kernel, 2, destination="b")
        transmit_n(kernel, 2, destination="c")
        kernel.run(until=0.01)
        kernel.partition([["a", "b"], ["c"]])       # ships a->c
        kernel.heal_partition()
        kernel.transport.flush_outboxes()           # ships a->b
        transmit_n(kernel, 2, destination="b")
        kernel.run(until=0.02)
        kernel.transport.configure_batching(0.0)    # ships the new a->b
        snapshot = kernel.stats.snapshot()
        assert snapshot["flush_causes"] == {"partition": 1, "manual": 1,
                                            "reconfigure": 1}
        assert snapshot["early_flushes"] == 0

    def test_the_retired_batching_knobs_are_refused(self):
        kernel = make_kernel(window=0.1)
        for knob in ("max_messages", "max_bytes", "deadline", "serialize_setup",
                     "ewma_alpha"):
            with pytest.raises(TypeError):
                kernel.transport.configure_batching(0.1, **{knob: 1})


class TestReconfigureReconciliation:
    def test_zeroing_the_window_flushes_armed_outboxes(self):
        # Regression: turning the fabric off used to leave pending messages
        # waiting out the old (here: distant) flush event.
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 3
        kernel.transport.configure_batching(0.0)
        assert kernel.transport.pending_outbox_messages() == 0
        assert kernel.stats.messages_sent == 1      # shipped now, as one batch
        assert kernel.stats.flush_causes["reconfigure"] == 1
        kernel.run()
        assert kernel.arrivals == 3
        assert kernel.stats.messages_dropped == 0   # flushed, not dropped

    def test_shrinking_the_window_rearms_armed_outboxes(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 2)
        kernel.run(until=0.01)
        kernel.transport.configure_batching(0.05)
        kernel.run(until=0.5)
        # The flush fired on the new 0.05 s window, not the old 10 s one.
        assert kernel.arrivals == 2
        assert kernel.stats.batches == 1

    def test_stale_flush_event_after_reconfigure_is_a_no_op(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 2)
        kernel.run(until=0.01)
        kernel.transport.configure_batching(0.0)
        sent_after_flush = kernel.stats.messages_sent
        kernel.run()    # drains everything, including the old armed event
        assert kernel.stats.messages_sent == sent_after_flush
        assert kernel.arrivals == 2

    def test_reconfigure_with_unchanged_rules_keeps_armed_outboxes(self):
        # Reconfiguring must be idempotent: repeating the identical
        # configuration mid-window must not flush an outbox that the rules
        # say should keep coalescing until first-post + window.
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 2)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 2
        kernel.transport.configure_batching(10.0)
        assert kernel.transport.pending_outbox_messages() == 2  # not flushed
        kernel.run()
        assert kernel.stats.messages_sent == 1
        assert kernel.stats.batches == 1
        assert kernel.arrivals == 2


class TestCrashDuringArmedFlush:
    def test_crash_while_armed_drops_per_message(self):
        # Site crash between arming and the flush event firing: the same
        # per-message accounting as _drop_outbox.
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 3
        dropped_before = kernel.stats.messages_dropped
        kernel.crash_site("b")
        assert kernel.stats.messages_dropped == dropped_before + 3
        kernel.run()
        assert kernel.stats.messages_dropped == dropped_before + 3  # no double count
        assert kernel.arrivals == 0

    def test_crash_after_a_tightened_window_ships_counts_per_message(self):
        # The hot pair's adaptive window tightened far below the 10 s seed
        # and the batch is in flight when the destination dies: in-flight
        # loss counts each coalesced message, matching what _drop_outbox
        # would have charged.
        kernel = make_kernel(window=10.0, flow_window_min=0.001,
                             flow_window_max=10.0, flow_target_batch=3)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        assert kernel.stats.messages_sent == 1      # the batch already shipped
        assert kernel.transport.pending_outbox_messages() == 0
        dropped_before = kernel.stats.messages_dropped
        kernel.site("b").mark_crashed()
        kernel.topology.mark_down("b")
        kernel.run()
        assert kernel.stats.messages_dropped == dropped_before + 3
        assert kernel.arrivals == 0

    def test_partition_mid_batch_does_not_double_count_drops(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        dropped_before = kernel.stats.messages_dropped
        kernel.partition([["a"], ["b", "c"]])
        kernel.run()
        # Exactly one drop per queued message — the partition flush and the
        # (now stale) armed flush event must not both charge the loss.
        assert kernel.stats.messages_dropped == dropped_before + 3
        assert kernel.stats.flush_causes["partition"] == 1
        assert kernel.arrivals == 0
        kernel.heal_partition()


class TestAdaptiveWindows:
    """Per-destination adaptive windows (repro.flow behind the fabric)."""

    def test_hot_pair_tightens_its_window_below_the_base(self):
        kernel = make_kernel(window=0.5, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=4)
        install_receiver(kernel)
        transmit_spaced(kernel, 20, gap=0.005)
        kernel.run()
        assert kernel.arrivals == 20
        telemetry = kernel.transport.flow_telemetry()
        info = telemetry[("a", "b")]
        # ~150+ msg/s stream: the window collapses well below the 0.5 seed.
        assert info["window"] < 0.1
        assert info["message_rate"] > 50
        # ...and the tight window produced several batches instead of one.
        assert kernel.stats.batches > 2

    def test_trickle_pair_widens_its_window_to_the_max(self):
        kernel = make_kernel(window=0.05, flow_window_min=0.01,
                             flow_window_max=2.0, flow_target_batch=4)
        install_receiver(kernel)
        transmit_spaced(kernel, 6, gap=0.4)
        kernel.run()
        assert kernel.arrivals == 6
        info = kernel.transport.flow_telemetry()[("a", "b")]
        # ~2.5 msg/s: the ideal window (target/rate ~ 1.6s) is far above
        # the 0.05 s base the pair would otherwise run, within the cap.
        assert 1.0 < info["window"] <= 2.0
        # The wide window let spaced folders share wire messages where the
        # 0.05 base window would have shipped every one alone.
        assert kernel.stats.batches > 0
        assert kernel.stats.messages_sent < 6

    def test_window_tightened_below_elapsed_wait_ships_immediately(self):
        # A pair that was idle long enough to look like a trickle gets a
        # wide window; when a burst re-rates it mid-batch, the recomputed
        # due time (first message + new tight window) may already be in
        # the past — the batch must ship, not strand.  post() then hands back
        # the batch's delivery event, so the sender still sees "accepted".
        kernel = make_kernel(window=1.0, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=2)
        install_receiver(kernel)
        sender = transmit_n(kernel, 8)
        kernel.run()
        assert kernel.result_of(sender) == [True] * 8
        assert kernel.arrivals == 8
        assert kernel.transport.pending_outbox_messages() == 0

    def test_per_destination_windows_are_independent(self):
        kernel = make_kernel(window=0.2, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=4)
        install_receiver(kernel, site="b")
        install_receiver(kernel, site="c")

        def sender(ctx, bc):
            for index in range(30):
                payload = Briefcase()
                payload.set("X", index)
                yield ctx.transmit("b", "receiver", payload,
                                   kind=MessageKind.FOLDER_DELIVERY)
                if index < 4:
                    yield ctx.transmit("c", "receiver", payload,
                                       kind=MessageKind.FOLDER_DELIVERY)
                    yield ctx.sleep(0.3)    # c is a trickle, b stays hot
            return "sent"

        kernel.launch("a", sender, system=True)
        kernel.run()
        telemetry = kernel.transport.flow_telemetry()
        assert telemetry[("a", "b")]["window"] < telemetry[("a", "c")]["window"]

    def test_stats_publish_per_pair_flow_telemetry(self):
        kernel = make_kernel(window=0.2, flow_window_min=0.01,
                             flow_window_max=1.0)
        install_receiver(kernel)
        transmit_n(kernel, 4)
        kernel.run()
        snapshot = kernel.stats.snapshot()
        assert snapshot["flow_pairs"] == 1
        info = snapshot["flow_windows"]["a->b"]
        assert {"window", "message_rate", "bytes_rate"} <= set(info)
        # Fixed-window kernels publish nothing (the telemetry is adaptive).
        fixed = make_kernel(window=0.2)
        install_receiver(fixed)
        transmit_n(fixed, 4)
        fixed.run()
        assert fixed.stats.snapshot()["flow_pairs"] == 0

    def test_no_fixed_window_matches_adaptive_on_a_mixed_fan_in(self):
        """Two hot senders and six trickle senders into one hub: one global
        window is too wide for the hot pairs or too tight for the trickle
        ones, so every fixed setting loses to per-pair windows on wire
        messages or on p50 delivery latency."""
        from repro.bench.workloads import MixedTrafficParams, run_mixed_traffic
        traffic = dict(n_hot=2, hot_deliveries=40, hot_gap=0.002, n_trickle=6,
                       trickle_deliveries=8, trickle_gap=0.35, payload_bytes=200)
        bounds = dict(flow_window_min=0.01, flow_window_max=0.6)
        fixed_arms = [run_mixed_traffic(MixedTrafficParams(batch_window=window,
                                                           **traffic))
                      for window in (0.0, 0.02, 0.05, 0.15, 0.6)]
        adaptive = run_mixed_traffic(MixedTrafficParams(
            batch_window=0.02, flow_target_batch=6, **bounds, **traffic))
        for outcome in fixed_arms + [adaptive]:
            assert outcome.folders_received == outcome.folders_expected

        def beats(fixed):
            return (adaptive.wire_messages < fixed.wire_messages,
                    adaptive.p50_latency < fixed.p50_latency)

        assert all(any(beats(fixed)) for fixed in fixed_arms)
        assert any(all(beats(fixed)) for fixed in fixed_arms)
        # Against the cheapest fixed window that still meets a 0.1 s p50:
        # fewer wire messages at equal or lower latency.
        best_fixed = min((fixed for fixed in fixed_arms if fixed.p50_latency <= 0.1),
                         key=lambda fixed: fixed.wire_messages)
        assert adaptive.wire_messages < best_fixed.wire_messages
        assert adaptive.p50_latency <= best_fixed.p50_latency
        # The converged windows tell why: hot pairs tight, trickle pairs wide.
        windows = {pair: info["window"]
                   for pair, info in adaptive.flow_windows.items()}
        hot = [window for pair, window in windows.items() if pair.startswith("hot")]
        trickle = [window for pair, window in windows.items()
                   if pair.startswith("cold")]
        assert hot and trickle and max(hot) < min(trickle)
        assert all(bounds["flow_window_min"] <= window <= bounds["flow_window_max"]
                   for window in hot + trickle)


class TestAdaptiveReconfigureRaces:
    """Resizing the adaptive bounds while outboxes are armed, and crash /
    recovery mid-window: flow state must reset, with no stale flushes."""

    def test_resizing_bounds_while_an_outbox_is_armed_reconciles_it(self):
        kernel = make_kernel(window=5.0, flow_window_min=0.5,
                             flow_window_max=10.0, flow_target_batch=50)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 3
        # Tighten the band under the armed outbox: its recomputed due time
        # (first + clamped window) is already past, so it ships at once.
        kernel.transport.configure_batching(5.0, window_min=0.001,
                                            window_max=0.005)
        assert kernel.transport.pending_outbox_messages() == 0
        assert kernel.stats.flush_causes["reconfigure"] == 1
        kernel.run()
        assert kernel.arrivals == 3
        assert kernel.stats.messages_dropped == 0

    def test_widening_bounds_mid_window_rearms_not_drops(self):
        kernel = make_kernel(window=0.2, flow_window_min=0.1,
                             flow_window_max=0.3)
        install_receiver(kernel)
        transmit_n(kernel, 2)
        kernel.run(until=0.01)
        kernel.transport.configure_batching(0.2, window_min=0.1,
                                            window_max=5.0)
        # Still pending (re-armed on the recomputed window), nothing lost.
        kernel.run()
        assert kernel.arrivals == 2
        assert kernel.stats.messages_dropped == 0
        assert kernel.stats.batches == 1

    def test_destination_crash_mid_window_resets_flow_state(self):
        kernel = make_kernel(window=0.5, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=4)
        install_receiver(kernel)
        transmit_spaced(kernel, 20, gap=0.005)
        kernel.run(until=0.04)                  # hot: tight window learned
        assert ("a", "b") in kernel.transport.flow_telemetry()
        assert kernel.transport.pending_outbox_messages() > 0
        kernel.crash_site("b")
        # Flow state and telemetry for the pair are gone with the crash...
        assert ("a", "b") not in kernel.transport.flow_telemetry()
        assert ("a", "b") not in kernel.stats.flow_windows
        # ...and so is the armed outbox (no stale flush event fires later).
        assert kernel.transport.pending_outbox_messages() == 0
        arrivals_at_crash = kernel.arrivals
        batches_at_crash = kernel.stats.batches
        kernel.run(until=2.0)
        # The sender's later posts are refused at post time (destination
        # down): nothing new arrives, no stale flush ships a batch, and no
        # flow state is re-learned for the dead pair.
        assert kernel.arrivals == arrivals_at_crash
        assert kernel.stats.batches == batches_at_crash
        assert ("a", "b") not in kernel.transport.flow_telemetry()

    def test_recovered_destination_starts_from_the_seed_window(self):
        kernel = make_kernel(window=0.5, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=4)
        install_receiver(kernel)
        transmit_spaced(kernel, 10, gap=0.005)
        kernel.run(until=0.03)
        kernel.crash_site("b")
        kernel.run(until=1.0)
        kernel.recover_site("b")
        kernel.run(until=1.1)
        # Fresh traffic re-learns from scratch: the first post sees the
        # seed window (clamped base), not the pre-crash hot estimate.
        assert kernel.transport.flow.window_for(("a", "b")) == 0.5
        transmit_n(kernel, 2, contact="receiver")
        kernel.run()
        assert kernel.transport.pending_outbox_messages() == 0
        info = kernel.transport.flow_telemetry().get(("a", "b"))
        assert info is not None and info["messages"] == 2

    def test_fixed_mode_does_no_flow_estimation_on_the_hot_path(self):
        # With adaptive windows off, post() must not build per-pair EWMA
        # state that nothing will ever read.
        kernel = make_kernel(window=0.1)
        install_receiver(kernel)
        transmit_n(kernel, 5)
        kernel.run()
        assert kernel.arrivals == 5
        assert kernel.transport.flow_telemetry() == {}
        assert kernel.stats.flow_windows == {}

    def test_flow_knob_validation_at_the_transport(self):
        from repro.core.errors import TransportError
        kernel = make_kernel(window=0.0)
        with pytest.raises(TransportError):
            kernel.transport.configure_batching(0.1, window_min=-0.1)
        with pytest.raises(TransportError):
            # A floor with no ceiling would be silently inert.
            kernel.transport.configure_batching(0.1, window_min=0.5)
        with pytest.raises(TransportError):
            kernel.transport.configure_batching(0.1, window_max=-1.0)
        with pytest.raises(TransportError):
            kernel.transport.configure_batching(0.1, window_min=2.0,
                                                window_max=1.0)
        with pytest.raises(TransportError):
            kernel.transport.configure_batching(0.1, target_batch=0)


class TestConfigureBatching:
    def test_negative_window_rejected(self):
        kernel = make_kernel(window=0.0)
        from repro.core.errors import TransportError
        with pytest.raises(TransportError):
            kernel.transport.configure_batching(-1.0)

    def test_flush_outboxes_is_idempotent(self):
        kernel = make_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 2)
        kernel.run(until=0.01)
        assert kernel.transport.flush_outboxes() == 1
        assert kernel.transport.flush_outboxes() == 0
        kernel.run()
        assert kernel.arrivals == 2
