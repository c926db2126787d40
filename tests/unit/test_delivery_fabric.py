"""Unit tests for the delivery fabric: per-destination outboxes, crash and
partition semantics, adaptive windows, and the message size cache.

The batch envelopes and their byte and loss accounting are part of the
transport contract (``tests/contracts.py::BaseTestTransport``), run on every
transport by ``test_transports.py``."""

from __future__ import annotations

from contracts import fabric_kernel, install_receiver, transmit_n
from repro.core import Briefcase
from repro.core.errors import SyscallError
from repro.net.message import Message, MessageKind
from scenarios import load_example


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


class TestEveryKindMeetsItsContact:
    """A message's kind never decides where it goes: every kind a sender may
    transmit starts its contact; the fabric's own envelope is refused."""

    def test_a_control_transmit_runs_its_contact(self, strategy):
        kernel = fabric_kernel(window=0.05)
        install_receiver(kernel)
        sender = transmit_n(kernel, 2, kind="control")
        kernel.run()
        assert kernel.result_of(sender) == [True, True]
        assert kernel.counters()["arrivals"] == 2
        assert kernel.counters()["undeliverable"] == 0
        assert len(kernel.site("b").cabinet("received").elements("payloads")) == 2
        assert not kernel.site("b").has_cabinet("_messages")

    def test_a_batch_transmit_is_refused_in_the_sender(self, strategy):
        def sender(ctx, bc):
            payload = Briefcase()
            payload.set("X", 0)
            try:
                yield ctx.transmit("b", "receiver", payload, kind=MessageKind.BATCH)
            except SyscallError as error:
                return str(error)
            return "sent"

        kernel = fabric_kernel(window=0.05)
        install_receiver(kernel)
        agent_id = kernel.launch("a", sender, system=True)
        kernel.run()
        assert "batch" in kernel.result_of(agent_id)
        assert kernel.stats.messages_sent == kernel.stats.transmits == 0
        assert kernel.counters()["arrivals"] == kernel.counters()["undeliverable"] == 0


class TestFailureSemantics:
    def test_crash_of_destination_drops_pending_outbox(self):
        kernel = fabric_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)     # transmits done, flush far in the future
        assert kernel.transport.pending_outbox_messages() == 3
        dropped_before = kernel.stats.messages_dropped
        kernel.crash_site("b")
        assert kernel.transport.pending_outbox_messages() == 0
        assert kernel.stats.messages_dropped == dropped_before + 3
        kernel.run()
        assert kernel.counters()["arrivals"] == 0

    def test_crash_of_source_drops_pending_outbox(self):
        kernel = fabric_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 2)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 2
        kernel.crash_site("a")
        assert kernel.transport.pending_outbox_messages() == 0
        kernel.run()
        assert kernel.counters()["arrivals"] == 0

    def test_partition_flushes_and_drops_cross_partition_batches(self):
        kernel = fabric_kernel(window=10.0)
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
        assert kernel.counters()["arrivals"] == 0
        kernel.heal_partition()

    def test_partition_leaves_same_side_outboxes_coalescing(self):
        kernel = fabric_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        kernel.partition([["a", "b"], ["c"]])   # sender and receiver together
        # The a->b pair is still routable: its outbox is untouched and keeps
        # coalescing until the window fires, then delivers normally.
        assert kernel.transport.pending_outbox_messages() == 3
        kernel.run()
        assert kernel.counters()["arrivals"] == 3
        kernel.heal_partition()

    def test_destination_down_at_post_time_is_refused_like_unbatched(self):
        # The fabric must not report "accepted" for a destination already
        # known to be unreachable: posting falls through to the immediate
        # path, so the sender sees the same False as with batching off.
        kernel = fabric_kernel(window=10.0)
        install_receiver(kernel)
        kernel.crash_site("b")
        sender = transmit_n(kernel, 3)
        kernel.run()
        assert kernel.result_of(sender) == [False] * 3
        assert kernel.transport.pending_outbox_messages() == 0
        assert kernel.counters()["arrivals"] == 0


class TestMessageSizeCache:
    def test_size_is_computed_once(self):
        message = Message(source="a", destination="b", kind=MessageKind.FOLDER_DELIVERY,
                          payload={"k": "x" * 1000})
        first = message.size_bytes()
        # Payload mutation after the first size query does not change the
        # charged size: messages are sealed once handed to a transport.
        message.payload["k"] = "x" * 50_000
        assert message.size_bytes() == first

    def test_declared_size_still_takes_precedence(self):
        message = Message(source="a", destination="b", kind=MessageKind.FOLDER_DELIVERY,
                          payload={"big": "x" * 10_000}, declared_size=100)
        assert message.size_bytes() == Message.HEADER_BYTES + 100
        assert message.body_bytes() == 100


class TestTheWindowIsTheOnlyTrigger:
    """An outbox ships when its window fires — never because it filled up or
    because traffic kept arriving."""

    def test_a_full_outbox_waits_for_its_window(self):
        kernel = fabric_kernel(window=0.2)
        install_receiver(kernel)
        transmit_n(kernel, 50)
        kernel.run(until=0.15)
        assert kernel.transport.pending_outbox_messages() == 50
        kernel.run()
        assert (kernel.counters()["arrivals"], kernel.stats.batches) == (50, 1)
        assert kernel.stats.flush_causes == {"window": 1}

    def test_a_fixed_window_does_not_slide_with_traffic(self):
        # The second message joins the first window's batch; it does not
        # postpone the flush past first-message + window.
        kernel = fabric_kernel(window=0.2)
        install_receiver(kernel)
        transmit_spaced(kernel, 2, gap=0.15)
        kernel.run(until=0.25)
        assert kernel.transport.pending_outbox_messages() == 0
        assert kernel.stats.messages_sent == kernel.stats.per_kind[MessageKind.BATCH] == 1

    def test_a_stream_ships_one_batch_per_window(self):
        kernel = fabric_kernel(window=0.25)
        install_receiver(kernel)
        transmit_spaced(kernel, 6, gap=0.1)
        kernel.run()
        assert (kernel.counters()["arrivals"], kernel.stats.batched_messages) == (6, 6)
        assert kernel.stats.flush_causes == {"window": 2}   # two windows of three

    def test_window_max_bounds_a_cold_pair_wait(self):
        # A lone message on a pair with no rate yet waits its seed window
        # clamped to window_max, however wide target_batch would make it.
        kernel = fabric_kernel(window=5.0, flow_window_min=0.01,
                             flow_window_max=0.3, flow_target_batch=1000)
        install_receiver(kernel)
        transmit_n(kernel, 1)
        kernel.run(until=0.25)
        assert kernel.transport.pending_outbox_messages() == 1
        kernel.run(until=0.35)
        assert kernel.stats.messages_sent == 1

    def test_early_flushes_reads_zero_whatever_ships_the_outbox(self):
        kernel = fabric_kernel(window=10.0)
        install_receiver(kernel, site="b")
        transmit_n(kernel, 2, destination="b")
        transmit_n(kernel, 2, destination="c")
        kernel.run(until=0.01)
        kernel.partition([["a", "b"], ["c"]])       # ships a->c
        kernel.heal_partition()
        kernel.run()                                # a->b's window fires
        snapshot = kernel.stats.snapshot()
        assert snapshot["flush_causes"] == {"partition": 1, "window": 1}
        assert snapshot["early_flushes"] == 0


class TestCrashDuringArmedFlush:
    def test_crash_while_armed_drops_per_message(self):
        # Site crash between arming and the flush event firing: the same
        # per-message accounting as _drop_outbox.
        kernel = fabric_kernel(window=10.0)
        install_receiver(kernel)
        transmit_n(kernel, 3)
        kernel.run(until=0.01)
        assert kernel.transport.pending_outbox_messages() == 3
        dropped_before = kernel.stats.messages_dropped
        kernel.crash_site("b")
        assert kernel.stats.messages_dropped == dropped_before + 3
        kernel.run()
        assert kernel.stats.messages_dropped == dropped_before + 3  # no double count
        assert kernel.counters()["arrivals"] == 0

    def test_crash_after_a_tightened_window_ships_counts_per_message(self):
        # The hot pair's adaptive window tightened far below the 10 s seed
        # and the batch is in flight when the destination dies: in-flight
        # loss counts each coalesced message, matching what _drop_outbox
        # would have charged.
        kernel = fabric_kernel(window=10.0, flow_window_min=0.001,
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
        assert kernel.counters()["arrivals"] == 0

    def test_partition_mid_batch_does_not_double_count_drops(self):
        kernel = fabric_kernel(window=10.0)
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
        assert kernel.counters()["arrivals"] == 0
        kernel.heal_partition()


class TestAdaptiveWindows:
    """Per-destination adaptive windows (repro.flow behind the fabric)."""

    def test_hot_pair_tightens_its_window_below_the_base(self):
        kernel = fabric_kernel(window=0.5, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=4)
        install_receiver(kernel)
        transmit_spaced(kernel, 20, gap=0.005)
        kernel.run()
        assert kernel.counters()["arrivals"] == 20
        state = kernel.transport.flow.state(("a", "b"))
        # ~150+ msg/s stream: the window collapses well below the 0.5 seed.
        assert state.window < 0.1
        assert state.estimator.message_rate > 50
        # ...and the tight window produced several batches instead of one.
        assert kernel.stats.batches > 2

    def test_trickle_pair_widens_its_window_to_the_max(self):
        kernel = fabric_kernel(window=0.05, flow_window_min=0.01,
                             flow_window_max=2.0, flow_target_batch=4)
        install_receiver(kernel)
        transmit_spaced(kernel, 6, gap=0.4)
        kernel.run()
        assert kernel.counters()["arrivals"] == 6
        state = kernel.transport.flow.state(("a", "b"))
        # ~2.5 msg/s: the ideal window (target/rate ~ 1.6s) is far above
        # the 0.05 s base the pair would otherwise run, within the cap.
        assert 1.0 < state.window <= 2.0
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
        kernel = fabric_kernel(window=1.0, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=2)
        install_receiver(kernel)
        sender = transmit_n(kernel, 8)
        kernel.run()
        assert kernel.result_of(sender) == [True] * 8
        assert kernel.counters()["arrivals"] == 8
        assert kernel.transport.pending_outbox_messages() == 0

    def test_per_destination_windows_are_independent(self):
        kernel = fabric_kernel(window=0.2, flow_window_min=0.01,
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
        windows = kernel.stats.flow_windows
        assert windows[("a", "b")]["window"] < windows[("a", "c")]["window"]

    def test_stats_publish_per_pair_flow_telemetry(self):
        kernel = fabric_kernel(window=0.2, flow_window_min=0.01,
                             flow_window_max=1.0)
        install_receiver(kernel)
        transmit_n(kernel, 4)
        kernel.run()
        snapshot = kernel.stats.snapshot()
        assert snapshot["flow_pairs"] == 1
        info = snapshot["flow_windows"]["a->b"]
        assert {"window", "message_rate", "bytes_rate"} <= set(info)
        # Fixed-window kernels publish nothing (the telemetry is adaptive).
        fixed = fabric_kernel(window=0.2)
        install_receiver(fixed)
        transmit_n(fixed, 4)
        fixed.run()
        assert fixed.stats.snapshot()["flow_pairs"] == 0

    def test_no_fixed_window_matches_adaptive_on_a_mixed_fan_in(self):
        """Two hot senders and six trickle senders into one hub: one global
        window is too wide for the hot pairs or too tight for the trickle
        ones, so every fixed setting loses to per-pair windows on wire
        messages or on p50 delivery latency."""
        example = load_example("adaptive_traffic.py")

        def outcome(**fabric):
            kernel, latencies = example.mixed_traffic(**fabric)
            assert len(latencies) == example.FOLDERS
            return kernel.stats.messages_sent, latencies[len(latencies) // 2], kernel

        fixed_arms = [outcome(delivery_batch_window=window)[:2]
                      for window in example.FIXED_WINDOWS]
        wire_messages, p50, kernel = outcome(**example.ADAPTIVE)

        def beats(fixed_wire_messages, fixed_p50):
            return wire_messages < fixed_wire_messages, p50 < fixed_p50

        assert all(any(beats(*fixed)) for fixed in fixed_arms)
        assert any(all(beats(*fixed)) for fixed in fixed_arms)
        # Against the cheapest fixed window that still meets a 0.1 s p50:
        # fewer wire messages at equal or lower latency.
        best_wire_messages, best_p50 = min(fixed for fixed in fixed_arms if fixed[1] <= 0.1)
        assert wire_messages < best_wire_messages
        assert p50 <= best_p50
        # The converged windows tell why: hot pairs tight, trickle pairs wide.
        windows = {pair: info["window"]
                   for pair, info in kernel.stats.flow_snapshot().items()}
        hot = [window for pair, window in windows.items() if pair.startswith("hot")]
        trickle = [window for pair, window in windows.items()
                   if pair.startswith("cold")]
        assert hot and trickle and max(hot) < min(trickle)
        assert all(example.ADAPTIVE["flow_window_min"] <= window
                   <= example.ADAPTIVE["flow_window_max"] for window in hot + trickle)


class TestAdaptiveFlowState:
    """Per-pair flow state: a crash mid-window resets it with no stale
    flushes, a recovered pair re-learns it, and fixed mode never builds it."""

    def test_destination_crash_mid_window_resets_flow_state(self):
        kernel = fabric_kernel(window=0.5, flow_window_min=0.01,
                             flow_window_max=1.0, flow_target_batch=4)
        install_receiver(kernel)
        transmit_spaced(kernel, 20, gap=0.005)
        kernel.run(until=0.04)                  # hot: tight window learned
        assert kernel.transport.flow.state(("a", "b")) is not None
        assert ("a", "b") in kernel.stats.flow_windows
        assert kernel.transport.pending_outbox_messages() > 0
        kernel.crash_site("b")
        # Flow state and its published windows are gone with the crash...
        assert kernel.transport.flow.state(("a", "b")) is None
        assert ("a", "b") not in kernel.stats.flow_windows
        # ...and so is the armed outbox (no stale flush event fires later).
        assert kernel.transport.pending_outbox_messages() == 0
        arrivals_at_crash = kernel.counters()["arrivals"]
        batches_at_crash = kernel.stats.batches
        kernel.run(until=2.0)
        # The sender's later posts are refused at post time (destination
        # down): nothing new arrives, no stale flush ships a batch, and no
        # flow state is re-learned for the dead pair.
        assert kernel.counters()["arrivals"] == arrivals_at_crash
        assert kernel.stats.batches == batches_at_crash
        assert kernel.transport.flow.state(("a", "b")) is None

    def test_recovered_destination_starts_from_the_seed_window(self):
        kernel = fabric_kernel(window=0.5, flow_window_min=0.01,
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
        state = kernel.transport.flow.state(("a", "b"))
        assert state is not None and state.estimator.events == 2

    def test_fixed_mode_does_no_flow_estimation_on_the_hot_path(self):
        # With adaptive windows off, post() must not build per-pair EWMA
        # state that nothing will ever read.
        kernel = fabric_kernel(window=0.1)
        install_receiver(kernel)
        transmit_n(kernel, 5)
        kernel.run()
        assert kernel.counters()["arrivals"] == 5
        assert len(kernel.transport.flow) == 0
        assert kernel.stats.flow_windows == {}
