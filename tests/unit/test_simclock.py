"""Unit tests for the discrete-event clock and event loop (repro.net.simclock)."""

from __future__ import annotations

import pytest

from repro.core.errors import KernelError
from repro.core.timing import PAST_EPSILON
from repro.net.simclock import Event, EventLoop, SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_cannot_move_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(KernelError):
            clock._advance_to(5.0)

    def test_advance_forward(self):
        clock = SimClock()
        clock._advance_to(3.5)
        assert clock.now == 3.5


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.3, lambda: fired.append("late"))
        loop.schedule(0.1, lambda: fired.append("early"))
        loop.schedule(0.2, lambda: fired.append("middle"))
        loop.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_fire_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for index in range(5):
            loop.schedule(1.0, lambda index=index: fired.append(index))
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_times(self):
        loop = EventLoop()
        times = []
        loop.schedule(0.5, lambda: times.append(loop.now))
        loop.schedule(1.5, lambda: times.append(loop.now))
        loop.run()
        assert times == [0.5, 1.5]

    def test_negative_delay_is_rejected(self):
        with pytest.raises(KernelError):
            EventLoop().schedule(-0.1, lambda: None)

    def test_zero_delay_is_allowed(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.0, lambda: fired.append(True))
        loop.run()
        assert fired == [True]

    def test_cancel_prevents_firing(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(0.1, lambda: fired.append(True))
        event.cancel()
        loop.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        loop = EventLoop()
        keep = loop.schedule(0.1, lambda: None)
        cancel = loop.schedule(0.2, lambda: None)
        cancel.cancel()
        assert loop.pending == 1
        del keep

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        fired = []

        def first():
            fired.append("first")
            loop.schedule(0.1, lambda: fired.append("nested"))

        loop.schedule(0.1, first)
        loop.run()
        assert fired == ["first", "nested"]

    def test_run_returns_number_of_events(self):
        loop = EventLoop()
        for _ in range(3):
            loop.schedule(0.1, lambda: None)
        assert loop.run() == 3
        assert loop.processed == 3

    def test_run_with_max_events(self):
        loop = EventLoop()
        for _ in range(10):
            loop.schedule(0.1, lambda: None)
        assert loop.run(max_events=4) == 4
        assert loop.pending == 6

    def test_run_until_respects_horizon(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.5, lambda: fired.append("early"))
        loop.schedule(2.0, lambda: fired.append("late"))
        loop.run_until(1.0)
        assert fired == ["early"]
        assert loop.now == pytest.approx(1.0)
        loop.run()
        assert fired == ["early", "late"]

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        times = []
        loop.schedule_at(2.5, lambda: times.append(loop.now))
        loop.run()
        assert times == [pytest.approx(2.5)]

    def test_schedule_at_past_time_raises(self):
        # schedule() has always rejected negative delays; schedule_at used to
        # silently clamp past timestamps to "now" instead.  Both entry points
        # now agree: genuinely past times are scheduling bugs.
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(KernelError):
            loop.schedule_at(0.5, lambda: None)
        with pytest.raises(KernelError):
            loop.schedule(-0.5, lambda: None)

    def test_schedule_at_within_epsilon_clamps_to_now(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        times = []
        loop.schedule_at(1.0 - PAST_EPSILON / 2, lambda: times.append(loop.now))
        loop.schedule_at(1.0, lambda: times.append(loop.now))
        loop.run()
        assert times == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_schedule_many_batch(self):
        loop = EventLoop()
        fired = []
        events = loop.schedule_many([
            (0.3, lambda: fired.append("late"), "late"),
            (0.1, lambda: fired.append("early")),
            (0.2, lambda: fired.append("middle"), "middle"),
        ])
        assert len(events) == 3
        assert loop.pending == 3
        loop.run()
        assert fired == ["early", "middle", "late"]

    def test_schedule_many_large_batch_heapifies(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.05, lambda: fired.append(-1))
        loop.schedule_many([(0.1 * (index + 1), lambda index=index: fired.append(index))
                            for index in range(32)])
        loop.run()
        assert fired == [-1] + list(range(32))

    def test_schedule_many_interleaves_with_schedule_ordering(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append("single"))
        loop.schedule_many([(1.0, lambda: fired.append("batch-a")),
                            (1.0, lambda: fired.append("batch-b"))])
        loop.run()
        assert fired == ["single", "batch-a", "batch-b"]

    def test_schedule_many_rejects_negative_delay(self):
        with pytest.raises(KernelError):
            EventLoop().schedule_many([(0.1, lambda: None), (-0.1, lambda: None)])

    def test_pending_is_live_counter_and_cancelled_entries_compact(self):
        loop = EventLoop()
        events = [loop.schedule(1.0 + index, lambda: None) for index in range(200)]
        assert loop.pending == 200
        for event in events[:150]:
            event.cancel()
        assert loop.pending == 50
        # Cancelled entries beyond half the heap are purged in bulk.
        assert len(loop._heap) <= 100
        assert loop.run() == 50

    def test_cancel_is_idempotent_for_the_live_counter(self):
        loop = EventLoop()
        event = loop.schedule(0.1, lambda: None)
        loop.schedule(0.2, lambda: None)
        event.cancel()
        event.cancel()
        assert loop.pending == 1
        assert loop.run() == 1

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        loop = EventLoop()
        event = loop.schedule(0.1, lambda: None)
        loop.run()
        event.cancel()
        assert loop.pending == 0
        loop.schedule(0.1, lambda: None)
        assert loop.pending == 1
        assert loop.run() == 1

    def test_step_on_empty_loop_returns_false(self):
        assert EventLoop().step() is False

    def test_heap_entries_order_by_time_then_seq_not_by_event(self):
        # Ordering lives in the (time, seq, event) entry and is decided in C;
        # the handle itself is deliberately unordered.
        loop = EventLoop()
        late = loop.schedule(2.0, lambda: None)
        early = loop.schedule(1.0, lambda: None)
        tie = loop.schedule(1.0, lambda: None)
        assert sorted(loop._heap) == [(1.0, early.seq, early), (1.0, tie.seq, tie),
                                      (2.0, late.seq, late)]
        with pytest.raises(TypeError):
            early < late  # noqa: B015

    @pytest.mark.parametrize("how", ["schedule", "schedule_many", "schedule_at"])
    def test_nan_times_are_rejected(self, how):
        # NaN passed the old ``delay < 0`` guard and fired at an arbitrary
        # position; as a tuple key it would silently break the heap invariant.
        loop = EventLoop()
        fired = []
        loop.schedule(0.5, lambda: fired.append("half"))
        nan = float("nan")
        with pytest.raises(KernelError):
            if how == "schedule":
                loop.schedule(nan, lambda: fired.append("nan"))
            elif how == "schedule_many":
                loop.schedule_many([(0.1, lambda: fired.append("ok")),
                                    (nan, lambda: fired.append("nan"))])
            else:
                loop.schedule_at(nan, lambda: fired.append("nan"))
        assert loop.pending == 1
        loop.run()
        assert fired == ["half"] and loop.now == 0.5

    def test_labels_are_formatted_only_when_printed(self):
        loop = EventLoop()
        assert "'wake-agent-000007'" in repr(
            loop.schedule(0.1, lambda: None, label=("wake", "agent-000007")))
        assert "'plain'" in repr(loop.schedule(0.1, lambda: None, label="plain"))

    def test_events_fire_their_callback_with_their_args(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.2, fired.append, args=("schedule",))
        loop.schedule_at(0.3, fired.append, "labelled", ("schedule_at",))
        loop.schedule_many([(0.1, fired.append, "first", ("many",)),
                            (0.4, lambda: fired.append("no args"), "last"),
                            (0.5, lambda: fired.append("bare"))])
        loop.run()
        assert fired == ["many", "schedule", "schedule_at", "no args", "bare"]

    def test_repr_shows_args_only_when_there_is_no_label(self):
        loop = EventLoop()
        assert "args=('agent-000007',)" in repr(
            loop.schedule(0.1, print, args=("agent-000007",)))
        assert "args" not in repr(
            loop.schedule(0.1, print, ("wake", "agent-000007"), ("agent-000007",)))
        assert "args" not in repr(loop.schedule(0.1, lambda: None))

    def test_event_is_slotted(self):
        event = Event(time=1.0, seq=0, callback=lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.arbitrary_attribute = 1
