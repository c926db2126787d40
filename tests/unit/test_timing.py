"""The repro.core.timing seam: protocols, default timer, and repro.rt.

The fast half of the realtime coverage: scheduler semantics with tiny
real sleeps (milliseconds).  The workload-level parity suite lives in
``tests/integration/test_realtime_backend.py``.
"""

from __future__ import annotations

import pytest

from repro.core.errors import KernelError
from repro.core.timing import (PAST_EPSILON, TIME_EPSILON, Clock, ScheduledEvent,
                               Scheduler, default_timer)
from repro.net import simclock
from repro.net.simclock import EventLoop, SimClock
from repro.rt import AsyncioScheduler, WallClock

# ---------------------------------------------------------------------------
# protocols and the shared timer
# ---------------------------------------------------------------------------


def test_default_timer_is_monotonic_seconds():
    first = default_timer()
    second = default_timer()
    assert isinstance(first, float)
    assert second >= first


def test_epsilons_live_in_timing_only():
    # repro.core.timing is the one home of the tolerances; the historical
    # simclock re-export is gone.
    assert "PAST_EPSILON" not in simclock.__all__
    assert 0 < TIME_EPSILON < PAST_EPSILON


def test_sim_pair_satisfies_the_protocols():
    loop = EventLoop()
    assert isinstance(loop, Scheduler)
    assert isinstance(loop.clock, Clock)
    assert isinstance(loop.schedule(0.0, lambda: None), ScheduledEvent)


def test_realtime_pair_satisfies_the_protocols():
    scheduler = AsyncioScheduler()
    try:
        assert isinstance(scheduler, Scheduler)
        assert isinstance(scheduler.clock, Clock)
        assert isinstance(scheduler.clock, WallClock)
        assert not isinstance(scheduler.clock, SimClock)
    finally:
        scheduler.close()


def test_arbitrary_object_does_not_satisfy_scheduler():
    assert not isinstance(object(), Scheduler)


# ---------------------------------------------------------------------------
# WallClock
# ---------------------------------------------------------------------------


def test_wallclock_starts_near_zero_and_advances():
    ticks = iter([10.0, 10.5, 11.0, 11.25])
    clock = WallClock(timer=lambda: next(ticks))
    assert clock.now == pytest.approx(0.5)
    assert clock.now == pytest.approx(1.0)


def test_wallclock_floor_never_rewinds():
    ticks = iter([0.0, 0.1, 5.0])
    clock = WallClock(timer=lambda: next(ticks))
    clock._advance_to(2.0)  # an event at t=2 fired (sleep woke early)
    assert clock.now == 2.0  # floored, though only 0.1 wall elapsed
    clock._advance_to(1.0)  # never rewinds
    assert clock.now == 5.0  # wall time overtook the floor


# ---------------------------------------------------------------------------
# AsyncioScheduler semantics
# ---------------------------------------------------------------------------


@pytest.fixture
def rt():
    scheduler = AsyncioScheduler()
    yield scheduler
    scheduler.close()


@pytest.mark.realtime
def test_events_fire_in_time_order_with_real_waiting(rt):
    fired = []
    rt.schedule(0.02, lambda: fired.append("late"))
    rt.schedule(0.005, lambda: fired.append("early"))
    start = default_timer()
    executed = rt.run()
    elapsed = default_timer() - start
    assert executed == 2
    assert fired == ["early", "late"]
    assert elapsed >= 0.02  # really slept the horizon out
    assert rt.processed == 2
    assert rt.pending == 0


@pytest.mark.realtime
def test_cancelled_events_do_not_fire(rt):
    fired = []
    handle = rt.schedule(0.01, lambda: fired.append("cancelled"))
    rt.schedule(0.012, lambda: fired.append("kept"))
    handle.cancel()
    assert rt.run() == 1
    assert fired == ["kept"]


@pytest.mark.realtime
def test_schedule_at_clamps_past_timestamps(rt):
    # Wall time moved past the deadline before schedule_at was reached:
    # the realtime scheduler forgives it (the sim loop raises instead).
    fired = []
    rt.schedule_at(rt.now - 5.0, lambda: fired.append("late-but-run"))
    assert rt.run() == 1
    assert fired == ["late-but-run"]


@pytest.mark.realtime
def test_run_until_sleeps_out_the_horizon_and_leaves_rest_queued(rt):
    fired = []
    rt.schedule(0.005, lambda: fired.append("due"))
    rt.schedule(60.0, lambda: fired.append("beyond"))
    executed = rt.run_until(0.02)
    assert executed == 1
    assert fired == ["due"]
    assert rt.pending == 1  # the far event stays queued
    assert rt.now >= 0.02  # clock floored at the horizon


@pytest.mark.realtime
def test_run_max_events_budget_stops_early(rt):
    fired = []
    for index in range(4):
        rt.schedule(0.001 * index, lambda i=index: fired.append(i))
    assert rt.run(max_events=2) == 2
    assert fired == [0, 1]
    assert rt.pending == 2
    assert rt.run() == 2  # a later run picks the rest up


@pytest.mark.realtime
def test_callbacks_schedule_more_events(rt):
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            rt.schedule(0.001, lambda: chain(depth + 1))

    rt.schedule(0.001, lambda: chain(0))
    assert rt.run() == 4
    assert fired == [0, 1, 2, 3]


def test_closed_scheduler_refuses_to_run():
    scheduler = AsyncioScheduler()
    scheduler.close()
    scheduler.close()  # idempotent
    scheduler.schedule(0.0, lambda: None)
    with pytest.raises(KernelError, match="closed"):
        scheduler.run()
