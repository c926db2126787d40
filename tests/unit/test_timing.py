"""repro.core.timing: the default timer and the shared tolerances."""

from __future__ import annotations

import time

import pytest

from repro.core.errors import KernelError
from repro.core.timing import PAST_EPSILON, TIME_EPSILON, default_timer
from repro.net import simclock
from repro.net.simclock import EventLoop, SimClock


def test_default_timer_is_monotonic_seconds():
    first = default_timer()
    second = default_timer()
    assert isinstance(first, float)
    assert second >= first


def test_default_timer_is_the_high_resolution_counter():
    assert default_timer is time.perf_counter


def test_epsilons_live_in_timing_only():
    # repro.core.timing is the one home of the tolerances; the historical
    # simclock re-export is gone.
    assert "PAST_EPSILON" not in simclock.__all__
    assert 0 < TIME_EPSILON < PAST_EPSILON


def test_run_until_counts_time_epsilon_slack_as_due():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0 + TIME_EPSILON / 2, lambda: fired.append("jitter"))
    loop.schedule_at(1.0 + PAST_EPSILON, lambda: fired.append("later"))
    assert loop.run_until(1.0) == 1
    assert fired == ["jitter"]
    assert loop.pending == 1


def test_clock_forgives_time_epsilon_but_not_more():
    clock = SimClock(1.0)
    clock._advance_to(1.0 - TIME_EPSILON / 2)   # scheduler rounding: a no-op
    assert clock.now == 1.0
    with pytest.raises(KernelError, match="backwards"):
        clock._advance_to(1.0 - PAST_EPSILON)


def test_each_event_loop_owns_a_fresh_clock():
    first, second = EventLoop(), EventLoop()
    assert isinstance(first.clock, SimClock) and first.clock is not second.clock
    first.schedule(2.0, lambda: None)
    first.run()
    assert (first.now, second.now) == (2.0, 0.0)
