"""Shared timing constants and the process-wide wall-clock timer.

Simulated time lives in one place, the deterministic
:class:`~repro.net.simclock.EventLoop` / :class:`~repro.net.simclock.SimClock`
pair: time advances only when events fire, and identical seeds give
bit-identical runs.  This module holds what that loop and its callers
share without importing it: the two float tolerances, the event label
type, and :data:`default_timer`.

:data:`default_timer` is the one process-wide wall-clock timer used for
measuring real elapsed time (benchmark walls, shard busy-time
attribution).  Components take it as an injectable
``timer: Callable[[], float] = default_timer`` parameter so tests can
substitute fake timers.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple, Union

__all__ = ["Label", "default_timer", "PAST_EPSILON", "TIME_EPSILON"]

#: timestamps this far in the past are forgiven (float jitter from callers
#: computing ``now + dt - dt``); anything older is a scheduling bug.
PAST_EPSILON = 1e-9

#: float slack when an event time is compared with a run horizon ("due by
#: T" includes T plus this) or with the clock ("backwards" means by more
#: than this) — three orders tighter than :data:`PAST_EPSILON` because these
#: compare values the scheduler computed itself, not caller arithmetic.
TIME_EPSILON = 1e-12

#: an event label: a string, or a tuple of parts that is joined with "-"
#: only if the event is printed (hot callers skip the per-event formatting)
Label = Union[str, Tuple[Any, ...]]

#: the process-wide wall-clock timer: monotonic, high-resolution seconds.
#: The single default behind every ``timer=`` parameter in the codebase.
default_timer: Callable[[], float] = time.perf_counter
