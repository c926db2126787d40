"""Property-based tests: the scheduler against a sorted-list model.

Generated interleavings of every scheduling entry point (``schedule``,
``schedule_many`` on both its push and its bulk-heapify branch,
``schedule_at``), cancellation (before fire, after fire, in bulk so the
heap compacts — also from inside a firing callback, i.e. while the drain
loop is running) and every way of draining (``step``, ``run``,
``run_until`` with and without an event budget) are replayed on a real
loop and on a model that keeps a plain list and sorts it.  After every
operation the two must agree on what fired and in which order — exact
``(time, seq)`` order, ties in scheduling order — on the clock, and on
``pending``/``processed``.  Events carry their arguments: two in three are
scheduled as one shared bound method plus an ``args`` tuple naming the event
(through every entry point, and every ``schedule_many`` entry shape), the
third as a closure with no ``args``, and what a firing records is what its
callback *received* — so an event fired with another's arguments, or a
cancelled one fired at all, breaks the agreement.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.simclock import EventLoop

# Dyadic delays: sums stay exact in floating point, and ties are frequent.
delays = st.integers(min_value=0, max_value=16).map(lambda n: n * 0.125)
budgets = st.none() | st.integers(min_value=0, max_value=6)

operations = st.one_of(
    st.tuples(st.just("schedule"), delays),
    st.tuples(st.just("schedule_many"), st.lists(delays, max_size=4)),
    st.tuples(st.just("schedule_many"), st.lists(delays, min_size=9, max_size=90)),
    st.tuples(st.just("schedule_at"), delays),
    # fires, then schedules a follow-up from inside the callback
    st.tuples(st.just("schedule_spawner"), st.tuples(delays, delays)),
    # fires, then cancels most of the queue from inside the callback
    st.tuples(st.just("schedule_canceller"), delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("cancel_most"), st.none()),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("run"), budgets),
    st.tuples(st.just("run_until"), st.tuples(delays, budgets)),
)


def args_of(seq, on_fire=None):
    """The ``args`` event number *seq* is scheduled with (none: a closure)."""
    return () if seq % 3 == 0 else (seq, on_fire)


class Model:
    """The specification: a list of [time, seq, state, on_fire,
    handle_cancelled, args], sorted on demand."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.fired = []

    def add(self, delay, on_fire=None):
        seq = len(self.entries)
        self.entries.append([self.now + delay, seq, "pending", on_fire, False,
                             args_of(seq, on_fire)])

    def queue(self):
        return sorted(entry for entry in self.entries if entry[2] == "pending")

    def cancel(self, seq):
        # Cancelling a fired event marks the handle and changes nothing else.
        self.entries[seq][2] = self.entries[seq][2].replace("pending", "cancelled")
        self.entries[seq][4] = True

    def cancel_most(self):
        for entry in self.entries:
            if entry[1] % 4:
                self.cancel(entry[1])

    def fire(self, entry):
        entry[2] = "fired"
        self.now = max(self.now, entry[0])
        self.fired.append(entry[1])
        on_fire = entry[3]
        if on_fire == "cancel_most":
            self.cancel_most()
        elif on_fire is not None:
            self.add(on_fire)

    def drain(self, horizon, budget):
        """Fire what is due by *horizon*; True if the budget left due events."""
        executed = 0
        while True:
            queue = self.queue()
            if not queue or queue[0][0] > horizon:
                return executed, False
            if budget is not None and executed >= budget:
                return executed, True
            self.fire(queue[0])
            executed += 1


class Subject:
    """The implementation under test, driven through its public API."""

    def __init__(self, loop):
        self.loop = loop
        self.events = []
        self.fired = []

    def fire(self, seq, on_fire=None):
        self.fired.append(seq)
        if on_fire == "cancel_most":
            self.cancel_most()
        elif on_fire is not None:
            self.schedule(on_fire)

    def callback(self, seq, on_fire=None):
        """``(callback, args)`` for event number *seq*."""
        args = args_of(seq, on_fire)
        if args:
            return self.fire, args
        return (lambda: self.fire(seq, on_fire)), ()

    def schedule(self, delay, on_fire=None):
        callback, args = self.callback(len(self.events), on_fire)
        self.events.append(self.loop.schedule(delay, callback, args=args))

    def schedule_many(self, batch):
        entries = []
        for seq, delay in enumerate(batch, start=len(self.events)):
            callback, args = self.callback(seq)
            # every entry shape: bare, labelled, labelled with args
            entries.append((delay, callback, ("many", seq), args) if args
                           else (delay, callback, "many") if seq % 2
                           else (delay, callback))
        self.events.extend(self.loop.schedule_many(entries))

    def cancel_most(self):
        for seq, event in enumerate(self.events):
            if seq % 4:
                event.cancel()


def apply(model: Model, subject: Subject, operation) -> None:
    kind, argument = operation
    loop = subject.loop
    if kind == "schedule":
        model.add(argument)
        subject.schedule(argument)
    elif kind == "schedule_many":
        for delay in argument:
            model.add(delay)
        subject.schedule_many(argument)
    elif kind == "schedule_at":
        model.add(argument)
        callback, args = subject.callback(len(subject.events))
        subject.events.append(
            loop.schedule_at(loop.now + argument, callback, "at", args))
    elif kind == "schedule_spawner":
        model.add(argument[0], on_fire=argument[1])
        subject.schedule(argument[0], on_fire=argument[1])
    elif kind == "schedule_canceller":
        model.add(argument, on_fire="cancel_most")
        subject.schedule(argument, on_fire="cancel_most")
    elif kind == "cancel":
        if model.entries:
            seq = argument % len(model.entries)
            model.cancel(seq)
            subject.events[seq].cancel()
    elif kind == "cancel_most":
        model.cancel_most()
        subject.cancel_most()
    elif kind == "step":
        executed, _ = model.drain(float("inf"), 1)
        assert loop.step() is (executed == 1)
    elif kind == "run":
        executed, _ = model.drain(float("inf"), argument)
        assert loop.run(max_events=argument) == executed
    else:
        horizon = model.now + argument[0]
        executed, stopped_early = model.drain(horizon, argument[1])
        if not stopped_early:
            model.now = max(model.now, horizon)
        assert loop.run_until(horizon, max_events=argument[1]) == executed


def check(model: Model, subject: Subject) -> None:
    loop = subject.loop
    assert subject.fired == model.fired
    assert loop.now == model.now
    assert loop.pending == len(model.queue())
    assert loop.processed == len(model.fired)
    queue = model.queue()
    assert loop.next_event_time() == (queue[0][0] if queue else None)
    for event, entry in zip(subject.events, model.entries):
        assert (event.time, event.seq) == (entry[0], entry[1])
        assert event.cancelled is entry[4]
        assert event.args == entry[5]


#: a program that provably takes the bulk-heapify branch, compacts the heap
#: (from outside and from inside a callback) and cancels fired events
COMPACTING = [
    ("schedule", 0.5),
    ("schedule_many", [0.125 * (n % 17) for n in range(90)]),
    ("schedule_canceller", 0.25),
    ("cancel_most", None),
    ("run_until", (0.25, 3)),
    ("schedule_many", [1.0] * 80),
    ("run_until", (0.5, None)),
    ("cancel", 0),
    ("schedule_spawner", (0.0, 0.0)),
    ("step", None),
    ("run", None),
]


@settings(max_examples=150)
@given(st.lists(operations, max_size=40))
@example(COMPACTING)
def test_event_loop_matches_the_sorted_list_model(program):
    model, subject = Model(), Subject(EventLoop())
    for operation in program:
        apply(model, subject, operation)
        check(model, subject)
    subject.loop.run()
    model.drain(float("inf"), None)
    check(model, subject)


def test_the_compacting_program_heapifies_and_compacts():
    # Guards the @example above: it must really reach both heap rebuilds.
    loop = EventLoop()
    subject, model = Subject(loop), Model()
    sizes = []
    for operation in COMPACTING[:4]:
        apply(model, subject, operation)
        sizes.append(len(loop._heap))
    assert sizes[:3] == [1, 91, 92]  # 90 > 8 and 4 * 90 >= 1: the bulk branch
    assert sizes[3] < sizes[2]       # cancelling alone never shrinks the heap


@settings(max_examples=60)
@given(st.lists(operations.filter(
    lambda operation: operation[0] not in ("step", "run", "run_until")), max_size=30))
@example(COMPACTING)
def test_run_run_until_and_step_agree_event_for_event(program):
    def build():
        model, subject = Model(), Subject(EventLoop())
        for operation in program:
            if operation[0] not in ("step", "run", "run_until"):
                apply(model, subject, operation)
        return subject

    by_run, by_step, by_horizon = build(), build(), build()
    by_run.loop.run()
    while by_step.loop.step():
        pass
    horizon = 0.0
    while by_horizon.loop.pending:
        horizon += 0.375
        while by_horizon.loop.run_until(horizon, max_events=2) == 2:
            pass
    assert by_run.fired == by_step.fired == by_horizon.fired
    assert (by_run.loop.processed == by_step.loop.processed
            == by_horizon.loop.processed == len(by_run.fired))

