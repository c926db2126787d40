"""Agent model: running instances and lifecycle states.

An *agent* in TACOMA is just code plus a briefcase; at runtime the kernel
wraps that in an :class:`AgentInstance`, which holds what the agent was
started from (behaviour, CODE element, briefcase, place), owns the
behaviour generator, and keeps the bookkeeping the experiments read (steps
executed, result, failure cause).  The engine is their only
producer, so no separate "specification" object precedes an instance.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.briefcase import Briefcase

__all__ = ["AgentState", "AgentInstance"]


class AgentState:
    """Lifecycle states of an agent instance."""

    CREATED = "created"     # instantiated, not yet stepped
    RUNNING = "running"     # currently executing or scheduled to execute
    WAITING = "waiting"     # blocked on a meet, a sleep, or a transmit
    DONE = "done"           # behaviour returned (or yielded Terminate)
    FAILED = "failed"       # behaviour raised an unhandled exception
    KILLED = "killed"       # site crash or kernel enforcement killed it

    TERMINAL = (DONE, FAILED, KILLED)

    @classmethod
    def is_terminal(cls, state: str) -> bool:
        """True once the agent can never run again."""
        return state in cls.TERMINAL


class AgentInstance:
    """A running (or finished) agent at a site.

    The kernel owns these; user code sees them mainly through the kernel's
    ledger when collecting results, and through ``ctx`` while running.

    A ``__slots__`` class: high-population workloads keep hundreds of
    thousands of these alive at once, so an instance is one object whose
    bookkeeping lives in slots.  Retirement
    (:meth:`~repro.core.lifecycle.AgentTable.retire`) sets ``briefcase``,
    ``behaviour`` and ``code`` to None and replaces the instance in
    the ledger with a compact :class:`~repro.core.lifecycle.AgentRecord`
    (id, site, state, result, error, timing): a finished agent keeps its
    record, not its luggage; a waiting meet caller is handed the briefcase
    before that.  Records duck-type the read-only surface below
    (``state``, ``result``, ``finished``, ``ok``, ...).  The spawn and meet
    edges live on the other end: a child's ``parent_id``, a callee's
    ``meet_parent``.

    ``code`` is the reference the agent was started from — the behaviour
    name or callable given to launch or spawn, the name met or contacted, or
    the CODE element ``ag_py`` built it from — which ``ctx.jump`` describes
    (:func:`~repro.core.codec.code_element_of`) when the agent moves, and
    nothing else reads; ``launch_name`` is the name the agent was started
    under, or None when ``name`` had to fall back to the agent id.  The
    engine that creates the instance mints ``agent_id`` from its own
    counter.
    """

    __slots__ = ("agent_id", "behaviour", "code", "launch_name", "name",
                 "site_name", "briefcase", "state", "system", "parent_id",
                 "meet_parent", "meet_ended", "generator", "result", "error",
                 "steps", "started_at", "finished_at", "finished")

    def __init__(self, agent_id: str, behaviour: Callable, site_name: str,
                 briefcase: Optional[Briefcase] = None, name: Optional[str] = None,
                 code: Any = None, system: bool = False,
                 parent_id: Optional[str] = None, meet_parent: Optional[str] = None):
        self.agent_id = agent_id
        self.behaviour = behaviour
        self.code = code
        self.launch_name = name
        self.name = name or self.agent_id
        self.site_name = site_name
        self.briefcase = briefcase if briefcase is not None else Briefcase()
        self.state = AgentState.CREATED
        #: True once the agent reached a terminal state (set by ``mark_done``
        #: / ``mark_failed`` / ``mark_killed`` together with ``state``; a plain
        #: attribute because the kernel reads it several times per step)
        self.finished = False
        self.system = system
        #: agent that spawned this one (None for kernel launches)
        self.parent_id = parent_id
        #: agent currently blocked in a meet on this agent (None outside meets)
        self.meet_parent = meet_parent
        #: True once this agent has terminated its current meet
        self.meet_ended = meet_parent is None
        #: generator produced by calling the behaviour (None until started)
        self.generator = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.steps = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- state helpers -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True if the agent finished normally."""
        return self.state == AgentState.DONE

    def mark_running(self) -> None:
        self.state = AgentState.RUNNING

    def mark_waiting(self) -> None:
        self.state = AgentState.WAITING

    def mark_done(self, result: Any, at: float) -> None:
        self.state = AgentState.DONE
        self.finished = True
        self.result = result
        self.finished_at = at

    def mark_failed(self, error: BaseException, at: float) -> None:
        self.state = AgentState.FAILED
        self.finished = True
        self.error = error
        self.finished_at = at

    def mark_killed(self, at: float, reason: str = "site crash") -> None:
        self.state = AgentState.KILLED
        self.finished = True
        self.error = RuntimeError(reason)
        self.finished_at = at

    def close_generator(self) -> None:
        """Close the behaviour generator, running its ``finally:`` blocks.

        Every terminal path must call this: an abandoned suspended generator
        keeps its frame (and everything the frame references) alive and its
        cleanup code never runs.  Closing an exhausted or never-started
        generator is a no-op; a generator that refuses to stop (swallows
        GeneratorExit or raises during cleanup) is abandoned rather than
        allowed to take the kernel down.
        """
        generator = self.generator
        if generator is None:
            return
        self.generator = None
        try:
            generator.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (f"AgentInstance({self.agent_id} name={self.name!r} "
                f"site={self.site_name!r} state={self.state})")
