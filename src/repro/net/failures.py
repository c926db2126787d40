"""Failure injection: crash/recover schedules, partitions, and random crash models.

Section 5 of the paper assumes "sites in a computer network will fail".
The fault-tolerance tests and the ``ft_durable`` ledger workload drive the
kernel through these schedules.  A :class:`FailureSchedule` is a declarative list of failure
actions bound to simulated times; :class:`RandomCrasher` crashes random
sites at random times, which is what the rear-guard sweeps use.
"""

from __future__ import annotations

import random
from typing import List, Optional, Protocol, Sequence

from repro.core.record import Record

__all__ = ["FailureAction", "FailureSchedule", "RandomCrasher"]


class _KernelLike(Protocol):
    """The slice of the kernel interface failure injection needs."""

    def crash_site(self, name: str) -> None: ...
    def recover_site(self, name: str) -> None: ...
    def partition(self, groups: Sequence[Sequence[str]]) -> None: ...
    def heal_partition(self) -> None: ...
    @property
    def loop(self): ...
    @property
    def engines(self): ...
    def site_names(self) -> List[str]: ...


class FailureAction(Record):
    """One scheduled failure event."""

    __slots__ = _fields = ("at", "kind", "site", "groups")

    def __init__(self, at: float, kind: str, site: Optional[str] = None,
                 groups: Optional[Sequence[Sequence[str]]] = None):
        self.at = at
        self.kind = kind           # "crash" | "recover" | "partition" | "heal"
        self.site = site
        self.groups = groups


class FailureSchedule(Record):
    """A declarative failure schedule applied to a kernel.

    Example::

        schedule = (FailureSchedule()
                    .crash("site02", at=1.5)
                    .recover("site02", at=4.0)
                    .partition([["a", "b"], ["c"]], at=2.0)
                    .heal(at=3.0))
        schedule.install(kernel)
    """

    __slots__ = _fields = ("actions",)

    def __init__(self, actions: Optional[List[FailureAction]] = None):
        self.actions = [] if actions is None else actions

    def crash(self, site: str, at: float) -> "FailureSchedule":
        """Crash *site* at simulated time *at*."""
        self.actions.append(FailureAction(at=at, kind="crash", site=site))
        return self

    def recover(self, site: str, at: float) -> "FailureSchedule":
        """Recover *site* at simulated time *at*."""
        self.actions.append(FailureAction(at=at, kind="recover", site=site))
        return self

    def partition(self, groups: Sequence[Sequence[str]], at: float) -> "FailureSchedule":
        """Partition the network into *groups* at time *at*."""
        self.actions.append(FailureAction(at=at, kind="partition", groups=groups))
        return self

    def heal(self, at: float) -> "FailureSchedule":
        """Heal any active partition at time *at*."""
        self.actions.append(FailureAction(at=at, kind="heal"))
        return self

    def install(self, kernel: _KernelLike) -> None:
        """Schedule every action: a crash or a recovery on the loop of the
        engine hosting its site, a partition or a heal on ``kernel.loop``
        (engine 0's, however many engines there are)."""
        for action in self.actions:
            loop = next((engine.loop for engine in kernel.engines
                         if action.site in engine.sites), kernel.loop)
            loop.schedule_at(action.at, self._make_callback(kernel, action),
                             label=f"failure-{action.kind}")

    @staticmethod
    def _make_callback(kernel: _KernelLike, action: FailureAction):
        def fire() -> None:
            if action.kind == "crash":
                kernel.crash_site(action.site)
            elif action.kind == "recover":
                kernel.recover_site(action.site)
            elif action.kind == "partition":
                kernel.partition(action.groups or [])
            elif action.kind == "heal":
                kernel.heal_partition()
            else:  # pragma: no cover - guarded by construction helpers
                raise ValueError(f"unknown failure action {action.kind!r}")
        return fire


class RandomCrasher:
    """Crashes (and optionally recovers) random sites over a time window.

    Parameters
    ----------
    crash_probability:
        Per-site probability of suffering at least one crash in the window.
    window:
        (start, end) simulated-time interval in which crashes may occur.
    recover_after:
        If not None, a crashed site recovers this many seconds later.
    protect:
        Sites that are never crashed (e.g. the home site of an experiment).
    """

    def __init__(self, crash_probability: float, window: Sequence[float],
                 recover_after: Optional[float] = None,
                 protect: Sequence[str] = (), seed: Optional[int] = None):
        if not 0.0 <= crash_probability <= 1.0:
            raise ValueError("crash_probability must be within [0, 1]")
        self.crash_probability = crash_probability
        self.window = (float(window[0]), float(window[1]))
        self.recover_after = recover_after
        self.protect = set(protect)
        self.rng = random.Random(seed)
        #: sites this crasher decided to crash, with their crash times
        self.planned: List[FailureAction] = []

    def build_schedule(self, site_names: Sequence[str]) -> FailureSchedule:
        """Draw the random plan and return it as a :class:`FailureSchedule`."""
        schedule = FailureSchedule()
        start, end = self.window
        for name in site_names:
            if name in self.protect:
                continue
            if self.rng.random() < self.crash_probability:
                at = self.rng.uniform(start, end)
                schedule.crash(name, at=at)
                self.planned.append(FailureAction(at=at, kind="crash", site=name))
                if self.recover_after is not None:
                    schedule.recover(name, at=at + self.recover_after)
        return schedule

    def install(self, kernel: _KernelLike) -> FailureSchedule:
        """Draw a plan against the kernel's sites and install it."""
        schedule = self.build_schedule(kernel.site_names())
        schedule.install(kernel)
        return schedule
