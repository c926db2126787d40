"""AgentContext: the view an executing agent has of its current place.

Behaviours receive a context as their first argument.  It exposes the local
site (file cabinets, load, neighbours), the simulated clock, a per-agent
random stream, and convenience constructors for the common syscalls —
including :meth:`jump`, the standard "ship myself to another site via
rexec" idiom of the paper.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.briefcase import CONTACT_FOLDER, HOST_FOLDER, Briefcase
from repro.core.cabinet import FileCabinet
from repro.core.codec import code_element_of
from repro.core.folder import Folder
from repro.core.syscalls import EndMeet, Meet, Sleep, Spawn, Terminate, Transmit
from repro.obs import TRACE_ID_FOLDER, TRACE_PARENT_FOLDER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.agent import AgentInstance
    from repro.core.kernel import Kernel
    from repro.core.site import Site

__all__ = ["AgentContext", "wait_until_durable"]


def wait_until_durable(ctx: "AgentContext", mark: Optional[int] = None):
    """Generator helper: sleep until the site's durable state reaches *mark*.

    Captures the journal mark up front (defaulting to everything written so
    far by the time of the call), so later mutations by other agents cannot
    starve the caller, then loops on the store's barrier estimate — a batch
    can grow (and its sync lengthen) after being priced.  Use as::

        yield from wait_until_durable(ctx)

    A no-op under durability policy "none".
    """
    store = ctx.store
    if store is None:
        return
    if mark is None:
        mark = store.mutation_mark()
    delay = store.barrier(mark)
    while delay > 0:
        yield ctx.sleep(delay)
        delay = store.barrier(mark)


class AgentContext:
    """Everything an agent may touch while executing at a site."""

    def __init__(self, kernel: "Kernel", site: "Site", instance: "AgentInstance"):
        self._kernel = kernel
        self._site = site
        self._instance = instance

    @cached_property
    def rng(self) -> random.Random:
        """Deterministic per-agent stream derived from the kernel seed and the
        agent id, so repeated runs are reproducible.  Seeded on first use:
        most agents never draw, and a string seed costs a SHA-512."""
        return random.Random(
            f"{self._kernel.config.rng_seed}:{self._instance.agent_id}")

    # -- identity and environment -------------------------------------------------

    @property
    def agent_id(self) -> str:
        """Unique id of this agent instance."""
        return self._instance.agent_id

    @property
    def agent_name(self) -> str:
        """The (possibly well-known) name this instance runs under."""
        return self._instance.name

    @property
    def site_name(self) -> str:
        """Name of the site currently executing the agent."""
        return self._site.name

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._kernel.loop.now

    @property
    def briefcase(self) -> Briefcase:
        """The briefcase this instance was started with."""
        return self._instance.briefcase

    @property
    def is_system_agent(self) -> bool:
        """True if this instance runs with system-agent privileges."""
        return self._instance.system

    def sites(self) -> List[str]:
        """Names of every site in the system (the paper assumes a known site list)."""
        return self._kernel.site_names()

    def neighbors(self) -> List[str]:
        """Sites directly linked to the current site."""
        return self._kernel.topology.neighbors(self._site.name)

    def site_load(self) -> float:
        """Current load metric of the local site."""
        site = self._site
        return site.load_metric(site.resident_count())

    def resident_count(self) -> int:
        """How many active agents are resident at the local site (O(1), via
        the kernel's per-site index)."""
        return self._site.resident_count()

    # -- local storage -------------------------------------------------------------

    def cabinet(self, name: str = "default") -> FileCabinet:
        """The site-local file cabinet called *name* (created on first use)."""
        return self._site.cabinet(name)

    def has_cabinet(self, name: str) -> bool:
        """True if the site already has a cabinet called *name*."""
        return self._site.has_cabinet(name)

    @property
    def store(self):
        """The site's durable store, or None when durability is "none"."""
        return self._site.store

    @property
    def site_crash_count(self) -> int:
        """How many times the current site has crashed (the crash epoch).

        Lets agents tag site-local records with the epoch they were written
        in: a record from an older epoch may describe state that died with
        the crash (the ft visitor's done-markers use this to tell "the
        original is still here, alive" from "the computation died here").
        """
        return self._site.crash_count

    # -- logging and tracing -----------------------------------------------------------

    def log(self, message: str) -> None:
        """Append a line to the kernel's event log (visible to tests/benchmarks)."""
        self._kernel.log_event(self._instance.agent_id, self._site.name, message)

    @property
    def obs(self):
        """The kernel's tracer (repro.obs) — disabled unless ``obs_enabled``."""
        return self._kernel.obs

    @property
    def trace_id(self) -> Optional[str]:
        """This agent's trace id, or None when the itinerary is untraced."""
        return self._instance.briefcase.get(TRACE_ID_FOLDER)

    @property
    def trace_parent(self) -> Optional[str]:
        """The span id new child spans (and hops) should parent under."""
        return self._instance.briefcase.get(TRACE_PARENT_FOLDER)

    def set_trace_parent(self, span_id: str) -> None:
        """Re-point the causal parent carried in the briefcase.

        Layered protocols (the FT layer's per-hop spans) call this before
        a jump so everything at the next site parents under the hop span
        rather than the itinerary root.
        """
        self._instance.briefcase.set(TRACE_PARENT_FOLDER, span_id)

    def propagate_trace(self, briefcase: Briefcase) -> Briefcase:
        """Copy this agent's trace context into another briefcase.

        Meets hand the callee a *separate* briefcase, so causality does not
        flow into couriers (or other helpers) by itself; wrapping the
        request briefcase keeps the delivery on the sender's trace.
        Returns the briefcase for chaining; a no-op when untraced.
        """
        trace_id = self.trace_id
        if trace_id is not None:
            briefcase.set(TRACE_ID_FOLDER, trace_id)
            parent = self.trace_parent
            if parent is not None:
                briefcase.set(TRACE_PARENT_FOLDER, parent)
        return briefcase

    # -- syscall constructors ---------------------------------------------------------

    def meet(self, agent_name: str, briefcase: Optional[Briefcase] = None) -> Meet:
        """Meet the agent installed under *agent_name* at this site."""
        return Meet(agent_name, briefcase)

    def end_meet(self, value: Any = None) -> EndMeet:
        """Terminate the current meet, letting the caller resume."""
        return EndMeet(value)

    def sleep(self, duration: float) -> Sleep:
        """Suspend for *duration* simulated seconds."""
        return Sleep(duration)

    def spawn(self, behaviour: Any, briefcase: Optional[Briefcase] = None,
              name: Optional[str] = None) -> Spawn:
        """Start a new top-level agent at this site."""
        return Spawn(behaviour, briefcase, name)

    def terminate(self, result: Any = None) -> Terminate:
        """Finish this agent immediately."""
        return Terminate(result)

    def transmit(self, destination: str, contact: str, briefcase: Briefcase,
                 kind: str = "agent-transfer") -> Transmit:
        """Low-level network send — only permitted for system agents."""
        return Transmit(destination, contact, briefcase, kind)

    # -- the canonical migration idiom -------------------------------------------------

    def jump(self, briefcase: Briefcase, host: str, contact: str = "ag_py") -> Meet:
        """Meet ``rexec`` so that this agent's code and *briefcase* move to *host*.

        The returned syscall follows the paper exactly: a HOST folder names
        the destination, a CONTACT folder names the agent to execute there
        (``ag_py`` by default, which pops the CODE folder and runs it), and
        the CODE folder carries this agent's own code so a fresh copy starts
        at the destination.  The *current* instance keeps running at the
        current site after the meet with rexec returns.  When *host* is down
        or cut off the transfer is refused and the meet's ``value`` is falsy:
        an agent that then returns finishes as ``done`` and its briefcase is
        gone, so one that carries state must check ``result.value`` and wait,
        retry or fail (the mail letter retries from where it stands).

        The CODE element is described here, from the reference the agent was
        started from (``instance.code``: a name, a CODE element, or a
        callable), and replaces whatever CODE the briefcase held.  A callable
        registered under no name — never registered, or its name since
        rebound — raises :class:`~repro.core.errors.UnknownBehaviourError`
        and nothing is shipped.
        """
        briefcase.set("CODE", code_element_of(self._instance.code, self._kernel.registry))
        briefcase.set(HOST_FOLDER, host)
        briefcase.set(CONTACT_FOLDER, contact)
        return Meet("rexec", briefcase)

    def send_folder(self, folder: Folder, destination_site: str,
                    destination_agent: str, kind: Optional[str] = None) -> Meet:
        """Meet the courier to deliver *folder* to an agent on another site.

        *kind* optionally overrides the wire message kind (the courier
        defaults to ``folder-delivery``); monitors pass ``status`` so load
        reports coalesce in the delivery fabric alongside folder traffic.
        """
        request = Briefcase()
        request.add(folder.copy())
        request.set(HOST_FOLDER, destination_site)
        request.set(CONTACT_FOLDER, destination_agent)
        request.set("PAYLOAD_NAME", folder.name)
        if kind is not None:
            request.set("KIND", kind)
        if self._kernel.obs.active:
            self.propagate_trace(request)
        return Meet("courier", request)

    def __repr__(self) -> str:
        return (f"AgentContext(agent={self._instance.agent_id}, "
                f"site={self._site.name!r}, now={self.now:.4f})")
