"""Code and state shipping: how agents travel as data.

Paper section 2: an agent moves by meeting ``rexec`` with a briefcase whose
CODE folder contains "the source code for the agent that originally met
with rexec ... this scheme allows an agent to move to a destination site
having a completely different machine language."

Two CODE representations are supported:

``registered``
    The CODE element names a behaviour in the
    :mod:`~repro.core.registry`.  This is the common fast path (every site
    "has the binary").

``source``
    The CODE element carries Python source text plus the name of the entry
    function.  The destination compiles it with :func:`compile`/``exec`` in
    a fresh namespace — the analogue of the destination Tcl interpreter
    evaluating shipped script text, and the demonstration of the
    "different machine language" property.

Nothing is serialised to move a briefcase: a message carries
:meth:`~repro.core.briefcase.Briefcase.snapshot` (the sender's stored elements,
shared) and :func:`receive_briefcase` builds the receiver's own from it.  A
process shard pickles the snapshot together with its message.  The network is
charged the briefcase's size model, never a carrier's length.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.briefcase import Briefcase
from repro.core.errors import (CodecError, CodeCompilationError, TacomaError,
                               UnknownBehaviourError)
from repro.core.registry import BehaviourRegistry, default_registry

__all__ = [
    "code_for", "code_from_source", "behaviour_from_code", "code_element_of",
    "receive_briefcase", "wire_size_of",
]


# ---------------------------------------------------------------------------
# CODE elements
# ---------------------------------------------------------------------------

def code_for(behaviour_name: str) -> Dict[str, str]:
    """A CODE element referencing a registered behaviour by name."""
    return {"kind": "registered", "name": behaviour_name}


def code_from_source(source: str, entry: str = "agent_main") -> Dict[str, str]:
    """A CODE element carrying Python source; *entry* is the behaviour function name."""
    if entry not in source:
        raise CodecError(f"entry point {entry!r} does not appear in the supplied source")
    return {"kind": "source", "source": source, "entry": entry}


def code_element_of(behaviour: Any,
                    registry: Optional[BehaviourRegistry] = None) -> Dict[str, str]:
    """The CODE element describing *behaviour*, a fresh dict.

    Accepts a behaviour name, an already-built CODE element, or a callable
    that is registered in *registry* (default registry if omitted); a
    callable registered under no name raises :class:`UnknownBehaviourError`.
    ``ctx.jump`` calls this once per jump on the reference the agent was
    started from.
    """
    if registry is None:
        registry = default_registry()
    if isinstance(behaviour, str):
        return code_for(behaviour)
    if isinstance(behaviour, dict) and "kind" in behaviour:
        return dict(behaviour)
    if callable(behaviour):
        name = registry.name_of(behaviour)
        if name is not None:
            return code_for(name)
        raise UnknownBehaviourError(
            f"behaviour {behaviour!r} is not registered; register it or ship source")
    raise CodecError(f"cannot derive a CODE element from {behaviour!r}")


def behaviour_from_code(code_element: Dict[str, Any],
                        registry: Optional[BehaviourRegistry] = None) -> Callable:
    """Turn a CODE element back into an executable behaviour.

    ``registered`` elements are looked up in the registry; ``source``
    elements are compiled in a fresh namespace that already has the standard
    builtins — matching a fresh Tcl interpreter evaluating shipped script.
    Anything else — an element that is not a mapping, a ``registered`` one
    without a name — raises :class:`CodecError`.
    """
    if registry is None:
        registry = default_registry()
    try:
        kind = code_element.get("kind")
    except AttributeError:
        raise CodecError(f"a CODE element is a mapping, not {code_element!r}") from None
    if kind == "registered":
        try:
            name = code_element["name"]
        except KeyError:
            raise CodecError(f"registered CODE element without a name: {code_element!r}") \
                from None
        return registry.resolve(name)
    if kind == "source":
        source = code_element.get("source", "")
        entry = code_element.get("entry", "agent_main")
        namespace: Dict[str, Any] = {}
        try:
            compiled = compile(source, filename="<shipped-agent>", mode="exec")
            exec(compiled, namespace)  # noqa: S102 - this *is* the mobile-code feature
        except SyntaxError as exc:
            raise CodeCompilationError(f"shipped source failed to compile: {exc}") from exc
        except Exception as exc:
            raise CodeCompilationError(f"shipped source failed to execute: {exc}") from exc
        behaviour = namespace.get(entry)
        if behaviour is None or not callable(behaviour):
            raise CodeCompilationError(
                f"shipped source does not define a callable entry point {entry!r}")
        return behaviour
    raise CodecError(f"unknown CODE element kind {kind!r}")


# ---------------------------------------------------------------------------
# Carried briefcases
# ---------------------------------------------------------------------------

def receive_briefcase(carried: Any) -> Briefcase:
    """The receiver's own briefcase from the :meth:`~Briefcase.snapshot` a
    message *carried* (one may be delivered twice: only elements are shared),
    validated: names, duplicates, element types.  Anything but a briefcase
    raises :class:`CodecError`."""
    if type(carried) is not Briefcase:
        raise CodecError(
            f"carried briefcase is a {type(carried).__name__}, not a Briefcase")
    try:
        return Briefcase.from_stored_items(carried.stored_items())
    except (TacomaError, TypeError, ValueError) as exc:
        raise CodecError(f"briefcase payload is malformed: {exc}") from exc


def wire_size_of(briefcase: Briefcase) -> int:
    """Bytes charged to the network for shipping *briefcase*.

    Uses the briefcase's own size model (framing plus element bytes) rather
    than the pickle length so the bandwidth accounting is deterministic and
    independent of pickle version details.
    """
    return briefcase.wire_size()
