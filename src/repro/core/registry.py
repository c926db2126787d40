"""Behaviour registry: the name table for agent code.

The CONTACT folder of the paper "names the agent to be executed" at a site;
brokers are "ordinary agents whose names are well known".  The registry maps
those well-known names to Python behaviour callables so CODE folders can
reference behaviours by name instead of shipping source (shipping source is
also supported — see :mod:`repro.core.codec`).

A single process-wide default registry is provided because behaviour names
are global in TACOMA (every site knows what ``rexec`` means), but tests can
create private registries.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from repro.core.errors import UnknownBehaviourError

__all__ = ["BehaviourRegistry", "default_registry", "register_behaviour"]


class BehaviourRegistry:
    """A mapping from well-known behaviour names to callables.

    The reverse direction, :meth:`name_of`, is read only when an agent
    started from a callable jumps (``ctx.jump`` describes its code then), so
    it is a scan rather than a second index kept in step with every
    registration.
    """

    def __init__(self) -> None:
        self._behaviours: Dict[str, Callable] = {}

    def register(self, name: str, behaviour: Optional[Callable] = None,
                 replace: bool = False) -> Callable:
        """Register *behaviour* under *name*.

        Usable directly (``registry.register("rexec", rexec_behaviour)``) or
        as a decorator (``@registry.register("rexec")``).
        """
        if behaviour is None:
            def decorator(func: Callable) -> Callable:
                self.register(name, func, replace=replace)
                return func
            return decorator
        if name in self._behaviours and not replace and self._behaviours[name] is not behaviour:
            raise UnknownBehaviourError(
                f"behaviour name {name!r} is already registered to a different callable")
        self._behaviours[name] = behaviour
        return behaviour

    def resolve(self, name: str) -> Callable:
        """Return the behaviour registered under *name*."""
        try:
            return self._behaviours[name]
        except (KeyError, TypeError):  # TypeError: a shipped name that is not hashable
            raise UnknownBehaviourError(f"no behaviour registered under {name!r}") from None

    def name_of(self, behaviour: Callable) -> Optional[str]:
        """Reverse lookup: the first name *behaviour* is registered under, if any."""
        for name, registered in self._behaviours.items():
            if registered is behaviour:
                return name
        return None

    def unregister(self, name: str) -> None:
        """Remove a registration (silent for a name that has none)."""
        self._behaviours.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._behaviours

    def __iter__(self) -> Iterator[str]:
        return iter(self._behaviours)

    def __len__(self) -> int:
        return len(self._behaviours)

    def __repr__(self) -> str:
        return f"BehaviourRegistry({len(self._behaviours)} behaviours)"


#: the process-wide registry used by the codec and the kernel by default
_DEFAULT = BehaviourRegistry()


def default_registry() -> BehaviourRegistry:
    """The process-wide behaviour registry."""
    return _DEFAULT


def register_behaviour(name: str, behaviour: Optional[Callable] = None,
                       replace: bool = False) -> Callable:
    """Register a behaviour in the default registry (usable as a decorator)."""
    return _DEFAULT.register(name, behaviour, replace=replace)
