"""Unit tests for repro.core.registry.BehaviourRegistry."""

from __future__ import annotations

import pytest

from repro.core.errors import UnknownBehaviourError
from repro.core.registry import BehaviourRegistry, default_registry, register_behaviour


def behaviour_a(ctx, bc):
    yield None


def behaviour_b(ctx, bc):
    yield None


class TestRegistry:
    def test_register_and_resolve(self):
        registry = BehaviourRegistry()
        registry.register("a", behaviour_a)
        assert registry.resolve("a") is behaviour_a

    def test_resolve_unknown_raises(self):
        with pytest.raises(UnknownBehaviourError):
            BehaviourRegistry().resolve("ghost")

    def test_register_same_callable_twice_is_ok(self):
        registry = BehaviourRegistry()
        registry.register("a", behaviour_a)
        registry.register("a", behaviour_a)
        assert len(registry) == 1

    def test_register_conflicting_callable_raises(self):
        registry = BehaviourRegistry()
        registry.register("a", behaviour_a)
        with pytest.raises(UnknownBehaviourError):
            registry.register("a", behaviour_b)

    def test_register_conflicting_with_replace(self):
        registry = BehaviourRegistry()
        registry.register("a", behaviour_a)
        registry.register("a", behaviour_b, replace=True)
        assert registry.resolve("a") is behaviour_b

    def test_register_as_decorator(self):
        registry = BehaviourRegistry()

        @registry.register("decorated")
        def decorated(ctx, bc):
            yield None

        assert registry.resolve("decorated") is decorated

    def test_name_of_reverse_lookup(self):
        registry = BehaviourRegistry()
        registry.register("a", behaviour_a)
        assert registry.name_of(behaviour_a) == "a"
        assert registry.name_of(behaviour_b) is None

    def test_unregister(self):
        registry = BehaviourRegistry()
        registry.register("a", behaviour_a)
        registry.unregister("a")
        assert "a" not in registry
        registry.unregister("a")  # silent for missing names

    def test_contains_iter_len(self):
        registry = BehaviourRegistry()
        registry.register("a", behaviour_a)
        registry.register("b", behaviour_b)
        assert "a" in registry
        assert sorted(registry) == ["a", "b"]
        assert len(registry) == 2


class TestDefaultRegistry:
    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()

    def test_module_level_helpers_use_default_registry(self):
        register_behaviour("test_registry_helper", behaviour_a, replace=True)
        assert default_registry().resolve("test_registry_helper") is behaviour_a
        default_registry().unregister("test_registry_helper")

    def test_a_kernel_keeps_an_empty_private_registry(self):
        # An empty registry is falsy (it has a length): it must still be used.
        from repro.core import Kernel
        from repro.net import lan
        registry = BehaviourRegistry()
        kernel = Kernel(lan(["a", "b"]), registry=registry)
        assert kernel.registry is registry
        assert all(engine.registry is registry for engine in kernel.engines)

    def test_standard_agents_are_pre_registered(self):
        # Importing repro.sysagents registers the well-known names.
        import repro.sysagents  # noqa: F401
        for name in ("rexec", "ag_py", "courier", "diffusion"):
            assert name in default_registry()
