"""Assignment policies used by broker agents (paper section 4).

"Brokers are expected to communicate among themselves and with the service
providers, so that requests can be distributed amongst service providers
based on load and capacity."  A policy is a pure function that, given the
candidate providers and what the broker currently believes about site load,
picks one provider.  Keeping policies pure makes them trivially unit- and
property-testable, and lets one workload be run under each of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.errors import NoProviderError, SchedulingError

__all__ = [
    "ProviderInfo", "LoadEstimate", "Policy",
    "LeastLoadedPolicy", "RandomPolicy", "RoundRobinPolicy", "WeightedCapacityPolicy",
    "make_policy", "POLICY_NAMES", "jains_fairness",
]


@dataclass(frozen=True)
class ProviderInfo:
    """One registered service provider as the broker's database records it."""

    service: str
    site: str
    agent_name: str
    #: relative capacity declared at registration time (bigger = faster)
    capacity: float = 1.0
    #: price per request, used by commerce-aware workloads (0 = free)
    price: int = 0

    def key(self) -> str:
        """Stable identity of the provider inside the broker database."""
        return f"{self.service}@{self.site}/{self.agent_name}"


@dataclass
class LoadEstimate:
    """What a broker currently believes about one site's load."""

    site: str
    load: float
    reported_at: float
    #: how many requests this broker has assigned there since the last report
    assigned_since_report: int = 0
    #: raw resident-agent headcount the monitor sampled with the report
    #: (0 for reports from monitors that predate the per-site index)
    residents: int = 0

    def effective_load(self) -> float:
        """Reported load plus the requests routed there since the report.

        Counting our own assignments keeps a single broker from dog-piling
        one provider in between two monitor reports.
        """
        return self.load + self.assigned_since_report


class Policy:
    """Base class for provider-selection policies."""

    #: symbolic name used in benchmark tables
    name = "abstract"

    def choose(self, providers: Sequence[ProviderInfo],
               loads: Dict[str, LoadEstimate],
               rng: Optional[random.Random] = None) -> ProviderInfo:
        """Pick one provider from *providers* (non-empty)."""
        raise NotImplementedError

    def _require(self, providers: Sequence[ProviderInfo]) -> None:
        if not providers:
            raise NoProviderError("no providers registered for the requested service")


class LeastLoadedPolicy(Policy):
    """Send the request to the provider whose site looks least loaded.

    Load is the monitor-reported load normalised by the provider's declared
    capacity; ties break deterministically on the provider key so runs are
    reproducible.
    """

    name = "least-loaded"

    def choose(self, providers: Sequence[ProviderInfo],
               loads: Dict[str, LoadEstimate],
               rng: Optional[random.Random] = None) -> ProviderInfo:
        self._require(providers)

        def score(provider: ProviderInfo) -> tuple:
            estimate = loads.get(provider.site)
            load = estimate.effective_load() if estimate is not None else 0.0
            capacity = provider.capacity if provider.capacity > 0 else 1e-9
            return (load / capacity, provider.key())

        return min(providers, key=score)


class RandomPolicy(Policy):
    """Uniform random choice — the paper's strawman for comparison."""

    name = "random"

    def choose(self, providers: Sequence[ProviderInfo],
               loads: Dict[str, LoadEstimate],
               rng: Optional[random.Random] = None) -> ProviderInfo:
        self._require(providers)
        rng = rng or random.Random()
        return rng.choice(list(providers))


class RoundRobinPolicy(Policy):
    """Cycle through providers in registration order, ignoring load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next_index: Dict[str, int] = {}

    def choose(self, providers: Sequence[ProviderInfo],
               loads: Dict[str, LoadEstimate],
               rng: Optional[random.Random] = None) -> ProviderInfo:
        self._require(providers)
        ordered = sorted(providers, key=lambda provider: provider.key())
        service = ordered[0].service
        index = self._next_index.get(service, 0) % len(ordered)
        self._next_index[service] = index + 1
        return ordered[index]


class WeightedCapacityPolicy(Policy):
    """Random choice weighted by declared capacity (load-oblivious but capacity-aware)."""

    name = "weighted-capacity"

    def choose(self, providers: Sequence[ProviderInfo],
               loads: Dict[str, LoadEstimate],
               rng: Optional[random.Random] = None) -> ProviderInfo:
        self._require(providers)
        rng = rng or random.Random()
        weights = [max(provider.capacity, 1e-9) for provider in providers]
        total = sum(weights)
        pick = rng.uniform(0.0, total)
        cumulative = 0.0
        for provider, weight in zip(providers, weights):
            cumulative += weight
            if pick <= cumulative:
                return provider
        return providers[-1]


#: every assignment policy, by name
POLICY_NAMES = ("least-loaded", "random", "round-robin", "weighted-capacity")


def make_policy(name: str) -> Policy:
    """Build a policy instance from its symbolic name."""
    table = {
        "least-loaded": LeastLoadedPolicy,
        "random": RandomPolicy,
        "round-robin": RoundRobinPolicy,
        "weighted-capacity": WeightedCapacityPolicy,
    }
    try:
        return table[name]()
    except KeyError:
        raise SchedulingError(
            f"unknown policy {name!r}; choose from {sorted(table)}") from None


def jains_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index of a load distribution (1.0 = perfectly even).

    How evenly a policy spread the work: ``examples/load_balancing.py``
    reads it per policy from the providers' job counts.
    """
    data = [float(value) for value in values]
    scale = max((abs(value) for value in data), default=0.0)
    if scale == 0:
        return 1.0
    # The index is scale-invariant; normalising keeps the squares out of
    # the subnormal range, where underflow can push the ratio above 1.
    data = [value / scale for value in data]
    return sum(data) ** 2 / (len(data) * sum(value * value for value in data))
