"""Unified flow control and cost modelling (the scarce-resource layer).

The paper treats the network and the disk as the two scarce resources an
agent system must schedule around; before this package the reproduction
priced them with three disconnected ad-hoc models — the delivery fabric's
global batch window, the WAL's flat per-record group commit, and
setup-delay arithmetic scattered through the transports.  ``repro.flow``
is the shared layer all of them now consume:

* :class:`CostModel` — one linear price for using a scarce resource:
  a per-item base latency, a bytes-proportional term, and a per-sync cost
  (an fsync, a connection handshake, an rsh fork).  The transports price
  ``setup_delay`` with it and the WAL prices group commits with it, so
  "what does a byte cost" has exactly one definition per resource.
* :class:`RateEstimator` — an EWMA estimator of per-destination message
  and byte arrival rates, fed from live outbox traffic.  Its smoothing
  factor is the constant :data:`EWMA_ALPHA`.
* :class:`FlowController` — per-(source, destination) adaptive batch
  windows derived from those rates: a hot pair fills a batch quickly and
  gets a tight window (bounded latency, still big batches), a trickle
  pair gets a wide one (it needs the time to coalesce anything at all).
  The delivery fabric (:mod:`repro.net.transport`) asks it for every
  outbox's window instead of using one global knob.

The disk-side twin of the flush window — the store's group-commit window,
and the pending durability barrier that always cuts it short — lives with
the store (:meth:`repro.store.SiteStore.barrier`).

Nothing in here knows about messages, cabinets or sites: the layer is
pure rates, windows and prices, which is what lets the net and store
layers share it.
"""

from repro.flow.controller import FlowController, FlowState
from repro.flow.cost import CostModel
from repro.flow.rates import EWMA_ALPHA, RateEstimator

__all__ = [
    "CostModel",
    "RateEstimator", "EWMA_ALPHA",
    "FlowController", "FlowState",
]
