"""The per-site durable store: dirty tracking, group commit, crash, recovery.

One :class:`SiteStore` sits beside each :class:`~repro.core.site.Site`
when the kernel runs with a durable policy.  Cabinets opt in through
:meth:`make_durable`; their mutations (routed through the cabinet API)
mark folders dirty, and ``KernelConfig.durability`` — one of
:data:`~repro.core.kernel.DURABILITY` — decides when dirty state becomes durable:

* ``none`` — the legacy model: no store is built at all and cabinets
  survive crashes for free, kept as the explicit baseline experiments
  price the others against.
* ``wal-group-commit`` — the first dirty mutation arms a commit event
  ``commit_window`` simulated seconds out; when it fires, the dirty
  folders are captured into WAL redo records and become durable once the
  batched write (+ one fsync) completes.  A crash in that window loses the
  whole batch — that is the honesty the experiments measure.
* ``flush-on-demand`` — nothing is durable until :meth:`flush` runs; the
  flush returns the simulated delay the caller must sleep (agents use
  ``yield from wait_until_durable(ctx)``).

Write costs come from the shared flow-control layer: the disk is a
:class:`~repro.flow.CostModel` (per-record base + bytes-proportional term
+ one fsync per sync), so a commit's price scales with the payload bytes
its redo records carry, not just their count.  Commit *timing* is the
full ``commit_window``, except that a barrier always piggybacks: a pending
durability barrier (an agent blocked in ``wait_until_durable`` — e.g. the
FT layer's pre-jump checkpoint) ships the dirty batch immediately instead
of waiting out the window, since further coalescing only adds latency to
an agent that is already blocked.

Crash and recovery are driven by the kernel: :meth:`on_crash` discards all
volatile cabinet state (durable cabinets are rebuilt later, non-durable
ones are simply gone) and reports what was lost;
:meth:`begin_recovery`/:meth:`complete_recovery` model replaying snapshot
images + WAL with a delay proportional to the state replayed, during which
the site refuses traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.errors import StoreError
from repro.core.kernel import DURABILITY
from repro.store.policy import StoreCosts
from repro.store.snapshot import (CabinetImage, capture_cabinet, capture_folder,
                                  image_folder_count, restore_cabinet)
from repro.store.wal import WriteAheadLog, apply_states

if TYPE_CHECKING:  # a runtime import cycles back through repro.core.engine
    from repro.net.simclock import Event, EventLoop

__all__ = ["DURABILITY", "SiteStore"]


#: a captured folder state awaiting (or part of) a commit
Capture = Tuple[str, str, Optional[Tuple[bytes, ...]]]


class SiteStore:
    """Durable storage for one site's file cabinets."""

    def __init__(self, site, loop: "EventLoop", policy: str,
                 costs: StoreCosts, stats,
                 log_event: Optional[Callable[[str, str, str], None]] = None,
                 obs=None):
        if policy not in DURABILITY[1:]:
            raise StoreError(f"a SiteStore needs a durable policy, got "
                             f"{policy!r}; policy 'none' builds no stores")
        self.site = site
        self.loop = loop
        self.policy = policy
        #: dirty folders arm a group-commit event ``commit_window`` out;
        #: otherwise they wait for an explicit :meth:`flush`
        self.group_commit = policy == "wal-group-commit"
        self.costs = costs
        self.stats = stats
        self._log = log_event or (lambda agent, site_name, message: None)
        #: the owning kernel's tracer (repro.obs); None or disabled keeps
        #: the store span-free
        self.obs = obs
        self._obs_sync_span = None

        self.wal = WriteAheadLog()
        #: per-cabinet base images the WAL is compacted into
        self.images: Dict[str, CabinetImage] = {}
        #: cabinet names that opted into durability
        self.durable_cabinets: set = set()

        #: (cabinet, folder) pairs mutated since the last capture, in order
        self._dirty: Dict[Tuple[str, str], None] = {}
        self._commit_event: Optional["Event"] = None
        #: captures whose batched write+fsync is still in progress
        self._inflight: Optional[List[Capture]] = None
        #: the payload bytes those captures carry
        self._inflight_bytes = 0
        self._inflight_done_at = 0.0
        self._finalize_event: Optional["Event"] = None
        #: monotonic journal position: bumped per mutation; a capture
        #: records the position it covers, and _durable_through advances
        #: when its sync completes — the exact predicate behind barriers
        self._mutation_counter = 0
        self._inflight_through = 0
        self._durable_through = 0
        #: True while recovery rebuilds cabinets (suppresses journaling)
        self._restoring = False

        self.recovering = False
        self._recovery_token = 0
        self._recovery_delay = 0.0

    # ------------------------------------------------------------------
    # opt-in and journaling
    # ------------------------------------------------------------------

    def make_durable(self, cabinet_name: str) -> None:
        """Opt the named cabinet into durability.

        Contents present at opt-in time become the cabinet's base image
        (durable immediately, a setup-time courtesy); everything after
        that follows the policy.  The cabinet need not exist yet — a
        later ``site.cabinet(name)`` is adopted automatically.
        """
        if cabinet_name in self.durable_cabinets:
            return
        self.durable_cabinets.add(cabinet_name)
        if self.site.has_cabinet(cabinet_name):
            cabinet = self.site.cabinet(cabinet_name)
            self.adopt(cabinet)
            self.images[cabinet_name] = capture_cabinet(cabinet)
        else:
            self.images[cabinet_name] = {}

    def adopt(self, cabinet) -> None:
        """Attach the journaling hook to *cabinet* if it is durable."""
        if cabinet.name in self.durable_cabinets:
            name = cabinet.name
            cabinet.attach_store(lambda folder_name: self._on_mutation(name, folder_name))

    def _on_mutation(self, cabinet_name: str, folder_name: str) -> None:
        """A durable cabinet mutated: journal it per the policy."""
        if self._restoring:
            return
        self.stats.wal_appends += 1
        self._mutation_counter += 1
        self._dirty[(cabinet_name, folder_name)] = None
        if self.group_commit:
            self._arm_commit(self.costs.commit_window)

    @property
    def dirty_count(self) -> int:
        """(cabinet, folder) pairs whose durable image is stale (tests)."""
        return len(self._dirty) + (len(self._inflight) if self._inflight else 0)

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------

    def _capture_dirty(self) -> List[Capture]:
        """Freeze the current state of every dirty folder; clears the set."""
        captures: List[Capture] = []
        for cabinet_name, folder_name in self._dirty:
            elements: Optional[Tuple[bytes, ...]] = None
            if self.site.has_cabinet(cabinet_name):
                cabinet = self.site.cabinet(cabinet_name)
                if cabinet.has(folder_name):
                    elements = capture_folder(cabinet.folder(folder_name))
            captures.append((cabinet_name, folder_name, elements))
        self._dirty.clear()
        return captures

    @staticmethod
    def _captures_bytes(captures: List[Capture]) -> int:
        """Payload bytes the captured folder states carry (deletions are free)."""
        return sum(sum(map(len, elements))
                   for _, _, elements in captures if elements)

    def _dirty_bytes_estimate(self) -> int:
        """Payload bytes the dirty set would capture right now.

        Reads the live folders' raw (already serialized) elements, so the
        estimate is exact for the current state — though a batch can still
        grow or shrink before its commit actually captures it, which is why
        barrier callers loop.
        """
        total = 0
        for cabinet_name, folder_name in self._dirty:
            if self.site.has_cabinet(cabinet_name):
                cabinet = self.site.cabinet(cabinet_name)
                if cabinet.has(folder_name):
                    total += sum(map(len, cabinet.folder(folder_name).raw_elements()))
        return total

    @property
    def cost_model(self):
        """The disk's shared price model (per record, per byte, per fsync).

        Derived live from ``self.costs`` so tests swapping the cost table
        on a running store see their prices — and the commit window, which
        also lives on ``costs`` — take effect immediately.
        """
        return self.costs.wal_cost_model()

    def _write_cost(self, n_records: int, size_bytes: int = 0) -> float:
        """Simulated seconds to write *n_records* (*size_bytes* of payload)
        and fsync once — the shared cost model's pricing of the disk."""
        return self.cost_model.cost(items=n_records, size_bytes=size_bytes,
                                    syncs=1)

    def _arm_commit(self, delay: float) -> None:
        """Arm the group-commit event *delay* out (at most one armed at a time)."""
        if self._commit_event is None:
            self._commit_event = self.loop.schedule(
                delay, self._commit, label=("store-commit", self.site.name))

    def _rearm_commit(self, at: float) -> bool:
        """Pull the armed commit event forward to absolute time *at*.

        Used by barrier piggybacking when a sync is already on the disk:
        the dirty tail commits the moment the disk frees up instead of
        waiting out a fresh window.  Never pushes a commit later; returns
        whether the commit actually moved.
        """
        if self._commit_event is not None:
            if self._commit_event.time <= at + 1e-12:
                return False
            self._commit_event.cancel()
            self._commit_event = None
        self._arm_commit(max(0.0, at - self.loop.now))
        return True

    def _start_sync(self, captures: List[Capture]) -> float:
        """Begin the batched write+fsync for *captures*; returns its cost.

        The single place syncs are armed: the captures become durable only
        when :meth:`_finalize` runs, and they cover every mutation journaled
        up to now (``_inflight_through``).
        """
        size_bytes = self._captures_bytes(captures)
        cost = self._write_cost(len(captures), size_bytes)
        self._inflight = captures
        self._inflight_bytes = size_bytes
        self._inflight_through = self._mutation_counter
        self._inflight_done_at = self.loop.now + cost
        if self.obs is not None and self.obs.active:
            # One span per batched write+fsync on the site's store
            # pseudo-trace; finished (or dropped) by _finalize / on_crash.
            from repro.obs import infra_trace_id
            self._obs_sync_span = self.obs.begin(
                infra_trace_id("store", self.site.name), "wal-commit",
                self.obs.next_key(self.site.name), kind="store",
                site=self.site.name,
                attrs={"records": len(captures), "bytes": size_bytes})
        self._finalize_event = self.loop.schedule(
            cost, self._finalize, label=("store-fsync", self.site.name))
        return cost

    def _commit(self) -> None:
        """The armed group-commit fires: capture the batch, start the sync."""
        self._commit_event = None
        if self._inflight is not None:
            # The previous batch is still syncing (its write+fsync outlasted
            # the commit window): one sync at a time — defer this commit
            # until the in-flight one completes, never clobber it.
            self._arm_commit(max(0.0, self._inflight_done_at - self.loop.now))
            return
        captures = self._capture_dirty()
        if captures:
            self._start_sync(captures)

    def _finalize(self) -> None:
        """The batched write+fsync completed: the records are durable."""
        self._finalize_event = None
        captures = self._inflight
        if captures is None:  # crashed while syncing
            return
        self.wal.commit(captures, self._inflight_bytes)
        self._inflight = None
        if self._obs_sync_span is not None:
            self.obs.finish(self._obs_sync_span, status="committed")
            self._obs_sync_span = None
        self._durable_through = self._inflight_through
        self.stats.record_wal_commit(len(captures), self._inflight_bytes)
        self._maybe_compact()

    def flush(self) -> float:
        """Start making every pending mutation durable (explicit checkpoint).

        The dirty state is captured immediately and the batched write+fsync
        is scheduled; the batch is durable only once that completes, so a
        crash inside the flush window still loses it — the same crash model
        as a group commit.  Returns the simulated delay the caller should
        sleep to ride out the sync (loop on :meth:`barrier` to be robust
        against concurrent flushes re-batching the sync).

        A sync already on the disk is never cancelled or restarted — doing
        so would let sustained flush traffic starve durability forever.
        Instead the dirty tail is queued behind it (a follow-up commit at
        the in-flight sync's completion) and the returned delay covers both.
        """
        if self._inflight is not None:
            if self._dirty:
                self._arm_commit(max(0.0, self._inflight_done_at - self.loop.now))
            wait = max(0.0, self._inflight_done_at - self.loop.now)
            if self._dirty:
                wait += self._write_cost(len(self._dirty),
                                         self._dirty_bytes_estimate())
            return wait
        if self._commit_event is not None:
            self._commit_event.cancel()
            self._commit_event = None
        captures = self._capture_dirty()
        if not captures:
            return 0.0
        return self._start_sync(captures)

    def mutation_mark(self) -> int:
        """The journal position of the most recent mutation.

        ``barrier(mark)`` with this value waits for exactly the state
        written so far — later mutations by other agents cannot starve the
        caller, and re-batched syncs cannot silently outlive its sleep.
        """
        return self._mutation_counter

    def is_durable(self, mark: int) -> bool:
        """True once every mutation journaled up to *mark* is durable."""
        return mark <= self._durable_through

    def _piggyback_commit(self) -> None:
        """A durability barrier is pending: ship the dirty batch now.

        The barrier rides the group-commit mechanism instead of waiting for
        it — further coalescing only adds latency to an agent that is
        already blocked.  With the disk free, the armed window commit is
        cancelled and the capture+sync starts immediately; with a sync
        already in flight, the dirty tail is queued to commit the moment
        the disk frees up (one sync at a time, never clobbered).
        """
        if not self._dirty:
            return
        if self._inflight is not None:
            # Counted only when the tail commit genuinely moved forward —
            # a commit already due at (or before) the disk's completion
            # was not accelerated by this barrier.
            if self._rearm_commit(self._inflight_done_at):
                self.stats.wal_barrier_piggybacks += 1
            return
        if self._commit_event is not None:
            self._commit_event.cancel()
            self._commit_event = None
        self.stats.wal_barrier_piggybacks += 1
        self._start_sync(self._capture_dirty())

    def barrier(self, mark: Optional[int] = None) -> float:
        """Simulated seconds to sleep before state up to *mark* is durable.

        The returned delay is an estimate (a batch can grow — and its sync
        lengthen — after the estimate), so callers that must not outrun the
        store loop until it reaches 0::

            delay = store.barrier(mark)
            while delay > 0:
                yield ctx.sleep(delay)
                delay = store.barrier(mark)

        The loop converges in a bounded number of rounds: once the commit
        covering *mark* has fired, the next estimate is the exact time left
        on its write+fsync.  With no *mark*, everything pending right now
        is awaited.  Flush-on-demand policies start the flush themselves.

        Under ``wal-group-commit`` a barrier always piggybacks: one that
        would otherwise sit out the commit window triggers the commit
        immediately — the wait collapses to the batched write+fsync
        (``tests/unit/test_store.py::TestBarrier`` pins it).
        """
        if mark is None:
            mark = self._mutation_counter
        if self.is_durable(mark):
            return 0.0
        if self._inflight is not None and mark <= self._inflight_through:
            return max(0.0, self._inflight_done_at - self.loop.now)
        if not self.group_commit:
            # The mark is still sitting in the dirty set: flush it.
            return self.flush()
        self._piggyback_commit()
        if self._inflight is not None and mark <= self._inflight_through:
            return max(0.0, self._inflight_done_at - self.loop.now)
        candidates = []
        if self._inflight is not None:
            candidates.append(self._inflight_done_at)
        if self._commit_event is not None:
            candidates.append(self._commit_event.time
                              + self._write_cost(max(1, len(self._dirty)),
                                                 self._dirty_bytes_estimate()))
        if not candidates:
            return 0.0
        return max(0.0, max(candidates) - self.loop.now)

    def _maybe_compact(self) -> None:
        """Fold the WAL into the base images once it outgrows the threshold."""
        if len(self.wal) > self.costs.snapshot_threshold:
            folded = self.wal.fold_into(self.images)
            self.stats.record_store_snapshot(folded)

    # ------------------------------------------------------------------
    # crash and recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """The site crashed: discard everything that was not durable yet."""
        lost_records = len(self._dirty) + (len(self._inflight) if self._inflight else 0)
        # Un-flushed durable folders: dirty pairs plus anything captured
        # into a sync that never completed (dirtied-then-removed folders
        # count too — the deletion was just as un-durable).
        lost_durable = set(self._dirty)
        if self._inflight is not None:
            lost_durable.update((cabinet_name, folder_name)
                                for cabinet_name, folder_name, _ in self._inflight)
        volatile_folders = len(lost_durable)
        for cabinet in self.site.cabinets():
            if cabinet.name not in self.durable_cabinets:
                volatile_folders += sum(1 for folder in cabinet.folders() if folder)
        if self._commit_event is not None:
            self._commit_event.cancel()
            self._commit_event = None
        if self._finalize_event is not None:
            self._finalize_event.cancel()
            self._finalize_event = None
        if self._obs_sync_span is not None:
            # The sync died with the site: the span still tells the story.
            self.obs.finish(self._obs_sync_span, status="crashed", aborted=True)
            self._obs_sync_span = None
        self._dirty.clear()
        self._inflight = None
        if self.recovering:
            self.abort_recovery()
        for cabinet in self.site.cabinets():
            cabinet.clear()
        self.stats.record_state_lost(volatile_folders, lost_records)
        if volatile_folders or lost_records:
            self._log("kernel", self.site.name,
                      f"state lost: {volatile_folders} un-flushed folders and "
                      f"{lost_records} un-committed records discarded")

    def begin_recovery(self) -> Tuple[float, int]:
        """Start replaying: returns (modelled delay, a token guarding completion).

        The token is invalidated by :meth:`abort_recovery` (a crash during
        replay), so a stale completion callback becomes a no-op.
        """
        if self.recovering:
            raise StoreError(f"site {self.site.name!r} is already recovering")
        self.recovering = True
        replayed = image_folder_count(self.images) + len(self.wal)
        self._recovery_delay = (self.costs.recovery_base
                                + self.costs.replay_latency * replayed)
        return self._recovery_delay, self._recovery_token

    def recovery_valid(self, token: int) -> bool:
        """True when a completion scheduled with *token* should still run."""
        return self.recovering and token == self._recovery_token

    def abort_recovery(self) -> None:
        """A crash interrupted the replay; the durable image is untouched."""
        self.recovering = False
        self._recovery_token += 1

    def complete_recovery(self) -> int:
        """Rebuild every durable cabinet from snapshot + WAL; returns folders restored."""
        if not self.recovering:
            raise StoreError(f"site {self.site.name!r} has no recovery in progress")
        self.recovering = False
        self._recovery_token += 1
        merged = self.durable_state()
        expected = sum(len(merged.get(name, {})) for name in self.durable_cabinets)
        restored = 0
        self._restoring = True
        try:
            for cabinet_name in self.durable_cabinets:
                cabinet = self.site.cabinet(cabinet_name)
                restored += restore_cabinet(cabinet, merged.get(cabinet_name, {}))
        finally:
            self._restoring = False
        self.stats.record_recovery(self._recovery_delay, restored,
                                   folders_lost=max(0, expected - restored))
        return restored

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def durable_state(self) -> Dict[str, CabinetImage]:
        """The current durable image: base snapshots with the WAL applied."""
        merged: Dict[str, CabinetImage] = {name: dict(image)
                                           for name, image in self.images.items()}
        apply_states(self.wal.replay_states(), merged)
        return merged

    def __repr__(self) -> str:
        return (f"SiteStore({self.site.name!r}, policy={self.policy!r}, "
                f"{len(self.durable_cabinets)} durable cabinets, "
                f"{len(self.wal)} WAL records, {len(self._dirty)} dirty)")
