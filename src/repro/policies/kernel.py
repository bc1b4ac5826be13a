"""Fused per-policy simulation kernels.

The object-path hot loop (:meth:`repro.sim.CacheSimulator.access_page`)
pays per reference for what is, algorithmically, a handful of dict and
heap operations: a clock method call, two or three policy-hook dispatches,
attribute lookups on the policy's bookkeeping structures, and the
observability guards. On a plain page-id stream none of that dispatch
carries information — the reference is a bare integer and the policy's
decision procedure is fixed for the whole run.

A *simulation kernel* removes the dispatch. A policy may override
:meth:`~repro.policies.base.ReplacementPolicy.make_kernel` to return a
closure that processes an **entire compact page-id trace** (the
``array('q')`` form of :class:`repro.sim.trace_cache.CachedTrace`) in one
fused loop with the policy's data structures bound to locals, stat
counters accumulated in plain ints, and no per-reference allocation.

The contract every kernel must honour:

- **Decision-identical.** Driving ``kernel(pages, warmup)`` from a fresh
  simulator produces the same hit/miss sequence, the same evictions, the
  same final policy state (residency, history, heap contents as a
  multiset, stats counters) as calling ``access_page(page)`` once per
  reference with ``start_measurement()`` at the warm-up boundary. This is
  property-tested in ``tests/sim/test_kernels.py``.
- **State-synchronizing.** On return the policy's own bookkeeping is
  exactly what the object path would have left behind, so introspection
  (``resident_pages``, history blocks, stats) and any further object-path
  driving work unchanged.
- **Observability-free.** Kernels never emit events and never record
  provenance. Drivers must bypass them whenever any observation channel
  is attached — event sinks, an ambient tracer, an eviction-decision
  provenance recorder, or the simulator's eviction log.
  :meth:`~repro.sim.cache.CacheSimulator.run_fused` enforces this and
  falls back to the object path.
- **Fresh-state only.** Factories return None when the policy already
  holds resident pages (a kernel cannot reconstruct mid-run driver
  state), or when the configuration has features the fused loop does not
  replicate — then the driver silently falls back.

``make_kernel(capacity)`` returns either ``None`` (no kernel for this
configuration) or a callable ``kernel(pages, warmup) -> KernelResult``.

Hit curves
----------

LRU is a *stack algorithm* (Mattson et al., "Evaluation techniques for
storage hierarchies", IBM Sys. J. 1970): at every instant, the pages a
buffer of ``c`` frames holds are the ``c`` most recently referenced
distinct pages, so a smaller buffer's contents are always a subset of a
larger one's. A reference hits at capacity ``c`` exactly when its *stack
distance* — one plus the number of distinct pages referenced since the
page's previous reference — is at most ``c``. :func:`lru_hit_curve`
measures every stack distance in one pass and so yields the
measurement-window hit count at every capacity at once
(:class:`HitCurve`), where a kernel yields it at one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..errors import ConfigurationError, NoEvictableFrameError
from ..types import PageId

__all__ = [
    "HitCurve",
    "KernelResult",
    "SimulationKernel",
    "lru_hit_curve",
    "make_clock_kernel",
    "make_fifo_kernel",
    "make_lru_kernel",
]

@dataclass
class KernelResult:
    """What a fused kernel hands back to the driving simulator.

    The driver folds these into its own counters and residency maps so
    the simulator object ends in the same externally visible state as an
    object-path run.
    """

    #: Hits/misses of the warm-up window (empty window: both zero).
    warmup_hits: int
    warmup_misses: int
    #: Hits/misses of the measurement window.
    hits: int
    misses: int
    #: Total evictions over both windows.
    evictions: int
    #: Surviving resident pages mapped to their admission times, in
    #: admission order — exactly the simulator's ``_admitted_at`` map.
    resident: Dict[PageId, int]
    #: Final logical time (= number of references processed).
    now: int


#: A fused trace runner: (compact page ids, warm-up length) -> result.
SimulationKernel = Callable[[Sequence[PageId], int], KernelResult]


def make_lru_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for classical LRU (the paper's LRU-1).

    The recency order *is* the policy's ``OrderedDict``: hits move to the
    MRU end, the victim is the first key. Everything runs on locals; the
    policy's structures are mutated in place so the final state matches
    the object path exactly.
    """
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        order = policy._order
        move_to_end = order.move_to_end
        admitted: Dict[PageId, int] = {}
        warmup_hits = warmup_misses = hits = misses = evictions = 0
        t = 0
        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                if page in order:
                    hits += 1
                    move_to_end(page)
                else:
                    misses += 1
                    if len(order) >= capacity:
                        victim = next(iter(order))
                        del order[victim]
                        del admitted[victim]
                        evictions += 1
                    order[page] = None
                    admitted[page] = t
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, t)

    return kernel


@dataclass(frozen=True)
class HitCurve:
    """Measurement-window hit counts of a stack algorithm at every capacity.

    ``cumulative[c]`` is the hit count at capacity ``c`` for ``c`` from 0
    up to the trace's distinct page count (capped at ``max_capacity``).
    No stack distance is deeper than that count, so a larger capacity
    hits no more often and :meth:`hits` keeps the last value for it.
    """

    #: References in the measurement window (hits + misses at any capacity).
    measured: int
    #: Largest capacity the curve answers for.
    max_capacity: int
    #: Hit counts at capacities 0, 1, ..., min(distinct pages, max_capacity).
    cumulative: Sequence[int]

    def hits(self, capacity: int) -> int:
        """Measurement-window hits of a ``capacity``-frame buffer."""
        if not 1 <= capacity <= self.max_capacity:
            raise ConfigurationError(
                f"capacity {capacity} outside the curve's range "
                f"1..{self.max_capacity}")
        deepest = len(self.cumulative) - 1
        return self.cumulative[capacity if capacity < deepest else deepest]

    def misses(self, capacity: int) -> int:
        """Measurement-window misses of a ``capacity``-frame buffer."""
        return self.measured - self.hits(capacity)


def lru_hit_curve(pages: Sequence[PageId], warmup: int,
                  max_capacity: int) -> HitCurve:
    """LRU's measurement-window hits at every capacity, in one pass.

    A Fenwick tree over reference times marks each page's most recent
    reference; the marks after a page's previous reference count the
    distinct pages referenced since, so its stack distance is that count
    plus one (first references have none: they miss at every capacity).
    Each reference after ``warmup`` adds to a histogram of distances,
    whose prefix sums are the hit counts. The pass costs O(n log n) for
    n references and O(n) memory, whatever ``max_capacity`` is.
    """
    if max_capacity < 1:
        raise ConfigurationError("max_capacity must be positive")
    size = len(pages)
    tree = [0] * (size + 1)
    last: Dict[PageId, int] = {}
    # histogram[d]: measured references at stack distance d. A distance
    # never exceeds the distinct pages seen, so it grows with them.
    histogram = [0]
    distinct = 0
    position = 0
    for page in pages:
        position += 1
        previous = last.get(page)
        if previous is None:
            distinct += 1
            histogram.append(0)
        else:
            # Marks at or before `previous` (its own included).
            index = previous
            before = 0
            while index:
                before += tree[index]
                index &= index - 1
            if position > warmup:
                histogram[distinct - before + 1] += 1
            index = previous
            while index <= size:
                tree[index] -= 1
                index += index & -index
        last[page] = position
        index = position
        while index <= size:
            tree[index] += 1
            index += index & -index
    depth = min(len(histogram) - 1, max_capacity)
    cumulative = [0] * (depth + 1)
    running = 0
    for distance in range(1, depth + 1):
        running += histogram[distance]
        cumulative[distance] = running
    return HitCurve(measured=max(0, size - warmup),
                    max_capacity=max_capacity, cumulative=cumulative)


def make_fifo_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for FIFO: admission order, hits change nothing."""
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        order = policy._order
        admitted: Dict[PageId, int] = {}
        warmup_hits = warmup_misses = hits = misses = evictions = 0
        t = 0
        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                if page in order:
                    hits += 1
                else:
                    misses += 1
                    if len(order) >= capacity:
                        victim = next(iter(order))
                        del order[victim]
                        del admitted[victim]
                        evictions += 1
                    order[page] = None
                    admitted[page] = t
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, t)

    return kernel


def make_clock_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for second-chance CLOCK.

    Inlines the ring sweep, tombstoning, and lazy compaction of
    :class:`repro.policies.clock._SweepBuffer`; the hand and the ring
    list live in locals and are flushed back on return.
    """
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        ring = policy._ring
        ring_pages = ring.pages
        slot_of = ring.slot_of
        hand = ring.hand
        referenced = policy._referenced
        admitted: Dict[PageId, int] = {}
        warmup_hits = warmup_misses = hits = misses = evictions = 0
        t = 0
        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                if page in referenced:
                    hits += 1
                    referenced[page] = True
                else:
                    misses += 1
                    if len(referenced) >= capacity:
                        victim = None
                        for _ in range(2 * len(ring_pages) + 1):
                            if not ring_pages:
                                break
                            hand %= len(ring_pages)
                            candidate = ring_pages[hand]
                            hand += 1
                            if candidate is None:
                                continue
                            if referenced[candidate]:
                                referenced[candidate] = False
                                continue
                            victim = candidate
                            break
                        if victim is None:
                            raise NoEvictableFrameError(
                                "CLOCK sweep found no evictable page")
                        ring_pages[slot_of.pop(victim)] = None
                        del referenced[victim]
                        del admitted[victim]
                        evictions += 1
                        # _SweepBuffer.compact_if_needed, inline.
                        if len(slot_of) * 2 < len(ring_pages):
                            ring_pages = [p for p in ring_pages
                                          if p is not None]
                            slot_of.clear()
                            for slot, p in enumerate(ring_pages):
                                slot_of[p] = slot
                            hand %= max(1, len(ring_pages))
                    slot_of[page] = len(ring_pages)
                    ring_pages.append(page)
                    referenced[page] = True
                    admitted[page] = t
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
        ring.pages = ring_pages
        ring.hand = hand
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, t)

    return kernel
