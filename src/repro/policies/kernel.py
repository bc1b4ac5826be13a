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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..errors import NoEvictableFrameError
from ..types import PageId

__all__ = [
    "KernelResult",
    "SimulationKernel",
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
