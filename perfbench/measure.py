"""Timing primitives: host-speed calibration, percentiles, process figures.

The benchmark runs on shared machines whose speed drifts by a factor of
up to 1.6 over minutes (other tenants on the same cores). Raw wall time
measured at different moments is therefore not comparable. Every timed
phase is interleaved with short *calibration slices*: a fixed pure-Python
kernel, written here and independent of the program under test, whose
running time tracks the host's current speed. A phase's time is reported
in *reference seconds*: the raw time, excluding the slices, scaled by
``NOMINAL_SLICE_S / mean slice time``. On a host running at the nominal
speed, reference seconds equal wall seconds.

Single-threaded phases are sampled by ``SIGALRM`` (:class:`SampledPhase`),
so the program code runs unmodified between slices. Served request loops
slice cooperatively between segments (:meth:`HostSpeed.slice`), so a slice
never lands inside a timed request.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import resource
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: Mean calibration-slice time on the host the constant was taken on
#: (2 vCPU cloud VM, Python 3.11). Only a unit: it scales every reported
#: time by the same constant and never changes a comparison.
NOMINAL_SLICE_S = 0.0025

#: Operations per calibration slice (about 2.5 ms at nominal speed).
SLICE_OPS = 1500

#: Seconds between calibration slices inside a timed phase.
SLICE_INTERVAL_S = 0.1


class _Entry:
    __slots__ = ("key", "stamp")

    def __init__(self, key: int, stamp: int) -> None:
        self.key = key
        self.stamp = stamp


def calibration_kernel(ops: int = SLICE_OPS) -> int:
    """A fixed mix of dict, ordered-dict, heap, attribute and small-object
    work, resembling an interpreted buffer simulation. Returns a checksum
    so the work cannot be skipped."""
    table = {}
    recency: "OrderedDict[int, None]" = OrderedDict()
    touch = recency.move_to_end
    heap: List[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    state = 12345
    for step in range(ops):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 1500
        entry = table.get(key)
        if entry is None:
            table[key] = _Entry(key, step)
            recency[key] = None
            if len(recency) > 700:
                old, _ = recency.popitem(last=False)
                del table[old]
        else:
            entry.stamp = step
            touch(key)
        push(heap, (step - (state & 63), key))
        if len(heap) > 256:
            pop(heap)
    return len(table) + len(heap)


class HostSpeed:
    """Runs calibration slices and turns raw seconds into reference seconds."""

    def __init__(self, nominal: float = NOMINAL_SLICE_S,
                 ops: int = SLICE_OPS) -> None:
        self.nominal = nominal
        self.ops = ops

    def slice(self) -> float:
        """One calibration slice; its wall time in seconds.

        The collector is paused for the slice so a collection the program
        owes is not charged to the host's speed.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_kernel(self.ops)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def factor(self, slices: Sequence[float]) -> float:
        """Reference seconds per raw second, given the slices of a phase.

        Uses the mean slice: slices are evenly spaced in time, so the
        mean weighs the host's fast and slow spells by their length (the
        median, tried too, tracked table regenerations 4x worse).
        """
        if not slices:
            raise ValueError("a timed phase needs at least one slice")
        return self.nominal / (sum(slices) / len(slices))

    def bracket(self, function: Callable[[], object],
                slices: int = 5) -> Tuple[float, float, object]:
        """Run ``function`` between two bursts of slices, none inside it.

        Returns ``(raw seconds, factor, result)``. For phases that must
        not be interrupted (the traced run, whose spans would absorb a
        slice), at the cost of a coarser speed estimate.
        """
        before = [self.slice() for _ in range(slices)]
        start = time.perf_counter()
        result = function()
        raw = time.perf_counter() - start
        after = [self.slice() for _ in range(slices)]
        return raw, self.factor(before + after), result

    def sampled(self, interval: float = SLICE_INTERVAL_S) -> "SampledPhase":
        """A context manager timing a single-threaded phase."""
        return SampledPhase(self, interval)


@dataclass
class SampledPhase:
    """Times one single-threaded phase with ``SIGALRM`` calibration slices.

    Use as ``with speed.sampled() as phase: ...``; afterwards ``raw_s`` is
    the phase's wall time excluding slices and ``ref_s`` its time in
    reference seconds. Must run on the main thread.
    """

    speed: HostSpeed
    interval: float
    slices: List[float] = field(default_factory=list)
    raw_s: float = 0.0
    ref_s: float = 0.0
    _paused: float = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.slices.append(self.speed.slice())
        self._paused += time.perf_counter() - start

    def __enter__(self) -> "SampledPhase":
        self.slices.append(self.speed.slice())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slices.append(self.speed.slice())
        self.raw_s = end - self._start - self._paused
        self.ref_s = self.raw_s * self.speed.factor(self.slices)

    @property
    def factor(self) -> float:
        """Reference seconds per raw second over this phase."""
        return self.speed.factor(self.slices)

    def clock(self) -> float:
        """``perf_counter`` with the slices taken so far cut out.

        Span timestamps read from this clock exclude every slice that
        lands inside a span.
        """
        while True:
            paused = self._paused
            now = time.perf_counter()
            if paused == self._paused:  # no slice ran in between
                return now - paused


def percentile(samples: Sequence[float], q: float,
               presorted: bool = False) -> float:
    """Exact ``q``-quantile (0 <= q <= 1) of ``samples`` by linear
    interpolation between the two closest ranks."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = samples if presorted else sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class LatencySummary:
    """Exact percentiles of a set of latency samples, with their count."""

    count: int
    p50: float
    p99: float
    p999: float
    #: Samples strictly above p99: the guide asks for at least ten.
    beyond_p99: int

    @classmethod
    def of(cls, samples: Sequence[float]) -> "LatencySummary":
        ordered = sorted(samples)
        p99 = percentile(ordered, 0.99, presorted=True)
        return cls(count=len(ordered),
                   p50=percentile(ordered, 0.50, presorted=True),
                   p99=p99, p999=percentile(ordered, 0.999, presorted=True),
                   beyond_p99=len(ordered) - bisect.bisect_right(ordered, p99))


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcMonitor:
    """Counts collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)
