"""Served workloads: closed-loop fetch + unpin through the sharded manager.

Each request is one ``Session.fetch`` followed by ``Session.unpin``, timed
by the benchmark around both calls. Input streams are stored compactly
(an ``array`` of page ids plus a ``bytearray`` of write flags) so the
collector's work does not grow with the benchmark's own inputs.

One client thread replays one stream and alternates two tenants'
sessions, so every decision is deterministic. Two client threads were
tried for ``serve-zipf-hot`` and dropped: with two threads the cost of
handing the interpreter lock over depends on whether the host's other
core is idle, and identical runs read 29k or 71k requests per second and
a median latency of 41 to 59 us.
"""

from __future__ import annotations

import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .measure import HostSpeed
from .program import Program

#: Length of one measured segment between calibration slices.
SEGMENT_S = 0.1


@dataclass(frozen=True)
class ServeWorkload:
    """A served workload's shape."""

    name: str
    capacity: int
    shards: int
    quotas: Optional[Dict[str, int]]
    #: References generated for the stream (replayed cyclically).
    stream_length: int
    #: Requests after the pool is full before the decision checkpoint
    #: (``None``: replay a fixed prefix instead of filling the pool).
    after_full: Optional[int]
    #: Untimed requests when the pool is not to be filled.
    prefix: int = 0


SERVE_WORKLOADS = {
    # 46,600-page OLTP universe through 4,096 frames: about 56% of the
    # requests miss. (At 8,192 frames the hit ratio sits at 0.50, where
    # the median request flips between the hit and the miss mode.)
    # Quotas a little above half the pool make the tenants pay for their
    # own growth now and then (about a tenth of evictions), while LRU-2
    # picks the rest.
    "serve-oltp-full": ServeWorkload(
        "serve-oltp-full", capacity=4096, shards=2,
        quotas={"t0": 2052, "t1": 2052}, stream_length=100_000,
        after_full=2_000),
    # 1,000 Zipfian pages through 2,048 frames: after first touch every
    # request hits and nothing is evicted.
    "serve-zipf-hot": ServeWorkload(
        "serve-zipf-hot", capacity=2048, shards=2, quotas=None,
        stream_length=100_000, after_full=None, prefix=20_000),
}

TENANTS = ("t0", "t1")


class Lane:
    """The client's stream, position and per-request latency samples.

    Request ``i`` goes through session ``i mod len(sessions)``.
    """

    def __init__(self, sessions: Sequence, pages: Sequence[int],
                 writes: Optional[bytearray], read, write) -> None:
        self.sessions = list(sessions)
        self.pages = pages
        self.writes = writes
        self.read = read
        self.write = write
        self.position = 0
        self.requests = 0
        self.failed = 0
        self.busy_s = 0.0
        self.samples = array("d")

    def run(self, deadline: float = float("inf"),
            limit: Optional[int] = None) -> None:
        """Serve requests until ``deadline`` (perf_counter) or ``limit``."""
        pages, writes, sessions = self.pages, self.writes, self.sessions
        fetches = [session.fetch for session in sessions]
        unpins = [session.unpin for session in sessions]
        ways = len(sessions)
        read, write = self.read, self.write
        record = self.samples.append
        perf = time.perf_counter
        position, length = self.position, len(pages)
        served = 0
        request = self.requests
        began = perf()
        while limit is None or served < limit:
            page = pages[position]
            dirty = bool(writes[position]) if writes is not None else False
            way = request % ways
            start = perf()
            try:
                fetches[way](page, write if dirty else read)
                unpins[way](page, dirty)
            except Exception:  # a failed request is counted, not fatal
                if not self.failed:
                    traceback.print_exc(file=sys.stderr)
                self.failed += 1
            end = perf()
            record(end - start)
            served += 1
            request += 1
            position += 1
            if position == length:
                position = 0
            if end >= deadline:
                break
        self.position = position
        self.requests = request
        self.busy_s += perf() - began


def make_lane(program: Program, manager, workload: ServeWorkload,
              seed: int) -> Lane:
    """Generate the input stream and open the sessions."""
    kinds = program.AccessKind
    sessions = [manager.session(tenant) for tenant in TENANTS]
    if workload.name == "serve-oltp-full":
        pages = array("q")
        writes = bytearray()
        for reference in program.BankOLTPWorkload().references(
                workload.stream_length, seed=seed):
            pages.append(reference.page)
            writes.append(reference.kind is kinds.WRITE)
        return Lane(sessions, pages, writes, kinds.READ, kinds.WRITE)
    pages = program.ZipfianWorkload(n=1000).page_ids(
        workload.stream_length, seed=seed)
    return Lane(sessions, pages, None, kinds.READ, kinds.WRITE)


def shards_full(manager) -> bool:
    return all(len(shard.pool.resident_pages) == shard.pool.capacity
               for shard in manager.shards)


def fill(manager, lane: Lane, workload: ServeWorkload) -> None:
    """The untimed prefix: fill the pool (or replay a fixed prefix)."""
    if workload.after_full is None:
        lane.run(limit=workload.prefix)
        return
    while not shards_full(manager):
        lane.run(limit=256)
    lane.run(limit=workload.after_full)


@dataclass
class Decisions:
    """The manager's decision counts since it was built."""

    requests: int
    hits: int
    misses: int
    evictions: int
    dirty_evictions: int
    quota_evictions: int
    disk_reads: int
    disk_writes: int

    @classmethod
    def of(cls, manager) -> "Decisions":
        stats = manager.stats()
        accounts = manager.tenant_accounts().values()
        return cls(
            requests=stats.hits + stats.misses, hits=stats.hits,
            misses=stats.misses, evictions=stats.evictions,
            dirty_evictions=stats.dirty_evictions,
            quota_evictions=sum(account.quota_evictions
                                for account in accounts),
            disk_reads=sum(shard.pool.disk.stats.reads
                           for shard in manager.shards),
            disk_writes=sum(shard.pool.disk.stats.writes
                            for shard in manager.shards))

    def minus(self, earlier: "Decisions") -> "Decisions":
        return Decisions(**{name: getattr(self, name) - getattr(earlier, name)
                            for name in self.__dataclass_fields__})

    def oracle_view(self) -> Dict[str, int]:
        """The counts the output oracle records."""
        return {"requests": self.requests, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "dirty_evictions": self.dirty_evictions,
                "quota_evictions": self.quota_evictions}


@dataclass
class Window:
    """A measured window: time, work and normalized latency samples."""

    raw_s: float = 0.0
    ref_s: float = 0.0
    requests: int = 0
    failed: int = 0
    segments: int = 0
    latencies: array = field(default_factory=lambda: array("d"))


def measure_window(lane: Lane, speed: HostSpeed, seconds: float) -> Window:
    """Serve for ``seconds`` of raw wall time in calibrated segments.

    A calibration slice runs between segments; each segment's samples
    are scaled by the mean of the slices on either side of it.
    """
    window = Window()
    lane.samples = array("d")
    before = speed.slice()
    while window.raw_s < seconds:
        mark = len(lane.samples)
        start = time.perf_counter()
        lane.run(deadline=start + SEGMENT_S)
        raw = time.perf_counter() - start
        after = speed.slice()
        factor = speed.factor([before, after])
        before = after
        window.raw_s += raw
        window.ref_s += raw * factor
        window.segments += 1
        window.latencies.extend(value * factor
                                for value in lane.samples[mark:])
    window.requests = len(window.latencies)
    window.failed = lane.failed
    return window


def guard_failures(workload: ServeWorkload, full_at_start: bool,
                   window: Decisions) -> List[str]:
    """The workload-property guards that do not hold, as messages."""
    failures = []
    if workload.after_full is not None:
        if not full_at_start:
            failures.append("a shard was not full when measurement began")
        for name in ("evictions", "dirty_evictions", "quota_evictions"):
            if getattr(window, name) <= 0:
                failures.append(f"no {name.replace('_', ' ')} in the window")
    elif window.evictions != 0:
        failures.append(f"{window.evictions} evictions in the window")
    return failures
