"""The traced run: spans at each layer boundary, recorded from outside.

The program is not modified and ``repro.obs`` tracing is never switched
on (``CacheSimulator.run_fused`` declines whenever a tracer or sink is
active, so switching it on would measure a different engine). Instead the
traced run replaces the public functions at each layer boundary with
wrappers that open and close a span. Spans live in arrays in
memory and are written out (gzip-compressed columnar JSON) when the run
ends. A layer's *self time* is the time its spans cover minus the time
their child spans cover, so the self times of all layers add up to the
time covered by root spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .program import Program


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner, name: str, value) -> None:
        namespace = getattr(owner, "__dict__", None)
        if namespace is not None and name in namespace:
            original = namespace[name]
            self._undo.append(lambda: setattr(owner, name, original))
        elif namespace is not None:
            # Shadows a class attribute: removing the shadow restores it.
            self._undo.append(lambda: delattr(owner, name))
        else:  # an instance with __slots__
            original = getattr(owner, name)
            self._undo.append(lambda: setattr(owner, name, original))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.undo()


class Recorder:
    """Named layers and the spans recorded under them, in parallel arrays.

    The benchmark drives the program from one thread, so one span stack
    suffices. ``clock`` reads the time; a timed phase that pauses for
    calibration slices supplies one that leaves the pauses out.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layers = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = []
        self._child: List[float] = []
        self._self_s: Dict[int, float] = defaultdict(float)
        self._total_s: Dict[int, float] = defaultdict(float)
        self._counts: Dict[int, int] = defaultdict(int)

    def layer(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, layer: int) -> int:
        """Start a span under the innermost open one; its index."""
        index = len(self.layers)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> float:
        """End the innermost open span; its duration."""
        end = self.clock()
        self.ends[index] = end
        duration = end - self.starts[index]
        self._stack.pop()
        self._account(self.layers[index], duration, self._child.pop())
        return duration

    def leaf(self, layer: int, start: float, end: float) -> None:
        """Record a finished span with no children under the open one."""
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(start)
        self.ends.append(end)
        self._account(layer, end - start, 0.0)

    def _account(self, layer: int, duration: float, children: float) -> None:
        self._self_s[layer] += duration - children
        self._total_s[layer] += duration
        self._counts[layer] += 1
        if self._child:
            self._child[-1] += duration

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span of ``name``."""
        layer = self.layer(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def self_s(self, name: str) -> float:
        """Raw seconds in ``name``'s spans outside their child spans."""
        return self._self_s.get(self._ids.get(name), 0.0)

    def total_s(self, name: str) -> float:
        """Raw seconds covered by ``name``'s spans (children included)."""
        return self._total_s.get(self._ids.get(name), 0.0)

    def count(self, name: str) -> int:
        return self._counts.get(self._ids.get(name), 0)

    def total_self_s(self, exclude: tuple = ()) -> float:
        return sum(self.self_s(name) for name in self.names
                   if name not in exclude)

    @property
    def spans(self) -> int:
        return len(self.layers)

    def write(self, path: Path) -> None:
        """Write every span, gzip-compressed, in columnar JSON.

        ``start_us`` is relative to the earliest span; ``parent`` indexes
        the same arrays (-1: a root span).
        """
        origin = min(self.starts, default=0.0)
        spans = {
            "names": self.names,
            "layer": list(self.layers),
            "start_us": [round((start - origin) * 1e6, 1)
                         for start in self.starts],
            "dur_us": [round((end - start) * 1e6, 1)
                       for start, end in zip(self.starts, self.ends)],
            "parent": list(self.parents),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(spans, out)


# -- tables ------------------------------------------------------------------


class TableProbe:
    """Engine and per-column attribution for a traced table regeneration."""

    def __init__(self) -> None:
        self.fused_runs = 0
        self.object_runs = 0
        self.fused_s = 0.0
        self.object_s = 0.0
        self.fused_refs = 0
        self.object_refs = 0
        self.generated_refs = 0
        self.label_s: Dict[str, float] = defaultdict(float)
        self._label: Optional[str] = None
        self._fused_now = False


#: Root layer of a traced table regeneration (``run_experiment``).
TABLE_ROOT = "experiment"


def trace_tables(program: Program, recorder: Recorder,
                 patches: Patches) -> TableProbe:
    """Wrap the table path's layer boundaries.

    Layers: ``sweep`` (``sweep_buffer_sizes`` and the grid engine under
    it), ``sweep.run`` / ``equi.run`` (``run_paper_protocol`` called by
    the sweep and by the equi-effective search), ``equi.search``
    (``equi_effective_buffer_size``), ``workloads``
    (``CachedTrace.materialize``), ``cache.object`` (``measure_hit_ratio``,
    which drives the per-reference object path when no kernel plays the
    run) and ``cache.fused`` (``CacheSimulator.run_fused``).
    """
    probe = TableProbe()
    experiment, parallel = program.experiment, program.parallel

    def protocol(name: str, function: Callable) -> Callable:
        layer = recorder.layer(name)

        def traced(workload, spec, *args, **kwargs):
            index = recorder.open(layer)
            probe._label = spec.label
            try:
                return function(workload, spec, *args, **kwargs)
            finally:
                recorder.close(index)
        return traced

    measure = program.runner.measure_hit_ratio
    measure_layer = recorder.layer("cache.object")

    def traced_measure(policy, references, *args, **kwargs):
        index = recorder.open(measure_layer)
        probe._fused_now = False
        try:
            return measure(policy, references, *args, **kwargs)
        finally:
            duration = recorder.close(index)
            probe.label_s[probe._label] += duration
            if not probe._fused_now:
                probe.object_runs += 1
                probe.object_s += duration
                probe.object_refs += len(references)

    run_fused = program.cache.CacheSimulator.run_fused
    fused_layer = recorder.layer("cache.fused")

    def traced_fused(simulator, pages, *args, **kwargs):
        index = recorder.open(fused_layer)
        fused = False
        try:
            fused = run_fused(simulator, pages, *args, **kwargs)
            return fused
        finally:
            duration = recorder.close(index)
            if fused:
                probe._fused_now = True
                probe.fused_runs += 1
                probe.fused_s += duration
                probe.fused_refs += len(pages)

    cached = program.trace_cache.CachedTrace
    materialize = vars(cached)["materialize"].__func__
    generate_layer = recorder.layer("workloads")

    def traced_materialize(cls, *args, **kwargs):
        index = recorder.open(generate_layer)
        try:
            trace = materialize(cls, *args, **kwargs)
            probe.generated_refs += len(trace)
            return trace
        finally:
            recorder.close(index)

    patches.set(experiment, "sweep_buffer_sizes",
                recorder.wrap("sweep", experiment.sweep_buffer_sizes))
    patches.set(experiment, "equi_effective_buffer_size",
                recorder.wrap("equi.search",
                              experiment.equi_effective_buffer_size))
    patches.set(parallel, "run_paper_protocol",
                protocol("sweep.run", parallel.run_paper_protocol))
    patches.set(experiment, "run_paper_protocol",
                protocol("equi.run", experiment.run_paper_protocol))
    patches.set(program.runner, "measure_hit_ratio", traced_measure)
    patches.set(program.cache.CacheSimulator, "run_fused", traced_fused)
    patches.set(cached, "materialize", classmethod(traced_materialize))
    return probe


def table_layer_metrics(recorder: Recorder, probe: TableProbe,
                        factor: float) -> Dict[str, float]:
    """Per-layer figures of a traced table regeneration.

    ``factor`` converts raw seconds to reference seconds.
    """
    metrics = {
        "workloads.gen_s": recorder.total_s("workloads") * factor,
        "workloads.refs": float(probe.generated_refs),
        "sweep.runs": float(recorder.count("sweep.run")),
        "sweep.s": recorder.total_s("sweep.run") * factor,
        "sweep.overhead_s": recorder.self_s("sweep") * factor,
        "equi.probes": float(recorder.count("equi.run")),
        "equi.s": recorder.total_s("equi.search") * factor,
        "cache.fused_runs": float(probe.fused_runs),
        "cache.object_runs": float(probe.object_runs),
        "cache.fused_s": probe.fused_s * factor,
        "cache.object_s": probe.object_s * factor,
        "cache.fused_refs_per_s": _rate(probe.fused_refs,
                                        probe.fused_s * factor),
        "cache.object_refs_per_s": _rate(probe.object_refs,
                                         probe.object_s * factor),
    }
    runs = probe.fused_runs + probe.object_runs
    metrics["cache.fused_share"] = probe.fused_runs / runs if runs else 0.0
    for label in POLICY_COLUMNS:
        metrics[f"policy.{label}.s"] = probe.label_s.get(label, 0.0) * factor
    return metrics


#: The policy columns of the paper's tables, reported per column.
POLICY_COLUMNS = ("LRU-1", "LRU-2", "LFU", "A0")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# -- the served path ---------------------------------------------------------


class TimedLock:
    """A shard lock whose acquisitions are recorded as wait spans.

    The manager takes shard locks only in ``with`` statements.
    """

    def __init__(self, lock, recorder: Recorder, name: str) -> None:
        self._lock = lock
        self._layer = recorder.layer(name)
        self._recorder = recorder

    def __enter__(self) -> bool:
        clock = self._recorder.clock
        start = clock()
        acquired = self._lock.acquire()
        self._recorder.leaf(self._layer, start, clock())
        return acquired

    def __exit__(self, *exc: object) -> None:
        self._lock.release()


def trace_service(program: Program, manager, recorder: Recorder,
                  patches: Patches) -> None:
    """Wrap the served path's layer boundaries for one manager.

    Layers: ``service.fetch`` / ``service.unpin`` (``Session`` and
    ``ShardedBufferManager`` request methods), ``service.lock_wait``
    (acquiring a shard lock), ``buffer.fetch`` (``BufferPool.fetch``),
    ``buffer.other`` (``unpin``, ``evict_page``),
    ``buffer.resident_snapshot`` (the ``resident_pages`` property),
    ``policy.victim`` (``choose_victim``), ``policy.hooks``
    (``observe``, ``on_hit``, ``on_admit``, ``on_evict``), ``storage``
    (disk reads and writes), ``ledger`` (the tenant ledger's methods)
    and ``obs`` (``Counter.inc`` and ``HistogramMetric.observe``).
    """
    wrap = recorder.wrap
    for cls in (program.session.Session, type(manager)):
        for name in ("fetch", "unpin"):
            patches.set(cls, name, wrap(f"service.{name}", getattr(cls, name)))
    pool_cls = program.pool.BufferPool
    snapshot = vars(pool_cls)["resident_pages"].fget
    patches.set(pool_cls, "resident_pages",
                property(wrap("buffer.resident_snapshot", snapshot)))
    for shard in manager.shards:
        patches.set(shard, "lock",
                    TimedLock(shard.lock, recorder, "service.lock_wait"))
        pool = shard.pool
        patches.set(pool, "fetch", wrap("buffer.fetch", pool.fetch))
        for name in ("unpin", "evict_page"):
            patches.set(pool, name, wrap("buffer.other", getattr(pool, name)))
        policy = pool.policy
        patches.set(policy, "choose_victim",
                    wrap("policy.victim", policy.choose_victim))
        for name in ("observe", "on_hit", "on_admit", "on_evict"):
            patches.set(policy, name,
                        wrap("policy.hooks", getattr(policy, name)))
        for name in ("read", "write"):
            patches.set(pool.disk, name,
                        wrap("storage", getattr(pool.disk, name)))
    ledger = manager.ledger
    for name in ("record_request", "record_admission", "record_eviction",
                 "over_quota"):
        patches.set(ledger, name, wrap("ledger", getattr(ledger, name)))
    registry = program.registry
    patches.set(registry.Counter, "inc", wrap("obs", registry.Counter.inc))
    patches.set(registry.HistogramMetric, "observe",
                wrap("obs", registry.HistogramMetric.observe))


def service_layer_metrics(recorder: Recorder,
                          factor: float) -> Dict[str, float]:
    """Per-layer times and counts of a traced served unit."""
    seconds = lambda name: recorder.self_s(name) * factor  # noqa: E731
    return {
        "service.fetch_self_s": seconds("service.fetch"),
        "service.unpin_self_s": seconds("service.unpin"),
        "service.lock_wait_s": seconds("service.lock_wait"),
        "service.lock_acquires": float(recorder.count("service.lock_wait")),
        "ledger.s": seconds("ledger"),
        "obs.instrument_s": seconds("obs"),
        "buffer.fetch_s": seconds("buffer.fetch"),
        "buffer.other_s": seconds("buffer.other"),
        "buffer.resident_snapshots": float(
            recorder.count("buffer.resident_snapshot")),
        "buffer.resident_snapshot_s": seconds("buffer.resident_snapshot"),
        "policy.victim_s": seconds("policy.victim"),
        "policy.hooks_s": seconds("policy.hooks"),
        "storage.s": seconds("storage"),
    }
