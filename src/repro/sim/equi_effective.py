"""The equi-effective buffer size metric B(1)/B(2).

Section 4.1: "for a given N1, N2 and buffer size B(2), if LRU-2 achieves a
cache hit ratio C(2), we expect that LRU-1 will achieve a smaller cache
hit ratio. But by increasing the number of buffer pages available, LRU-1
will eventually achieve an equivalent cache hit ratio, and we say that
this happens when the number of buffer pages equals B(1). Then the ratio
B(1)/B(2) ... is a measure of comparable buffering effectiveness of the
two algorithms."

:func:`equi_effective_buffer_size` finds B(1) by exponential bracketing
and bisection: it searches for the smallest capacity whose hit ratio
reaches the target, assuming the hit ratio does not fall as the buffer
grows. For LRU that holds exactly — LRU is a stack algorithm, so on a
fixed trace a larger buffer's hits are a superset of a smaller one's.
Results are cached per capacity so the bracketing phase's endpoints are
reused.

:class:`BaselineEvaluator` supplies those hit ratios. When the baseline
policy offers a hit curve (:meth:`~repro.policies.ReplacementPolicy.
hit_curve` — LRU does), one stack-distance pass per seed answers every
capacity, and each probe of the search is a lookup. Otherwise each probe
is a full :func:`~repro.sim.runner.run_paper_protocol` run. Both engines
build the mean over seeds the same way, so they return the same floats.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError, SimulationError
from ..obs import runtime as obs_runtime
from ..obs import trace as obs_trace
from ..obs.dispatcher import EventDispatcher
from ..stats import mean_confidence_interval
from ..types import HitRatioCounter
from ..workloads.base import Workload
from .runner import PolicySpec, RunContext, run_paper_protocol
from .trace_cache import TraceCache

#: Evaluates the mean hit ratio of the baseline at a given capacity.
HitRatioFunction = Callable[[int], float]


def equi_effective_buffer_size(evaluate: HitRatioFunction,
                               target_hit_ratio: float,
                               low: int = 1,
                               high: int = 1 << 20,
                               max_probes: int = 64) -> int:
    """Smallest capacity whose hit ratio reaches ``target_hit_ratio``.

    ``evaluate`` must be non-decreasing in capacity (LRU's hit ratio on a
    fixed trace is). ``high`` is a hard cap: if even that capacity misses
    the target, a :class:`~repro.errors.SimulationError` is raised — for
    hit-ratio targets near the workload's compulsory-miss ceiling no
    finite buffer suffices.
    """
    if not 0.0 <= target_hit_ratio <= 1.0:
        raise ConfigurationError("target hit ratio must lie in [0, 1]")
    if low <= 0 or high < low:
        raise ConfigurationError("need 0 < low <= high")

    cache: Dict[int, float] = {}

    def ratio(capacity: int) -> float:
        if capacity not in cache:
            cache[capacity] = evaluate(capacity)
        return cache[capacity]

    # Exponential bracketing upward from `low`.
    probes = 0
    bracket_low = low
    bracket_high = low
    while ratio(bracket_high) < target_hit_ratio:
        probes += 1
        if bracket_high >= high or probes > max_probes:
            raise SimulationError(
                f"hit ratio {target_hit_ratio:.4f} unreachable at "
                f"capacity {bracket_high} (got {ratio(bracket_high):.4f})")
        bracket_low = bracket_high
        bracket_high = min(high, bracket_high * 2)

    # Bisect for the smallest satisfying capacity.
    while bracket_low < bracket_high:
        probes += 1
        if probes > max_probes:
            break
        middle = (bracket_low + bracket_high) // 2
        if ratio(middle) >= target_hit_ratio:
            bracket_high = middle
        else:
            bracket_low = middle + 1
    return bracket_high


class BaselineEvaluator:
    """The baseline policy's mean hit ratio at any capacity up to a cap.

    Called with a capacity, it returns what
    ``run_paper_protocol(workload, spec, capacity, ...).hit_ratio``
    would. ``known`` pre-seeds capacities already measured (a sweep's
    baseline column). On the first capacity it does not know, it picks
    its engine: a :meth:`~repro.policies.ReplacementPolicy.hit_curve` per
    seed when the policy offers one, else one :func:`run_paper_protocol`
    run per capacity.

    The choice is the same with or without observers attached. An
    ambient tracer sees the curve pass as an ``equi-curve`` span whose
    ``engine`` argument names the choice; a metrics registry counts it
    as ``protocol.equi_engine.curve`` or ``protocol.equi_engine.probe``
    (the latter: the policy's ``hit_curve`` returned None).
    """

    def __init__(self, workload: Workload, spec: PolicySpec,
                 warmup: int, measured: int, max_capacity: int,
                 seed: int = 0, repetitions: int = 1,
                 observability: Optional[EventDispatcher] = None,
                 trace_cache: Optional[TraceCache] = None,
                 known: Optional[Dict[int, float]] = None) -> None:
        self.workload = workload
        self.spec = spec
        self.warmup = warmup
        self.measured = measured
        self.max_capacity = max_capacity
        self.seed = seed
        self.repetitions = repetitions
        self.observability = observability
        self.trace_cache = (trace_cache if trace_cache is not None
                            else TraceCache())
        self._ratios: Dict[int, float] = dict(known or {})
        self._curves: Optional[List] = None
        #: "curve" or "probe" once a capacity needed computing, else None.
        self.engine: Optional[str] = None

    def __call__(self, capacity: int) -> float:
        ratio = self._ratios.get(capacity)
        if ratio is not None:
            return ratio
        if self.engine is None:
            self._choose_engine()
        if self._curves is not None:
            ratio = mean_confidence_interval([
                HitRatioCounter(hits=curve.hits(capacity),
                                misses=curve.misses(capacity)).hit_ratio
                for curve in self._curves]).mean
        else:
            ratio = run_paper_protocol(
                self.workload, self.spec, capacity, self.warmup,
                self.measured, seed=self.seed,
                repetitions=self.repetitions,
                observability=self.observability,
                trace_cache=self.trace_cache).hit_ratio
        self._ratios[capacity] = ratio
        return ratio

    def _choose_engine(self) -> None:
        total = self.warmup + self.measured
        with obs_trace.maybe_span("equi-curve", policy=self.spec.label,
                                  seeds=self.repetitions,
                                  references=total * self.repetitions
                                  ) as span:
            curves = []
            for repetition in range(self.repetitions):
                trace = self.trace_cache.get(self.workload, total,
                                             self.seed + repetition)
                pages = trace.page_ids()
                context = RunContext(capacity=self.max_capacity,
                                     workload=self.workload)
                if self.spec.needs_trace:
                    context.trace = pages
                curve = self.spec.build(context).hit_curve(
                    pages, self.warmup, self.max_capacity)
                if curve is None:
                    curves = None
                    break
                curves.append(curve)
            self._curves = curves
            self.engine = "curve" if curves is not None else "probe"
            if span is not None:
                span.args["engine"] = self.engine
        obs = obs_runtime.resolve(self.observability)
        registry = getattr(obs, "metrics", None)
        if registry is not None:
            registry.counter(f"protocol.equi_engine.{self.engine}").inc()


def equi_effective_ratio(workload: Workload,
                         baseline: PolicySpec,
                         improved: PolicySpec,
                         capacity: int,
                         warmup: int,
                         measured: int,
                         seed: int = 0,
                         repetitions: int = 1,
                         high: Optional[int] = None) -> float:
    """The paper's B(baseline)/B(improved) at the improved policy's capacity.

    Runs ``improved`` at ``capacity`` to get the target hit ratio, then
    searches for the baseline capacity matching it.
    """
    trace_cache = TraceCache()
    try:
        improved_result = run_paper_protocol(
            workload, improved, capacity, warmup, measured,
            seed=seed, repetitions=repetitions, trace_cache=trace_cache)
        upper = high if high is not None else max(64 * capacity, 4096)
        evaluate = BaselineEvaluator(
            workload, baseline, warmup, measured, upper, seed=seed,
            repetitions=repetitions, trace_cache=trace_cache)
        b_baseline = equi_effective_buffer_size(
            evaluate, improved_result.hit_ratio,
            low=max(1, capacity // 2), high=upper)
    finally:
        trace_cache.clear()
    return b_baseline / capacity
