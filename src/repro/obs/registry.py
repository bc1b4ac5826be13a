"""Metrics registry: named counters, gauges, and histograms.

The event stream (:mod:`repro.obs.events`) answers "what happened, in
order"; the registry answers "where are we now". It is the export surface
for instruments that already exist in the codebase — e.g.
:class:`repro.core.lruk.LRUKStats` is published through gauges — and for
new ones. Histogram instruments reuse the statistics layer
(:class:`repro.stats.Histogram` bins + :class:`repro.stats.StreamingMoments`
for exact moments), so quantiles and means stay O(1)-per-observation.

A registry renders to a flat ``{name: value}`` snapshot suitable for a
:class:`~repro.obs.events.SnapshotEvent` payload or a JSON report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..stats import Histogram, StreamingMoments


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add to the count (negative increments are rejected)."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value: either set directly or read from a callable.

    Callable-backed gauges make exporting live objects trivial::

        registry.gauge("lruk.evictions", lambda: policy.stats.evictions)
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value: float = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        """Pin the gauge to a value (only for non-callable gauges)."""
        if self._fn is not None:
            raise ConfigurationError(
                f"gauge {self.name!r} is callable-backed; cannot set")
        self._value = value

    def read(self) -> float:
        """The current value."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class HistogramMetric:
    """A distribution instrument: binned quantiles + exact moments."""

    __slots__ = ("name", "_histogram", "_moments")

    def __init__(self, name: str, low: float, high: float,
                 bins: int = 64) -> None:
        self.name = name
        self._histogram = Histogram(low, high, bins)
        self._moments = StreamingMoments()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._histogram.add(value)
        self._moments.add(value)

    @property
    def low(self) -> float:
        """Lower edge of the binning range."""
        return self._histogram.low

    @property
    def high(self) -> float:
        """Upper edge of the binning range."""
        return self._histogram.high

    @property
    def bins(self) -> int:
        """Number of uniform bins."""
        return self._histogram.bins

    def state(self) -> Dict[str, object]:
        """A picklable snapshot: binning, per-bin counts, raw moments.

        The process-boundary relay form (see
        :meth:`MetricsRegistry.histogram_values`): bin counts and
        observation counts merge exactly; the Welford mean merges via
        the Chan parallel formula, which can differ from a sequential
        fold in the last ulp.
        """
        return {"low": self._histogram.low, "high": self._histogram.high,
                "bins": self._histogram.bins,
                "counts": self._histogram.counts,
                "moments": list(self._moments.state())}

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold a relayed :meth:`state` snapshot into this instrument."""
        if (state["low"], state["high"], state["bins"]) != (
                self.low, self.high, self.bins):
            raise ConfigurationError(
                f"histogram {self.name!r} binning mismatch: cannot merge "
                f"[{state['low']}, {state['high']})/{state['bins']} into "
                f"[{self.low}, {self.high})/{self.bins}")
        self._histogram.merge_counts(list(state["counts"]))
        self._moments = self._moments.merge(
            StreamingMoments.restore(tuple(state["moments"])))

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._moments.count

    @property
    def mean(self) -> float:
        """Exact mean of all observations."""
        return self._moments.mean

    def quantile(self, q: float) -> Optional[float]:
        """Approximate q-quantile (bin-interpolated).

        Total: an empty histogram has no quantiles, so this returns
        ``None`` rather than the binning range's lower bound (which is a
        configuration artifact, not an observation, and silently skewed
        dashboards that averaged percentiles across runs).
        """
        if self._moments.count == 0:
            return None
        return self._histogram.quantile(q)

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 as a flat dict.

        Percentile keys are omitted while the histogram is empty (they
        have no defined value), so a snapshot never fabricates numbers.
        """
        out = {"count": float(self.count), "mean": self.mean}
        if self.count:
            for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                quantile = self.quantile(q)
                assert quantile is not None
                out[key] = quantile
        return out


class MetricsRegistry:
    """A namespace of uniquely named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, HistogramMetric] = {}
        #: Which relayed worker last wrote each merged gauge (see
        #: :meth:`merge_gauges`); the exposition renderer surfaces it as
        #: a ``worker`` label.
        self._gauge_sources: Dict[str, str] = {}

    def _claim(self, name: str) -> None:
        if (name in self._counters or name in self._gauges
                or name in self._histograms):
            raise ConfigurationError(f"duplicate metric name {name!r}")

    def counter(self, name: str) -> Counter:
        """Create (or fetch) the counter with this name."""
        existing = self._counters.get(name)
        if existing is not None:
            return existing
        self._claim(name)
        counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Create a gauge; re-registering a name raises."""
        self._claim(name)
        gauge = self._gauges[name] = Gauge(name, fn)
        return gauge

    def set_gauge(self, name: str, value: float) -> Gauge:
        """Get-or-create the non-callable gauge ``name`` and set it.

        The instrument form used by periodically *published* values —
        the runner's per-run gauges and the
        :class:`~repro.obs.telemetry.ResourceSampler` — where the
        publisher runs repeatedly and re-registration must not raise.
        Callable-backed gauges (live views) keep their reject-on-set
        semantics: publishing over one raises.
        """
        existing = self._gauges.get(name)
        if existing is None:
            self._claim(name)
            existing = self._gauges[name] = Gauge(name)
        existing.set(float(value))
        return existing

    def histogram(self, name: str, low: float, high: float,
                  bins: int = 64) -> HistogramMetric:
        """Create (or fetch) the histogram instrument over ``[low, high)``.

        Re-registering the same name with the *same* binning returns the
        existing instrument (so per-run drivers and worker-relay merges
        can both use get-or-create); a different binning raises.
        """
        existing = self._histograms.get(name)
        if existing is not None:
            if (existing.low, existing.high, existing.bins) != (
                    low, high, bins):
                raise ConfigurationError(
                    f"histogram {name!r} already registered with binning "
                    f"[{existing.low}, {existing.high})/{existing.bins}")
            return existing
        self._claim(name)
        histogram = self._histograms[name] = HistogramMetric(
            name, low, high, bins)
        return histogram

    def percentile(self, name: str, q: float) -> Optional[float]:
        """The q-quantile of the named histogram, if it has one.

        Total over both failure modes: an unregistered name and an empty
        histogram both yield ``None`` (previously the former raised and
        the latter reported the binning range's lower bound).
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            return None
        return histogram.quantile(q)

    def counter_values(self) -> Dict[str, int]:
        """Every counter's current value (the worker-relay payload)."""
        return {name: counter.value
                for name, counter in self._counters.items()}

    def merge_counters(self, values: Dict[str, int]) -> None:
        """Fold another registry's counter values into this one.

        How forked sweep workers' deltas reach the parent: each worker
        accumulates into a private registry, relays
        :meth:`counter_values` over the result channel, and the parent
        merges — counters are sums, so merging is exact and
        order-independent.
        """
        for name, value in values.items():
            self.counter(name).inc(value)

    def gauge_values(self) -> Dict[str, float]:
        """Every *non-callable* gauge's current value (worker relay form).

        Callable-backed gauges are live views of worker-local objects
        that die with the worker, so they are excluded — relaying their
        final reading would freeze a "live" instrument at a stale value
        without marking it as such.
        """
        return {name: gauge.read() for name, gauge in self._gauges.items()
                if gauge._fn is None}

    def merge_gauges(self, values: Dict[str, float],
                     worker: Optional[str] = None) -> None:
        """Fold relayed gauge snapshots in, last-write-wins.

        The counterpart of :meth:`merge_counters` for point-in-time
        instruments: forked sweep workers snapshot their non-callable
        gauges at cell exit (:meth:`gauge_values`) and the parent merges
        them as cells complete, so ``--serve-metrics`` exposes
        worker-side gauges mid-sweep. Gauges are *not* additive; the
        most recently merged cell wins, and ``worker`` records which
        worker wrote the surviving value (exposed as a ``worker`` label
        in the Prometheus exposition; ``None`` means this process wrote
        it and clears any earlier source). Names already claimed by a
        callable-backed gauge in this registry are skipped — a live
        parent-side view must not be overwritten by a dead snapshot.
        """
        for name, value in values.items():
            existing = self._gauges.get(name)
            if existing is not None and existing._fn is not None:
                continue
            self.set_gauge(name, value)
            if worker is None:
                self._gauge_sources.pop(name, None)
            else:
                self._gauge_sources[name] = worker

    def gauge_source(self, name: str) -> Optional[str]:
        """The worker that last wrote a merged gauge, if relayed."""
        return self._gauge_sources.get(name)

    def counters(self) -> Dict[str, Counter]:
        """A shallow copy of the counter instruments by name."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        """A shallow copy of the gauge instruments by name."""
        return dict(self._gauges)

    def histograms(self) -> Dict[str, HistogramMetric]:
        """A shallow copy of the histogram instruments by name."""
        return dict(self._histograms)

    def histogram_values(self) -> Dict[str, Dict[str, object]]:
        """Every histogram's :meth:`~HistogramMetric.state` (worker relay).

        The counterpart of :meth:`counter_values` for distribution
        instruments, so ``--metrics-out`` histograms agree between
        ``--jobs N`` and serial runs instead of silently dropping worker
        observations. Callable-backed gauges are not relayed (they are
        live views of worker-local objects that die with the worker);
        non-callable gauges travel separately via :meth:`gauge_values`.
        """
        return {name: histogram.state()
                for name, histogram in self._histograms.items()}

    def merge_histograms(self, states: Dict[str, Dict[str, object]]) -> None:
        """Fold relayed histogram states into this registry.

        Bin counts and observation counts merge exactly (sums) and are
        therefore order-independent; means merge via Chan's parallel
        formula, which is order-sensitive only in the last ulp. The
        sweep engine merges each cell's state as it completes so a live
        ``/metrics`` scrape sees histogram buckets mid-sweep.
        """
        for name, state in states.items():
            histogram = self.histogram(
                name, float(state["low"]), float(state["high"]),
                int(state["bins"]))
            histogram.merge_state(state)

    def names(self) -> List[str]:
        """All registered instrument names, sorted."""
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def snapshot(self) -> Dict[str, float]:
        """Flatten every instrument into ``{name: value}``.

        Histograms expand to ``name.count/.mean/.p50/.p95/.p99``.
        """
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = float(counter.value)
        for name, gauge in self._gauges.items():
            out[name] = gauge.read()
        for name, histogram in self._histograms.items():
            for key, value in histogram.summary().items():
                out[f"{name}.{key}"] = value
        return dict(sorted(out.items()))
