"""LRU hit curves equal simulation at every capacity.

:meth:`LRUPolicy.hit_curve` answers "how many measurement-window hits at
capacity c" for every c from one stack-distance pass. The property tests
here hold it to what :func:`measure_hit_ratio` counts at each capacity —
on ``Reference`` lists carrying writes and process ids (the object path)
and on plain page-id traces (the fused kernel) — across warm-up lengths,
single-page traces and traces with no re-reference at all. The rest
checks the B(1) search's evaluator: a curve answers with the same floats
as protocol probes, and a policy without a curve still gets probes.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import EventDispatcher, MetricsRegistry
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer
from repro.policies import make_policy
from repro.policies.kernel import lru_hit_curve
from repro.sim import (
    CachedTrace,
    ExperimentSpec,
    PolicySpec,
    TraceCache,
    equi_effective_buffer_size,
    measure_hit_ratio,
    run_experiment,
    run_paper_protocol,
)
from repro.sim import equi_effective
from repro.sim.equi_effective import BaselineEvaluator
from repro.types import AccessKind, Reference
from repro.workloads import ZipfianWorkload

REFERENCES = st.lists(
    st.tuples(st.integers(min_value=1, max_value=25),
              st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
              st.one_of(st.none(), st.integers(min_value=0, max_value=3))),
    min_size=1, max_size=200)


def _curve_matches_simulation(pages, references, warmup):
    distinct = len(set(pages))
    curve = make_policy("lru").hit_curve(pages, warmup, distinct + 2)
    assert curve.measured == len(pages) - warmup
    for capacity in range(1, distinct + 3):
        objects = measure_hit_ratio(make_policy("lru"), references,
                                    capacity, warmup)
        fused = measure_hit_ratio(make_policy("lru"),
                                  CachedTrace(array("q", pages), None),
                                  capacity, warmup)
        assert curve.hits(capacity) == objects.counter.hits, capacity
        assert curve.misses(capacity) == objects.counter.misses, capacity
        assert curve.hits(capacity) == fused.counter.hits, capacity
        assert curve.misses(capacity) == fused.counter.misses, capacity


@settings(max_examples=60, deadline=None)
@given(REFERENCES, st.data())
def test_curve_equals_simulation_at_every_capacity(rows, data):
    references = [Reference(page=page, kind=kind, process_id=process)
                  for page, kind, process in rows]
    pages = [reference.page for reference in references]
    warmup = data.draw(st.integers(min_value=0, max_value=len(pages) - 1))
    _curve_matches_simulation(pages, references, warmup)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_single_page_trace(length, data):
    pages = [7] * length
    warmup = data.draw(st.integers(min_value=0, max_value=length - 1))
    _curve_matches_simulation(pages, [Reference(page=7)] * length, warmup)
    curve = lru_hit_curve(pages, warmup, 1 << 20)
    # The first reference is the only miss, wherever warm-up ends.
    assert curve.hits(1 << 20) == length - max(warmup, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_all_cold_trace(length, data):
    pages = list(range(length))
    warmup = data.draw(st.integers(min_value=0, max_value=length - 1))
    _curve_matches_simulation(pages, [Reference(page=p) for p in pages],
                              warmup)
    assert lru_hit_curve(pages, warmup, 1 << 20).hits(1 << 20) == 0


def test_a_large_cap_allocates_nothing_extra():
    pages = [1, 2, 3, 1, 2, 3, 4, 1]
    curve = lru_hit_curve(pages, 0, 1 << 20)
    assert len(curve.cumulative) == len(set(pages)) + 1
    assert curve.hits(1 << 20) == curve.hits(4) == 4
    assert curve.hits(3) == 3 and curve.hits(2) == 0


def test_capacity_outside_the_curve_raises():
    curve = lru_hit_curve([1, 2, 1], 0, 4)
    for capacity in (0, 5):
        with pytest.raises(ConfigurationError):
            curve.hits(capacity)
    with pytest.raises(ConfigurationError):
        lru_hit_curve([1], 0, 0)


def test_only_stack_policies_offer_a_curve():
    assert make_policy("fifo").hit_curve([1, 2, 1], 0, 4) is None
    assert make_policy("lru-k", k=2).hit_curve([1, 2, 1], 0, 4) is None


# -- the B(1) search's evaluator ----------------------------------------------

WORKLOAD = ZipfianWorkload(n=200, alpha=0.8, beta=0.2)
WARMUP, MEASURED, REPETITIONS = 500, 1500, 3


def _probe_ratio(spec, capacity):
    return run_paper_protocol(WORKLOAD, spec, capacity, WARMUP, MEASURED,
                              seed=4, repetitions=REPETITIONS).hit_ratio


def _evaluator(spec, **kwargs):
    return BaselineEvaluator(WORKLOAD, spec, WARMUP, MEASURED, 400, seed=4,
                             repetitions=REPETITIONS, **kwargs)


def test_curve_lookup_equals_probe_floats():
    evaluate = _evaluator(PolicySpec.lru())
    for capacity in (1, 3, 17, 40, 199, 200, 400):
        assert evaluate(capacity) == _probe_ratio(PolicySpec.lru(), capacity)
    assert evaluate.engine == "curve"


def test_policy_without_a_curve_probes(monkeypatch):
    fifo = PolicySpec.registry("FIFO", "fifo")
    probed = []

    def probe(*args, **kwargs):
        probed.append(args[2])
        return run_paper_protocol(*args, **kwargs)

    monkeypatch.setattr(equi_effective, "run_paper_protocol", probe)
    evaluate = _evaluator(fifo)
    assert evaluate(30) == _probe_ratio(fifo, 30)
    assert evaluate.engine == "probe" and probed == [30]


def test_known_capacities_need_no_engine():
    evaluate = _evaluator(PolicySpec.lru(), known={10: 0.25})
    assert evaluate(10) == 0.25
    assert evaluate.engine is None


@pytest.mark.parametrize("baseline", [PolicySpec.lru(),
                                      PolicySpec.registry("FIFO", "fifo")])
def test_experiment_column_equals_probe_bisection(baseline):
    """The B(1)/B(2) column as the probe-per-capacity search gives it."""
    improved = PolicySpec.lruk(2)
    spec = ExperimentSpec(
        name="equi", workload=WORKLOAD, policies=[baseline, improved],
        capacities=[10, 25, 60], warmup=WARMUP, measured=MEASURED, seed=4,
        repetitions=REPETITIONS,
        equi_effective=(baseline.label, improved.label),
        equi_effective_high=400)
    result = run_experiment(spec)
    for cell in result.cells:
        found = equi_effective_buffer_size(
            lambda capacity: _probe_ratio(baseline, capacity),
            cell.hit_ratio(improved.label), low=1, high=400)
        assert result.equi_effective_ratios[cell.capacity] == (
            found / cell.capacity)


def test_engine_is_counted_and_traced():
    dispatcher = EventDispatcher()
    dispatcher.metrics = MetricsRegistry()
    tracer = Tracer()
    cache = TraceCache()
    with obs_trace.activate(tracer):
        _evaluator(PolicySpec.lru(), observability=dispatcher,
                   trace_cache=cache)(33)
        _evaluator(PolicySpec.registry("FIFO", "fifo"),
                   observability=dispatcher, trace_cache=cache)(33)
    counters = dispatcher.metrics.counter_values()
    assert counters["protocol.equi_engine.curve"] == 1
    assert counters["protocol.equi_engine.probe"] == 1
    curve_spans = [span for span in tracer.spans if span.name == "equi-curve"]
    assert [(span.args["policy"], span.args["engine"])
            for span in curve_spans] == [("LRU-1", "curve"), ("FIFO", "probe")]
    assert curve_spans[0].args["references"] == (
        (WARMUP + MEASURED) * REPETITIONS)
