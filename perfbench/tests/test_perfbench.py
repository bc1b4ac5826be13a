"""Tests of the benchmark itself: oracle, percentiles, traced-run honesty.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

from perfbench import layers, program, run, serve, tables
from perfbench.measure import HostSpeed, LatencySummary, percentile


@pytest.fixture(scope="module")
def loaded():
    return program.load()


def small_tables(loaded):
    return {
        "table42-zipf": loaded.table_4_2_spec(
            scale=0.05, capacities=[40, 100], repetitions=1, seed=3),
        "table43-oltp": loaded.table_4_3_spec(
            scale=0.002, capacities=[100, 200], seed=3),
    }


# -- output oracle -------------------------------------------------------------


def test_a_wrong_expected_table_value_counts_as_a_failure():
    values = {"B=40 LRU-1": 0.25, "B=40 LRU-2": 0.5, "B=40 B(1)/B(2)": 1.5}
    expected = dict(values, **{"B=40 LRU-2": 0.5000001})
    outcome = run.Outcome()
    run.check_table(outcome, values, expected)
    assert (outcome.attempted, outcome.failed) == (3, 1)
    result = run.result_json(outcome, {})
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False


def test_matching_values_count_as_attempted_and_not_failed():
    values = {"B=40 LRU-1": 0.25, "B=40 B(1)/B(2)": None}
    outcome = run.Outcome()
    run.check_table(outcome, values, dict(values))
    assert (outcome.attempted, outcome.failed, outcome.correct) == (2, 0, True)


def test_a_wrong_expected_decision_count_counts_as_a_failure():
    decisions = serve.Decisions(requests=10, hits=6, misses=4, evictions=3,
                                dirty_evictions=1, quota_evictions=1,
                                disk_reads=4, disk_writes=1)
    expected = dict(decisions.oracle_view(), hits=7)
    outcome = run.Outcome()
    run.check_decisions(outcome, decisions, expected)
    assert outcome.attempted == 6
    assert outcome.failed == 1


def test_the_recorded_oracle_covers_every_input_seed():
    oracle = run.load_oracle()
    assert oracle["input_seeds"] == run.INPUT_SEEDS
    for name in run.WORKLOADS:
        assert sorted(oracle[name], key=int) == [
            str(seed) for seed in range(run.INPUT_SEEDS)]


# -- percentiles ---------------------------------------------------------------


def test_latency_summary_on_known_samples_reports_its_count():
    samples = [float(value) for value in range(1, 1001)]
    summary = LatencySummary.of(list(reversed(samples)))
    assert summary.count == 1000
    assert summary.p50 == pytest.approx(500.5)
    assert summary.p99 == pytest.approx(990.01)
    assert summary.p999 == pytest.approx(999.001)
    assert summary.beyond_p99 == 10


def test_percentile_edges():
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([1.0, 2.0], 0.0) == 1.0
    assert percentile([1.0, 2.0], 1.0) == 2.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- timing --------------------------------------------------------------------


def test_reference_seconds_scale_with_the_calibration_slices():
    speed = HostSpeed(nominal=0.002)
    assert speed.factor([0.004, 0.004]) == pytest.approx(0.5)
    with speed.sampled(interval=0.01) as phase:
        total = 0
        for value in range(300_000):
            total += value
    assert len(phase.slices) >= 2
    assert phase.raw_s > 0
    assert phase.ref_s == pytest.approx(phase.raw_s * phase.factor)


# -- the traced run ------------------------------------------------------------


def test_patches_restore_functions_classmethods_and_properties(loaded):
    cached = loaded.trace_cache.CachedTrace
    materialize = vars(cached)["materialize"]
    pool_property = vars(loaded.pool.BufferPool)["resident_pages"]
    measure = loaded.runner.measure_hit_ratio
    with layers.Patches() as patches:
        recorder = layers.Recorder()
        layers.trace_tables(loaded, recorder, patches)
        manager = loaded.ShardedBufferManager(16, shards=2)
        layers.trace_service(loaded, manager, recorder, patches)
        assert loaded.runner.measure_hit_ratio is not measure
    assert vars(cached)["materialize"] is materialize
    assert vars(loaded.pool.BufferPool)["resident_pages"] is pool_property
    assert loaded.runner.measure_hit_ratio is measure
    assert "fetch" not in vars(manager.shards[0].pool)


@pytest.mark.parametrize("name", ["table42-zipf", "table43-oltp"])
def test_traced_and_untraced_tables_pick_the_same_engines(loaded, name):
    spec = small_tables(loaded)[name]
    with layers.Patches() as patches:
        engines = tables.count_engines(loaded, patches)
        plain = tables.table_values(loaded.run_experiment(spec, jobs=1))
    recorder = layers.Recorder()
    with layers.Patches() as patches:
        probe = layers.trace_tables(loaded, recorder, patches)
        traced = tables.table_values(loaded.run_experiment(spec, jobs=1))
    assert traced == plain
    assert (probe.fused_runs, probe.object_runs) == (
        engines.fused, engines.object_runs)
    assert probe.fused_runs + probe.object_runs == engines.runs > 0
    workload = tables.TABLE_WORKLOADS[name]
    assert tables.guard_failures(workload, spec, engines, loaded) == []
    # Every layer's self time adds up to the time the root spans cover.
    assert recorder.total_self_s() == pytest.approx(
        sum(recorder.total_s(layer) for layer in ("sweep", "equi.search")),
        rel=1e-6)


def test_traced_served_decisions_equal_untraced():
    workload = serve.ServeWorkload(
        "serve-oltp-full", capacity=256, shards=2,
        quotas={"t0": 130, "t1": 130}, stream_length=5_000,
        after_full=100)
    counts = []
    for traced in (False, True):
        fresh = program.load()
        manager, lane = run.serve_setup(fresh, workload, 2)
        start = serve.Decisions.of(manager)
        recorder = layers.Recorder()
        with layers.Patches() as patches:
            if traced:
                layers.trace_service(fresh, manager, recorder, patches)
            lane.run(limit=1_000)
        counts.append(serve.Decisions.of(manager).minus(start))
    assert recorder.count("service.fetch") == 2 * 1_000  # session + manager
    assert counts[0] == counts[1]
    assert counts[0].evictions > 0 and counts[0].quota_evictions > 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    import json

    with open(program.ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == run.WORKLOADS
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
