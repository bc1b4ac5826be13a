"""The repository's end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table43-oltp --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Workloads: ``table43-oltp`` and ``table42-zipf`` regenerate a paper table
(``run_experiment(spec, jobs=1)``); ``serve-oltp-full`` and
``serve-zipf-hot`` drive ``ShardedBufferManager`` sessions with
closed-loop fetch + unpin requests. Inputs are generated from
``--seed``; the program's outputs are checked against the values
recorded in ``oracle.json``. With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``layers.py``), compared against an untraced run of the same work.

All times are in reference seconds (see ``measure.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    __package__ = "perfbench"

from perfbench import layers, program as program_mod  # noqa: E402
from perfbench import serve, tables  # noqa: E402
from perfbench.measure import (GcMonitor, HostSpeed, LatencySummary,  # noqa: E402
                               peak_rss_mb, percentile)

ORACLE = Path(__file__).resolve().parent / "oracle.json"

#: Input seeds with recorded expected outputs; ``--seed`` maps onto them.
INPUT_SEEDS = 16

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "op/s",
    "p50_us": "us",
    "p99_us": "us",
    "hit_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units. Every workload
#: reports all of them; a layer a workload does not reach reads 0.
PER_LAYER = {
    "workloads.gen_s": "s", "workloads.refs": "count",
    "sweep.runs": "count", "sweep.s": "s", "sweep.overhead_s": "s",
    "equi.probes": "count", "equi.s": "s",
    "cache.fused_runs": "count", "cache.object_runs": "count",
    "cache.fused_s": "s", "cache.object_s": "s",
    "cache.fused_refs_per_s": "1/s", "cache.object_refs_per_s": "1/s",
    "cache.fused_share": "ratio",
    "policy.LRU-1.s": "s", "policy.LRU-2.s": "s", "policy.LFU.s": "s",
    "policy.A0.s": "s",
    "service.requests": "count", "service.misses": "count",
    "service.miss_share": "ratio",
    "service.fetch_self_s": "s", "service.unpin_self_s": "s",
    "service.lock_wait_s": "s", "service.lock_acquires": "count",
    "ledger.s": "s", "ledger.quota_evictions": "count",
    "obs.instrument_s": "s", "obs.hist_p999_ms": "ms",
    "obs.exact_p999_ms": "ms",
    "buffer.fetch_s": "s", "buffer.other_s": "s",
    "buffer.resident_snapshots": "count", "buffer.resident_snapshot_s": "s",
    "buffer.evictions": "count", "buffer.dirty_evictions": "count",
    "policy.victim_s": "s", "policy.hooks_s": "s",
    "storage.reads": "count", "storage.writes": "count", "storage.s": "s",
    "gc.collections": "count", "gc.pause_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio", "trace.spans": "count",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"table": 11, "serve": 5}

#: Requests served per unit of work, for ``wall_s`` on served workloads.
SERVE_UNIT = 10_000

#: Requests in a traced run (and in its untraced twin).
TRACED_REQUESTS = {"serve-oltp-full": 12_000, "serve-zipf-hot": 30_000}

#: Largest share of a traced run's wall time its layers may leave
#: unattributed (harness loop and span bookkeeping outside any span).
UNATTRIBUTED_LIMIT = {"table43-oltp": 0.02, "table42-zipf": 0.02,
                      "serve-oltp-full": 0.15, "serve-zipf-hot": 0.15}

WORKLOADS = list(tables.TABLE_WORKLOADS) + list(serve.SERVE_WORKLOADS)


@dataclass
class Outcome:
    """A run's verdict, counts, metrics and report lines."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def note(self, line: str) -> None:
        self.lines.append(line)


def load_oracle() -> dict:
    with open(ORACLE) as handle:
        return json.load(handle)


def expected_values(oracle: dict, workload: str, input_seed: int):
    return oracle.get(workload, {}).get(str(input_seed))


def fresh_program():
    """Drop the previous program and its garbage before a timed set-up."""
    program_mod.purge()
    gc.collect()


# -- tables ------------------------------------------------------------------


def table_setup(workload, input_seed: int, speed: HostSpeed,
                repeats: int):
    times = []
    for _ in range(repeats):
        fresh_program()
        with speed.sampled() as phase:
            program = program_mod.load()
            spec = workload.build(program, input_seed)
        times.append(phase.ref_s)
    return program, spec, times


def check_table(outcome: Outcome, values, expected) -> None:
    if expected is None:
        outcome.problems.append("no recorded values for this input seed")
        outcome.attempted += len(values)
        outcome.failed += len(values)
        return
    bad = tables.mismatches(values, expected)
    outcome.attempted += len(expected)
    outcome.failed += len(bad)
    for name in bad[:5]:
        outcome.note(f"  MISMATCH {name}: got {values.get(name)!r}, "
                     f"expected {expected.get(name)!r}")


def run_table(name: str, input_seed: int, seconds: float, speed: HostSpeed,
              oracle: dict) -> Outcome:
    workload = tables.TABLE_WORKLOADS[name]
    expected = expected_values(oracle, name, input_seed)
    outcome = Outcome()
    program, spec, setups = table_setup(workload, input_seed, speed,
                                        SETUP_REPEATS["table"])
    walls: List[float] = []
    raw_total = 0.0
    engine_counts = []
    with layers.Patches() as patches:
        engines = tables.count_engines(program, patches)
        while raw_total < seconds:
            before = (engines.runs, engines.fused)
            with speed.sampled() as phase:
                result = program.run_experiment(spec, jobs=1)
            raw_total += phase.raw_s
            walls.append(phase.ref_s)
            engine_counts.append((engines.runs - before[0],
                                  engines.fused - before[1]))
            values = tables.table_values(result)
            check_table(outcome, values, expected)
    if len(set(engine_counts)) != 1:
        outcome.problems.append(f"engine counts differ between "
                                f"regenerations: {engine_counts}")
    per_table = tables.EngineCount(*engine_counts[0])
    outcome.problems.extend(tables.guard_failures(
        workload, spec, per_table, program))
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "throughput_rps": outcome.attempted / sum(walls),
        "p50_us": percentile(walls, 0.50) * 1e6,
        "p99_us": percentile(walls, 0.99) * 1e6,
        "hit_ratio": tables.hit_ratio_mean(values),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.note(f"  regenerations {len(walls)}: "
                 + ", ".join(f"{wall:.3f}" for wall in walls) + " s")
    outcome.note(f"  protocol runs per table {per_table.runs}, fused "
                 f"{per_table.fused} (fused share "
                 f"{per_table.fused_share:.3f})")
    return outcome


def trace_table(name: str, input_seed: int, speed: HostSpeed,
                oracle: dict, spans_out: Path) -> Outcome:
    workload = tables.TABLE_WORKLOADS[name]
    expected = expected_values(oracle, name, input_seed)
    outcome = Outcome()
    program, spec, _ = table_setup(workload, input_seed, speed, 1)
    with layers.Patches() as patches:
        engines = tables.count_engines(program, patches)
        with speed.sampled() as plain:
            result = program.run_experiment(spec, jobs=1)
    plain_values = tables.table_values(result)
    check_table(outcome, plain_values, expected)

    recorder = layers.Recorder()
    with layers.Patches() as patches, GcMonitor() as collector:
        probe = layers.trace_tables(program, recorder, patches)
        experiment = recorder.wrap(layers.TABLE_ROOT, program.run_experiment)
        with speed.sampled() as traced:
            recorder.clock = traced.clock
            result = experiment(spec, jobs=1)
    traced_values = tables.table_values(result)
    check_table(outcome, traced_values, expected)
    if traced_values != plain_values:
        outcome.problems.append("traced table differs from untraced table")
    if (probe.fused_runs, probe.object_runs) != (
            engines.fused, engines.object_runs):
        outcome.problems.append(
            f"traced engines (fused {probe.fused_runs}, object "
            f"{probe.object_runs}) differ from untraced (fused "
            f"{engines.fused}, object {engines.object_runs})")
    outcome.problems.extend(tables.guard_failures(
        workload, spec, engines, program))

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layers.table_layer_metrics(recorder, probe,
                                              traced.factor))
    finish_trace(outcome, metrics, recorder, collector, name,
                 plain.ref_s, traced.ref_s,
                 unattributed=1.0 - recorder.total_self_s() / traced.raw_s,
                 spans_out=spans_out, factor=traced.factor)
    return outcome


# -- served workloads --------------------------------------------------------


def serve_setup(program, workload, input_seed: int, make_lane=serve.make_lane):
    manager = program.ShardedBufferManager(
        workload.capacity, shards=workload.shards, quotas=workload.quotas)
    lane = make_lane(program, manager, workload, input_seed)
    serve.fill(manager, lane, workload)
    return manager, lane


def check_decisions(outcome: Outcome, decisions, expected) -> None:
    """Compare the prefix's decision counts with the recorded ones."""
    view = decisions.oracle_view()
    outcome.attempted += len(view)
    if expected is None:
        outcome.problems.append("no recorded decisions for this input seed")
        outcome.failed += len(view)
        return
    for key, value in view.items():
        if expected.get(key) != value:
            outcome.failed += 1
            outcome.note(f"  MISMATCH {key}: got {value}, expected "
                         f"{expected.get(key)}")


def run_serve(name: str, input_seed: int, seconds: float, speed: HostSpeed,
              oracle: dict) -> Outcome:
    workload = serve.SERVE_WORKLOADS[name]
    outcome = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS["serve"]):
        manager = lane = None
        fresh_program()
        with speed.sampled() as phase:
            program = program_mod.load()
            manager, lane = serve_setup(program, workload, input_seed)
        setups.append(phase.ref_s)
    full = serve.shards_full(manager)
    start = serve.Decisions.of(manager)
    check_decisions(outcome, start, expected_values(oracle, name, input_seed))
    # Before the window: the latency samples it keeps grow with throughput.
    rss_mb = peak_rss_mb()
    window = serve.measure_window(lane, speed, seconds)
    delta = serve.Decisions.of(manager).minus(start)
    outcome.attempted += window.requests
    outcome.failed += window.failed
    if delta.requests != window.requests:
        outcome.problems.append(f"manager counted {delta.requests} "
                                f"requests, benchmark sent {window.requests}")
    outcome.problems.extend(serve.guard_failures(workload, full, delta))
    latency = LatencySummary.of(window.latencies)
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": SERVE_UNIT * window.ref_s / window.requests,
        "throughput_rps": window.requests / window.ref_s,
        "p50_us": latency.p50 * 1e6,
        "p99_us": latency.p99 * 1e6,
        "hit_ratio": delta.hits / delta.requests,
        "peak_rss_mb": rss_mb,
    }
    outcome.note(f"  window {window.raw_s:.2f} s raw in {window.segments} "
                 f"segments, {window.requests} requests, "
                 f"{latency.beyond_p99} samples beyond p99, "
                 f"p999 {latency.p999 * 1e6:.1f} us (not a gated metric)")
    outcome.note(f"  window decisions: miss share "
                 f"{delta.misses / delta.requests:.4f}, evictions "
                 f"{delta.evictions}, dirty {delta.dirty_evictions}, quota "
                 f"{delta.quota_evictions}")
    return outcome


def trace_serve(name: str, input_seed: int, speed: HostSpeed,
                oracle: dict, spans_out: Path) -> Outcome:
    workload = serve.SERVE_WORKLOADS[name]
    expected = expected_values(oracle, name, input_seed)
    count = TRACED_REQUESTS[name]
    outcome = Outcome()

    fresh_program()
    program = program_mod.load()
    manager, lane = serve_setup(program, workload, input_seed)
    full = serve.shards_full(manager)
    start = serve.Decisions.of(manager)
    check_decisions(outcome, start, expected)
    prefix_samples = lane.samples
    lane.samples = array("d")
    plain_raw, plain_factor, _ = speed.bracket(lambda: lane.run(limit=count))
    plain = serve.Decisions.of(manager).minus(start)
    outcome.failed += lane.failed
    hist_p999 = manager.registry.percentile("service.request_ms", 0.999)
    exact_p999 = percentile(prefix_samples + lane.samples, 0.999) * 1e3

    recorder = layers.Recorder()
    manager = lane = None
    fresh_program()
    program = program_mod.load()
    manager, lane = serve_setup(program, workload, input_seed,
                                recorder.wrap("workloads", serve.make_lane))
    start = serve.Decisions.of(manager)
    check_decisions(outcome, start, expected)
    lane.busy_s = 0.0
    with layers.Patches() as patches, GcMonitor() as collector:
        layers.trace_service(program, manager, recorder, patches)
        traced_raw, factor, _ = speed.bracket(lambda: lane.run(limit=count))
    traced = serve.Decisions.of(manager).minus(start)
    outcome.attempted += traced.requests + plain.requests
    outcome.failed += lane.failed
    if traced.oracle_view() != plain.oracle_view():
        outcome.problems.append(f"traced decisions {traced.oracle_view()} "
                                f"differ from untraced {plain.oracle_view()}")
    outcome.problems.extend(serve.guard_failures(workload, full, plain))

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layers.service_layer_metrics(recorder, factor))
    metrics.update({
        "workloads.gen_s": recorder.total_s("workloads") * factor,
        "workloads.refs": float(len(lane.pages)),
        "service.requests": float(traced.requests),
        "service.misses": float(traced.misses),
        "service.miss_share": traced.misses / traced.requests,
        "ledger.quota_evictions": float(traced.quota_evictions),
        "buffer.evictions": float(traced.evictions),
        "buffer.dirty_evictions": float(traced.dirty_evictions),
        "storage.reads": float(traced.disk_reads),
        "storage.writes": float(traced.disk_writes),
        "obs.hist_p999_ms": hist_p999 if hist_p999 is not None else 0.0,
        "obs.exact_p999_ms": exact_p999,
    })
    in_spans = recorder.total_self_s(exclude=("workloads",))
    finish_trace(outcome, metrics, recorder, collector, name,
                 plain_raw * plain_factor, traced_raw * factor,
                 unattributed=1.0 - in_spans / lane.busy_s,
                 spans_out=spans_out, factor=factor)
    return outcome


def finish_trace(outcome: Outcome, metrics: Dict[str, float],
                 recorder: layers.Recorder, collector: GcMonitor, name: str,
                 plain_s: float, traced_s: float, unattributed: float,
                 spans_out: Path, factor: float) -> None:
    metrics.update({
        "gc.collections": float(collector.collections),
        "gc.pause_s": collector.pause_s * factor,
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "trace.unattributed_frac": unattributed,
        "trace.spans": float(recorder.spans),
    })
    limit = UNATTRIBUTED_LIMIT[name]
    if not -limit <= unattributed <= limit:
        outcome.problems.append(f"layers leave {unattributed:.1%} of the "
                                f"traced wall time unattributed "
                                f"(limit {limit:.0%})")
    recorder.write(spans_out)
    outcome.note(f"  traced {traced_s:.3f} s vs untraced {plain_s:.3f} s: "
                 f"overhead {traced_s / plain_s - 1.0:+.1%}; "
                 f"{recorder.spans} spans written to {spans_out}")
    outcome.metrics = metrics


# -- entry point -------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool,
            speed: HostSpeed, oracle: dict) -> Outcome:
    input_seed = seed % INPUT_SEEDS
    if trace:
        spans_out = program_mod.OUT / "spans" / f"{name}.json.gz"
        if name in tables.TABLE_WORKLOADS:
            outcome = trace_table(name, input_seed, speed, oracle, spans_out)
        else:
            outcome = trace_serve(name, input_seed, speed, oracle, spans_out)
    elif name in tables.TABLE_WORKLOADS:
        outcome = run_table(name, input_seed, seconds, speed, oracle)
    else:
        outcome = run_serve(name, input_seed, seconds, speed, oracle)
    outcome.lines.insert(0, f"{name}: seed {seed} (input seed {input_seed}), "
                            f"{'traced' if trace else 'untraced'}")
    return outcome


def report(name: str, outcome: Outcome, units: Dict[str, str]) -> None:
    for line in outcome.lines:
        print(line)
    for metric, unit in units.items():
        print(f"  {metric:<28} {outcome.metrics[metric]:>16.6g} {unit}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1
    print(f"  failed_frac {failed_frac:.6g} ({outcome.failed} of "
          f"{outcome.attempted}); guards "
          + ("pass" if not outcome.problems else
             "FAIL: " + "; ".join(outcome.problems)))


def result_json(outcome: Outcome, units: Dict[str, str],
                prefix: str = "") -> dict:
    return {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {f"{prefix}{metric}": {"value": outcome.metrics[metric],
                                          "unit": unit}
                    for metric, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program_mod.prepare()
        oracle = load_oracle()
    except (program_mod.ProgramMissing, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    # Untimed: loads the standard library and NumPy and compiles bytecode,
    # which happen once per process (or once per checkout).
    program_mod.load()
    speed = HostSpeed()
    units = PER_LAYER if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        outcome = run_one(name, args.seed, args.seconds, bool(args.trace),
                          speed, oracle)
        report(name, outcome, units)
        part = result_json(outcome, units,
                           prefix=f"{name}/" if len(names) > 1 else "")
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update(part["metrics"])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
