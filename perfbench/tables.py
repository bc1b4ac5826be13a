"""Table workloads: regenerate a paper table end to end.

Each operation the benchmark checks is one table value: a hit ratio in a
policy column or an entry of the B(1)/B(2) column. A regeneration calls
``run_experiment(spec, jobs=1)``: sweeps stay serial, because a fork pool
on two shared cores would measure the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .program import Program

#: A table's values by name: ``"B=100 LRU-2"`` or ``"B=100 B(1)/B(2)"``.
TableValues = Dict[str, Optional[float]]


@dataclass(frozen=True)
class TableWorkload:
    """One paper table at a fixed scale."""

    name: str
    build: Callable[[Program, int], object]
    #: Whether the guard requires fused-kernel runs (else it forbids them).
    expects_fused: bool


TABLE_WORKLOADS = {
    "table43-oltp": TableWorkload(
        "table43-oltp",
        lambda program, seed: program.table_4_3_spec(scale=0.02, seed=seed),
        expects_fused=False),
    "table42-zipf": TableWorkload(
        "table42-zipf",
        lambda program, seed: program.table_4_2_spec(scale=1.0, seed=seed),
        expects_fused=True),
}


def table_values(result) -> TableValues:
    """Every value of a regenerated table, keyed by row and column."""
    values: TableValues = {}
    labels = [spec.label for spec in result.spec.policies]
    for cell in result.cells:
        for label in labels:
            values[f"B={cell.capacity} {label}"] = cell.hit_ratio(label)
        if result.spec.equi_effective is not None:
            values[f"B={cell.capacity} B(1)/B(2)"] = (
                result.equi_effective_ratios.get(cell.capacity))
    return values


def hit_ratio_mean(values: TableValues) -> float:
    """Mean of the table's hit-ratio entries (the policy columns)."""
    ratios = [value for key, value in values.items()
              if not key.endswith("B(1)/B(2)") and value is not None]
    return sum(ratios) / len(ratios)


def mismatches(values: TableValues, expected: TableValues) -> List[str]:
    """Names of values that differ from the recorded ones (exact match)."""
    names = sorted(set(values) | set(expected))
    return [name for name in names
            if name not in values or name not in expected
            or values[name] != expected[name]]


@dataclass
class EngineCount:
    """Which simulation engine each protocol run used."""

    runs: int = 0
    fused: int = 0

    @property
    def object_runs(self) -> int:
        return self.runs - self.fused

    @property
    def fused_share(self) -> float:
        return self.fused / self.runs if self.runs else 0.0


def count_engines(program: Program, patches) -> EngineCount:
    """Count runs and fused-kernel runs with two call counters.

    Wraps ``runner.measure_hit_ratio`` (one call per protocol run) and
    ``CacheSimulator.run_fused`` (true when a fused kernel played the
    run). No tracer or sink is attached, so engine choice is unchanged.
    """
    count = EngineCount()
    measure = program.runner.measure_hit_ratio
    run_fused = program.cache.CacheSimulator.run_fused

    def counted_measure(*args, **kwargs):
        count.runs += 1
        return measure(*args, **kwargs)

    def counted_fused(simulator, *args, **kwargs):
        fused = run_fused(simulator, *args, **kwargs)
        if fused:
            count.fused += 1
        return fused

    patches.set(program.runner, "measure_hit_ratio", counted_measure)
    patches.set(program.cache.CacheSimulator, "run_fused", counted_fused)
    return count


def guard_failures(workload: TableWorkload, spec, engines: EngineCount,
                   program: Program) -> List[str]:
    """The workload-property guards that do not hold, as messages."""
    failures = []
    if engines.runs == 0:
        failures.append("no protocol runs were counted")
    if workload.expects_fused and engines.fused == 0:
        failures.append("expected fused-kernel runs, saw none")
    if not workload.expects_fused and engines.fused != 0:
        failures.append(f"expected no fused-kernel runs, saw {engines.fused}")
    # Batch kernels engage at this trace length, while they exist.
    threshold = getattr(program.cache, "BATCH_MIN_REFS", None)
    if (workload.expects_fused and threshold is not None
            and spec.warmup + spec.measured >= threshold):
        failures.append(f"trace of {spec.warmup + spec.measured} references "
                        f"reaches the batch threshold {threshold}")
    return failures
