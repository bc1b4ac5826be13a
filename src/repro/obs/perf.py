"""Perf-trajectory tracking: BENCH history records and regression checks.

``BENCH_overhead.json`` is a snapshot — it answers "how fast is this
checkout" and is overwritten on every bench run, so the repo had no
memory of whether the fused kernels are getting faster or slower. This
module gives the benches an append-only ledger:

- benches call :func:`append_record` after each run, adding one
  schema-versioned JSON line to ``BENCH_history.jsonl``;
- ``repro perf`` (:func:`check_regression` + :func:`render_report`)
  diffs the latest record against a baseline window of earlier records
  and exits non-zero when a watched metric (default: ``lruk_kernel``
  references/second) regresses beyond a threshold — the trajectory
  counterpart of CI's absolute ``lruk_kernel >= 1.5x lruk_heap`` gate.

Every record names the machine it was measured on (a ``machine`` block:
hostname, core count, Python version), and the baseline window holds
only records from the latest record's machine: a throughput measured on
a slower host is not a regression of the code. Records written before
the block existed count as one unknown machine.

Records whose metric is ``null`` (e.g. the A12d speedup on a
single-core machine, which records a ``skipped_reason`` instead of a
measurement) are skipped by both the baseline window and the verdict,
so an unmeasurable environment can never masquerade as a regression.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "HISTORY_SCHEMA",
    "PerfVerdict",
    "append_record",
    "load_history",
    "check_regression",
    "machine_block",
    "render_report",
    "default_history_path",
]

#: Schema version stamped into every history record. Bump when record
#: keys change shape, so trend tooling can detect rather than mis-join.
HISTORY_SCHEMA = 1

#: The default ledger file name, living next to ``BENCH_overhead.json``.
HISTORY_FILENAME = "BENCH_history.jsonl"


def default_history_path() -> str:
    """Where the ledger lives: ``$REPRO_BENCH_HISTORY`` or the cwd."""
    return os.environ.get("REPRO_BENCH_HISTORY", HISTORY_FILENAME)


def machine_block() -> Dict[str, object]:
    """Identify the machine a measurement is taken on."""
    return {"hostname": socket.gethostname(),
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version()}


def append_record(path: str, bench: str,
                  metrics: Dict[str, Optional[float]],
                  meta: Optional[Dict[str, object]] = None,
                  timestamp: Optional[str] = None) -> Dict[str, object]:
    """Append one schema-versioned record to the JSONL ledger.

    ``metrics`` maps metric name to a number or ``None`` (= the bench
    ran but could not measure this quantity here; see module docstring).
    ``meta`` carries run context (core count, commit, scale) — anything
    a future reader needs to judge comparability. The record names this
    host in a :func:`machine_block`, which decides what it is compared
    with. The record is written with one ``write`` call after the line
    is fully serialized, so a crash mid-append cannot leave a torn line
    before valid ones.
    """
    if not bench:
        raise ConfigurationError("history records need a bench name")
    record: Dict[str, object] = {
        "schema": HISTORY_SCHEMA,
        "bench": bench,
        "timestamp": timestamp if timestamp is not None else time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": {name: (None if value is None else float(value))
                    for name, value in metrics.items()},
        "machine": machine_block(),
    }
    if meta:
        record["meta"] = dict(meta)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(path: str, bench: Optional[str] = None
                 ) -> List[Dict[str, object]]:
    """Read the ledger, oldest first, tolerating a truncated tail.

    Lines that fail to parse, lack the record shape, or carry a schema
    *newer* than this reader understands are skipped — an interrupted
    append or a future writer must not brick ``repro perf``.
    """
    records: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if not isinstance(record.get("metrics"), dict):
                continue
            schema = record.get("schema")
            if not isinstance(schema, int) or schema > HISTORY_SCHEMA:
                continue
            if bench is not None and record.get("bench") != bench:
                continue
            records.append(record)
    return records


def _machine_key(record: Dict[str, object]
                 ) -> Optional[Tuple[Tuple[str, str], ...]]:
    """A hashable machine identity; None for records without one."""
    machine = record.get("machine")
    if not isinstance(machine, dict):
        return None
    return tuple(sorted((str(key), str(value))
                        for key, value in machine.items()))


def _machine_name(record: Dict[str, object]) -> str:
    machine = record.get("machine")
    if isinstance(machine, dict):
        return str(machine.get("hostname", "?"))
    return "unknown machine"


def _metric_value(record: Dict[str, object],
                  metric: str) -> Optional[float]:
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        return None
    value = metrics.get(metric)
    return float(value) if isinstance(value, (int, float)) else None


@dataclass
class PerfVerdict:
    """The outcome of diffing the latest record against its baseline.

    ``status`` is one of:

    - ``"ok"`` — the latest measurement is within threshold of (or
      better than) the baseline window's median;
    - ``"regression"`` — it fell more than ``threshold`` below it;
    - ``"insufficient"`` — no baseline window exists yet (no earlier
      measured record from the latest record's machine), so there is
      nothing to diff against;
    - ``"skipped"`` — the latest record carries no measurement for this
      metric (a ``null`` row).

    Only ``"regression"`` is non-zero (:attr:`exit_code`): a young or
    unmeasurable ledger must not fail CI.
    """

    status: str
    metric: str
    threshold: float
    latest: Optional[float] = None
    baseline: Optional[float] = None
    window_values: List[float] = field(default_factory=list)
    message: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """latest / baseline, when both exist."""
        if self.latest is None or not self.baseline:
            return None
        return self.latest / self.baseline

    @property
    def exit_code(self) -> int:
        """Process exit code for ``repro perf``."""
        return 1 if self.status == "regression" else 0


def check_regression(records: List[Dict[str, object]], metric: str,
                     threshold: float = 0.10,
                     window: int = 5) -> PerfVerdict:
    """Diff the newest record's ``metric`` against a baseline window.

    The baseline is the *median* of up to ``window`` measured (non-null)
    values preceding the latest record on the same machine — the median
    shrugs off a single anomalously fast or slow historical run that a
    mean would chase, and records from other machines are set aside.
    A regression is ``latest < (1 - threshold) * baseline``. Higher is
    assumed better (the ledger records throughputs and speedups).
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must be in (0, 1)")
    if window <= 0:
        raise ConfigurationError("baseline window must be positive")
    if not records:
        return PerfVerdict(status="insufficient", metric=metric,
                           threshold=threshold,
                           message="history is empty: nothing to diff")
    latest = _metric_value(records[-1], metric)
    if latest is None:
        return PerfVerdict(
            status="skipped", metric=metric, threshold=threshold,
            message=f"latest record has no measurement for {metric!r} "
                    "(null row); nothing to judge")
    machine = _machine_key(records[-1])
    earlier: List[float] = []
    elsewhere = 0
    for record in records[:-1]:
        value = _metric_value(record, metric)
        if value is None:
            continue
        if _machine_key(record) != machine:
            elsewhere += 1
            continue
        earlier.append(value)
    window_values = earlier[-window:]
    if not window_values:
        return PerfVerdict(
            status="insufficient", metric=metric, threshold=threshold,
            latest=latest,
            message=f"no earlier measured records for {metric!r} on "
                    f"{_machine_name(records[-1])} ({elsewhere} from other "
                    "machines set aside): baseline window is empty")
    baseline = float(median(window_values))
    verdict = PerfVerdict(status="ok", metric=metric, threshold=threshold,
                          latest=latest, baseline=baseline,
                          window_values=window_values)
    if baseline > 0 and latest < (1.0 - threshold) * baseline:
        verdict.status = "regression"
        drop = 1.0 - latest / baseline
        verdict.message = (
            f"{metric} regressed {drop:.1%} vs the {len(window_values)}"
            f"-record baseline median ({latest:,.0f} < "
            f"{(1 - threshold) * baseline:,.0f} allowed)")
    else:
        verdict.message = (
            f"{metric} within threshold: latest {latest:,.0f} vs baseline "
            f"median {baseline:,.0f} over {len(window_values)} record(s)")
    return verdict


_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float]) -> str:
    """A tiny unicode trajectory of the metric, oldest to newest."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK[3] * len(values)
    scale = (len(_SPARK) - 1) / (high - low)
    return "".join(_SPARK[int((value - low) * scale)] for value in values)


def render_report(records: List[Dict[str, object]], verdict: PerfVerdict,
                  tail: int = 8) -> str:
    """A terminal report: recent trajectory table plus the verdict."""
    lines = [f"perf trajectory for {verdict.metric!r} "
             f"({len(records)} record(s) in history)"]
    shown = records[-tail:]
    values = []
    for record in shown:
        value = _metric_value(record, verdict.metric)
        stamp = str(record.get("timestamp", "?"))
        rendered = f"{value:>14,.0f}" if value is not None else (
            "       (null)")
        note = ""
        meta = record.get("meta")
        if value is None and isinstance(meta, dict):
            note = f"  [{meta.get('skipped_reason', 'unmeasured')}]"
        lines.append(f"  {stamp}  {rendered}  {_machine_name(record)}"
                     f"{note}")
        if value is not None:
            values.append(value)
    if len(values) >= 2:
        lines.append(f"  trend: {_sparkline(values)}")
    if verdict.baseline is not None and verdict.latest is not None:
        assert verdict.ratio is not None
        lines.append(
            f"  baseline median {verdict.baseline:,.0f} | latest "
            f"{verdict.latest:,.0f} | ratio {verdict.ratio:.3f} | "
            f"threshold -{verdict.threshold:.0%}")
    lines.append(f"{verdict.status.upper()}: {verdict.message}")
    return "\n".join(lines)
