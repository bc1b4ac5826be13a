"""BENCH_history.jsonl ledger + repro perf regression verdicts."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import append_record, check_regression, load_history
from repro.obs import perf
from repro.obs.perf import (
    HISTORY_SCHEMA,
    default_history_path,
    machine_block,
    render_report,
)


def _append_on(monkeypatch, machine, path, value):
    """Append an ``lruk_kernel`` record as if measured on ``machine``."""
    monkeypatch.setattr(perf, "machine_block", lambda: dict(machine))
    append_record(str(path), "a12c", {"lruk_kernel": value})


def _seed(path, values, bench="a12c", metric="lruk_kernel"):
    for index, value in enumerate(values):
        append_record(str(path), bench, {metric: value},
                      timestamp=f"2026-01-{index + 1:02d}T00:00:00Z")


class TestLedger:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        record = append_record(
            str(path), "a12c", {"lruk_kernel": 1000.0, "skipped": None},
            meta={"cores": 4}, timestamp="2026-01-01T00:00:00Z")
        assert record["schema"] == HISTORY_SCHEMA
        loaded = load_history(str(path))
        assert loaded == [record]
        assert loaded[0]["metrics"]["skipped"] is None
        assert loaded[0]["meta"] == {"cores": 4}

    def test_bench_name_required(self, tmp_path):
        with pytest.raises(ConfigurationError):
            append_record(str(tmp_path / "h.jsonl"), "", {"m": 1.0})

    def test_load_filters_by_bench(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(str(path), "a12c", {"m": 1.0})
        append_record(str(path), "a12d", {"m": 2.0})
        assert [r["bench"] for r in load_history(str(path))] == \
            ["a12c", "a12d"]
        assert [r["metrics"]["m"]
                for r in load_history(str(path), bench="a12d")] == [2.0]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_load_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        good = append_record(str(path), "a12c", {"m": 1.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn json\n")
            handle.write('"just a string"\n')
            handle.write(json.dumps({"bench": "x"}) + "\n")  # no metrics
            handle.write(json.dumps(  # a future writer
                {"schema": HISTORY_SCHEMA + 1, "bench": "a12c",
                 "metrics": {"m": 9.0}}) + "\n")
        assert load_history(str(path)) == [good]

    def test_default_path_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_HISTORY", "/tmp/custom.jsonl")
        assert default_history_path() == "/tmp/custom.jsonl"
        monkeypatch.delenv("REPRO_BENCH_HISTORY")
        assert default_history_path() == "BENCH_history.jsonl"


class TestVerdicts:
    def test_ok_within_threshold(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0, 1020.0, 980.0, 990.0])
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "ok"
        assert verdict.exit_code == 0
        assert verdict.baseline == 1000.0  # median of first three
        assert verdict.latest == 990.0
        assert verdict.ratio == pytest.approx(0.99)

    def test_regression_beyond_threshold(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0, 1000.0, 1000.0, 850.0])
        verdict = check_regression(load_history(str(path)), "lruk_kernel",
                                   threshold=0.10)
        assert verdict.status == "regression"
        assert verdict.exit_code == 1
        assert "regressed" in verdict.message

    def test_median_baseline_shrugs_off_one_outlier(self, tmp_path):
        path = tmp_path / "h.jsonl"
        # One anomalously fast historical run must not fail the latest.
        _seed(path, [1000.0, 5000.0, 1000.0, 990.0])
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "ok"
        assert verdict.baseline == 1000.0

    def test_window_bounds_the_baseline(self, tmp_path):
        path = tmp_path / "h.jsonl"
        # Ancient slow records age out of a window of 2.
        _seed(path, [100.0, 100.0, 1000.0, 1000.0, 995.0])
        verdict = check_regression(load_history(str(path)), "lruk_kernel",
                                   window=2)
        assert verdict.status == "ok"
        assert verdict.window_values == [1000.0, 1000.0]

    def test_empty_history_insufficient(self):
        verdict = check_regression([], "lruk_kernel")
        assert verdict.status == "insufficient"
        assert verdict.exit_code == 0

    def test_single_record_insufficient(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0])
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "insufficient"
        assert verdict.exit_code == 0

    def test_null_latest_is_skipped_not_judged(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0, 1000.0])
        append_record(str(path), "a12c", {"lruk_kernel": None},
                      meta={"skipped_reason": "single-core"})
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "skipped"
        assert verdict.exit_code == 0

    def test_null_rows_excluded_from_baseline(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(str(path), "a12c", {"lruk_kernel": 1000.0})
        append_record(str(path), "a12c", {"lruk_kernel": None})
        append_record(str(path), "a12c", {"lruk_kernel": 1010.0})
        append_record(str(path), "a12c", {"lruk_kernel": 990.0})
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "ok"
        assert verdict.window_values == [1000.0, 1010.0]

    def test_records_carry_the_machine(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record = append_record(str(path), "a12c", {"m": 1.0})
        assert record["machine"] == machine_block()
        assert set(record["machine"]) == {"hostname", "cpu_count", "python"}

    def test_cross_host_record_is_not_a_regression(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "h.jsonl"
        fast = {"hostname": "fast", "cpu_count": 8, "python": "3.11.7"}
        slow = {"hostname": "slow", "cpu_count": 2, "python": "3.11.7"}
        for value in (800.0, 810.0, 790.0):
            _append_on(monkeypatch, fast, path, value)
        _append_on(monkeypatch, slow, path, 296.0)
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "insufficient"
        assert verdict.exit_code == 0
        assert "slow" in verdict.message and "3 from other" in verdict.message

    def test_same_host_regression_still_fails(self, tmp_path, monkeypatch):
        path = tmp_path / "h.jsonl"
        host = {"hostname": "box", "cpu_count": 2, "python": "3.11.7"}
        other = {"hostname": "other", "cpu_count": 2, "python": "3.11.7"}
        for value in (1000.0, 1000.0):
            _append_on(monkeypatch, host, path, value)
        # A slow foreign record between them joins neither side.
        _append_on(monkeypatch, other, path, 100.0)
        _append_on(monkeypatch, host, path, 850.0)
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "regression"
        assert verdict.window_values == [1000.0, 1000.0]
        assert verdict.exit_code == 1

    def test_legacy_records_count_as_one_unknown_machine(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for value in (1000.0, 1000.0, 800.0):
                handle.write(json.dumps(
                    {"schema": HISTORY_SCHEMA, "bench": "a12c",
                     "metrics": {"lruk_kernel": value}}) + "\n")
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "regression"
        append_record(str(path), "a12c", {"lruk_kernel": 10.0})
        verdict = check_regression(load_history(str(path)), "lruk_kernel")
        assert verdict.status == "insufficient"

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            check_regression([], "m", threshold=0.0)
        with pytest.raises(ConfigurationError):
            check_regression([], "m", threshold=1.0)
        with pytest.raises(ConfigurationError):
            check_regression([], "m", window=0)


class TestReportAndCli:
    def test_report_renders_trajectory_and_nulls(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0, 1100.0, 1200.0])
        append_record(str(path), "a12c", {"lruk_kernel": None},
                      meta={"skipped_reason": "single-core"},
                      timestamp="2026-01-04T00:00:00Z")
        records = load_history(str(path))
        verdict = check_regression(records, "lruk_kernel")
        report = render_report(records, verdict)
        assert "4 record(s)" in report
        assert "(null)" in report and "single-core" in report
        assert "trend:" in report
        assert report.endswith(verdict.message)

    def test_cli_ok_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0, 1000.0, 1005.0])
        assert main(["perf", "--history", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_regression_exit_one(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0, 1000.0, 500.0])
        assert main(["perf", "--history", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_custom_metric_and_threshold(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [10.0, 10.0, 8.0], bench="a12d", metric="speedup")
        assert main(["perf", "--history", str(path), "--bench", "a12d",
                     "--metric", "speedup", "--threshold", "0.3"]) == 0
        assert main(["perf", "--history", str(path), "--bench", "a12d",
                     "--metric", "speedup", "--threshold", "0.1"]) == 1

    def test_cli_default_history_via_env(self, tmp_path, monkeypatch,
                                         capsys):
        path = tmp_path / "h.jsonl"
        _seed(path, [1000.0, 990.0])
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(path))
        assert main(["perf"]) == 0
        assert "lruk_kernel" in capsys.readouterr().out

    def test_committed_ledger_passes_the_gate(self):
        """The repo's own seeded BENCH_history.jsonl must never fail CI."""
        import os
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        ledger = os.path.join(root, "BENCH_history.jsonl")
        assert os.path.exists(ledger)
        assert main(["perf", "--history", ledger]) == 0
