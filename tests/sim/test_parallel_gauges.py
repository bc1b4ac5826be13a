"""Gauge relay from forked sweep workers: serial == --jobs N visibility."""

import os
from concurrent.futures import ALL_COMPLETED

import pytest

from repro.obs import EventDispatcher, MetricsRegistry
from repro.sim import PolicySpec, fork_available, sweep_buffer_sizes
from repro.sim import parallel
from repro.workloads import ZipfianWorkload

SPECS = [PolicySpec.lru(), PolicySpec.lruk(2)]


def _sweep_cells(capacities, specs, jobs=1):
    dispatcher = EventDispatcher()
    dispatcher.metrics = MetricsRegistry()
    workload = ZipfianWorkload(n=100)
    sweep_buffer_sizes(workload, specs, capacities, warmup=500,
                       measured=1500, seed=3, repetitions=1, jobs=jobs,
                       observability=dispatcher)
    return dispatcher.metrics


def _sweep(jobs):
    return _sweep_cells([8, 16], SPECS, jobs=jobs)


class TestGaugeRelay:
    def test_registry_gauge_values_excludes_callable_gauges(self):
        registry = MetricsRegistry()
        registry.set_gauge("plain", 4.0)
        registry.gauge("live", lambda: 9.0)
        assert registry.gauge_values() == {"plain": 4.0}

    def test_merge_is_last_write_wins_with_provenance(self):
        registry = MetricsRegistry()
        registry.merge_gauges({"g": 1.0}, worker="100")
        registry.merge_gauges({"g": 2.0}, worker="200")
        assert registry.snapshot()["g"] == 2.0
        assert registry.gauge_source("g") == "200"
        assert registry.gauge_source("unknown") is None

    def test_merge_never_overwrites_a_live_parent_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("live", lambda: 42.0)
        registry.merge_gauges({"live": 0.0}, worker="100")
        assert registry.snapshot()["live"] == 42.0
        assert registry.gauge_source("live") is None

    def test_serial_sweep_publishes_run_gauges(self):
        registry = _sweep(jobs=1)
        snapshot = registry.snapshot()
        assert 0.0 <= snapshot["protocol.last_run_hit_ratio"] <= 1.0
        assert snapshot["protocol.last_run_evictions"] >= 0.0
        assert snapshot["sweep.cells_total"] == 4.0
        assert snapshot["sweep.cells_done"] == 4.0

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel engine needs fork")
    def test_worker_gauges_visible_under_jobs(self):
        """Satellite acceptance: the same gauge names are visible after a
        serial and a --jobs 2 sweep, with worker provenance attached."""
        serial = _sweep(jobs=1)
        fanned = _sweep(jobs=2)
        serial_gauges = set(serial.gauge_values())
        fanned_gauges = set(fanned.gauge_values())
        assert serial_gauges == fanned_gauges
        assert "protocol.last_run_hit_ratio" in fanned_gauges

        # Relayed values carry which worker pid last wrote them; the
        # parent never relays to itself.
        source = fanned.gauge_source("protocol.last_run_hit_ratio")
        assert source is not None and source.isdigit()
        assert int(source) != os.getpid()
        assert serial.gauge_source("protocol.last_run_hit_ratio") is None

        # Last-write-wins still lands a real measurement, and progress
        # gauges total up identically.
        value = fanned.snapshot()["protocol.last_run_hit_ratio"]
        assert 0.0 <= value <= 1.0
        assert fanned.snapshot()["sweep.cells_done"] == \
            serial.snapshot()["sweep.cells_done"]

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel engine needs fork")
    def test_final_gauges_follow_grid_order_not_completion_order(
            self, monkeypatch):
        """Cells completing in reverse grid order must still leave the
        serial run's gauge values: the grid-last cell's, not whichever
        worker finished last."""
        real_wait = parallel.wait

        def reversed_wait(window, timeout=None, return_when=None):
            done, pending = real_wait(window, timeout=timeout,
                                      return_when=ALL_COMPLETED)
            flights = sorted(done, reverse=True,
                             key=lambda future: (window[future].capacity,
                                                 window[future].index))
            return flights, pending

        monkeypatch.setattr(parallel, "wait", reversed_wait)
        serial = _sweep(jobs=1).gauge_values()
        fanned = _sweep(jobs=4).gauge_values()
        # The first cell's gauges differ from the last's, so a
        # completion-order merge would be caught here.
        first = _sweep_cells([8], [SPECS[0]]).gauge_values()
        assert (first["protocol.last_run_evictions"]
                != serial["protocol.last_run_evictions"])
        assert fanned == serial
