"""Tests for the windowed RED telemetry ring (`repro.obs.window`), its
exposure through the gateway's ``/v1/stats`` handler, and the
``artwork-top`` dashboard renderer."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.counters import percentile as _percentile
from repro.obs.window import WINDOWS, RollingWindow
from repro.top import render_dashboard


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock(1000.0)


@pytest.fixture()
def window(clock):
    return RollingWindow(horizon_s=900.0, bucket_s=5.0, clock=clock)


class TestPercentile:
    def test_nearest_rank(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(ordered, 0.50) == 2.0
        assert _percentile(ordered, 0.95) == 4.0
        assert _percentile(ordered, 0.0) == 1.0
        assert _percentile([], 0.5) == 0.0
        assert _percentile([7.0], 0.95) == 7.0


class TestRollingWindow:
    def test_basic_red_aggregate(self, window, clock):
        for seconds in (0.1, 0.2, 0.3, 0.4):
            window.observe("ep", seconds)
        window.observe("ep", 1.0, error=True)
        stats = window.window(60.0)["ep"]
        assert stats["count"] == 5
        assert stats["errors"] == 1
        assert stats["qps"] == pytest.approx(5 / 60.0, abs=1e-6)
        assert stats["error_ratio"] == pytest.approx(0.2)
        assert stats["mean"] == pytest.approx(0.4)
        assert stats["p50"] == pytest.approx(0.3)
        assert stats["p95"] == pytest.approx(1.0)
        assert stats["max"] == pytest.approx(1.0)

    def test_rotation_expires_short_window_first(self, window, clock):
        for _ in range(10):
            window.observe("ep", 0.05)
        assert window.window(60.0)["ep"]["count"] == 10
        clock.advance(70.0)
        assert window.window(60.0)["ep"]["count"] == 0
        assert window.window(300.0)["ep"]["count"] == 10
        clock.advance(300.0)
        assert window.window(300.0)["ep"]["count"] == 0
        assert window.window(900.0)["ep"]["count"] == 10

    def test_idle_series_reports_zeros(self, window, clock):
        window.observe("ep", 0.2)
        clock.advance(3600.0)
        stats = window.window(60.0)["ep"]
        assert stats == {
            "count": 0, "errors": 0, "qps": 0.0, "error_ratio": 0.0,
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0,
        }

    def test_ring_wrap_reuses_stale_buckets(self, window, clock):
        window.observe("ep", 0.5)
        # One full trip around the ring lands on the same slot index with
        # a different stamp: the stale bucket must be invalidated, not
        # double-counted.
        clock.advance(window.slots * window.bucket_s)
        window.observe("ep", 0.1)
        stats = window.window(900.0)["ep"]
        assert stats["count"] == 1
        assert stats["max"] == pytest.approx(0.1)

    def test_sample_cap_and_stride_replacement(self, clock):
        window = RollingWindow(horizon_s=60.0, bucket_s=60.0, max_samples=8, clock=clock)
        for i in range(100):
            window.observe("ep", float(i))
        stats = window.window(60.0)["ep"]
        assert stats["count"] == 100
        assert stats["mean"] == pytest.approx(sum(range(100)) / 100)
        # The bounded reservoir keeps recent values via stride replacement.
        ring = window._series["ep"]
        bucket = next(b for b in ring if b is not None)
        assert len(bucket.samples) == 8
        assert stats["max"] <= 99.0

    def test_window_capped_at_horizon(self, window, clock):
        window.observe("ep", 0.2)
        clock.advance(850.0)
        assert window.window(10_000.0)["ep"]["count"] == 1

    def test_keys_and_selective_window(self, window):
        window.observe("a", 0.1)
        window.observe("b", 0.2)
        assert window.keys() == ["a", "b"]
        only_a = window.window(60.0, keys=["a", "missing"])
        assert set(only_a) == {"a"}

    def test_snapshot_shape(self, window):
        window.observe("ep", 0.1)
        snap = window.snapshot()
        assert set(snap["ep"]) == set(WINDOWS)
        assert snap["ep"]["1m"]["count"] == 1

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(horizon_s=0.0)
        with pytest.raises(ValueError):
            RollingWindow(bucket_s=-1.0)
        with pytest.raises(ValueError):
            RollingWindow(horizon_s=5.0, bucket_s=10.0)
        with pytest.raises(ValueError):
            RollingWindow(max_samples=0)


class TestStatsEndpointRotation:
    """`GET /v1/stats` reads live windows: swap in fake-clock rings and
    drive the handler directly (no sockets needed)."""

    def _stats_body(self, gateway) -> dict:
        from repro.gateway.protocol import HTTPRequest

        request = HTTPRequest(
            method="GET", target="/v1/stats", path="/v1/stats",
            query={}, headers={},
        )
        response = asyncio.run(gateway._stats(request, None, None))
        assert response.status == 200
        return json.loads(response.body)

    def test_windows_rotate_between_polls(self):
        from repro.gateway.server import ArtworkGateway, GatewayConfig

        gateway = ArtworkGateway(GatewayConfig(workers=1))
        clock = FakeClock(500.0)
        gateway.windows = RollingWindow(clock=clock)
        gateway.stage_windows = RollingWindow(clock=clock)
        try:
            gateway.windows.observe("POST /v1/jobs", 0.25)
            gateway.stage_windows.observe("worker.exec", 0.2)

            body = self._stats_body(gateway)
            assert set(body["windows"]) == set(WINDOWS)
            assert body["endpoints"]["POST /v1/jobs"]["1m"]["count"] == 1
            assert body["endpoints"]["POST /v1/jobs"]["1m"]["p50"] == pytest.approx(0.25)
            assert body["stages"]["worker.exec"]["1m"]["count"] == 1

            clock.advance(70.0)
            body = self._stats_body(gateway)
            assert body["endpoints"]["POST /v1/jobs"]["1m"]["count"] == 0
            assert body["endpoints"]["POST /v1/jobs"]["5m"]["count"] == 1
        finally:
            gateway.pool.close(drain=False)


class TestDashboardRenderer:
    def _stats(self) -> dict:
        red = {
            "count": 12, "errors": 1, "qps": 0.2, "error_ratio": 1 / 12,
            "mean": 0.2, "p50": 0.15, "p95": 0.8, "max": 1.2,
        }
        zero = {k: 0 if isinstance(v, int) else 0.0 for k, v in red.items()}
        return {
            "version": "1.2.3",
            "uptime_s": 321.0,
            "draining": False,
            "windows": dict(WINDOWS),
            "endpoints": {"POST /v1/jobs": {"1m": red, "5m": red, "15m": zero}},
            "stages": {"worker.exec": {"1m": red, "5m": zero, "15m": zero}},
            "gauges": {
                "queue_depth": 3,
                "in_flight": 1,
                "jobs_tracked": 40,
                "workers": {"size": 2, "alive": 2, "idle": 1, "busy": 1, "dead": 0},
                "cache": {"entries": 7, "hit_rate": 0.5},
            },
            "totals": {"service.jobs": 40, "service.cache_hits": 20,
                       "gateway.slow_requests": 2},
        }

    def test_render_dashboard_plain_text(self):
        board = render_dashboard(self._stats(), window="1m")
        assert "\x1b" not in board  # pure text; ANSI lives in the loop
        assert "artwork-serve 1.2.3" in board
        assert "queue 3" in board
        assert "workers 2/2 (busy 1, idle 1)" in board
        assert "POST /v1/jobs" in board
        assert "worker.exec" in board
        assert "8.3%" in board  # 1/12 errors
        assert "0.15s" in board and "0.80s" in board
        assert "slow requests 2" in board
        assert "cache 7 entries, 50% hit" in board

    def test_render_idle_windows(self):
        board = render_dashboard(self._stats(), window="15m")
        assert "(15m window)" in board
        # Idle series still render (zero row), the section is not empty.
        assert "POST /v1/jobs" in board

    def test_render_empty_stats(self):
        board = render_dashboard({"endpoints": {}, "stages": {}})
        assert "(no traffic yet)" in board

    def test_render_breaker_journal_and_profiler(self):
        stats = self._stats()
        stats["breaker"] = {
            "state": "open", "failures_in_window": 3, "threshold": 3,
            "trips": 1, "heals": 0,
        }
        stats["journal"] = {"live_jobs": 2, "appended": 9, "compactions": 1}
        stats["profile"] = {
            "running": True, "hz": 19.0, "ticks": 1234, "errors": 1,
            "overhead_ratio": 0.0042, "attributed_ratio": 0.93,
            "last_window": {
                "samples": 95, "duration_s": 5.0,
                "top_frames": [["repro.route.expand", 40],
                               ["repro.place.sweep", 30],
                               ["idle.wait", 25]],
                "spans": {"job>eureka.route": 70, "": 25},
            },
        }
        board = render_dashboard(stats, window="1m")
        assert "breaker OPEN (3/3 deaths, 1 trips, 0 heals)" in board
        assert "journal 2 live, 9 appended, 1 compactions" in board
        assert "profiler  (19 hz, 1234 ticks" in board
        assert "93% attributed" in board and "1 errors" in board
        assert "repro.route.expand" in board
        assert "42.1%" in board  # 40/95 self-time share

    def test_profiler_pane_hidden_when_sampler_off(self):
        stats = self._stats()
        stats["profile"] = {"running": False}
        board = render_dashboard(stats, window="1m")
        assert "profiler" not in board

    def test_profiler_pane_empty_window(self):
        stats = self._stats()
        stats["profile"] = {
            "running": True, "hz": 19.0, "ticks": 3, "errors": 0,
            "overhead_ratio": 0.0, "attributed_ratio": 0.0,
            "last_window": {"samples": 0, "top_frames": []},
        }
        board = render_dashboard(stats, window="1m")
        assert "(no samples in the last window)" in board
