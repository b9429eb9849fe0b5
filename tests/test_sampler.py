"""Tests for the always-on sampling profiler (``repro.obs.sampler``):
deterministic aggregation via injectable frame sources and clocks, ring
eviction, span/thread attribution, fault absorption, flamegraph
rendering, cross-process window shipping, and the overhead guard."""

import threading
import time

import pytest

from repro.faults import FaultRegistry, set_faults
from repro.gateway import GatewayConfig, start_gateway
from repro.obs.counters import Registry, set_registry
from repro.obs.sampler import (
    DEFAULT_MAX_WINDOWS,
    MAX_STACKS_PER_WINDOW,
    ProfileWindow,
    Sampler,
    capture,
    collapse_frame,
    ensure_sampler,
    flamegraph_div,
    frame_name,
    get_sampler,
    label_thread,
    merge_windows,
    render_flamegraph_html,
    sampler_running,
    set_sampler,
    unlabel_thread,
    write_flamegraph_html,
)
from repro.obs.trace import Tracer, active_span_path, active_span_paths, set_tracer
from repro.service import BatchScheduler, JobSpec
from repro.workloads import random_network


class FakeFrame:
    """A frame-shaped object ``collapse_frame`` can walk."""

    def __init__(self, names, module="fake"):
        frame = None
        for name in names:  # outermost first
            frame = FakeFrame._link(name, module, frame)
        self._top = frame

    @staticmethod
    def _link(name, module, back):
        frame = object.__new__(FakeFrame)
        frame.f_code = type("code", (), {"co_name": name, "co_filename": "<fake>"})()
        frame.f_globals = {"__name__": module}
        frame.f_back = back
        return frame

    @property
    def top(self):
        return self._top


def fake_frames(**stacks):
    """``{thread_id: frame}`` source from ``tid=[names outermost first]``."""
    table = {int(tid.lstrip("t")): FakeFrame(names).top for tid, names in stacks.items()}
    return lambda: table


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_sampler(frame_source, *, span_source=None, window_s=5.0, max_windows=4):
    clock = FakeClock()
    sampler = Sampler(
        hz=10.0,
        window_s=window_s,
        max_windows=max_windows,
        clock=clock,
        wall_clock=lambda: 1000.0 + clock.now,
        frame_source=frame_source,
        span_source=span_source or dict,
    )
    return sampler, clock


class TestCollapse:
    def test_frame_name_module_qualname(self):
        frame = FakeFrame(["outer", "inner"]).top
        assert frame_name(frame) == "fake.inner"

    def test_collapse_outermost_first(self):
        frame = FakeFrame(["main", "route", "expand"]).top
        assert collapse_frame(frame) == ["fake.main", "fake.route", "fake.expand"]

    def test_depth_bound(self):
        frame = FakeFrame([f"f{i}" for i in range(200)]).top
        assert len(collapse_frame(frame, limit=16)) == 16


class TestAggregation:
    def test_deterministic_stacks(self):
        sampler, clock = make_sampler(fake_frames(t1=["main", "work"]))
        for _ in range(5):
            sampler.tick()
            clock.advance(0.1)
        window = sampler.windows()[-1]
        assert window.samples == 5
        assert window.stacks == {"fake.main;fake.work": 5}
        assert window.ticks == 5

    def test_multiple_threads_per_tick(self):
        sampler, clock = make_sampler(
            fake_frames(t1=["main", "place"], t2=["loop", "route"])
        )
        assert sampler.tick() == 2
        window = sampler.windows()[-1]
        assert window.samples == 2
        assert set(window.stacks) == {
            "fake.main;fake.place",
            "fake.loop;fake.route",
        }

    def test_excluded_threads_skipped(self):
        sampler, _ = make_sampler(fake_frames(t1=["a"], t2=["b"]))
        sampler.excluded.add(2)
        assert sampler.tick() == 1
        assert list(sampler.windows()[-1].stacks) == ["fake.a"]

    def test_window_rollover_and_ring_eviction(self):
        sampler, clock = make_sampler(
            fake_frames(t1=["f"]), window_s=1.0, max_windows=3
        )
        for _ in range(60):  # 6 s of ticks at 1 s windows -> >3 sealed
            sampler.tick()
            clock.advance(0.1)
        sealed = sampler.windows(include_current=False)
        assert len(sealed) == 3  # ring evicted the oldest
        assert all(w.end > w.start for w in sealed)
        # Epoch stamps track the wall clock for overlap queries.
        assert sealed[0].started_at >= 1000.0
        assert sealed[-1].ended_at > sealed[0].started_at

    def test_stack_cardinality_bound(self):
        window = ProfileWindow()
        for i in range(MAX_STACKS_PER_WINDOW + 40):
            window.add([f"root{i}", "leaf"], count=1 + (i % 3))
        window.seal(end=1.0, ended_at=1.0)
        assert len(window.stacks) <= MAX_STACKS_PER_WINDOW + 1
        assert window.stacks.get("(truncated)", 0) > 0
        # No samples lost to the fold.
        assert sum(window.stacks.values()) == window.samples


class TestAttribution:
    def test_span_path_becomes_root(self):
        tid = 7
        sampler, _ = make_sampler(
            fake_frames(t7=["runner", "expand"]),
            span_source=lambda: {tid: ("eureka.route", "eureka.net")},
        )
        sampler.tick()
        window = sampler.windows()[-1]
        assert window.stacks == {
            "eureka.route;eureka.net;fake.runner;fake.expand": 1
        }
        assert window.spans == {"eureka.route>eureka.net": 1}
        assert window.attributed_ratio() == 1.0

    def test_thread_label_fallback(self):
        label_thread("gateway.loop", thread_id=3)
        try:
            sampler, _ = make_sampler(fake_frames(t3=["select"]))
            sampler.tick()
            window = sampler.windows()[-1]
            assert window.stacks == {"gateway.loop;fake.select": 1}
            assert window.spans == {"gateway.loop": 1}
        finally:
            unlabel_thread(thread_id=3)

    def test_unattributed_counted(self):
        sampler, _ = make_sampler(fake_frames(t9=["idle"]))
        sampler.tick()
        window = sampler.windows()[-1]
        assert window.spans == {"": 1}
        assert window.attributed_ratio() == 0.0

    def test_live_tracer_spans_visible_cross_thread(self):
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            with tracer.span("job"):
                with tracer.span("eureka.route"):
                    tid = threading.get_ident()
                    assert active_span_path() == ("job", "eureka.route")
                    assert active_span_paths()[tid] == ("job", "eureka.route")
            assert active_span_path() == ()
        finally:
            set_tracer(previous)

    def test_self_counts_and_top_frames(self):
        window = ProfileWindow()
        window.add(["main", "a"], count=3)
        window.add(["main", "b"], count=5)
        window.add(["main"], count=2)
        assert window.self_counts() == {"a": 3, "b": 5, "main": 2}
        assert window.top_frames(2) == [("b", 5), ("a", 3)]


class TestFaults:
    def test_tick_failpoint_absorbed(self):
        registry = Registry()
        previous_reg = set_registry(registry)
        previous_faults = set_faults(FaultRegistry("sampler.tick=io:1"))
        try:
            sampler, _ = make_sampler(fake_frames(t1=["f"]))
            assert sampler.tick() == 0  # the fault ate the pass, not the run
            assert sampler.errors == 1
            assert registry.get("sampler.errors") == 1
        finally:
            set_faults(previous_faults)
            set_registry(previous_reg)

    def test_broken_frame_source_absorbed(self):
        def broken():
            raise RuntimeError("boom")

        sampler, _ = make_sampler(broken)
        for _ in range(3):
            sampler.tick()
        assert sampler.errors == 3


class TestShipping:
    def test_roundtrip_and_merge(self):
        sampler, clock = make_sampler(fake_frames(t1=["main", "work"]))
        for _ in range(4):
            sampler.tick()
            clock.advance(0.1)
        shipped = sampler.export()
        assert shipped and isinstance(shipped[0], dict)
        merged = merge_windows(shipped)
        assert merged.samples == 4
        assert merged.stacks == {"fake.main;fake.work": 4}

    def test_export_since_filters_old_windows(self):
        sampler, clock = make_sampler(
            fake_frames(t1=["f"]), window_s=1.0, max_windows=8
        )
        for _ in range(30):
            sampler.tick()
            clock.advance(0.1)
        cutoff = 1000.0 + clock.now - 1.0
        recent = sampler.export(since=cutoff)
        assert recent
        assert len(recent) < len(sampler.export())
        assert all(w["ended_at"] >= cutoff for w in recent)

    def test_windows_overlapping(self):
        sampler, clock = make_sampler(
            fake_frames(t1=["f"]), window_s=1.0, max_windows=8
        )
        for _ in range(30):
            sampler.tick()
            clock.advance(0.1)
        hits = sampler.windows_overlapping(1000.5, 1001.5)
        assert hits
        for w in hits:
            assert w.started_at <= 1001.5 and w.ended_at >= 1000.5

    def test_merge_handles_objects_and_dicts(self):
        a = ProfileWindow(start=0.0, end=1.0, started_at=10.0, ended_at=11.0)
        a.add(["x"], span_path="x")
        b = ProfileWindow(start=1.0, end=2.0, started_at=11.0, ended_at=12.0)
        b.add(["x"], span_path="x")
        merged = merge_windows([a, b.to_dict()])
        assert merged.samples == 2
        assert merged.started_at == 10.0 and merged.ended_at == 12.0
        assert merged.spans == {"x": 2}


class TestLifecycleAndGlobal:
    def test_start_stop_real_thread(self):
        sampler = Sampler(hz=200.0, window_s=0.5)
        sampler.start()
        try:
            deadline = time.monotonic() + 2.0
            while sampler.ticks == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sampler.ticks > 0
            assert sampler.running
        finally:
            sampler.stop()
        assert not sampler.running

    def test_ensure_sampler_env_disable(self, monkeypatch):
        previous = set_sampler(None)
        try:
            monkeypatch.setenv("ARTWORK_SAMPLER_HZ", "0")
            assert ensure_sampler() is None
            assert get_sampler() is None
        finally:
            s = set_sampler(previous)
            if s is not None:
                s.stop()

    def test_ensure_sampler_starts_and_reuses(self):
        previous = set_sampler(None)
        try:
            first = ensure_sampler(hz=50.0)
            assert first is not None and first.running
            assert ensure_sampler(hz=50.0) is first
        finally:
            current = set_sampler(previous)
            if current is not None:
                current.stop()

    def test_no_sampler_outlives_an_inline_job_or_a_gateway(self):
        # Whoever starts the always-on sampler stops it: a batch whose job
        # ran inline in this process, and an in-process gateway, leave no
        # sampler thread behind when none ran before them.
        def sampler_threads():
            return {t for t in threading.enumerate() if t.name == "repro-sampler"}

        previous = set_sampler(None)
        before = sampler_threads()
        try:
            spec = JobSpec.from_network(random_network(modules=5, seed=0))
            [outcome] = BatchScheduler(max_workers=1, serial_threshold=60.0).run([spec])
            assert outcome.ok and "profile" in outcome.payload
            assert sampler_threads() <= before and not sampler_running()
            with start_gateway(GatewayConfig(workers=1)):
                assert sampler_running()
            assert sampler_threads() <= before and not sampler_running()
        finally:
            current = set_sampler(previous)
            if current is not None:
                current.stop()

    def test_capture_burst(self):
        clock = FakeClock()

        def sleep(dt):
            clock.advance(max(dt, 0.001))

        window = capture(
            1.0,
            hz=10.0,
            frame_source=fake_frames(t1=["main", "hot"]),
            clock=clock,
            sleep=sleep,
        )
        assert window.samples >= 9
        assert window.stacks.get("fake.main;fake.hot") == window.samples

    def test_snapshot_shape(self):
        sampler, clock = make_sampler(fake_frames(t1=["main", "hot"]))
        for _ in range(3):
            sampler.tick()
            clock.advance(0.1)
        snap = sampler.snapshot()
        assert snap["ticks"] == 3
        assert snap["last_window"]["samples"] == 3
        assert snap["last_window"]["top_frames"][0][0] == "fake.hot"
        assert 0.0 <= snap["overhead_ratio"] < 1.0


class TestOverheadGuard:
    def test_overhead_under_two_percent_at_19hz(self):
        """The always-on rate must cost <2% of wall clock: measure real
        ticks over real stacks, then scale self-time to the 19 hz duty
        cycle instead of sleeping through a wall-clock window."""
        sampler = Sampler(hz=19.0, window_s=60.0)
        ticks = 200
        for _ in range(ticks):
            sampler.tick()
        window = sampler.windows()[-1]
        per_tick = window.self_s / ticks
        duty = per_tick * 19.0  # fraction of each second spent sampling
        assert duty < 0.02, f"sampler duty cycle {duty:.4f} >= 2%"

    def test_window_overhead_accounting(self):
        sampler, clock = make_sampler(fake_frames(t1=["f"]))
        sampler.tick()
        clock.advance(1.0)
        sampler.tick()
        window = sampler.windows()[-1]
        assert window.self_s >= 0.0
        assert window.overhead_ratio < 1.0


class TestFlamegraph:
    def test_html_self_contained(self, tmp_path):
        window = ProfileWindow(start=0.0, end=1.0, hz=19.0, ticks=10)
        window.add(
            ["eureka.route", "fake.expand", "fake.probe"],
            span_path="eureka.route",
            count=7,
        )
        window.add(["eureka.route", "fake.expand"], span_path="eureka.route", count=3)
        html = render_flamegraph_html([window], title="test profile")
        assert html.startswith("<!DOCTYPE html>")
        assert "test profile" in html
        assert "fake.probe" in html
        assert "eureka.route" in html
        assert "http" not in html.split("</style>")[1]  # no external assets
        out = write_flamegraph_html(tmp_path / "flame.html", [window])
        assert out.read_text() == render_flamegraph_html([window])

    def test_widths_proportional(self):
        div = flamegraph_div({"root;a": 3, "root;b": 1})
        assert "width:100.000%" in div  # the root row
        assert "width:75.000%" in div
        assert "width:25.000%" in div

    def test_empty_windows_render(self):
        assert "no samples" in flamegraph_div({})
        html = render_flamegraph_html([])
        assert "0 samples" in html

    def test_escapes_names(self):
        div = flamegraph_div({"<script>;x": 1})
        assert "<script>" not in div
        assert "&lt;script&gt;" in div

    def test_colors_deterministic(self):
        a = flamegraph_div({"root;leaf": 1})
        b = flamegraph_div({"root;leaf": 1})
        assert a == b


class TestDefaults:
    def test_default_ring_covers_a_minute(self):
        sampler = Sampler()
        assert sampler.window_s * DEFAULT_MAX_WINDOWS >= 60.0

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            Sampler(hz=0)
        with pytest.raises(ValueError):
            Sampler(window_s=0)
