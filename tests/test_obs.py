"""Tests for the ``repro.obs`` layer: span tracer, counters registry,
structured logging, CLI flags and the telemetry threaded through the
pipeline and the batch scheduler."""

import json
import logging

import pytest

from repro.core.generator import generate
from repro.core.netlist import Network
from repro.obs import (
    Registry,
    Tracer,
    get_registry,
    set_registry,
    set_tracer,
    setup_logging,
    span,
)
from repro.obs.trace import NULL_SPAN, Span
from repro.route.eureka import (
    FailureReason,
    NetFailure,
    RoutingReport,
)
from repro.workloads.examples import example1_string


@pytest.fixture
def tracer():
    """A fresh enabled tracer installed as the global one."""
    t = Tracer(enabled=True)
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


@pytest.fixture
def registry():
    r = Registry()
    previous = set_registry(r)
    yield r
    set_registry(previous)


class TestSpans:
    def test_nesting(self, tracer):
        with span("outer"):
            with span("inner.a"):
                pass
            with span("inner.b", k=1):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]
        assert root.children[1].attrs == {"k": 1}
        assert root.duration >= sum(c.duration for c in root.children)

    def test_disabled_tracer_is_noop(self):
        t = Tracer(enabled=False)
        previous = set_tracer(t)
        try:
            handle = span("anything")
            assert handle is NULL_SPAN
            with handle as s:
                s.set(ignored=True)
            assert t.roots == []
        finally:
            set_tracer(previous)

    def test_exception_marks_span(self, tracer):
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        assert tracer.roots[0].attrs["error"] == "ValueError"

    def test_serialization_round_trip(self, tracer):
        with span("root", net="n1"):
            with span("child"):
                pass
        exported = tracer.export_roots()
        rebuilt = Span.from_dict(exported[0])
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"net": "n1"}
        assert [c.name for c in rebuilt.children] == ["child"]
        assert rebuilt.duration == pytest.approx(
            tracer.roots[0].duration, abs=1e-5
        )

    def test_adopt_reanchors_foreign_subtree(self, tracer):
        foreign = {
            "name": "job",
            "start": 1234.5,
            "duration": 0.25,
            "children": [{"name": "step", "start": 1234.6, "duration": 0.1}],
        }
        adopted = tracer.adopt(foreign, label="job:x")
        assert adopted.name == "job:x"
        # Re-anchored onto this tracer's timebase, child offset preserved.
        assert 0 <= adopted.start <= adopted.end
        child = adopted.children[0]
        assert child.start - adopted.start == pytest.approx(0.1, abs=1e-6)
        assert adopted in tracer.roots

    def test_chrome_trace_export(self, tracer, tmp_path):
        with span("a"):
            with span("b"):
                pass
        out = tracer.write_chrome_trace(tmp_path / "t.json")
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        assert {e["name"] for e in events} == {"a", "b"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["ts"] >= 0

    def test_profile_tree_aggregates_siblings(self, tracer):
        with span("run"):
            for _ in range(3):
                with span("net"):
                    pass
        tree = tracer.profile_tree()
        assert "run" in tree
        assert "×3" in tree
        assert tree.index("run") < tree.index("net")


class TestRegistry:
    def test_inc_and_observe(self, registry):
        registry.inc("x")
        registry.inc("x", 4)
        registry.observe("h", 2.0)
        registry.observe("h", 4.0)
        assert registry.get("x") == 5
        hist = registry.histogram("h")
        assert hist.count == 2 and hist.mean == 3.0
        assert hist.min == 2.0 and hist.max == 4.0

    def test_snapshot_merge(self):
        a, b = Registry(), Registry()
        a.inc("n", 2)
        a.observe("h", 1.0)
        b.inc("n", 3)
        b.inc("only_b")
        b.observe("h", 5.0)
        a.merge(b.snapshot())
        assert a.get("n") == 5
        assert a.get("only_b") == 1
        hist = a.histogram("h")
        assert hist.count == 2 and hist.min == 1.0 and hist.max == 5.0

    def test_report_text(self, registry):
        registry.inc("events", 7)
        registry.observe("lat", 1.5)
        text = registry.report()
        assert "events" in text and "7" in text
        assert "count=1" in text


class TestPipelineTelemetry:
    def test_generate_emits_stage_spans(self, tracer, registry):
        generate(example1_string())
        names = {s.name for root in tracer.roots for s in root.walk()}
        assert {
            "artwork.generate",
            "pablo.place",
            "pablo.partitioning",
            "pablo.box_formation",
            "pablo.module_placement",
            "pablo.box_placement",
            "pablo.partition_placement",
            "pablo.terminal_placement",
            "eureka.route",
            "eureka.first_pass",
            "eureka.net",
        } <= names
        assert registry.get("route.nets") == 6
        assert registry.get("route.expansions") > 0

    def test_profile_root_matches_timing_row(self, tracer, registry):
        result = generate(example1_string())
        total = tracer.total_seconds()
        # The root span covers validate+place+route+metrics; the timing
        # row only place+route — they must agree within 5%.
        assert total == pytest.approx(
            result.placement.seconds + result.routing.seconds, rel=0.05
        )

    def test_tracing_disabled_records_nothing(self, registry):
        t = Tracer(enabled=False)
        previous = set_tracer(t)
        try:
            generate(example1_string())
        finally:
            set_tracer(previous)
        assert t.roots == []
        # Counters stay on regardless: they are cheap and always useful.
        assert registry.get("route.nets") == 6


class TestRoutingReportFailures:
    def test_success_rate_zero_nets(self):
        assert RoutingReport().success_rate == 1.0

    def test_success_rate_all_failed(self):
        report = RoutingReport(
            nets_total=2,
            nets_failed=2,
            failed_nets=[
                NetFailure("a", FailureReason.RETRY_EXHAUSTED),
                NetFailure("b", FailureReason.NO_INITIAL_PATH),
            ],
        )
        assert report.success_rate == 0.0
        assert report.failure_reasons == {
            "a": FailureReason.RETRY_EXHAUSTED,
            "b": FailureReason.NO_INITIAL_PATH,
        }

    def test_net_failure_is_still_a_name(self):
        failure = NetFailure("n7", FailureReason.EXPANSION_EXHAUSTED)
        assert failure == "n7"
        assert "n7" in [failure]
        assert json.loads(json.dumps([failure])) == ["n7"]
        assert failure.reason is FailureReason.EXPANSION_EXHAUSTED

    def test_impossible_net_carries_reason(self):
        from repro.core.diagram import Diagram
        from repro.core.geometry import Point, Side
        from repro.route.eureka import RouterOptions, route_diagram
        from repro.workloads.stdlib import make_module

        net = Network(name="boxed")
        net.add_module(make_module("a", 2, 2, [("y", "out", 2, 1)]))
        net.add_module(make_module("b", 2, 2, [("x", "in", 0, 1)]))
        net.add_module(make_module("wall", 2, 30, [("w", "in", 0, 15)]))
        net.connect("n", "a.y", "b.x")
        net.connect("nw", "wall.w", "a.y")
        d = Diagram(net)
        d.place_module("a", Point(0, 14))
        d.place_module("b", Point(20, 14))
        d.place_module("wall", Point(10, 0))
        report = route_diagram(
            d, RouterOptions(fixed_sides=frozenset(Side), margin=0)
        )
        assert "n" in report.failed_nets
        failure = next(f for f in report.failed_nets if f == "n")
        assert failure.reason is FailureReason.RETRY_EXHAUSTED
        assert "n" in report.retried_nets
        assert "n" not in report.recovered_nets
        # Without the rip-up pass the claims get the blame instead.
        d2 = Diagram(net)
        d2.place_module("a", Point(0, 14))
        d2.place_module("b", Point(20, 14))
        d2.place_module("wall", Point(10, 0))
        report2 = route_diagram(
            d2,
            RouterOptions(
                fixed_sides=frozenset(Side), margin=0, retry_failed=False
            ),
        )
        reasons = set(report2.failure_reasons.values())
        assert reasons <= {
            FailureReason.CLAIM_BLOCKED,
            FailureReason.NO_INITIAL_PATH,
            FailureReason.EXPANSION_EXHAUSTED,
        }
        assert report2.retried_nets == []


class TestSchedulerTelemetry:
    def test_counter_aggregation_across_workers(self, registry, tmp_path):
        from repro.service import BatchScheduler, JobSpec, ResultCache
        from repro.workloads import batch_networks

        nets = batch_networks(kind="random", count=4, modules=5, seed=91)
        specs = [JobSpec.from_network(n) for n in nets]
        cache = ResultCache(tmp_path / "cache")
        scheduler = BatchScheduler(max_workers=2, cache=cache)
        outcomes = scheduler.run(specs)
        assert all(o.ok for o in outcomes)

        nets_total = sum(o.metrics.get("nets", 0) for o in outcomes)
        snap = scheduler.counters.snapshot()["counters"]
        # Worker-side routing counters aggregate across the pool…
        assert snap["route.nets"] == nets_total
        assert snap["route.runs"] == len(specs)
        assert snap["route.expansions"] > 0
        assert snap["service.jobs"] == len(specs)
        assert snap["service.cache_misses"] == len(specs)
        # …and also merge into the process-global registry.
        assert get_registry().get("route.nets") == nets_total

        # A warm pass does no routing work: only service counters move.
        warm = BatchScheduler(max_workers=2, cache=cache)
        warm_outcomes = warm.run(specs)
        assert all(o.from_cache for o in warm_outcomes)
        warm_snap = warm.counters.snapshot()["counters"]
        assert warm_snap["service.cache_hits"] == len(specs)
        assert warm_snap.get("route.nets", 0) == 0

    def test_worker_spans_reparented_into_parent_trace(
        self, tracer, registry, tmp_path
    ):
        from repro.service import BatchScheduler, JobSpec, ResultCache
        from repro.workloads import batch_networks

        nets = batch_networks(kind="random", count=2, modules=5, seed=17)
        specs = [JobSpec.from_network(n) for n in nets]
        scheduler = BatchScheduler(max_workers=2, cache=ResultCache(tmp_path / "c"))
        scheduler.run(specs)

        roots = [r.name for r in tracer.roots]
        assert "batch.run" in roots
        batch_root = tracer.roots[roots.index("batch.run")]
        job_spans = [c for c in batch_root.children if c.name.startswith("job:")]
        assert {c.name for c in job_spans} == {f"job:{s.name}" for s in specs}
        # The worker subtree came along and sits inside the parent span.
        nested = {s.name for c in job_spans for s in c.walk()}
        assert "eureka.route" in nested and "pablo.place" in nested

    def test_cached_payload_carries_no_transient_keys(self, registry, tmp_path):
        from repro.service import BatchScheduler, JobSpec, ResultCache
        from repro.workloads import batch_networks

        nets = batch_networks(kind="random", count=1, modules=5, seed=23)
        specs = [JobSpec.from_network(n) for n in nets]
        cache = ResultCache(tmp_path / "cache")
        BatchScheduler(max_workers=1, cache=cache).run(specs)
        cached = cache.get(specs[0])
        assert cached is not None
        assert "trace" not in cached and "counters" not in cached
        assert "profile" not in cached and "trace_id" not in cached
        assert "search" not in cached and "congestion" not in cached
        assert "failure_reasons" in cached


class TestLogging:
    def test_structured_fields_rendered(self, capsys):
        import io

        stream = io.StringIO()
        logger = setup_logging("info", stream=stream)
        logger.info("hello", extra={"fields": {"nets": 3}})
        line = stream.getvalue().strip()
        assert "INFO" in line and "repro" in line
        assert "hello" in line and "nets=3" in line

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            setup_logging("loud")

    def test_level_filters(self):
        import io

        stream = io.StringIO()
        logger = setup_logging("error", stream=stream)
        logger.warning("quiet")
        assert stream.getvalue() == ""
        logger.error("loud")
        assert "loud" in stream.getvalue()


class TestCliObservability:
    @pytest.fixture
    def network_files(self, tmp_path):
        from repro.formats.netlist_files import save_network_files

        return save_network_files(example1_string(), tmp_path)

    def _net_args(self, paths):
        return [str(paths["netlist"]), str(paths["call"]), str(paths["io"])]

    def test_artwork_trace_and_profile(
        self, tmp_path, network_files, capsys, registry
    ):
        from repro.cli import artwork_main

        trace_file = tmp_path / "run_trace.json"
        rc = artwork_main(
            self._net_args(network_files)
            + [
                "-o",
                str(tmp_path / "a.svg"),
                "--trace",
                str(trace_file),
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "artwork.generate" in out  # profile tree
        assert "route.nets" in out  # counter report
        data = json.loads(trace_file.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert {"artwork.generate", "pablo.partitioning", "eureka.net"} <= names

    def test_pablo_and_eureka_accept_obs_flags(
        self, tmp_path, network_files, capsys, registry
    ):
        from repro.cli import eureka_main, pablo_main

        placed = tmp_path / "placed.es"
        rc = pablo_main(
            self._net_args(network_files)
            + ["-p", "7", "-b", "7", "-o", str(placed), "--profile"]
        )
        assert rc == 0
        assert "pablo.place" in capsys.readouterr().out
        trace_file = tmp_path / "route_trace.json"
        rc = eureka_main(
            [str(placed)]
            + self._net_args(network_files)
            + ["-o", str(tmp_path / "r.es"), "--trace", str(trace_file)]
        )
        assert rc == 0
        names = {
            e["name"]
            for e in json.loads(trace_file.read_text())["traceEvents"]
        }
        assert "eureka.route" in names and "eureka.net" in names

    def test_batch_report_includes_cache_block(self, tmp_path, registry):
        from repro.cli import artwork_batch_main

        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {"workload": {"kind": "random", "count": 2, "modules": 5, "seed": 3}}
            )
        )
        report_file = tmp_path / "report.json"
        rc = artwork_batch_main(
            [
                str(manifest),
                "-o",
                str(tmp_path / "out"),
                "--workers",
                "1",
                "--no-svg",
                "-q",
                "--report",
                str(report_file),
            ]
        )
        assert rc == 0
        report = json.loads(report_file.read_text())
        cache_block = report["summary"]["cache"]
        for key in ("hits", "misses", "stores", "evictions", "hit_rate", "entries"):
            assert key in cache_block
        assert cache_block["stores"] == 2
        assert report["summary"]["counters"]["service.jobs"] == 2

    def test_log_level_flag_everywhere(self, tmp_path, network_files):
        from repro.cli import artwork_main, quinto_main

        rc = artwork_main(
            self._net_args(network_files)
            + ["-o", str(tmp_path / "x.svg"), "--log-level", "error"]
        )
        assert rc == 0
        assert logging.getLogger("repro").level == logging.ERROR
        desc = tmp_path / "m.desc"
        desc.write_text("module m 40 30\nin a 0 10\nout y 40 10\n")
        rc = quinto_main(
            [str(desc), "--library", str(tmp_path / "lib"), "--log-level", "debug"]
        )
        assert rc == 0
        assert logging.getLogger("repro").level == logging.DEBUG


class TestHistogramPercentiles:
    def test_exact_below_reservoir_bound(self):
        from repro.obs.counters import Histogram

        hist = Histogram()
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.percentile(0.50) == 50.0
        assert hist.percentile(0.95) == 95.0
        assert hist.percentile(0.99) == 99.0
        snap = hist.as_dict()
        assert snap["p50"] == 50.0 and snap["p95"] == 95.0 and snap["p99"] == 99.0
        assert len(snap["samples"]) == 100

    def test_percentiles_survive_merge(self):
        from repro.obs.counters import Histogram

        a, b = Histogram(), Histogram()
        for v in range(1, 51):
            a.observe(float(v))
        for v in range(51, 101):
            b.observe(float(v))
        a.merge(b.as_dict())
        # 100 samples total, still under the reservoir bound: exact.
        assert a.count == 100
        assert a.percentile(0.50) == 50.0
        assert a.percentile(0.95) == 95.0

    def test_reservoir_bounds_memory(self):
        from repro.obs.counters import RESERVOIR_SIZE, Histogram

        hist = Histogram()
        for v in range(10_000):
            hist.observe(float(v))
        assert len(hist.samples) == RESERVOIR_SIZE
        assert hist.count == 10_000
        # The estimate stays in the observed range and roughly central.
        assert 2_000 < hist.percentile(0.50) < 8_000

    def test_empty_histogram_snapshot(self):
        from repro.obs.counters import Histogram

        snap = Histogram().as_dict()
        assert snap["count"] == 0
        assert snap["p50"] == 0.0 and snap["p99"] == 0.0

    def test_report_shows_percentiles(self, registry):
        registry.observe("lat", 1.0)
        registry.observe("lat", 3.0)
        text = registry.report()
        assert "p50=" in text and "p95=" in text and "p99=" in text


class TestCongestionMap:
    def _crossing_diagram(self):
        from repro.core.diagram import Diagram
        from repro.core.geometry import Point
        from repro.core.netlist import TermType

        network = Network(name="cross")
        for name in ("w", "e", "s", "n"):
            network.add_system_terminal(name, TermType.INOUT)
        network.connect("h", "w", "e")
        network.connect("v", "s", "n")
        diagram = Diagram(network)
        diagram.route_for("h").add_path([Point(0, 5), Point(10, 5)])
        diagram.route_for("v").add_path([Point(5, 0), Point(5, 10)])
        return diagram

    def test_totals_match_live_index(self):
        from repro.obs.congestion import CongestionMap
        from repro.route.plane import Plane

        diagram = self._crossing_diagram()
        cmap = CongestionMap.from_diagram(diagram)
        # The index of a plane holding the same routes agrees.
        assert cmap.occupancy_total == sum(Plane.for_diagram(diagram).index.occ)
        assert (cmap.x, cmap.y, cmap.w, cmap.h) == (0, 0, 10, 10)
        assert cmap.cells[(5, 5)] == (2, 1)  # the crossing point
        assert cmap.crossover_total == 1
        assert cmap.max_occupancy == 2
        assert cmap.hotspots(1) == [(5, 5, 2, 1)]
        # Track totals: row y=5 holds the horizontal wire + the crossing.
        assert cmap.row_totals()[5] == 12
        assert cmap.col_totals()[5] == 12

    def test_dict_round_trip(self):
        from repro.obs.congestion import CongestionMap

        cmap = CongestionMap.from_diagram(self._crossing_diagram())
        data = cmap.to_dict()
        again = CongestionMap.from_dict(json.loads(json.dumps(data)))
        assert again.cells == cmap.cells
        assert (again.x, again.y, again.w, again.h) == (cmap.x, cmap.y, cmap.w, cmap.h)
        assert data["crossover_total"] == again.crossover_total

    def test_heat_cells_normalized(self):
        from repro.obs.congestion import CongestionMap

        cells = CongestionMap.from_diagram(self._crossing_diagram()).heat_cells()
        assert cells
        assert all(0.0 < i <= 1.0 for _, _, i in cells)
        by_point = {(x, y): i for x, y, i in cells}
        assert by_point[(5, 5)] == 1.0  # the peak saturates

    def test_svg_marks_crossovers(self):
        from repro.obs.congestion import CongestionMap

        svg = CongestionMap.from_diagram(self._crossing_diagram()).to_svg()
        assert svg.startswith("<svg")
        assert "occ=2 cross=1" in svg
        assert "<circle" in svg  # crossover ring

    def test_empty_map(self):
        from repro.obs.congestion import CongestionMap

        cmap = CongestionMap()
        assert cmap.occupancy_total == 0
        assert cmap.max_occupancy == 0
        assert cmap.heat_cells() == []
        assert "<svg" in cmap.to_svg()

    def test_routed_report_agrees_with_metrics(self, tracer, registry, tmp_path):
        from repro.obs.congestion import CongestionMap
        from repro.obs.runlog import RunLog

        result = generate(example1_string(), runlog=RunLog(tmp_path / "runs.jsonl"))
        cmap = CongestionMap.from_dict(result.run_record.congestion)
        assert cmap.crossover_total == result.metrics.as_row()["crossovers"]
        assert cmap.occupancy_total > 0 and cmap.max_occupancy >= 1


class TestTraceFileHandling:
    @pytest.fixture
    def network_files(self, tmp_path):
        from repro.formats.netlist_files import save_network_files

        return save_network_files(example1_string(), tmp_path)

    def _net_args(self, paths):
        return [str(paths["netlist"]), str(paths["call"]), str(paths["io"])]

    def test_trace_creates_parent_dirs(self, tmp_path, network_files, registry):
        from repro.cli import pablo_main

        trace_file = tmp_path / "deep" / "nested" / "trace.json"
        rc = pablo_main(
            self._net_args(network_files)
            + ["-o", str(tmp_path / "p.es"), "--trace", str(trace_file)]
        )
        assert rc == 0
        assert trace_file.exists()

    def test_trace_written_when_input_is_bad(self, tmp_path, capsys, registry):
        from repro.cli import pablo_main

        trace_file = tmp_path / "aborted" / "trace.json"
        rc = pablo_main(
            [
                str(tmp_path / "missing.net"),
                str(tmp_path / "missing.call"),
                "--trace",
                str(trace_file),
            ]
        )
        assert rc == 2  # usage error, not a traceback...
        assert "error:" in capsys.readouterr().err
        assert trace_file.exists()  # ...and the partial trace survived

    def test_trace_written_when_pipeline_aborts(
        self, tmp_path, network_files, capsys, monkeypatch, registry
    ):
        import repro.cli as cli_mod
        from repro.core.diagram import DiagramError

        placed = tmp_path / "placed.es"
        assert (
            cli_mod.pablo_main(
                self._net_args(network_files) + ["-p", "7", "-b", "7", "-o", str(placed)]
            )
            == 0
        )

        def explode(*_args, **_kwargs):
            raise DiagramError("mid-route inconsistency")

        monkeypatch.setattr(cli_mod, "route_placed", explode)
        trace_file = tmp_path / "abort2" / "trace.json"
        rc = cli_mod.eureka_main(
            [str(placed)]
            + self._net_args(network_files)
            + ["-o", str(tmp_path / "r.es"), "--trace", str(trace_file)]
        )
        assert rc == 2
        assert "mid-route inconsistency" in capsys.readouterr().err
        data = json.loads(trace_file.read_text())
        assert "traceEvents" in data  # the trace file was still flushed

    def test_unwritable_trace_is_usage_error(self, tmp_path, network_files, capsys):
        from repro.cli import pablo_main

        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = pablo_main(
            self._net_args(network_files)
            + ["-o", str(tmp_path / "p.es"), "--trace", str(blocker / "t.json")]
        )
        assert rc == 2
        assert "cannot write trace" in capsys.readouterr().err


class TestPrometheusExposition:
    def test_counters_and_histograms_render(self):
        from repro.obs.prometheus import render_prometheus

        reg = Registry()
        reg.inc("service.jobs", 3)
        for v in (0.01, 0.02, 0.03, 0.04):
            reg.observe("service.job_wall_s", v)
        text = render_prometheus(reg.snapshot())
        assert "# HELP repro_service_jobs " in text
        assert "# TYPE repro_service_jobs counter" in text
        assert "repro_service_jobs 3" in text
        assert "# TYPE repro_service_job_wall_s histogram" in text
        assert 'repro_service_job_wall_s{quantile="0.5"}' in text
        assert 'repro_service_job_wall_s{quantile="0.95"}' in text
        assert 'repro_service_job_wall_s{quantile="0.99"}' in text
        assert 'repro_service_job_wall_s_bucket{le="+Inf"} 4' in text
        assert "repro_service_job_wall_s_count 4" in text
        assert "repro_service_job_wall_s_sum 0.1" in text
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative_and_monotone(self):
        from repro.obs.prometheus import render_prometheus

        reg = Registry()
        for v in (0.002, 0.02, 0.2, 2.0, 20.0):
            reg.observe("h", v)
        text = render_prometheus(reg.snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_h_bucket{")
        ]
        assert counts, "no bucket lines rendered"
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 5, "+Inf bucket must equal the total count"
        # All five observations sit at or below distinct default bounds.
        assert 'repro_h_bucket{le="0.0025"} 1' in text
        assert 'repro_h_bucket{le="0.025"} 2' in text

    def test_labeled_series(self):
        from repro.obs.prometheus import render_prometheus

        text = render_prometheus(
            {"counters": {}, "histograms": {}},
            series={
                "gateway.request_qps": [
                    ({"endpoint": "POST /v1/jobs", "window": "1m"}, 0.25),
                    ({"endpoint": "GET /healthz", "window": "5m"}, 1.5),
                ],
                "gateway.empty": [],
            },
        )
        assert "# TYPE repro_gateway_request_qps gauge" in text
        assert 'repro_gateway_request_qps{endpoint="POST /v1/jobs",window="1m"} 0.25' in text
        assert 'repro_gateway_request_qps{endpoint="GET /healthz",window="5m"} 1.5' in text
        assert "repro_gateway_empty" not in text

    def test_label_values_escaped(self):
        from repro.obs.prometheus import render_prometheus

        text = render_prometheus(
            {"counters": {}, "histograms": {}},
            series={"g": [({"client": 'tok"en\\x\n'}, 1)]},
        )
        assert 'repro_g{client="tok\\"en\\\\x\\n"} 1' in text

    def test_gauges_and_empty_snapshot(self):
        from repro.obs.prometheus import render_prometheus

        text = render_prometheus(
            {"counters": {}, "histograms": {}},
            gauges={"gateway.queue_depth": 2, "gateway.draining": 0},
        )
        assert "# TYPE repro_gateway_queue_depth gauge" in text
        assert "repro_gateway_queue_depth 2" in text
        assert "repro_gateway_draining 0" in text

    def test_name_mangling(self):
        from repro.obs.prometheus import metric_name

        assert metric_name("service.job_wall_s") == "repro_service_job_wall_s"
        assert metric_name("weird-name (x)") == "repro_weird_name__x_"
        assert metric_name("9lives") == "repro__9lives"
        assert metric_name("a.b", prefix="") == "a_b"

    def test_quantiles_match_reservoir(self):
        from repro.obs.prometheus import render_prometheus

        reg = Registry()
        for v in range(1, 101):
            reg.observe("h", float(v))
        snap = reg.snapshot()
        text = render_prometheus(snap)
        p95 = snap["histograms"]["h"]["p95"]
        assert f'repro_h{{quantile="0.95"}} {p95!r}' in text
