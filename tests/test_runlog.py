"""Tests for the run registry (``repro.obs.runlog``), the regression
gate and the ``artwork-inspect`` front end."""

import json

import pytest

from repro.core.generator import generate
from repro.formats.netlist_files import save_network_files
from repro.inspect import inspect_main
from repro.obs import Registry, Tracer, get_registry, set_registry, set_tracer
from repro.obs.congestion import CongestionMap
from repro.obs.report import render_html_report
from repro.obs.runlog import (
    RunLog,
    RunRecord,
    check_regressions,
    diff_records,
    stages_from_spans,
)
from repro.service.jobs import JobSpec
from repro.service.scheduler import BatchScheduler
from repro.workloads.examples import example1_string


@pytest.fixture
def tracer():
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


@pytest.fixture
def runlog(tmp_path) -> RunLog:
    return RunLog(tmp_path / "runs.jsonl")


@pytest.fixture
def network_files(tmp_path):
    return save_network_files(example1_string(), tmp_path / "net")


def _net_args(paths):
    return [str(paths["netlist"]), str(paths["call"]), str(paths["io"])]


class TestRunRecord:
    def test_seal_is_content_derived(self):
        a = RunRecord(kind="artwork", name="x", metrics={"bends": 3}).seal()
        b = RunRecord(kind="artwork", name="x", metrics={"bends": 3}).seal()
        c = RunRecord(kind="artwork", name="x", metrics={"bends": 4}).seal()
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id
        assert len(a.run_id) == 12

    def test_round_trip(self, runlog, registry):
        written = runlog.record(
            kind="bench",
            name="t",
            wall_seconds=1.25,
            metrics={"bends": 7, "crossovers": 2},
            failures={"n1": {"reason": "blocked"}},
            extra={"note": "hi"},
        )
        loaded = runlog.load()
        assert len(loaded) == 1
        again = loaded[0]
        assert again.run_id == written.run_id
        assert again.kind == "bench"
        assert again.metrics == {"bends": 7, "crossovers": 2}
        assert again.failures == {"n1": {"reason": "blocked"}}
        assert again.extra == {"note": "hi"}
        assert again.wall_seconds == pytest.approx(1.25)
        assert again.environment["python"]

    def test_record_result_captures_everything(self, runlog, registry, tracer):
        result = generate(example1_string(), runlog=runlog, run_name="ex1")
        record = result.run_record
        assert record is not None
        assert record.name == "ex1"
        assert record.metrics == dict(result.metrics.as_row())
        assert record.spec_digest == JobSpec.from_network(example1_string()).digest
        # The congestion snapshot agrees with the table 6.1 metrics.
        cmap = CongestionMap.from_dict(record.congestion)
        assert cmap.crossover_total == record.metrics["crossovers"]
        # Tracing was on, so stages and the profile tree landed too.
        assert "artwork.generate" in record.stages
        assert record.stages["artwork.generate"]["count"] == 1
        assert "artwork.generate" in record.profile
        assert record.counters["counters"]["route.nets"] >= 1


class TestRunLogIO:
    def test_corrupt_lines_skipped_and_tallied(self, runlog, registry):
        runlog.record(kind="artwork", name="a")
        runlog.record(kind="artwork", name="b")
        with runlog.path.open("a") as fh:
            fh.write("{not json at all\n")
            fh.write("[1, 2, 3]\n")
            fh.write("\n")  # blank lines are not corruption
        records = runlog.load()
        assert [r.name for r in records] == ["a", "b"]
        assert runlog.corrupt_lines == 2

    def test_missing_file_is_empty(self, tmp_path):
        log = RunLog(tmp_path / "nope" / "runs.jsonl")
        assert log.load() == []
        assert log.corrupt_lines == 0

    def test_filters_latest_and_prefix_find(self, runlog, registry):
        runlog.record(kind="artwork", name="a", wall_seconds=1.0)
        runlog.record(kind="bench", name="a", wall_seconds=2.0)
        runlog.record(kind="artwork", name="b", wall_seconds=3.0)
        assert len(runlog.runs(name="a")) == 2
        assert len(runlog.runs(kind="artwork")) == 2
        latest_a = runlog.latest(name="a")
        assert latest_a is not None and latest_a.kind == "bench"
        assert runlog.find(latest_a.run_id[:6]).run_id == latest_a.run_id
        assert runlog.find("zzzzzz") is None

    def test_stages_from_spans_flattens_worker_trees(self):
        roots = [
            {
                "name": "job",
                "duration": 2.0,
                "children": [
                    {"name": "pablo.place", "duration": 0.5, "children": []},
                    {"name": "eureka.route", "duration": 1.5, "children": []},
                ],
            }
        ]
        stages = stages_from_spans(roots)
        assert stages["job"] == {"seconds": 2.0, "count": 1}
        assert stages["eureka.route"]["seconds"] == pytest.approx(1.5)


class TestDiffAndGate:
    def test_diff_math(self):
        base = RunRecord(metrics={"bends": 10, "nets": 5}, wall_seconds=1.0)
        run = RunRecord(metrics={"bends": 15, "nets": 5}, wall_seconds=0.5)
        diff = diff_records(base, run)
        assert diff["bends"] == {"base": 10, "run": 15, "delta": 5, "pct": 50.0}
        assert diff["nets"]["delta"] == 0
        assert diff["wall_seconds"]["pct"] == pytest.approx(-50.0)

    def test_quality_regression_flagged_at_zero_tolerance(self):
        baseline = {"name": "w", "metrics": {"bends": 10, "crossovers": 2, "failed": 0}}
        record = RunRecord(metrics={"bends": 20, "crossovers": 2, "failed": 0})
        found = check_regressions(baseline, record)
        assert [v.metric for v in found] == ["bends"]
        assert found[0].kind == "quality"
        assert "10 -> 20" in str(found[0])

    def test_tolerance_absorbs_small_growth(self):
        baseline = {"name": "w", "metrics": {"bends": 10}}
        worse = RunRecord(metrics={"bends": 11})
        assert check_regressions(baseline, worse)  # 0% tolerance: fail
        assert not check_regressions(baseline, worse, quality_tolerance=0.10)
        assert check_regressions(baseline, worse, quality_tolerance=0.05)

    def test_improvement_and_new_failures(self):
        baseline = {"name": "w", "metrics": {"bends": 10, "failed": 0}}
        better = RunRecord(metrics={"bends": 5, "failed": 0})
        assert not check_regressions(baseline, better)
        failing = RunRecord(metrics={"bends": 10, "failed": 1})
        assert [v.metric for v in check_regressions(baseline, failing)] == ["failed"]

    def test_wall_time_gate_has_a_floor(self):
        baseline = {"name": "w", "metrics": {}, "wall_seconds": 0.001}
        noisy = RunRecord(wall_seconds=0.4)  # 400x the baseline, under floor
        assert not check_regressions(baseline, noisy)
        slow = RunRecord(wall_seconds=10.0)
        found = check_regressions(baseline, slow)
        assert [v.kind for v in found] == ["time"]


class TestSchedulerRunlog:
    def test_one_job_record_per_outcome(self, tmp_path, registry, tracer):
        log = RunLog(tmp_path / "runs.jsonl")
        specs = [
            JobSpec.from_network(example1_string(), name="j1"),
            JobSpec.from_network(example1_string(), name="j2"),
        ]
        sched = BatchScheduler(max_workers=1, runlog=log)
        outcomes = sched.run(specs)
        assert all(o.ok for o in outcomes)
        records = log.runs(kind="job")
        assert [r.name for r in records] == ["j1", "j2"]
        for record, outcome in zip(records, outcomes):
            assert record.metrics == outcome.metrics
            assert record.spec_digest == outcome.spec.digest
            assert record.stages  # worker spans travelled back
            assert CongestionMap.from_dict(record.congestion).occupancy_total > 0
        # Job wall time landed as a histogram (satellite: percentiles in
        # the registry, not just the report dict).
        hist = sched.counters.histogram("service.job_wall_s")
        assert hist.count == len(specs)
        assert get_registry().histogram("service.job_wall_s").count == len(specs)


class TestInspectCli:
    def test_record_list_show_diff(self, tmp_path, network_files, capsys, registry):
        log = str(tmp_path / "runs.jsonl")
        base_args = _net_args(network_files) + ["--runlog", log]
        assert inspect_main(["record"] + base_args + ["--name", "one"]) == 0
        assert inspect_main(["record"] + base_args + ["--name", "two", "-p", "3"]) == 0
        capsys.readouterr()

        assert inspect_main(["list", "--runlog", log]) == 0
        out = capsys.readouterr().out
        assert "one" in out and "two" in out

        records = RunLog(log).load()
        assert len(records) == 2
        assert inspect_main(["show", records[0].run_id[:8], "--runlog", log]) == 0
        out = capsys.readouterr().out
        assert "artwork.generate" in out  # profile tree
        assert "congestion:" in out

        rc = inspect_main(["diff", records[0].run_id, records[1].run_id, "--runlog", log])
        assert rc == 0
        assert "bends" in capsys.readouterr().out

    def test_record_writes_overlay_svg(self, tmp_path, network_files, registry):
        log = str(tmp_path / "runs.jsonl")
        svg = tmp_path / "overlay.svg"
        rc = inspect_main(
            ["record"] + _net_args(network_files)
            + ["--runlog", log, "--svg", str(svg)]
        )
        assert rc == 0
        text = svg.read_text()
        assert "#d9534f" in text  # congestion underlay cells present

    def test_explain_shows_field_time(self, tmp_path, network_files, capsys, registry):
        # Every connection builds the cost-to-go field, so every net
        # spends time on it; explain reports it per net next to the pops.
        log = str(tmp_path / "runs.jsonl")
        assert inspect_main(["record"] + _net_args(network_files) + ["--runlog", log]) == 0
        record = RunLog(log).load()[0]
        search = record.extra["search"]
        net, agg = max(search["nets"].items(), key=lambda kv: kv[1]["field_s"])
        rows = [row for row in search["connections"] if row["net"] == net]
        assert agg["field_s"] > 0
        assert agg["field_s"] == pytest.approx(
            sum(row["field_s"] for row in rows), abs=1e-5
        )
        capsys.readouterr()
        assert inspect_main(["explain", record.run_id, net, "--runlog", log]) == 0
        out = capsys.readouterr().out
        assert f"field_s       {agg['field_s']:.4f}" in out
        assert "per-connection search detail" in out

    def test_explain_shows_certificate_and_ripped_blockers(
        self, tmp_path, capsys, corridor_diagram
    ):
        # ``a`` fails the first pass and the rip-up pass: explain says how
        # its failing search was proven and which blockers were ripped.
        from repro.route.eureka import route_diagram

        report = route_diagram(corridor_diagram(b_pin_in_corridor=True))
        log = RunLog(tmp_path / "runs.jsonl")
        search = {"search": report.search_detail}
        record = log.append(RunRecord(kind="eureka", name="corridor", extra=search))
        argv = ["explain", record.run_id, "a", "--runlog", str(log.path)]
        assert inspect_main(argv) == 0
        out = capsys.readouterr().out
        assert "certificate   field" in out
        assert "ripped        b" in out
        detail = out.split("per-connection search detail")[1]
        assert "proof" in detail and "field" in detail

    def test_unknown_run_id_is_usage_error(self, tmp_path, capsys):
        log = RunLog(tmp_path / "runs.jsonl")
        log.append(RunRecord(kind="artwork", name="x"))
        assert inspect_main(["show", "ffffff", "--runlog", str(log.path)]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_report_renders_without_rescanning(
        self, tmp_path, network_files, capsys, registry
    ):
        log = str(tmp_path / "runs.jsonl")
        assert inspect_main(["record"] + _net_args(network_files) + ["--runlog", log]) == 0
        # Everything the report needs is in the one recorded line: route.*
        # counters must not move while rendering (zero extra plane work).
        route_counters = {
            k: v
            for k, v in get_registry().snapshot()["counters"].items()
            if k.startswith("route.")
        }
        assert route_counters  # the capture did route
        record = RunLog(log).load()[0]
        html = render_html_report(record)
        after = {
            k: v
            for k, v in get_registry().snapshot()["counters"].items()
            if k.startswith("route.")
        }
        assert after == route_counters
        assert "Congestion heatmap" in html
        assert "artwork.generate" in html  # profile tree
        assert "p95" in html  # histogram percentiles table

        out = tmp_path / "report.html"
        assert inspect_main(["report", "--runlog", log, "-o", str(out)]) == 0
        assert "Congestion heatmap" in out.read_text()


class TestRegressCli:
    def _baseline(self, tmp_path, **overrides) -> "tuple[str, dict]":
        baselines = tmp_path / "baselines"
        baselines.mkdir(exist_ok=True)
        data = {
            "name": "example1_string",
            "source": {"example": "example1_string"},
            "pablo": {},
            "eureka": {},
            "metrics": {},
        }
        data.update(overrides)
        (baselines / "example1_string.json").write_text(json.dumps(data))
        return str(baselines), data

    def test_capture_update_then_twice_green(self, tmp_path, capsys, registry):
        baselines, _ = self._baseline(tmp_path)
        log = str(tmp_path / "runs.jsonl")
        common = ["regress", "--baselines", baselines, "--runlog", log, "--capture"]
        assert inspect_main(common + ["--update"]) == 0
        refreshed = json.loads((tmp_path / "baselines" / "example1_string.json").read_text())
        assert refreshed["metrics"]["nets"] > 0
        assert refreshed["wall_seconds"] > 0
        capsys.readouterr()
        # The acceptance bar: rerunning on an unchanged checkout passes,
        # twice, with no self-regression flakes.
        assert inspect_main(common) == 0
        assert inspect_main(common) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_doubled_bends_fails_with_readable_diff(self, tmp_path, capsys, registry):
        baselines, _ = self._baseline(tmp_path)
        log = str(tmp_path / "runs.jsonl")
        common = ["regress", "--baselines", baselines, "--runlog", log, "--capture"]
        assert inspect_main(common + ["--update"]) == 0
        path = tmp_path / "baselines" / "example1_string.json"
        data = json.loads(path.read_text())
        # A synthetic quality regression: the checkout now produces twice
        # the baseline's bends (we halve the baseline instead of patching
        # the router).
        data["metrics"]["bends"] = data["metrics"]["bends"] // 2
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert inspect_main(common) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "bends regressed" in captured.err
        assert "limit" in captured.err

    def test_latest_run_mode_without_capture(self, tmp_path, capsys, registry):
        baselines, _ = self._baseline(tmp_path)
        log = RunLog(tmp_path / "runs.jsonl")
        # No runs recorded yet -> usage error, with a hint.
        assert inspect_main(
            ["regress", "--baselines", baselines, "--runlog", str(log.path)]
        ) == 2
        err = capsys.readouterr().err
        assert "--capture" in err
        # With a matching recorded run it gates that run.
        generate(example1_string(), runlog=log, run_name="example1_string")
        assert inspect_main(
            ["regress", "--baselines", baselines, "--runlog", str(log.path)]
        ) == 0

    def test_empty_baseline_dir_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert inspect_main(["regress", "--baselines", str(empty)]) == 2
        assert "no baseline files" in capsys.readouterr().err
