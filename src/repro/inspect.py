"""``artwork-inspect`` — query the run registry, render diagnostics,
gate regressions.

Subcommands over the append-only JSONL registry the pipeline commands
write with ``--runlog`` (the benchmarks append to it automatically, and
``artwork-serve --runlog`` adds one ``kind="serve"`` record per job it
serves, so daemon traffic shows up alongside batch and bench runs —
``list --kind serve`` filters down to it):

* ``record``  — run the generator on network files and append a RunRecord,
* ``list``    — the run trajectory as a table,
* ``show``    — one record in full (profile, quality, failures, span tree;
  ``--trace`` exports the span tree as Chrome trace JSON),
* ``slow``    — the gateway's ``kind="slow"`` latency exemplars with their
  auth/parse/queue/worker breakdowns,
* ``flame``   — render a run's shipped profile windows as a standalone
  flamegraph HTML page,
* ``explain`` — the router's search introspection for one net: pops vs.
  the initial bound estimate, seconds spent on the cost-to-go field,
  search area, the cost each connection found, and for a failed net how
  its failure was proven and which blockers were ripped for it,
* ``diff``    — metric deltas between two runs,
* ``report``  — self-contained HTML diagnostics report for a run,
* ``regress`` — compare the latest (or freshly captured) run per workload
  against the committed baselines in ``benchmarks/baselines/`` and exit
  non-zero on quality (bends/crossovers/failures) or wall-time
  regressions.

Exit codes: 0 ok, 1 regression found, 2 usage/input errors — matching
the other front ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.generator import generate
from .obs import enable_tracing, setup_logging
from .obs.trace import Span, chrome_trace_document
from .obs.congestion import CongestionMap
from .obs.report import write_html_report
from .obs.runlog import (
    DEFAULT_RUNLOG,
    Regression,
    RunLog,
    RunRecord,
    check_regressions,
    diff_records,
    git_rev,
)
from .obs.sampler import merge_windows, write_flamegraph_html
from .render.svg import save_svg
from .service.jobs import pablo_from_dict, router_from_dict
from .cli import (
    _eureka_args,
    _eureka_options,
    _fail,
    _load_network,
    _network_args,
    _pablo_args,
    _pablo_options,
    _print_table,
    _run_guarded,
    _version_arg,
)

DEFAULT_BASELINES = Path("benchmarks") / "baselines"


def _runlog_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runlog",
        metavar="FILE",
        default=str(DEFAULT_RUNLOG),
        help=f"run registry to read/write (default: {DEFAULT_RUNLOG})",
    )


def _load_log(args: argparse.Namespace) -> RunLog:
    return RunLog(args.runlog)


def _resolve(log: RunLog, run_id: str) -> RunRecord:
    record = log.find(run_id)
    if record is None:
        raise _fail(f"no run matching {run_id!r} in {log.path}")
    return record


def _when(record: RunRecord) -> str:
    return record.timestamp.replace("T", " ").rstrip("Z")


def _run_row(record: RunRecord) -> dict:
    q = record.quality_row
    return {
        "id": record.run_id,
        "kind": record.kind,
        "name": record.name,
        "when": _when(record),
        "rev": record.git_rev,
        "routed": f"{q['routed']}/{q['nets']}",
        "bends": q["bends"],
        "crossovers": q["crossovers"],
        "wall_s": f"{record.wall_seconds:.3f}",
    }


# -- record ----------------------------------------------------------------


def _cmd_record(args: argparse.Namespace) -> int:
    setup_logging(args.log_level)
    enable_tracing()  # stage timings belong in the record
    log = _load_log(args)
    network = _load_network(args)
    result = generate(
        network,
        _pablo_options(args),
        _eureka_options(args),
        runlog=log,
        run_name=args.name,
    )
    record = result.run_record
    assert record is not None
    if args.svg:
        heat = CongestionMap.from_dict(record.congestion).heat_cells()
        save_svg(result.diagram, args.svg, heat=heat)
        print(f"schematic + congestion overlay -> {args.svg}")
    q = record.quality_row
    print(
        f"recorded {record.run_id} ({record.kind}/{record.name}): "
        f"routed {q['routed']}/{q['nets']} bends={q['bends']} "
        f"crossovers={q['crossovers']} wall={record.wall_seconds:.3f}s "
        f"-> {log.path}"
    )
    return 0 if not result.routing.failed_nets else 1


# -- list / show / diff ----------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    log = _load_log(args)
    records = log.runs(kind=args.kind, name=args.name)
    if args.limit and len(records) > args.limit:
        records = records[-args.limit :]
    if not records:
        print(f"no runs in {log.path}")
        return 0
    _print_table(f"run registry ({log.path})", [_run_row(r) for r in records])
    if log.corrupt_lines:
        print(f"warning: skipped {log.corrupt_lines} corrupt line(s)", file=sys.stderr)
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    log = _load_log(args)
    record = _resolve(log, args.run)
    for key, value in _run_row(record).items():
        print(f"{key:<12}{value}")
    print(f"{'digest':<12}{record.spec_digest[:16] or '—'}")
    if record.profile:
        print("\nprofile:")
        print(record.profile)
    if record.failures:
        print("\nfailures:")
        for net, info in sorted(record.failures.items()):
            print(
                f"  {net}: {info.get('reason', '?')} "
                f"(unconnected pins: {info.get('unconnected_pins', 0)})"
            )
    if record.congestion:
        cmap = CongestionMap.from_dict(record.congestion)
        print(
            f"\ncongestion: {len(cmap.cells)} occupied points, "
            f"peak occupancy {cmap.max_occupancy}, "
            f"{cmap.crossover_total} crossovers"
        )
    counters = (record.counters or {}).get("counters", {})
    if counters:
        print("\ncounters:")
        width = max(len(k) for k in counters)
        for key in sorted(counters):
            print(f"  {key:<{width}}  {counters[key]}")
    extra = record.extra or {}
    if extra.get("trace_id"):
        print(f"\ntrace_id    {extra['trace_id']}")
    if extra.get("breakdown"):
        print("breakdown:")
        for key, value in extra["breakdown"].items():
            print(f"  {key:<16}{value:.6f}s")
    spans = extra.get("spans") or []
    if spans:
        print("\nspans:")
        for root in spans:
            _print_span_tree(root)
    if getattr(args, "trace", None):
        if not spans:
            raise _fail(f"run {record.run_id} carries no span tree")
        roots = [Span.from_dict(s) for s in spans]
        out = Path(args.trace)
        out.write_text(json.dumps(chrome_trace_document(roots), indent=1))
        print(f"\nchrome trace -> {out}")
    return 0


def _print_span_tree(node: dict, depth: int = 0) -> None:
    duration = float(node.get("duration", 0.0))
    print(f"  {'  ' * depth}{node.get('name', '?'):<{max(1, 40 - 2 * depth)}}"
          f"{duration * 1e3:9.1f}ms")
    for child in node.get("children", []):
        _print_span_tree(child, depth + 1)


# -- slow ------------------------------------------------------------------


def _cmd_slow(args: argparse.Namespace) -> int:
    """The gateway's slow-request exemplars, worst first."""
    log = _load_log(args)
    records = log.runs(kind="slow", name=args.name)
    if not records:
        print(f"no slow-request records in {log.path}")
        return 0
    records.sort(key=lambda r: r.wall_seconds, reverse=True)
    if args.limit and len(records) > args.limit:
        records = records[: args.limit]
    rows = []
    for record in records:
        extra = record.extra or {}
        breakdown = extra.get("breakdown", {})
        rows.append(
            {
                "id": record.run_id,
                "name": record.name,
                "when": _when(record),
                "trace": (extra.get("trace_id") or "—")[:16],
                "status": extra.get("status", "?"),
                "total_s": f"{record.wall_seconds:.3f}",
                "queue_s": f"{breakdown.get('queue_wait_s', 0.0):.3f}",
                "worker_s": f"{breakdown.get('worker_exec_s', 0.0):.3f}",
            }
        )
    _print_table(f"slow requests ({log.path})", rows)
    print("\nuse `artwork-inspect show <id> --trace out.json` for the span tree")
    return 0


def _cmd_flame(args: argparse.Namespace) -> int:
    """Render one run's profile windows as a flamegraph HTML page."""
    log = _load_log(args)
    record = _resolve(log, args.run)
    windows = record.profile_windows or []
    if not windows:
        raise _fail(
            f"run {record.run_id} carries no profile windows "
            "(was the sampler disabled? ARTWORK_SAMPLER_HZ=0)"
        )
    out = Path(args.output or f"flame_{record.run_id}.html")
    write_flamegraph_html(
        out, windows, title=f"{record.name} — {record.run_id}"
    )
    merged = merge_windows(windows)
    print(
        f"flamegraph -> {out} ({merged.samples} samples over "
        f"{len(windows)} window(s), "
        f"{100.0 * merged.attributed_ratio():.1f}% attributed)"
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Explain the router's search effort for one net of a recorded run."""
    log = _load_log(args)
    record = _resolve(log, args.run)
    search = (record.extra or {}).get("search") or {}
    nets = search.get("nets") or {}
    if not nets:
        raise _fail(
            f"run {record.run_id} carries no search introspection "
            "(recorded before it existed, or not a routing run)"
        )
    if args.net is None:
        rows = [
            {
                "net": net,
                "conns": agg.get("connections", 0),
                "pops": agg.get("pops", 0),
                "field_s": f"{agg.get('field_s', 0.0):.4f}",
                "bound_est": agg.get("bound_est", 0),
                "escalations": agg.get("escalations", 0),
                "area": agg.get("area", 0),
                "seconds": f"{agg.get('seconds', 0.0):.4f}",
                "outcome": agg.get("outcome", "?"),
            }
            for net, agg in sorted(
                nets.items(), key=lambda kv: -kv[1].get("pops", 0)
            )[: args.limit or len(nets)]
        ]
        _print_table(f"search effort by net ({record.run_id})", rows)
        tightness = search.get("bound_tightness") or {}
        if tightness:
            print("\nbound tightness (estimate/actual, 1.0 = exact):")
            for bucket in sorted(tightness):
                print(f"  {bucket:<12}{tightness[bucket]}")
        print("\nuse `artwork-inspect explain <run> <net>` for one net's detail")
        return 0
    agg = nets.get(args.net)
    if agg is None:
        sample = ", ".join(sorted(nets)[:8])
        raise _fail(
            f"run {record.run_id} has no net {args.net!r} "
            f"(nets include: {sample}{'...' if len(nets) > 8 else ''})"
        )
    print(f"net {args.net} ({record.run_id}/{record.name}): {agg.get('outcome', '?')}")
    for key in ("connections", "pops", "field_s", "pruned", "bound_est",
                "escalations", "failures", "area"):
        value = agg.get(key, 0)
        print(f"  {key:<14}{value:.4f}" if key == "field_s" else f"  {key:<14}{value}")
    print(f"  {'seconds':<14}{agg.get('seconds', 0.0):.4f}")
    if agg.get("certificate"):
        print(f"  {'certificate':<14}{agg['certificate']}")
    if "ripped" in agg:
        print(f"  {'ripped':<14}{', '.join(agg['ripped']) or '—'}")
    detail = [
        row for row in (search.get("connections") or [])
        if row.get("net") == args.net
    ]
    if detail:
        rows = [
            {
                "start": f"{row.get('start', ['?', '?'])}",
                "targets": row.get("targets", 0),
                "pops": row.get("pops", 0),
                "field_s": f"{row.get('field_s', 0.0):.4f}",
                "pruned": row.get("pruned", 0),
                "bound": f"{row.get('bound') or '—'}",
                "cost": f"{row.get('cost') or '—'}",
                "found": "yes" if row.get("found") else "NO",
                "proof": row.get("certificate") or "",
                "seconds": f"{row.get('seconds', 0.0):.4f}",
            }
            for row in detail
        ]
        _print_table("per-connection search detail", rows)
    else:
        print(
            "\n(no per-connection rows persisted for this net — only the "
            f"top {len(search.get('connections') or [])} by pops are kept)"
        )
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """Summarize a gateway write-ahead journal: per-job state, what a
    restart would replay, and any corruption the loader tolerated."""
    from .gateway.journal import read_journal

    records, summary = read_journal(args.path)
    print(f"journal {summary['path']}")
    print(
        f"  records {summary['records']}  jobs {summary['jobs']}  "
        f"live {summary['live']}  corrupt_lines {summary['corrupt_lines']}  "
        f"torn_tail {summary['torn_tail']}"
    )
    if summary["live_jobs"]:
        rows = []
        by_job = {r["job"]: r for r in records if r["op"] == "accepted"}
        for job_id, state in summary["live_jobs"].items():
            accepted = by_job.get(job_id, {})
            rows.append(
                {
                    "job": job_id,
                    "state": state,
                    "name": accepted.get("name", "?"),
                    "digest": str(accepted.get("digest", ""))[:12],
                    "trace": str(accepted.get("trace") or "—")[:16],
                    "deadline": (
                        f"{accepted['deadline']:.3f}"
                        if accepted.get("deadline") is not None
                        else "—"
                    ),
                }
            )
        _print_table("live jobs (replayed on next boot)", rows)
    else:
        print("  no live jobs — a restart replays nothing")
    if summary["statuses"]:
        counts: dict[str, int] = {}
        for status in summary["statuses"].values():
            counts[status] = counts.get(status, 0) + 1
        done = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"  terminal: {done}")
    if args.ops:
        for record in records:
            print(f"  {json.dumps(record, sort_keys=True)}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    log = _load_log(args)
    base = _resolve(log, args.base)
    run = _resolve(log, args.run)
    rows = []
    for metric, d in diff_records(base, run).items():
        rows.append(
            {
                "metric": metric,
                "base": d["base"],
                "run": d["run"],
                "delta": f"{d['delta']:+g}" if d["delta"] else "=",
                "pct": f"{d['pct']:+.1f}%" if d["pct"] is not None else "—",
            }
        )
    _print_table(f"{base.run_id} -> {run.run_id} ({run.name})", rows)
    return 0


# -- report ----------------------------------------------------------------


def _baseline_record(log: RunLog, spec: str) -> RunRecord:
    """A baseline for the report: a run id, or a baseline JSON file."""
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        data = _read_baseline(path)
        return RunRecord(
            run_id=f"baseline:{path.stem}",
            kind="baseline",
            name=str(data.get("name", path.stem)),
            timestamp=str(data.get("recorded", "")),
            git_rev=str(data.get("git_rev", "")),
            metrics=dict(data.get("metrics", {})),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )
    return _resolve(log, spec)


def _cmd_report(args: argparse.Namespace) -> int:
    log = _load_log(args)
    if args.run:
        record = _resolve(log, args.run)
    else:
        record = log.latest(name=args.name)
        if record is None:
            raise _fail(f"no runs{f' named {args.name!r}' if args.name else ''} in {log.path}")
    baseline = _baseline_record(log, args.baseline) if args.baseline else None
    out = Path(args.output or f"report_{record.run_id}.html")
    write_html_report(out, record, baseline=baseline)
    print(f"report -> {out}")
    return 0


# -- regress ---------------------------------------------------------------


def _read_baseline(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _fail(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or "name" not in data or "metrics" not in data:
        raise _fail(f"baseline {path} needs at least 'name' and 'metrics'")
    return data


def _baseline_network(source: dict, root: Path):
    """Rebuild the workload a baseline gates: a named example generator,
    explicit network files, or a workload spec."""
    if "example" in source:
        from . import workloads

        fn = getattr(workloads, str(source["example"]), None)
        if fn is None:
            raise _fail(f"unknown example workload {source['example']!r}")
        return fn(**source.get("args", {}))
    if "files" in source:
        files = source["files"]
        ns = argparse.Namespace(
            netlist=str(root / files["netlist"]),
            call=str(root / files["call"]),
            io=str(root / files["io"]) if files.get("io") else None,
            library=str(root / files["library"]) if files.get("library") else None,
        )
        return _load_network(ns)
    if "workload" in source:
        from .workloads.batch import workload_from_dict

        try:
            networks = workload_from_dict(dict(source["workload"]))
        except (ValueError, KeyError) as exc:
            raise _fail(f"bad baseline workload spec: {exc}") from exc
        if not networks:
            raise _fail("baseline workload produced no networks")
        return networks[0]
    raise _fail("baseline source needs 'example', 'files' or 'workload'")


def _capture_run(baseline: dict, root: Path, log: RunLog) -> RunRecord:
    """Run the baseline's workload now and append the record."""
    source = baseline.get("source")
    if not isinstance(source, dict):
        raise _fail(
            f"baseline {baseline['name']!r} has no 'source' to capture from"
        )
    try:
        pablo = pablo_from_dict(baseline.get("pablo", {}))
        eureka = router_from_dict(baseline.get("eureka", {}))
    except ValueError as exc:
        raise _fail(f"bad baseline options: {exc}") from exc
    network = _baseline_network(source, root)
    result = generate(
        network, pablo, eureka,
        runlog=log, run_name=str(baseline["name"]), run_kind="regress",
    )
    assert result.run_record is not None
    return result.run_record


def _cmd_regress(args: argparse.Namespace) -> int:
    setup_logging(args.log_level)
    if args.capture:
        enable_tracing()
    log = _load_log(args)
    baselines_dir = Path(args.baselines)
    baseline_files = sorted(baselines_dir.glob("*.json"))
    if not baseline_files:
        raise _fail(f"no baseline files in {baselines_dir}")
    root = Path(args.root)

    rows = []
    violations: list[Regression] = []
    compared = 0
    for path in baseline_files:
        baseline = _read_baseline(path)
        name = str(baseline["name"])
        if args.capture:
            record = _capture_run(baseline, root, log)
        else:
            record = log.latest(name=name)
        if record is None:
            rows.append({"workload": name, "run": "—", "status": "no run", "wall_s": "—"})
            print(
                f"warning: no recorded run named {name!r} in {log.path} "
                "(use --capture to run it now)",
                file=sys.stderr,
            )
            continue
        compared += 1
        found = check_regressions(
            baseline,
            record,
            quality_tolerance=args.tolerance,
            time_tolerance=args.time_tolerance,
            time_floor=args.time_floor,
        )
        violations.extend(found)
        rows.append(
            {
                "workload": name,
                "run": record.run_id,
                "status": "REGRESSED" if found else "ok",
                "wall_s": f"{record.wall_seconds:.3f}",
            }
        )
        if args.update:
            baseline.update(
                metrics={
                    k: record.metrics.get(k, 0)
                    for k in ("nets", "routed", "failed", "length", "bends",
                              "crossovers", "branch_nodes")
                },
                wall_seconds=round(record.wall_seconds, 4),
                git_rev=git_rev(),
                recorded=record.timestamp,
            )
            path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")

    _print_table(
        f"regression gate vs {baselines_dir} "
        f"(quality tol {args.tolerance:g}, time tol {args.time_tolerance:g})",
        rows,
    )
    for violation in violations:
        print(f"REGRESSION  {violation}", file=sys.stderr)
    if args.update:
        print(f"baselines refreshed in {baselines_dir}")
    if not compared:
        raise _fail("no baseline had a matching recorded run")
    if violations:
        print(f"{len(violations)} regression(s) found", file=sys.stderr)
        return 1
    print(f"{compared} workload(s) within tolerance")
    return 0


# -- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artwork-inspect", description=__doc__.split("\n\n")[0]
    )
    _version_arg(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="run the generator and record it")
    _network_args(p_record)
    _pablo_args(p_record)
    _eureka_args(p_record, short_swap=False)
    _runlog_arg(p_record)
    p_record.add_argument("--name", help="record name (default: network name)")
    p_record.add_argument(
        "--svg", metavar="FILE", help="write the schematic with a congestion overlay"
    )
    p_record.add_argument("--log-level", default="warning")
    p_record.set_defaults(func=_cmd_record)

    p_list = sub.add_parser("list", help="list recorded runs")
    _runlog_arg(p_list)
    p_list.add_argument("--kind", help="filter by record kind")
    p_list.add_argument("--name", help="filter by workload name")
    p_list.add_argument("-n", "--limit", type=int, default=0, help="last N runs only")
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="show one run in full")
    p_show.add_argument("run", help="run id (or unique prefix)")
    _runlog_arg(p_show)
    p_show.add_argument(
        "--trace",
        metavar="FILE",
        help="export the record's span tree as Chrome trace JSON "
        "(slow-request exemplars carry one)",
    )
    p_show.set_defaults(func=_cmd_show)

    p_slow = sub.add_parser(
        "slow", help="list the gateway's slow-request exemplars"
    )
    _runlog_arg(p_slow)
    p_slow.add_argument("--name", help="filter by workload name")
    p_slow.add_argument("-n", "--limit", type=int, default=20, help="worst N only")
    p_slow.set_defaults(func=_cmd_slow)

    p_flame = sub.add_parser(
        "flame", help="render a run's profile windows as flamegraph HTML"
    )
    p_flame.add_argument("run", help="run id (or unique prefix)")
    _runlog_arg(p_flame)
    p_flame.add_argument("-o", "--output", help="output HTML path")
    p_flame.set_defaults(func=_cmd_flame)

    p_explain = sub.add_parser(
        "explain", help="explain the router's search effort for one net"
    )
    p_explain.add_argument("run", help="run id (or unique prefix)")
    p_explain.add_argument(
        "net", nargs="?", help="net name (omit for the per-net overview)"
    )
    _runlog_arg(p_explain)
    p_explain.add_argument(
        "-n", "--limit", type=int, default=30,
        help="overview rows (default: 30 hottest nets by pops)",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_journal = sub.add_parser(
        "journal", help="summarize a gateway write-ahead journal file"
    )
    p_journal.add_argument("path", help="journal file (artwork-serve --journal)")
    p_journal.add_argument(
        "--ops", action="store_true", help="also dump every parsed journal record"
    )
    p_journal.set_defaults(func=_cmd_journal)

    p_diff = sub.add_parser("diff", help="metric deltas between two runs")
    p_diff.add_argument("base", help="baseline run id")
    p_diff.add_argument("run", help="run id to compare")
    _runlog_arg(p_diff)
    p_diff.set_defaults(func=_cmd_diff)

    p_report = sub.add_parser("report", help="write the HTML diagnostics report")
    p_report.add_argument("run", nargs="?", help="run id (default: latest)")
    _runlog_arg(p_report)
    p_report.add_argument("--name", help="pick the latest run with this name")
    p_report.add_argument(
        "--baseline", help="run id or baseline JSON file to diff against"
    )
    p_report.add_argument("-o", "--output", help="output HTML path")
    p_report.set_defaults(func=_cmd_report)

    p_regress = sub.add_parser(
        "regress", help="gate the latest runs against committed baselines"
    )
    _runlog_arg(p_regress)
    p_regress.add_argument(
        "--baselines",
        default=str(DEFAULT_BASELINES),
        help=f"baseline directory (default: {DEFAULT_BASELINES})",
    )
    p_regress.add_argument(
        "--root", default=".", help="root for baseline source file paths"
    )
    p_regress.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="relative tolerance on bends/crossovers/failures (default: 0, "
        "the pipeline is deterministic)",
    )
    p_regress.add_argument(
        "--time-tolerance",
        type=float,
        default=2.0,
        help="relative wall-time tolerance (default: 2.0 = 3x the baseline)",
    )
    p_regress.add_argument(
        "--time-floor",
        type=float,
        default=0.5,
        help="absolute wall-time slack in seconds (default: 0.5)",
    )
    p_regress.add_argument(
        "--capture",
        action="store_true",
        help="run every baseline workload now (and record it) before comparing",
    )
    p_regress.add_argument(
        "--update",
        action="store_true",
        help="refresh the baseline files from the compared runs",
    )
    p_regress.add_argument("--log-level", default="warning")
    p_regress.set_defaults(func=_cmd_regress)
    return parser


def inspect_main(argv: list[str] | None = None) -> int:
    """Entry point for ``artwork-inspect``."""
    return _run_guarded(_inspect_body, argv)


def _inspect_body(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(inspect_main())
