"""Command-line front ends: ``pablo``, ``eureka``, ``quinto``, ``artwork``
and the batch service driver ``artwork-batch``.

The first four mirror the paper's programs (Appendices B, E and F):

* ``pablo``   — place a network described by net-list/call/io files,
* ``eureka``  — route a placed diagram (ESCHER file) against a net-list,
* ``quinto``  — add a module description to a library directory,
* ``artwork`` — the whole pipeline: network files in, SVG/ESCHER out.

``artwork-batch`` runs the pipeline as a service over JSON manifests of
many networks (file triples and/or a generated workload), fanning jobs
across the supervised worker pool (:mod:`repro.gateway.pool`) with a
content-addressed result cache, and emits per-job SVG/ESCHER outputs
plus an aggregate Table-6.1-style report.  Each manifest forks its own
pool unless ``--keep-warm`` forks one and reuses it across manifests;
tiny batches short-circuit to an in-process serial path.

``artwork-serve`` keeps the whole pipeline resident: a stdlib asyncio
HTTP + WebSocket gateway (:mod:`repro.gateway`) over the same warm
worker pool, with auth, rate limiting, Prometheus metrics and graceful
drain.

All commands exit 0 on success, 1 when some nets stayed unroutable (or a
batch job failed), and 2 on load/validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .core.diagram import DiagramError
from .obs import (
    RunLog,
    add_log_argument,
    enable_tracing,
    get_registry,
    get_tracer,
    set_tracer,
    setup_logging,
)
from .core.generator import generate, route_placed
from .core.metrics import DiagramMetrics, diagram_metrics
from .core.netlist import NetlistError, Network
from .formats.escher import load_escher, save_escher
from .formats.library import ModuleLibrary
from .formats.module_desc import parse_module_description, write_module_description
from .formats.netlist_files import load_network_files
from .core.geometry import Side
from .place.pablo import PabloOptions, place_network
from .render.svg import save_svg
from .route.eureka import RouterOptions
from .route.line_expansion import CostOrder
from .service import BatchScheduler, JobError, JobSpec, ResultCache
from .workloads.batch import workload_from_dict

#: Exit code for load/validation problems (vs. 1 = unroutable/failed jobs).
EXIT_USAGE = 2

#: Exceptions that mean "your input is bad", not "the program is broken".
_INPUT_ERRORS = (NetlistError, DiagramError, JobError, OSError, ValueError, KeyError)


class _CliError(Exception):
    """Input problem already formatted for the user."""


def _fail(message: str) -> "_CliError":
    return _CliError(message)


def _library(path: str | None) -> ModuleLibrary:
    if path is None:
        return ModuleLibrary.standard()
    return ModuleLibrary.load(path)


def _load_network(args: argparse.Namespace) -> Network:
    try:
        return load_network_files(
            args.netlist, args.call, args.io, library=_library(args.library)
        )
    except _INPUT_ERRORS as exc:
        raise _fail(f"cannot load network: {exc}") from exc


def _network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("netlist", help="net-list-file (Appendix A)")
    parser.add_argument("call", help="call-file (instances and templates)")
    parser.add_argument("io", nargs="?", default=None, help="io-file (system terminals)")
    parser.add_argument("--library", help="module library directory (default: built-in)")


def _version_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )


# -- observability plumbing (shared by every command) ---------------------


def _obs_args(parser: argparse.ArgumentParser) -> None:
    """``--trace``/``--profile``/``--flame``/``--runlog``/``--log-level``."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON of this run (chrome://tracing)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the hierarchical time tree and event counters after the run",
    )
    parser.add_argument(
        "--flame",
        metavar="FILE",
        help="sample the run's stacks and write a flamegraph HTML here",
    )
    parser.add_argument(
        "--runlog",
        metavar="FILE",
        help="append a RunRecord for this run to the JSONL run registry "
        "(inspect it with artwork-inspect)",
    )
    add_log_argument(parser)


def _obs_begin(args: argparse.Namespace):
    """Configure logging and, when asked for, turn tracing on (the run
    registry needs per-stage timings, so ``--runlog`` implies tracing;
    ``--flame`` does too — sample attribution roots in the span path).

    Returns the tracer that was installed before, which :func:`_obs_end`
    puts back, or ``None`` when tracing stays as it was."""
    setup_logging(args.log_level)
    if getattr(args, "flame", None):
        from .obs.sampler import CAPTURE_HZ, ensure_sampler

        # High-hz with 1 s windows and a deep ring: CLI runs are short,
        # and the flamegraph should cover the whole run, not a trailing
        # minute of it.
        ensure_sampler(hz=CAPTURE_HZ, window_s=1.0, max_windows=600)
    if (
        getattr(args, "trace", None)
        or getattr(args, "profile", False)
        or getattr(args, "flame", None)
        or getattr(args, "runlog", None)
    ):
        previous = get_tracer()
        enable_tracing()
        return previous
    return None


def _runlog_for(args: argparse.Namespace) -> RunLog | None:
    return RunLog(args.runlog) if getattr(args, "runlog", None) else None


def _obs_end(args: argparse.Namespace, previous) -> None:
    """Emit whatever observability outputs the flags requested, then
    reinstall the tracer :func:`_obs_begin` replaced, so an in-process
    call of a CLI main leaves tracing as it found it.

    Runs from ``finally`` blocks, so the trace survives aborted runs
    (DiagramError mid-pipeline still leaves the spans collected so far).
    """
    if previous is None:
        _obs_outputs(args, None)
        return
    try:
        _obs_outputs(args, get_tracer())
    finally:
        set_tracer(previous)


def _obs_outputs(args: argparse.Namespace, tracer) -> None:
    """Write the flamegraph, trace and profile the flags asked for."""
    if getattr(args, "flame", None):
        from .obs.sampler import get_sampler, merge_windows, write_flamegraph_html

        sampler = get_sampler()
        if sampler is not None:
            sampler.stop()
            windows = sampler.windows()
            try:
                write_flamegraph_html(
                    args.flame, windows,
                    title=f"sampled run — {Path(args.flame).stem}",
                )
            except OSError as exc:
                raise _fail(f"cannot write flamegraph {args.flame!r}: {exc}") from exc
            merged = merge_windows(windows)
            print(
                f"flamegraph -> {args.flame} ({merged.samples} samples at "
                f"{sampler.hz:g} hz, "
                f"{100.0 * merged.attributed_ratio():.1f}% attributed)"
            )
    if tracer is None:
        return
    if args.trace:
        try:
            tracer.write_chrome_trace(args.trace)
        except OSError as exc:
            raise _fail(f"cannot write trace {args.trace!r}: {exc}") from exc
        print(f"trace -> {args.trace} (open in chrome://tracing or Perfetto)")
    if args.profile:
        print(tracer.profile_tree())
        counter_report = get_registry().report()
        if counter_report:
            print(counter_report)


def _run_guarded(main, argv) -> int:
    """Run a command body, mapping input errors to exit code 2."""
    try:
        return main(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiagramError as exc:
        # A malformed/inconsistent diagram surfacing mid-pipeline is an
        # input problem too; the finally blocks already flushed the trace.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _pablo_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-p", type=int, default=1, help="max modules per partition")
    parser.add_argument("-b", type=int, default=1, help="max modules per box (string)")
    parser.add_argument("-c", type=float, default=math.inf, help="max outgoing nets per partition")
    parser.add_argument("-e", type=int, default=0, help="extra tracks around partitions")
    parser.add_argument("-i", type=int, default=0, help="extra tracks around boxes")
    parser.add_argument("-s", type=int, default=0, dest="module_space", help="extra tracks around modules")


def _pablo_options(args: argparse.Namespace) -> PabloOptions:
    return PabloOptions(
        partition_size=args.p,
        box_size=args.b,
        max_connections=args.c,
        partition_spacing=args.e,
        box_spacing=args.i,
        module_extra_space=args.module_space,
    )


def _eureka_args(parser: argparse.ArgumentParser, *, short_swap: bool = True) -> None:
    parser.add_argument("-u", action="store_true", help="pin the upper plane border")
    parser.add_argument("-d", action="store_true", help="pin the lower plane border")
    parser.add_argument("-r", action="store_true", help="pin the right plane border")
    parser.add_argument("-l", action="store_true", help="pin the left plane border")
    # ``artwork`` combines both programs, where PABLO already owns -s.
    swap_flags = ["-s", "--swap"] if short_swap else ["--swap"]
    parser.add_argument(
        *swap_flags,
        action="store_true",
        dest="swap",
        help="tie-break minimum-bend paths on length before crossings",
    )
    parser.add_argument("--no-claims", action="store_true", help="disable claimpoints")
    parser.add_argument("--margin", type=int, default=4, help="routing border margin")


def _eureka_options(args: argparse.Namespace) -> RouterOptions:
    fixed = set()
    if args.u:
        fixed.add(Side.UP)
    if args.d:
        fixed.add(Side.DOWN)
    if args.r:
        fixed.add(Side.RIGHT)
    if args.l:
        fixed.add(Side.LEFT)
    order = (
        CostOrder.BENDS_LENGTH_CROSSINGS if args.swap else CostOrder.BENDS_CROSSINGS_LENGTH
    )
    return RouterOptions(
        claimpoints=not args.no_claims,
        cost_order=order,
        margin=args.margin,
        fixed_sides=frozenset(fixed),
    )


def _report(metrics: DiagramMetrics) -> None:
    print(
        f"nets routed: {metrics.nets_routed}/{metrics.nets_total}  "
        f"length={metrics.length} bends={metrics.bends} "
        f"crossovers={metrics.crossovers} branch_nodes={metrics.branch_nodes}"
    )


def pablo_main(argv: list[str] | None = None) -> int:
    """Place a network and write the placed diagram as an ESCHER file."""
    return _run_guarded(_pablo_body, argv)


def _pablo_body(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(prog="pablo", description=pablo_main.__doc__)
    _version_arg(parser)
    _network_args(parser)
    _pablo_args(parser)
    _obs_args(parser)
    parser.add_argument("-o", "--output", default="placed.es", help="output ESCHER file")
    args = parser.parse_args(argv)
    previous = _obs_begin(args)
    try:
        network = _load_network(args)
        diagram, report = place_network(network, _pablo_options(args))
        save_escher(diagram, args.output)
        print(
            f"placed {len(diagram.placements)} modules in "
            f"{report.partition_count} partitions / {report.box_count} boxes "
            f"({report.seconds:.2f}s) -> {args.output}"
        )
        runlog = _runlog_for(args)
        if runlog is not None:
            record = runlog.record(
                kind="pablo",
                name=network.name,
                wall_seconds=report.seconds,
                metrics=dict(diagram_metrics(diagram).as_row()),
                extra={
                    "partitions": report.partition_count,
                    "boxes": report.box_count,
                },
            )
            print(f"runlog: {record.run_id} -> {args.runlog}")
        return 0
    finally:
        _obs_end(args, previous)


def eureka_main(argv: list[str] | None = None) -> int:
    """Route the unrouted nets of a placed ESCHER diagram."""
    return _run_guarded(_eureka_body, argv)


def _eureka_body(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(prog="eureka", description=eureka_main.__doc__)
    _version_arg(parser)
    parser.add_argument("graphic", help="placed diagram (ESCHER file)")
    _network_args(parser)
    _eureka_args(parser)
    _obs_args(parser)
    parser.add_argument("-o", "--output", default="routed.es", help="output ESCHER file")
    args = parser.parse_args(argv)
    previous = _obs_begin(args)
    try:
        network = _load_network(args)
        try:
            diagram = load_escher(args.graphic, network)
        except _INPUT_ERRORS as exc:
            raise _fail(f"cannot load diagram {args.graphic!r}: {exc}") from exc
        result = route_placed(diagram, _eureka_options(args))
        for failure in result.routing.failed_nets:
            print(
                f"warning: net {str(failure)!r} is unroutable "
                f"({failure.reason.value})",
                file=sys.stderr,
            )
        save_escher(diagram, args.output)
        _report(result.metrics)
        runlog = _runlog_for(args)
        if runlog is not None:
            record = runlog.record_result(result, kind="eureka", name=network.name)
            print(f"runlog: {record.run_id} -> {args.runlog}")
        return 0 if not result.routing.failed_nets else 1
    finally:
        _obs_end(args, previous)


def quinto_main(argv: list[str] | None = None) -> int:
    """Add a module description (Appendix B) to a library directory."""
    return _run_guarded(_quinto_body, argv)


def _quinto_body(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(prog="quinto", description=quinto_main.__doc__)
    _version_arg(parser)
    parser.add_argument("file", help="module description file")
    parser.add_argument("--library", default="user_lib", help="library directory")
    add_log_argument(parser)
    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    try:
        module = parse_module_description(Path(args.file).read_text())
    except _INPUT_ERRORS as exc:
        raise _fail(f"cannot load module description {args.file!r}: {exc}") from exc
    directory = Path(args.library)
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"{module.template}{ModuleLibrary.SUFFIX}"
    out.write_text(write_module_description(module))
    print(f"added template {module.template!r} -> {out}")
    return 0


def artwork_main(argv: list[str] | None = None) -> int:
    """The full generator: network files in, routed SVG + ESCHER out."""
    return _run_guarded(_artwork_body, argv)


def _artwork_body(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(prog="artwork", description=artwork_main.__doc__)
    _version_arg(parser)
    _network_args(parser)
    _pablo_args(parser)
    _eureka_args(parser, short_swap=False)
    _obs_args(parser)
    parser.add_argument("-o", "--output", default="artwork.svg", help="output SVG")
    parser.add_argument("--escher", help="also write an ESCHER file here")
    args = parser.parse_args(argv)
    previous = _obs_begin(args)
    try:
        network = _load_network(args)
        result = generate(
            network,
            _pablo_options(args),
            _eureka_options(args),
            runlog=_runlog_for(args),
        )
        save_svg(result.diagram, args.output)
        if args.escher:
            save_escher(result.diagram, args.escher)
        _report(result.metrics)
        for net, reason in result.routing.failure_reasons.items():
            print(f"warning: net {net!r} is unroutable ({reason.value})", file=sys.stderr)
        print(f"wrote {args.output}")
        if result.run_record is not None:
            print(f"runlog: {result.run_record.run_id} -> {args.runlog}")
        return 0 if not result.routing.failed_nets else 1
    finally:
        _obs_end(args, previous)


# -- artwork-batch: the job service front end -----------------------------


def _manifest_specs(manifest: dict, base: Path) -> list[JobSpec]:
    """Turn a manifest into job specs (file jobs + generated workload)."""
    if not isinstance(manifest, dict):
        raise _fail("manifest must be a JSON object")
    unknown = set(manifest) - {"jobs", "workload", "pablo", "eureka", "library"}
    if unknown:
        raise _fail(f"unknown manifest key(s): {sorted(unknown)}")
    default_pablo = manifest.get("pablo", {})
    default_eureka = manifest.get("eureka", {})
    specs: list[JobSpec] = []

    from .service.jobs import pablo_from_dict, router_from_dict

    def options_for(job: dict) -> tuple[PabloOptions, RouterOptions]:
        return (
            pablo_from_dict({**default_pablo, **job.get("pablo", {})}),
            router_from_dict({**default_eureka, **job.get("eureka", {})}),
        )

    for i, job in enumerate(manifest.get("jobs", [])):
        if not isinstance(job, dict) or "netlist" not in job or "call" not in job:
            raise _fail(f"job #{i} needs at least 'netlist' and 'call' paths")
        library = job.get("library", manifest.get("library"))
        try:
            network = load_network_files(
                base / job["netlist"],
                base / job["call"],
                base / job["io"] if job.get("io") else None,
                library=_library(str(base / library) if library else None),
            )
        except _INPUT_ERRORS as exc:
            raise _fail(f"job #{i}: cannot load network: {exc}") from exc
        pablo, eureka = options_for(job)
        specs.append(
            JobSpec.from_network(network, pablo, eureka, name=job.get("name"))
        )

    if "workload" in manifest:
        workload = dict(manifest["workload"])
        pablo, eureka = options_for(workload.pop("options", {}))
        try:
            networks = workload_from_dict(workload)
        except _INPUT_ERRORS as exc:
            raise _fail(f"bad workload spec: {exc}") from exc
        specs.extend(JobSpec.from_network(n, pablo, eureka) for n in networks)

    if not specs:
        raise _fail("manifest describes no jobs (need 'jobs' and/or 'workload')")
    return _uniquify(specs)


def _uniquify(specs: list[JobSpec]) -> list[JobSpec]:
    """Give duplicate job names distinct output file stems."""
    seen: dict[str, int] = {}
    out = []
    for spec in specs:
        count = seen.get(spec.name, 0)
        seen[spec.name] = count + 1
        if count:
            spec = JobSpec(
                name=f"{spec.name}_{count}",
                network_json=spec.network_json,
                pablo=spec.pablo,
                eureka=spec.eureka,
            )
        out.append(spec)
    return out


def _print_table(title: str, rows: list[dict]) -> None:
    if not rows:
        return
    headers = list(rows[0])
    widths = {h: max(len(h), *(len(str(r.get(h, ""))) for r in rows)) for h in headers}
    print(title)
    print("  " + "  ".join(h.ljust(widths[h]) for h in headers))
    for row in rows:
        print("  " + "  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))


def artwork_batch_main(argv: list[str] | None = None) -> int:
    """Batch generator service: JSON manifest in, per-job SVG/ESCHER plus an
    aggregate timing report out, with process-pool parallelism and a
    content-addressed warm cache."""
    return _run_guarded(_artwork_batch_body, argv)


def _artwork_batch_body(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="artwork-batch", description=artwork_batch_main.__doc__
    )
    _version_arg(parser)
    parser.add_argument(
        "manifest", nargs="+", help="JSON manifest(s) (jobs and/or workload)"
    )
    parser.add_argument("-o", "--out", default="batch_out", help="output directory")
    parser.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1, help="process pool size"
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-job wall-clock budget (s)"
    )
    parser.add_argument(
        "--keep-warm",
        action="store_true",
        help="fork the worker pool once and reuse it across manifests "
        "(eliminates the per-batch import/spawn cold start)",
    )
    parser.add_argument(
        "--serial-threshold",
        type=float,
        default=0.03,
        metavar="SECONDS",
        help="run batches serially in-process when a probe job beats this "
        "budget (0 disables; ignored with --keep-warm)",
    )
    parser.add_argument(
        "--cache", default=None, help="result cache directory (default: OUT/cache)"
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the cache")
    parser.add_argument(
        "--max-cache-entries", type=int, default=None, help="LRU bound on the cache"
    )
    parser.add_argument("--no-svg", action="store_true", help="skip SVG rendering")
    parser.add_argument("--report", help="also write the aggregate report as JSON here")
    parser.add_argument("-q", "--quiet", action="store_true", help="no per-job progress")
    _obs_args(parser)
    args = parser.parse_args(argv)
    previous = _obs_begin(args)
    try:
        return _artwork_batch_run(args)
    finally:
        _obs_end(args, previous)


def _load_manifest_specs(manifest_path: Path) -> list[JobSpec]:
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise _fail(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _fail(f"manifest is not valid JSON: {exc}") from exc
    return _manifest_specs(manifest, manifest_path.parent)


def _artwork_batch_run(args: argparse.Namespace) -> int:
    manifest_paths = [Path(m) for m in args.manifest]
    all_specs = [_load_manifest_specs(p) for p in manifest_paths]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = None
    if not args.no_cache:
        cache = ResultCache(
            args.cache or out_dir / "cache", max_entries=args.max_cache_entries
        )
    if args.workers < 1:
        raise _fail("--workers must be at least 1")

    def progress(outcome, done, total):
        if args.quiet:
            return
        seconds = outcome.payload.get("seconds", 0.0) if outcome.payload else 0.0
        source = "cache" if outcome.from_cache else "fresh"
        print(
            f"[{done}/{total}] {outcome.spec.name}: {outcome.status} "
            f"({seconds:.3f}s, {source})"
        )

    import time as _time

    runlog = _runlog_for(args)
    pool = None
    if args.keep_warm:
        # Fork the fleet once, warm imports and all; every manifest then
        # dispatches onto the same resident workers.
        from .gateway.pool import WorkerPool

        pool = WorkerPool(args.workers, timeout=args.timeout)
        pool.start()
    scheduler = BatchScheduler(
        max_workers=args.workers,
        timeout=args.timeout,
        cache=cache,
        runlog=runlog,
        pool=pool,
        serial_threshold=args.serial_threshold or None,
    )
    started = _time.perf_counter()
    try:
        outcomes = []
        for manifest_path, specs in zip(manifest_paths, all_specs):
            if len(manifest_paths) > 1 and not args.quiet:
                print(f"== manifest {manifest_path} ({len(specs)} jobs)")
            outcomes.extend(scheduler.run(specs, progress=progress))
    finally:
        if pool is not None:
            pool.close()
    wall = _time.perf_counter() - started
    manifest_path = manifest_paths[0]

    rows = []
    bad = 0
    merged_metrics: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.ok:
            (out_dir / f"{outcome.spec.name}.es").write_text(
                outcome.payload["escher"]
            )
            if not args.no_svg:
                save_svg(outcome.load_diagram(), out_dir / f"{outcome.spec.name}.svg")
        timing = outcome.timing
        metrics = outcome.metrics
        for key, value in metrics.items():
            if isinstance(value, (int, float)):
                merged_metrics[key] = merged_metrics.get(key, 0) + value
        rows.append(
            {
                "job": outcome.spec.name,
                "status": outcome.status,
                "modules": timing.get("modules", ""),
                "nets": metrics.get("nets", ""),
                "routed": metrics.get("routed", ""),
                "placement_s": timing.get("placement_seconds", ""),
                "routing_s": timing.get("routing_seconds", ""),
                "total_s": timing.get("total_seconds", ""),
                "cache": "hit" if outcome.from_cache else "miss",
            }
        )
        if not outcome.ok or outcome.failed_nets:
            bad += 1

    _print_table(f"batch report ({len(outcomes)} jobs)", rows)
    summary = {
        "jobs": len(outcomes),
        "ok": sum(o.ok for o in outcomes),
        "failed": bad,
        "wall_seconds": round(wall, 3),
        "jobs_per_second": round(len(outcomes) / wall, 2) if wall else 0.0,
        "workers": args.workers,
        "counters": scheduler.counters.snapshot()["counters"],
    }
    if cache is not None:
        summary["cache"] = {**cache.stats.as_row(), "entries": len(cache)}
        hits, total = cache.stats.hits, len(outcomes)
        print(
            f"cache: {hits}/{total} hits "
            f"({100.0 * hits / total if total else 0.0:.0f}%), "
            f"{cache.stats.evictions} evictions, {len(cache)} entries"
        )
    print(
        f"{summary['ok']}/{summary['jobs']} jobs ok in {summary['wall_seconds']}s "
        f"({summary['jobs_per_second']} jobs/s, {args.workers} workers) -> {out_dir}"
    )
    if args.report:
        Path(args.report).write_text(json.dumps({"jobs": rows, "summary": summary}, indent=1))
    if runlog is not None:
        # The per-job records landed as outcomes arrived; this is the
        # parent's merged view of the whole batch.
        record = runlog.record(
            kind="batch",
            name=manifest_path.stem,
            wall_seconds=wall,
            counters=scheduler.counters.snapshot(),
            metrics=merged_metrics,
            extra={k: v for k, v in summary.items() if k != "counters"},
        )
        print(
            f"runlog: batch {record.run_id} "
            f"(+{len(outcomes)} job records) -> {args.runlog}"
        )
    return 0 if bad == 0 else 1


# -- artwork-serve: the persistent gateway daemon --------------------------


def artwork_serve_main(argv: list[str] | None = None) -> int:
    """Persistent artwork daemon: an HTTP + WebSocket gateway over a pool
    of forked-once workers with warm imports, so a job pays milliseconds
    of pipeline instead of a process cold start.  Submit ``JobSpec`` JSON
    to ``POST /v1/jobs``; stream progress from ``/v1/jobs/{id}/events``;
    scrape ``/metrics``; SIGTERM drains gracefully."""
    return _run_guarded(_artwork_serve_body, argv)


def _artwork_serve_body(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="artwork-serve", description=artwork_serve_main.__doc__
    )
    _version_arg(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8571, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1, help="worker pool size"
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="per-job wall-clock budget (s)"
    )
    parser.add_argument(
        "--token",
        action="append",
        default=None,
        help="accepted API token (repeatable; default: $ARTWORK_SERVE_TOKEN, "
        "no tokens = open access)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="per-client request rate limit in requests/s (0 = unlimited)",
    )
    parser.add_argument(
        "--burst", type=int, default=20, help="rate-limit burst capacity"
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="queued jobs before submissions get 503",
    )
    parser.add_argument(
        "--cache", default=None, help="result cache directory (omit to disable)"
    )
    parser.add_argument(
        "--max-cache-entries", type=int, default=None, help="LRU bound on the cache"
    )
    parser.add_argument(
        "--journal",
        default=None,
        help="write-ahead journal file for accepted jobs; replayed on boot "
        "so queued/in-flight work survives restarts (omit to disable)",
    )
    parser.add_argument(
        "--journal-fsync",
        choices=("always", "interval", "never"),
        default="always",
        help="journal durability: fsync every append, at most once per "
        "interval, or leave it to the OS",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="fault-injection spec, e.g. 'cache.read=io:0.5,worker.exec=crash:1' "
        "(default: $ARTWORK_FAULTS; chaos testing only)",
    )
    parser.add_argument(
        "--faults-seed",
        type=int,
        default=None,
        help="seed for fault-injection draws (default: $ARTWORK_FAULTS_SEED or 0)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds to let in-flight jobs finish on shutdown",
    )
    parser.add_argument(
        "--slow-threshold",
        type=float,
        default=1.0,
        help="latency (s) past which a request's span tree is persisted "
        "to the runlog as a kind=slow exemplar (0 captures every request, "
        "negative disables capture)",
    )
    _obs_args(parser)
    args = parser.parse_args(argv)
    previous = _obs_begin(args)
    try:
        return _artwork_serve_run(args)
    finally:
        _obs_end(args, previous)


def _artwork_serve_run(args: argparse.Namespace) -> int:
    import asyncio
    import signal as _signal

    from .faults import ENV_FAULTS, ENV_SEED, FaultRegistry, FaultSpecError, set_faults
    from .gateway import ArtworkGateway, GatewayConfig, JobJournal, RateLimiter, TokenAuth

    if args.workers < 1:
        raise _fail("--workers must be at least 1")
    if args.faults is not None or args.faults_seed is not None:
        # CLI flags override the environment — and land *in* the
        # environment too, so spawn-started workers rebuild the same table.
        seed = (
            args.faults_seed
            if args.faults_seed is not None
            else int(os.environ.get(ENV_SEED, "0") or "0")
        )
        try:
            set_faults(FaultRegistry(args.faults or "", seed=seed))
        except FaultSpecError as exc:
            raise _fail(f"--faults: {exc}")
        os.environ[ENV_FAULTS] = args.faults or ""
        os.environ[ENV_SEED] = str(seed)
    auth = TokenAuth(args.token) if args.token else TokenAuth.from_env()
    limiter = (
        RateLimiter(args.rate, args.burst, jitter=0.25) if args.rate > 0 else None
    )
    cache = None
    if args.cache:
        cache = ResultCache(args.cache, max_entries=args.max_cache_entries)
    journal = (
        JobJournal(args.journal, fsync=args.journal_fsync) if args.journal else None
    )
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        job_timeout=args.timeout or None,
        auth=auth,
        rate_limit=limiter,
        max_queue=args.max_queue,
        cache=cache,
        runlog=_runlog_for(args),
        journal=journal,
        drain_grace=args.drain_grace,
        slow_threshold=args.slow_threshold if args.slow_threshold >= 0 else None,
    )

    async def main() -> None:
        gateway = ArtworkGateway(config)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await gateway.start()
        print(
            f"artwork-serve listening on http://{config.host}:{gateway.port} "
            f"({config.workers} workers, auth "
            f"{'on' if auth.enabled else 'off'})",
            flush=True,
        )
        await stop.wait()
        print("artwork-serve: draining (SIGTERM/SIGINT)", flush=True)
        await gateway.stop(drain=True)
        print("artwork-serve: stopped", flush=True)

    asyncio.run(main())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(artwork_main())
