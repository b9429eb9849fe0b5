"""Paper-workload benchmark for the schematic generator: ``life``, ``batch``
and ``serve``.

    python3 perfbench/run.py --workload life --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it runs the program from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing added to the
program.  ``--trace 1`` is a separate run that wraps each layer's public
functions (see ``layers.py``) and reports per-layer metrics, next to the
tracing overhead it measured against an untraced share of the same run.

Output: a human-readable report, then as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when an output check fails or a count that defines the workload differs
from an earlier run of the same checkout, and 2 on a usage error (such
as a directory with no ``src/repro``).  See ``README.md`` for the design.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import shutil
import signal
import sys

sys.dont_write_bytecode = True  # until harness points bytecode at its own cache
import harness  # noqa: E402
import layers  # noqa: E402

#: name -> (unit, better): what a user of the system sees, untraced.
#: Wall-clock latency and throughput (job_s_p50, jobs_per_s, and on serve
#: hit_s_p50, job_s_p90) are printed with every run but not listed here:
#: on a 2-core VM sharing its host, CPU steal spread them over ten runs by
#: 0.28-0.38 of their median (quartile distance), CPU per job by 0.07-0.12.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_s_per_job": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
    "nets_routed_frac": ("ratio", "higher"),
    "bends_per_net": ("count", "lower"),
    "crossovers_per_net": ("count", "lower"),
    "length_per_net": ("count", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

_TIMES_PER_JOB = [
    "route.s", "route.plane_s", "route.claims_s", "route.search_s",
    "place.s", "place.partitioning_s", "place.box_formation_s",
    "place.module_placement_s", "place.box_placement_s",
    "place.partition_placement_s", "place.terminal_placement_s",
    "formats.parse_s", "formats.escher_write_s", "formats.escher_read_s",
    "render.svg_s", "core.metrics_s", "obs.export_s",
]
_TIMES_PER_CALL = ["jobs.spec_s", "jobs.digest_s", "cache.get_s", "cache.put_s"]

#: name -> (unit, better): single layers, from the traced run.
PER_LAYER = {
    **{name: ("s", "lower") for name in _TIMES_PER_JOB + _TIMES_PER_CALL},
    "route.connections": ("count", "lower"),
    "route.found_frac": ("ratio", "higher"),
    "route.states": ("count", "lower"),
    "route.states_per_connection": ("count", "lower"),
    "route.escalations": ("count", "lower"),
    "route.retried_nets": ("count", "lower"),
    "route.recovered_nets": ("count", "higher"),
    "place.modules": ("count", "higher"),
    "cache.hit_frac": ("ratio", "higher"),
    "scheduler.exec_s": ("s", "lower"),
    "scheduler.busy_frac": ("ratio", "higher"),
    "scheduler.serial_fast_path": ("count", "lower"),
    "scheduler.retried": ("count", "lower"),
    "gateway.post_s_p50": ("s", "lower"),
    "gateway.wait_s_p50": ("s", "lower"),
    "gateway.overhead_s_p50": ("s", "lower"),
    "gateway.hits": ("count", "higher"),
    "gateway.deduped": ("count", "lower"),
    "gateway.rejects": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.cover_frac": ("ratio", "higher"),
    "env.steal_frac": ("ratio", "lower"),
    "env.cpu_probe_s": ("s", "lower"),
}

WORKLOADS = ("life", "batch", "serve")


def _per_layer(spans_dir, result: dict, noise: dict) -> dict[str, float]:
    totals = layers.LayerTotals(layers.load_spans(spans_dir))
    fresh = result["fresh_jobs"]
    metrics = {name: totals.seconds.get(name, 0.0) / fresh for name in _TIMES_PER_JOB}
    metrics.update({name: totals.per_call(name) for name in _TIMES_PER_CALL})
    route = totals.attrs["route.s"]
    connections = route["connections"]
    gets = totals.calls.get("cache.get_s", 0)
    metrics.update({
        "route.connections": connections,
        "route.found_frac": harness.ratio(connections - route["failures"], connections),
        "route.states": route["states"],
        "route.states_per_connection": harness.ratio(route["states"], connections),
        "route.escalations": route["escalations"],
        "route.retried_nets": route["retried"],
        "route.recovered_nets": route["recovered"],
        "place.modules": totals.attrs["place.s"]["modules"],
        "cache.hit_frac": harness.ratio(totals.attrs["cache.get_s"]["hit"], gets),
        "trace.cover_frac": harness.ratio(
            totals.seconds.get("route.s", 0.0) + totals.seconds.get("place.s", 0.0),
            result["job_seconds"],
        ),
        "env.steal_frac": noise["env.steal_frac"],
        "env.cpu_probe_s": noise["env.cpu_probe_s"],
    })
    # Layers this workload does not exercise did no work: zero.
    metrics.update({name: 0 for name in PER_LAYER if name not in metrics})
    metrics.update(result.get("per_layer_extra", {}))
    shares = {
        layer: seconds / result["job_seconds"]
        for layer, seconds in sorted(totals.self_seconds.items(), key=lambda kv: -kv[1])
    }
    print("  self time by layer, share of job time: " + ", ".join(
        f"{layer} {100 * share:.1f}%" for layer, share in shares.items()
    ))
    return metrics


def _note_unit(name: str) -> str:
    if name == "jobs_per_s":
        return "1/s"
    if name.endswith("_frac"):
        return "ratio"
    if re.search(r"_s($|_)", name):
        return "s"
    return "count"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not harness.have_sources():
        print(f"error: no program sources at {harness.SRC / 'repro'}", file=sys.stderr)
        return 2
    harness.scrub_own_env()
    # A driver's SIGTERM must still run the finally blocks that kill daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    stale = harness.stale_processes()
    if stale:
        print(f"error: processes of an earlier run are still alive: {stale}", file=sys.stderr)
        return 1
    shutil.rmtree(harness.WORK / "tmp", ignore_errors=True)

    workload = importlib.import_module(f"workload_{args.workload}")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    work = harness.scratch_dir(f"{args.workload}-")
    spans = work / "spans" if args.trace else None
    noise_watch = harness.NoiseWatch()
    try:
        result = workload.run(args.seed, args.seconds, spans, work)
        noise = noise_watch.finish()
        if args.trace:
            metrics = _per_layer(spans, result, noise)
            table = PER_LAYER
        else:
            metrics = result["e2e"]
            table = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["samples"]
    for name, (unit, better) in table.items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:30s} {_fmt(metrics[name]):>12s} {unit:6s} ({better} is better){count}")
    for name, value in {**result["notes"], **noise}.items():
        print(f"  {name:30s} {_fmt(value):>12s} {_note_unit(name):6s} (not gated)")
    for problem in result["problems"][:50]:
        print(f"  FAILED CHECK: {problem}")
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, (unit, _) in table.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
