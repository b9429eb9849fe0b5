"""``batch``: the ``artwork-batch`` engine over the paper's batch figures.

``BatchScheduler`` with the CLI defaults and 2 workers, on a fresh
``ResultCache`` every round; every result is read back and rendered to
SVG, as the CLI does.  A round runs, largest job first:

* the datapath scaling sweep, 1-3 lanes x 4/6/8 stages;
* the example-2 PABLO sweep ``-p {1,3,5,7} x -b {1,3,5}`` (figs 6.2-6.4);
* fig 6.1;
* seeded random 8-20-module networks.

Every job of a round is distinct, so the cache only writes.  The lead
job (datapath 3x8) takes far longer than the scheduler's 30 ms serial
probe, so the batch always fans out to the pool and never flips to the
in-process path.  Rounds repeat the same jobs, so their outputs and
counts must repeat exactly, and each timing is the median over rounds.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import repro.cli  # noqa: F401 - the program's entry module, part of every start
from repro.formats import netlist_files
from repro.formats.library import ModuleLibrary
from repro.place.pablo import PabloOptions
from repro.render import svg
from repro.service import BatchScheduler, JobSpec, ResultCache
from repro.workloads.datapath import datapath_network
from repro.workloads.examples import example1_string, example2_controller
from repro.workloads.random_nets import RandomNetworkSpec, random_network

import checks
import harness
import layers

WORKERS = 2
#: ``artwork-batch --serial-threshold`` default.
SERIAL_THRESHOLD = 0.03
RANDOM_JOBS = 8
#: Wall time of one round on the reference machine; sets rounds per run.
ROUND_S = 5.0
SETUP_STARTS = 9


def write_inputs(directory: Path) -> None:
    for network in (example1_string(), example2_controller()):
        netlist_files.save_network_files(network, directory)


def job_specs(directory: Path, seed: int) -> list[JobSpec]:
    """The round's jobs, largest (most nets) first."""
    library = ModuleLibrary.standard()

    def load(name):
        return netlist_files.load_network_files(
            directory / f"{name}.net", directory / f"{name}.call",
            directory / f"{name}.io", library=library,
        )

    example1, example2 = load("example1"), load("example2")
    specs = [JobSpec.from_network(example1, PabloOptions(7, 7), name="fig6_1")]
    specs += [
        JobSpec.from_network(example2, PabloOptions(p, b), name=f"ex2_p{p}_b{b}")
        for p in (1, 3, 5, 7)
        for b in (1, 3, 5)
    ]
    specs += [
        JobSpec.from_network(datapath_network(lanes=lanes, stages=stages))
        for lanes in (1, 2, 3)
        for stages in (4, 6, 8)
    ]
    # Sizes spread evenly over 8-20 modules for every seed; the seed
    # changes the wiring.
    for i in range(RANDOM_JOBS):
        network = random_network(
            RandomNetworkSpec(
                modules=8 + round(i * 12 / (RANDOM_JOBS - 1)), seed=seed * 100_000 + i
            )
        )
        specs.append(JobSpec.from_network(network, name=f"random_s{seed}_{i}"))
    specs.sort(key=lambda s: (-len(json.loads(s.network_json)["nets"]), s.name))
    return specs


def start_engine(directory: Path, seed: int):
    """What a fresh start does before the first job can run."""
    specs = job_specs(directory, seed)
    cache = ResultCache(directory / "probe-cache")
    scheduler = BatchScheduler(
        max_workers=WORKERS, cache=cache, serial_threshold=SERIAL_THRESHOLD
    )
    return specs, cache, scheduler


def _round(inputs: Path, seed: int, work: Path, index: int) -> dict:
    """One ``artwork-batch`` invocation: load the jobs, run them on a
    fresh cache, write every ESCHER and SVG."""
    out = work / f"out{index}"
    out.mkdir()
    wall0, cpu0 = time.perf_counter(), harness.os_cpu_s()
    specs = job_specs(inputs, seed)
    cache = ResultCache(work / f"cache{index}")
    scheduler = BatchScheduler(
        max_workers=WORKERS, cache=cache, serial_threshold=SERIAL_THRESHOLD
    )
    outcomes = scheduler.run(specs)
    for outcome in outcomes:
        if outcome.ok:
            (out / f"{outcome.spec.name}.es").write_text(outcome.payload["escher"])
            svg.save_svg(outcome.load_diagram(), out / f"{outcome.spec.name}.svg")
    wall, cpu = time.perf_counter() - wall0, harness.os_cpu_s() - cpu0
    return {
        "wall": wall,
        "cpu": cpu,
        "outcomes": outcomes,
        "hits": cache.stats.hits,
        "serial_fast_path": scheduler.counters.get("service.serial_fast_path"),
    }


def run(seed: int, seconds: int, trace_dir: Path | None, work: Path) -> dict:
    inputs = work / "inputs"
    inputs.mkdir()
    write_inputs(inputs)
    setup = harness.time_fresh_starts(
        [sys.executable, str(harness.BENCH / "probe.py"), "batch", str(inputs), str(seed)],
        SETUP_STARTS,
    )
    rounds = max(1, round(seconds / ROUND_S))

    baseline = _round(inputs, seed, work, -1) if trace_dir is not None else None
    undo = layers.install(trace_dir) if trace_dir is not None else None
    try:
        done = [_round(inputs, seed, work, i) for i in range(rounds)]
    finally:
        if undo is not None:
            layers.uninstall(undo)

    problems: list[str] = []
    first: dict[str, str] = {}
    counts: dict[str, dict[str, int]] = {}
    ok = 0
    for rnd in ([baseline] if baseline else []) + done:
        if rnd["hits"] or rnd["serial_fast_path"]:
            problems.append(
                f"round: {rnd['hits']} cache hits, serial fast path "
                f"{rnd['serial_fast_path']} (both must be 0)"
            )
        for outcome in rnd["outcomes"]:
            name, payload = outcome.spec.name, outcome.payload or {}
            escher = payload.get("escher")
            if name not in first:
                job_problems = checks.check_payload(outcome.spec, payload)
                first[name] = escher
            elif escher != first[name]:
                job_problems = [f"{name}: ESCHER differs from an earlier round"]
            else:
                job_problems = []
            if outcome.attempts > 1:
                job_problems.append(f"{name}: retried ({outcome.attempts} attempts)")
            problems += job_problems
            if job_problems or not outcome.ok:
                continue
            if rnd is not baseline:
                ok += 1
            values = checks.payload_counts(payload)
            if counts.setdefault(name, values) != values:
                problems.append(f"{name}: counts {values} != {counts[name]} earlier this run")
    problems += harness.record_counts("batch", counts)

    outcomes = [o for rnd in done for o in rnd["outcomes"]]
    job_seconds = [o.payload["seconds"] for o in outcomes if o.payload]
    wall = sum(rnd["wall"] for rnd in done)
    cpu = sum(rnd["cpu"] for rnd in done)
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    e2e = {
        "setup_s": harness.median(setup),
        "cpu_s_per_job": statistics.median(rnd["cpu"] / len(rnd["outcomes"]) for rnd in done),
        "ok_frac": ok / len(outcomes),
        **harness.quality([o.metrics for o in outcomes if o.ok]),
        "peak_rss_mb": max(harness.proc_hwm_mb(os.getpid()), children_rss),
    }
    result = {
        "attempted": len(outcomes),
        "failed": len(outcomes) - ok,
        "problems": problems,
        "e2e": e2e,
        "samples": {"setup_s": len(setup), "cpu_s_per_job": rounds},
        "notes": {
            "job_s_p50": statistics.median(
                statistics.median(o.payload["seconds"] for o in rnd["outcomes"] if o.payload)
                for rnd in done
            ),
            "jobs_per_s": statistics.median(len(rnd["outcomes"]) / rnd["wall"] for rnd in done),
            "rounds": rounds,
            "jobs_per_round": len(done[0]["outcomes"]),
            "round_wall_s": wall / rounds,
        },
        "fresh_jobs": len(outcomes),
        "job_seconds": sum(job_seconds),
    }
    if baseline is not None:
        base_cpu = baseline["cpu"] / len(baseline["outcomes"])
        result["per_layer_extra"] = {
            "trace.overhead_frac": cpu / len(outcomes) / base_cpu - 1.0,
            "scheduler.exec_s": sum(job_seconds) / len(job_seconds),
            "scheduler.busy_frac": sum(job_seconds) / (WORKERS * wall),
            "scheduler.serial_fast_path": sum(rnd["serial_fast_path"] for rnd in done),
            "scheduler.retried": sum(o.attempts > 1 for o in outcomes),
        }
    return result
