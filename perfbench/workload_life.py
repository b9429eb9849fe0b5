"""``life``: the paper's 27-module, 222-net LIFE board, in-process.

One closed loop, one job at a time; the seed is unused.  A pass runs two
jobs through the same public functions the ``eureka`` and ``artwork``
commands call:

* fig 6.6, the ``eureka`` flow: net-list files plus the hand-placed
  ESCHER diagram -> EUREKA with ``--margin 14`` -> ESCHER and SVG;
* fig 6.7, the ``artwork`` flow: net-list files -> PABLO ``-p 7 -b 5``
  -> EUREKA (``--margin 14``) -> ESCHER and SVG.

Routing is nearly all of each job, so router changes show here and
service changes cannot.  A pass takes about 45 s on a 2-core Xeon VM,
longer than ``--seconds``, so a run always measures whole passes.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import repro.cli  # noqa: F401 - the program's entry module, part of every start
from repro.core import generator
from repro.core import metrics as core_metrics
from repro.formats import escher, netlist_files
from repro.formats.library import ModuleLibrary
from repro.place.pablo import PabloOptions
from repro.render import svg
from repro.route import eureka
from repro.workloads.life import hand_placement, life_network

import checks
import harness
import layers

ROUTER = eureka.RouterOptions(margin=14)
PABLO = PabloOptions(partition_size=7, box_size=5)
#: Grid pitch of the hand placement (figure 6.6).
HAND_PITCH = 24
#: Wall time of one pass on the reference machine; sets passes per run.
PASS_S = 45.0
SETUP_STARTS = 9


def write_inputs(directory: Path) -> None:
    netlist_files.save_network_files(life_network(), directory)
    escher.save_escher(hand_placement(pitch=HAND_PITCH), directory / "life_hand.es")


def _load_network(directory: Path):
    return netlist_files.load_network_files(
        directory / "life.net", directory / "life.call", directory / "life.io",
        library=ModuleLibrary.standard(),
    )


def load_inputs(directory: Path):
    """Everything a fresh start needs before the first job can run."""
    network = _load_network(directory)
    return network, escher.load_escher(directory / "life_hand.es", network)


def fig6_6(directory: Path, out: Path):
    """The ``eureka`` flow over the hand placement."""
    network = _load_network(directory)
    diagram = escher.load_escher(directory / "life_hand.es", network)
    report = eureka.route_diagram(diagram, ROUTER)
    escher.save_escher(diagram, out / "fig6_6.es")
    svg.save_svg(diagram, out / "fig6_6.svg")
    return diagram, report, core_metrics.diagram_metrics(diagram)


def fig6_7(directory: Path, out: Path):
    """The ``artwork`` flow: PABLO then EUREKA."""
    result = generator.generate(_load_network(directory), PABLO, ROUTER)
    svg.save_svg(result.diagram, out / "fig6_7.svg")
    escher.save_escher(result.diagram, out / "fig6_7.es")
    return result.diagram, result.routing, result.metrics


JOBS = (("fig6_6", fig6_6), ("fig6_7", fig6_7))


def _timed(job, directory: Path, out: Path) -> dict:
    wall0, cpu0 = time.perf_counter(), harness.os_cpu_s()
    diagram, report, row = job(directory, out)
    wall, cpu = time.perf_counter() - wall0, harness.os_cpu_s() - cpu0
    return {"wall": wall, "cpu": cpu, "diagram": diagram, "report": report, "row": row}


def run(seed: int, seconds: int, trace_dir: Path | None, work: Path) -> dict:
    del seed  # the LIFE board is fixed
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir()
    out.mkdir()
    write_inputs(inputs)
    setup = harness.time_fresh_starts(
        [sys.executable, str(harness.BENCH / "probe.py"), "life", str(inputs)],
        SETUP_STARTS,
    )
    passes = max(1, round(seconds / PASS_S))

    baseline = None
    undo = None
    if trace_dir is not None:
        baseline = _timed(fig6_6, inputs, out)  # untraced, for trace.overhead_frac
        undo = layers.install(trace_dir)
    done = []
    try:
        for _ in range(passes):
            for name, job in JOBS:
                done.append((name, _timed(job, inputs, out)))
    finally:
        if undo is not None:
            layers.uninstall(undo)

    problems, counts, ok = [], {}, 0
    for name, job in done + ([("fig6_6", baseline)] if baseline else []):
        job_problems = checks.check_routed(job["diagram"])
        problems += [f"{name}: {p}" for p in job_problems]
        if job is not baseline and not job_problems:
            ok += 1
        report = job["report"]
        values = {
            "states": report.search.states_expanded,
            "connections": report.search.routes,
            "routed": report.nets_routed,
        }
        if counts.setdefault(name, values) != values:
            problems.append(f"{name}: counts {values} != {counts[name]} earlier this run")
    problems += harness.record_counts("life", counts)

    walls = [job["wall"] for _, job in done]
    e2e = {
        "setup_s": harness.median(setup),
        "cpu_s_per_job": sum(job["cpu"] for _, job in done) / len(done),
        "ok_frac": ok / len(done),
        **harness.quality([dict(job["row"].as_row()) for _, job in done]),
        "peak_rss_mb": harness.proc_hwm_mb(os.getpid()),
    }
    result = {
        "attempted": len(done),
        "failed": len(done) - ok,
        "problems": problems,
        "e2e": e2e,
        "samples": {"setup_s": len(setup), "cpu_s_per_job": len(done)},
        "notes": {
            "job_s_p50": harness.median(walls),
            "jobs_per_s": len(done) / sum(walls),
            **{f"{name}_s": job["wall"] for name, job in done},
        },
        "fresh_jobs": len(done),
        "job_seconds": sum(walls),
    }
    if baseline is not None:
        traced = [job["cpu"] for name, job in done if name == "fig6_6"]
        result["per_layer_extra"] = {
            "trace.overhead_frac": harness.median(traced) / baseline["cpu"] - 1.0,
        }
    return result
