#!/usr/bin/env python
"""Fingerprint the placer's and router's default outputs, to show that a
change keeps them byte-identical.

For the ``repro`` tree on ``PYTHONPATH`` it prints one JSON object that
maps each job to ``[ESCHER sha256, route.expansions, route.connections,
nets routed, metrics row]``.  The metrics row is the job's Table 6.1 row
(``DiagramMetrics.as_row()``): ESCHER is written from the geometry, not
by the metrics code, so only the row shows a change in how bends,
crossovers, branch nodes or length are counted.  The 101 jobs:

* the 60 perfbench ``batch`` jobs of seeds 1 and 2, as
  ``perfbench/workload_batch.py`` lists them, run through
  ``execute_job``;
* the first 20 fresh perfbench ``serve`` jobs of seed 1
  (``perfbench/workload_serve.py``), random networks of every size from
  6 to 20 modules, run through ``execute_job``;
* figs 6.6 and 6.7, the perfbench ``life`` jobs (hand placement at pitch
  24, and PABLO ``-p 7 -b 5``, both routed with ``margin=14``);
* pinned-border runs at ``margin=0``, with every border pinned and with
  UP and LEFT pinned, over example 2 and the 8 seed-1 random networks;
* one PABLO ``-g`` run: example 2 with ``ctl`` and ``reg0`` preplaced,
  the rest placed around them with ``-p 5``, then routed.

``ARTWORK_*`` variables are removed from the environment before the
program loads, so fault injection or a sampler rate cannot change a run.

Usage::

    PYTHONPATH=/path/to/parent/src python scripts/route_fingerprint.py > parent.json
    PYTHONPATH=src python scripts/route_fingerprint.py --against parent.json

``benchmarks/route_fingerprint.json`` holds the committed tree's
fingerprints, and CI runs ``--against`` it.  A change that moves an
ESCHER byte, a search count or a metrics row regenerates it::

    PYTHONPATH=src python scripts/route_fingerprint.py > benchmarks/route_fingerprint.json

With ``--against FILE`` the exit code is 1 when any job's fingerprint
differs from the one in FILE (or is missing from either side).  Every
such job is named on stderr with whether its ESCHER and its metrics row
changed and its change in nets routed and in states
(``route.expansions``), and the closing line adds the totals of
both over all jobs on each side, so a change that moves outputs reports
its routing and search effort from one command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _key in [k for k in os.environ if k.startswith("ARTWORK_")]:
    del os.environ[_key]

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))

from repro.core.diagram import Diagram  # noqa: E402
from repro.core.generator import generate  # noqa: E402
from repro.core.geometry import Point, Side  # noqa: E402
from repro.core.metrics import diagram_metrics  # noqa: E402
from repro.formats.escher import write_escher  # noqa: E402
from repro.obs.counters import Registry, set_registry  # noqa: E402
from repro.place.pablo import PabloOptions  # noqa: E402
from repro.route.eureka import RouterOptions  # noqa: E402
from repro.service import JobSpec  # noqa: E402
from repro.service.scheduler import execute_job  # noqa: E402
from repro.workloads.examples import example2_controller  # noqa: E402

import workload_batch  # noqa: E402
import workload_life  # noqa: E402
import workload_serve  # noqa: E402

BATCH_SEEDS = (1, 2)
SERVE_JOBS = 20
PINNED = {
    "all": frozenset(Side),
    "up_left": frozenset({Side.UP, Side.LEFT}),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _job_fingerprint(spec: JobSpec) -> list:
    payload = execute_job(spec.to_dict())
    if payload.get("status") != "ok":
        return [payload.get("status"), payload.get("error")]
    counters = payload["counters"]["counters"]
    return [
        _sha(payload["escher"]),
        counters.get("route.expansions", 0),
        counters.get("route.connections", 0),
        payload["metrics"]["routed"],
        payload["metrics"],
    ]


def _run_fingerprint(run) -> list:
    """Fingerprint of ``run()``, which returns a routed diagram and its
    routing report, with its counters on a fresh registry."""
    registry = Registry()
    previous = set_registry(registry)
    try:
        diagram, report = run()
    finally:
        set_registry(previous)
    return [
        _sha(write_escher(diagram)),
        registry.get("route.expansions"),
        registry.get("route.connections"),
        report.nets_routed,
        dict(diagram_metrics(diagram).as_row()),
    ]


def _preplaced_run():
    network = example2_controller()
    preplaced = Diagram(network)
    preplaced.place_module("ctl", Point(100, 100))
    preplaced.place_module("reg0", Point(120, 100))
    result = generate(network, PabloOptions(partition_size=5), preplaced=preplaced)
    return result.diagram, result.routing


def fingerprints(work: Path) -> dict[str, list]:
    result: dict[str, list] = {}
    batch_inputs = work / "batch"
    batch_inputs.mkdir()
    workload_batch.write_inputs(batch_inputs)
    for seed in BATCH_SEEDS:
        for spec in workload_batch.job_specs(batch_inputs, seed):
            result[f"batch/s{seed}/{spec.name}"] = _job_fingerprint(spec)
    for index in range(SERVE_JOBS):
        spec = workload_serve._spec(1, index)
        result[f"serve/{spec.name}"] = _job_fingerprint(spec)

    life_inputs = work / "life"
    life_inputs.mkdir()
    workload_life.write_inputs(life_inputs)
    for name, job in (("fig6_6", workload_life.fig6_6), ("fig6_7", workload_life.fig6_7)):
        result[f"life/{name}"] = _run_fingerprint(
            lambda job=job: job(life_inputs, work)[:2]
        )

    specs = workload_batch.job_specs(batch_inputs, 1)
    networks = [s.build_network() for s in specs if s.name == "ex2_p1_b1"]
    networks += [s.build_network() for s in specs if s.name.startswith("random_s1_")]
    for label, sides in PINNED.items():
        router = RouterOptions(margin=0, fixed_sides=sides)
        for network in networks:
            spec = JobSpec.from_network(network, PabloOptions(), router)
            result[f"pinned/{label}/{network.name}"] = _job_fingerprint(spec)

    result["preplaced/ex2_ctl_reg0"] = _run_fingerprint(_preplaced_run)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Print the placer's and router's output fingerprints as JSON."
    )
    parser.add_argument(
        "--against",
        type=Path,
        metavar="FILE",
        help="compare with the fingerprints in FILE; exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="route-fingerprint-") as work:
        result = fingerprints(Path(work))
    print(json.dumps(result, indent=1, sort_keys=True))
    if args.against is None:
        return 0
    want = json.loads(args.against.read_text())
    differ = sorted(
        name for name in set(want) | set(result) if want.get(name) != result.get(name)
    )
    for name in differ:
        before, after = want.get(name), result.get(name)
        escher = "same" if _field(before, 0) == _field(after, 0) else "differs"
        metrics = "same" if _field(before, 4) == _field(after, 4) else "differs"
        print(
            f"differs: {name}: ESCHER {escher}, metrics {metrics}, "
            f"nets routed {_field(before, 3)} -> "
            f"{_field(after, 3)}, states {_field(before, 1)} -> {_field(after, 1)}",
            file=sys.stderr,
        )
    summary = f"{len(result)} jobs, {len(differ)} differ"
    if differ:
        summary += (
            f"; nets routed {_total(want, 3)} -> {_total(result, 3)}, "
            f"states {_total(want, 1)} -> {_total(result, 1)}"
        )
    print(summary, file=sys.stderr)
    return 1 if differ else 0


def _field(fingerprint: list | None, k: int):
    """Field ``k`` of a job's fingerprint, or ``None`` for a job that is
    missing or did not finish ``ok``."""
    if fingerprint is None or len(fingerprint) != 5:
        return None
    return fingerprint[k]


def _total(fingerprints: dict[str, list], k: int) -> int:
    """Field ``k`` summed over every job that finished ``ok``."""
    return sum(_field(f, k) or 0 for f in fingerprints.values())


if __name__ == "__main__":
    sys.exit(main())
