"""Batch service throughput: cold vs warm cache across worker counts.

The service acceptance numbers: a warm second pass over the same batch
must be ≥90% cache hits and measurably faster than the cold pass, and
diagrams must not depend on the worker count.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from conftest import once, print_table

from repro.service import BatchScheduler, JobSpec, ResultCache
from repro.workloads import batch_networks

BATCH = 12
MODULES = 7


def _specs() -> list[JobSpec]:
    nets = batch_networks(kind="random", count=BATCH, modules=MODULES, seed=500)
    return [JobSpec.from_network(n) for n in nets]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_cold_batch(benchmark, experiment_store, tmp_path, workers):
    specs = _specs()

    def cold():
        # serial_threshold=None forces a WorkerPool opened for this run
        # so "cold" keeps measuring pool spin-up (the daemon/serial rows
        # in test_bench_gateway.py measure the warm alternatives).
        sched = BatchScheduler(
            max_workers=workers,
            cache=ResultCache(tmp_path / "c"),
            serial_threshold=None,
        )
        started = time.perf_counter()
        outcomes = sched.run(specs)
        return outcomes, time.perf_counter() - started

    outcomes, wall = once(benchmark, cold)
    assert all(o.ok for o in outcomes)
    experiment_store[f"service_cold_w{workers}"] = {
        "workers": workers,
        "mode": "cold",
        "jobs": len(outcomes),
        "wall_s": round(wall, 3),
        "jobs_per_s": round(len(outcomes) / wall, 2),
        "hit_rate": 0.0,
    }
    experiment_store.setdefault("service_escher", {})[workers] = [
        o.payload["escher"] for o in outcomes
    ]


def test_bench_warm_cache(benchmark, experiment_store, tmp_path):
    specs = _specs()
    cache = ResultCache(tmp_path / "warm")
    cold_sched = BatchScheduler(max_workers=4, cache=cache, serial_threshold=None)
    started = time.perf_counter()
    cold_sched.run(specs)
    cold_wall = time.perf_counter() - started

    def warm():
        sched = BatchScheduler(max_workers=4, cache=cache, serial_threshold=None)
        started = time.perf_counter()
        outcomes = sched.run(specs)
        return outcomes, time.perf_counter() - started

    outcomes, warm_wall = once(benchmark, warm)
    hits = sum(o.from_cache for o in outcomes)
    hit_rate = hits / len(outcomes)
    assert hit_rate >= 0.9, f"warm pass only {hits}/{len(outcomes)} cache hits"
    assert warm_wall < cold_wall, "warm cache failed to beat the cold pass"
    experiment_store["service_warm_w4"] = {
        "workers": 4,
        "mode": "warm",
        "jobs": len(outcomes),
        "wall_s": round(warm_wall, 3),
        "jobs_per_s": round(len(outcomes) / warm_wall, 2),
        "hit_rate": round(hit_rate, 3),
    }


#: Machine-readable perf trajectory, tracked across PRs at the repo root.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def test_bench_service_summary(experiment_store):
    """Print the aggregate service table; check worker-count invariance;
    persist the numbers as ``BENCH_service.json`` for cross-PR tracking."""
    escher = experiment_store.get("service_escher", {})
    baseline = escher.get(1)
    for workers, texts in escher.items():
        assert texts == baseline, f"workers={workers} changed the diagrams"
    rows = [
        experiment_store[key]
        for key in sorted(experiment_store)
        # Every service row: cold/warm batch plus the serial fast path
        # and serve-daemon rows test_bench_gateway.py contributes.
        if key.startswith("service_")
        and isinstance(experiment_store[key], dict)
        and "mode" in experiment_store[key]
    ]
    print_table("batch service throughput (cold vs warm cache)", rows)
    if rows:
        # Preserve keys other bench files contribute (the gateway bench
        # adds cold_reference / core-count / ratio context).
        payload = {}
        if BENCH_FILE.exists():
            try:
                payload = json.loads(BENCH_FILE.read_text())
            except json.JSONDecodeError:
                payload = {}
        payload.update(
            {
                "benchmark": "batch service throughput",
                "batch_jobs": BATCH,
                "modules_per_job": MODULES,
                "runs": rows,
            }
        )
        BENCH_FILE.write_text(json.dumps(payload, indent=1))
