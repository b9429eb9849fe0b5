"""Daemon vs cold-batch throughput: the ``artwork-serve`` warm pool.

The gateway's reason to exist is cold-start elimination: a forked-once
pool with warm imports should push a 12-job batch through at a multiple
of what a per-run ``WorkerPool`` spin-up allows.  These rows
land next to the cold/warm batch numbers in ``BENCH_service.json``
(mode ``serve``), together with HTTP p50/p95 request latencies read off
the gateway's own ``gateway.request_s`` histogram.

Parallel *scaling* assertions are gated on the visible core count — on
a single-core runner four workers time-slice one CPU and no pool can
beat serial execution, so there the assertions pin the spin-up win
(daemon ≥ cold at equal workers) and the honest numbers are recorded
either way.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from conftest import once, print_table

from repro.gateway import GatewayConfig, HttpClient, start_gateway
from repro.service import BatchScheduler, JobSpec
from repro.workloads import batch_networks

BATCH = 12
MODULES = 7

#: Cores this process may actually use (CI runners often cap affinity).
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)
MULTI_CORE = CORES >= 2


def _specs() -> list[JobSpec]:
    nets = batch_networks(kind="random", count=BATCH, modules=MODULES, seed=500)
    return [JobSpec.from_network(n) for n in nets]


@pytest.fixture(scope="module")
def cold_reference() -> dict:
    """Cold 4-worker batch on a pool opened for the run, measured once:
    the daemon's rival."""
    specs = _specs()
    sched = BatchScheduler(max_workers=4, serial_threshold=None)
    started = time.perf_counter()
    outcomes = sched.run(specs)
    wall = time.perf_counter() - started
    assert all(o.ok for o in outcomes)
    return {
        "jobs": len(outcomes),
        "wall_s": round(wall, 3),
        "jobs_per_s": round(len(outcomes) / wall, 2),
    }


def _drive(client: HttpClient, specs: list[JobSpec]) -> tuple[list[str], float]:
    """Burst-submit every spec, then wait all jobs out; returns statuses
    and the first-submit-to-last-done wall time."""
    started = time.perf_counter()
    ids = [client.post("/v1/jobs", s.to_dict()).json()["id"] for s in specs]
    statuses = [
        client.get(f"/v1/jobs/{job_id}?wait=120").json()["status"] for job_id in ids
    ]
    return statuses, time.perf_counter() - started


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_serve_daemon(benchmark, experiment_store, workers):
    specs = _specs()
    # No cache: every job must do real pipeline work.
    handle = start_gateway(GatewayConfig(workers=workers, job_timeout=120.0))
    try:
        with HttpClient("127.0.0.1", handle.port) as client:
            # One warm-up job outside the timer (first-touch allocations).
            warmup, _ = _drive(client, specs[:1])
            assert warmup == ["ok"]

            statuses, wall = once(benchmark, lambda: _drive(client, specs))
            assert statuses == ["ok"] * len(specs)

            metrics_text = client.get("/metrics").body.decode()
        assert 'repro_service_job_wall_s{quantile="0.5"}' in metrics_text
        assert 'repro_service_job_wall_s{quantile="0.95"}' in metrics_text
        request_hist = handle.gateway.registry.snapshot()["histograms"][
            "gateway.request_s"
        ]
    finally:
        handle.stop()
    experiment_store[f"service_serve_w{workers}"] = {
        "workers": workers,
        "mode": "serve",
        "jobs": len(specs),
        "wall_s": round(wall, 3),
        "jobs_per_s": round(len(specs) / wall, 2),
        "hit_rate": 0.0,
        "http_p50_ms": round(request_hist["p50"] * 1000, 3),
        "http_p95_ms": round(request_hist["p95"] * 1000, 3),
        "http_requests": request_hist["count"],
    }


def test_bench_serial_fast_path(benchmark, experiment_store):
    """The in-process serial path ``artwork-batch`` now defaults to for
    sub-30ms jobs: no forks, no pickling, no pool at all."""
    specs = _specs()

    def serial():
        sched = BatchScheduler(max_workers=4)  # probe engages the fast path
        started = time.perf_counter()
        outcomes = sched.run(specs)
        return sched, outcomes, time.perf_counter() - started

    sched, outcomes, wall = once(benchmark, serial)
    assert all(o.ok for o in outcomes)
    assert (
        "service.serial_fast_path" in sched.counters.snapshot()["counters"]
    ), "probe did not engage the serial fast path for sub-30ms jobs"
    experiment_store["service_serial"] = {
        "workers": 0,
        "mode": "serial",
        "jobs": len(outcomes),
        "wall_s": round(wall, 3),
        "jobs_per_s": round(len(outcomes) / wall, 2),
        "hit_rate": 0.0,
    }


BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def test_bench_gateway_summary(experiment_store, cold_reference):
    """Daemon acceptance ratios + a partial BENCH_service.json upsert so
    running only this file still persists the serve rows."""
    rows = {
        key: experiment_store[key]
        for key in sorted(experiment_store)
        if key.startswith("service_serve") or key == "service_serial"
    }
    if not rows:
        pytest.skip("no serve rows recorded")
    table = [
        {"ref": "cold_w4", **cold_reference},
    ] + [
        {
            "ref": key.removeprefix("service_"),
            "jobs": r["jobs"],
            "wall_s": r["wall_s"],
            "jobs_per_s": r["jobs_per_s"],
        }
        for key, r in rows.items()
    ]
    print_table(f"serve daemon vs cold batch ({CORES} cores visible)", table)

    cold_jps = cold_reference["jobs_per_s"]
    serve1 = experiment_store["service_serve_w1"]["jobs_per_s"]
    serve4 = experiment_store["service_serve_w4"]["jobs_per_s"]
    serial = experiment_store["service_serial"]["jobs_per_s"]

    # Structural wins that hold on any hardware: the serial fast path and
    # a single warm worker both eliminate per-batch spawn cost, so
    # neither may lose to the cold 4-worker batch outright (0.9 slack
    # absorbs its run-to-run variance, which is large).
    assert serial >= 0.9 * cold_jps, (
        f"serial fast path ({serial}/s) lost to cold batch ({cold_jps}/s) — "
        "the cold-start regression is back"
    )
    assert serve1 >= 0.8 * cold_jps, (
        f"warm daemon ({serve1}/s, 1 worker) far slower than cold 4-worker "
        f"batch ({cold_jps}/s)"
    )
    if MULTI_CORE:
        # Real parallel hardware: scaling must be visible on top of the
        # spin-up elimination.  On a single visible core these cannot
        # hold (four workers time-slice one CPU), so there the honest
        # numbers are recorded above without the scaling gate.
        assert serve4 >= serve1, (
            f"4 warm workers ({serve4}/s) slower than 1 ({serve1}/s) "
            f"on {CORES} cores"
        )
        assert serve4 >= cold_jps, (
            f"warm daemon ({serve4}/s) under cold batch ({cold_jps}/s) "
            f"on {CORES} cores"
        )
    if os.environ.get("ARTWORK_BENCH_STRICT"):
        # The headline targets, for dedicated multi-core perf boxes
        # where scheduler noise is controlled (not the shared CI pool).
        assert serve4 >= 2.0 * cold_jps
        assert serve4 >= 1.3 * serve1

    # Upsert into BENCH_service.json (the service summary rewrites the
    # whole file when the full bench suite runs; this keeps a partial
    # gateway-only run honest too).
    existing = {}
    if BENCH_FILE.exists():
        existing = json.loads(BENCH_FILE.read_text())
    runs = [
        r
        for r in existing.get("runs", [])
        if (r.get("mode"), r.get("workers"))
        not in {(v["mode"], v["workers"]) for v in rows.values()}
    ]
    runs.extend(rows.values())
    existing.update(
        {
            "benchmark": "batch service throughput",
            "batch_jobs": BATCH,
            "modules_per_job": MODULES,
            "cold_reference": cold_reference,
            "cores_visible": CORES,
            "serve_w4_vs_cold": round(serve4 / cold_jps, 2),
            "serve_w1_vs_cold": round(serve1 / cold_jps, 2),
            "serial_vs_cold": round(serial / cold_jps, 2),
            "runs": runs,
        }
    )
    BENCH_FILE.write_text(json.dumps(existing, indent=1))
